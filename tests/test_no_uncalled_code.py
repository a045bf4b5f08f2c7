"""Every module- and class-level def in src/driveplan has a caller, and
every defaulted parameter of such a def is passed by some call.

Both scans are by name over the package's syntax trees. A def counts as
called when its name (or an import alias of it) appears as a name or an
attribute anywhere in src/driveplan outside the def's own body. A
defaulted parameter counts as passed when some call of the def's name in
src/driveplan passes it by keyword or by position. Tests do not count as
callers, so code or a parameter kept alive only by its own tests fails
here.
"""
import ast
from collections import defaultdict
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "driveplan"

#: defs kept without a caller in the package, each with its reason
ALLOWED = {
    "check_bounds": "test oracle: the planner's bound sandwich, checked recursively",
    "is_feasible": "test oracle: a candidate's accel and yaw rate within the envelope",
    "check": "test oracle: AgentBelief's probability and weight sums",
    "save": "public API: ScenarioSpec.save, the inverse of ScenarioSpec.load",
}


#: defaulted parameters kept although no call in the package passes them,
#: as "def(parameter)", each with its reason
ALLOWED_DEFAULTS = {
    "main(argv)": "entry point: the console script passes nothing, tests pass argv",
    "generate_candidates(speed_scales)": "test seam: tests pin the candidate speed scales",
    "is_feasible(tol)": "test oracle: the tolerance of the envelope check",
}


def _defs(tree):
    """(def, enclosing class or None) of every module-level def and every
    def in a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node, None
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item, node


def _aliases(tree) -> dict[str, str]:
    return {
        a.asname: a.name
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for a in node.names if a.asname
    }


def _references(tree):
    """(name, line) of every name and attribute use, import aliases resolved."""
    aliases = _aliases(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield aliases.get(node.id, node.id), node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def uncalled() -> dict[str, str]:
    """name -> "file:line" of every def that nothing outside its body refers to."""
    trees = {p: ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))}
    uses = defaultdict(list)  # name -> [(path, line)]
    for path, tree in trees.items():
        for name, line in _references(tree):
            uses[name].append((path, line))
    found = {}
    for path, tree in trees.items():
        for node, _ in _defs(tree):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue  # called by the language
            body = range(node.lineno, node.end_lineno + 1)
            if all(p == path and line in body for p, line in uses[node.name]):
                found[node.name] = f"{path.name}:{node.lineno}"
    return found


def _calls(tree):
    """(name, positional count, keyword names) of every call, aliases resolved;
    a *args call passes every position and a **kwargs call every keyword."""
    aliases = _aliases(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name):
            name = aliases.get(node.func.id, node.func.id)
        elif isinstance(node.func, ast.Attribute):
            name = node.func.attr
        else:
            continue
        star = any(isinstance(a, ast.Starred) for a in node.args)
        n_pos = float("inf") if star else len(node.args)
        keywords = {k.arg for k in node.keywords}
        yield name, n_pos, keywords


def unpassed_defaults() -> dict[str, str]:
    """"def(parameter)" -> "file:line" of every defaulted parameter of a
    module- or class-level def that no call in the package passes."""
    trees = {p: ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))}
    calls = defaultdict(list)  # name -> [(positional count, keyword names)]
    for tree in trees.values():
        for name, n_pos, keywords in _calls(tree):
            calls[name].append((n_pos, keywords))
    found = {}
    for path, tree in trees.items():
        for node, cls in _defs(tree):
            if isinstance(node, ast.ClassDef) or (
                node.name.startswith("__") and node.name.endswith("__")
            ):
                continue  # a class, or called by the language
            # a method's first parameter is bound, not passed, unless static
            bound = cls is not None and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list
            )
            args = node.args
            positional = args.posonlyargs + args.args
            first_default = len(positional) - len(args.defaults)
            defaulted = [
                (a.arg, i - bound) for i, a in enumerate(positional) if i >= first_default
            ]
            defaulted += [
                (a.arg, None)
                for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
            ]
            for param, index in defaulted:
                passed = any(
                    param in keywords or None in keywords
                    or (index is not None and n_pos > index)
                    for n_pos, keywords in calls[node.name]
                )
                if not passed:
                    found[f"{node.name}({param})"] = f"{path.name}:{node.lineno}"
    return found


def test_every_def_has_a_caller():
    assert {n: at for n, at in uncalled().items() if n not in ALLOWED} == {}


def test_allowlist_is_current():
    # an allowed def that gained a caller, or is gone, leaves the list
    assert set(ALLOWED) <= set(uncalled())


def test_every_default_is_passed():
    assert {
        p: at for p, at in unpassed_defaults().items() if p not in ALLOWED_DEFAULTS
    } == {}


def test_default_allowlist_is_current():
    assert set(ALLOWED_DEFAULTS) <= set(unpassed_defaults())
