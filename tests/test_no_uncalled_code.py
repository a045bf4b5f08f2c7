"""Every module- and class-level def in src/driveplan has a caller.

The scan is by name over the package's syntax trees: a def counts as
called when its name (or an import alias of it) appears as a name or an
attribute anywhere in src/driveplan outside the def's own body. Tests do
not count as callers, so code kept alive only by its own tests fails here.
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


def _defs(tree):
    """Every module-level def and every def in a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item


def _references(tree):
    """(name, line) of every name and attribute use, import aliases resolved."""
    aliases = {
        a.asname: a.name
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for a in node.names if a.asname
    }
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
        for node in _defs(tree):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue  # called by the language
            body = range(node.lineno, node.end_lineno + 1)
            if all(p == path and line in body for p, line in uses[node.name]):
                found[node.name] = f"{path.name}:{node.lineno}"
    return found


def test_every_def_has_a_caller():
    assert {n: at for n, at in uncalled().items() if n not in ALLOWED} == {}


def test_allowlist_is_current():
    # an allowed def that gained a caller, or is gone, leaves the list
    assert set(ALLOWED) <= set(uncalled())
