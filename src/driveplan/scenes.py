"""Scenario specifications and synthetic scene generation.

A ScenarioSpec describes the world of one episode: road network, ego
start and goal, per exo-agent ground truth (initial state, intention,
style), episode length, and the master seed. Observation noise belongs to
the run's Config, not to the spec. Templates generate families of specs
at desk scale in place of recorded datasets.
"""
from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from .driver import Intention, IntentionKind, LF, StyleParam, make_state
from .pomdp import DT, ExoAgent
from .road import Lane, LaneId, NoLaneWithinRadius, RoadError, RoadNetwork, project
from .util import fits, mix

TEMPLATES = ("merge", "junction", "multilane")
LANE_WIDTH = 3.5


class SpecValidationError(Exception):
    """Invalid scenario spec; message lists field-level diagnostics."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("; ".join(problems))


class UnknownTemplate(Exception):
    pass


@dataclass
class LaneSpec:
    id: int
    centerline: list[tuple[float, float]]
    width: float = LANE_WIDTH
    successors: list[int] = field(default_factory=list)
    left_neighbor: int | None = None
    right_neighbor: int | None = None


@dataclass
class ExoSpec:
    id: int
    x: float
    y: float
    heading: float
    speed: float
    intention: str  # "LF" | "LC_L" | "LC_R"
    target_lane: int | None = None  # required for LC intentions
    v0: float = 8.0
    lookahead: float = 6.0
    connector_seed: int = 0


@dataclass
class ScenarioSpec:
    name: str
    lanes: list[LaneSpec]
    goal_lane: int
    ego_x: float
    ego_y: float
    ego_heading: float
    ego_speed: float
    exos: list[ExoSpec] = field(default_factory=list)
    episode_s: float = 40.0
    seed: int = 0

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data) -> "ScenarioSpec":
        """The spec a JSON document describes.

        Raises SpecValidationError naming the unknown and missing keys of
        the first part that has any, or a part that is not an object;
        validate() checks the values.
        """
        top = _keys_checked(cls, data, "")
        parts = {}
        for name, part in (("lanes", LaneSpec), ("exos", ExoSpec)):
            items = top.get(name, [])
            if not isinstance(items, list):
                raise SpecValidationError([f"{name}: expected a list, got {items!r}"])
            parts[name] = [
                part(**_keys_checked(part, item, f"{name}[{i}]"))
                for i, item in enumerate(items)
            ]
        for ls in parts["lanes"]:
            ls.centerline = _points(ls.centerline)
        return cls(**{**top, **parts})

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)

    @classmethod
    def load(cls, path) -> "ScenarioSpec":
        with open(path) as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:  # malformed JSON or undecodable bytes
                raise SpecValidationError([f"{path}: not valid JSON: {exc}"]) from None
        return cls.from_dict(data)

    # ------------------------------------------------------------------
    def validate(self) -> RoadNetwork:
        """Check the spec and return the constructed network.

        Raises SpecValidationError listing every problem: a value of the
        wrong type or a non-finite number, a bad reference or range, and an
        ego or exo start that projects onto no lane.
        """
        problems = _type_problems(self, "")
        for i, ls in enumerate(self.lanes):
            problems += _type_problems(ls, f"lanes[{i}].")
        for i, e in enumerate(self.exos):
            problems += _type_problems(e, f"exos[{i}].")
        if problems:
            raise SpecValidationError(problems)
        lane_ids = {ls.id for ls in self.lanes}
        if len(lane_ids) != len(self.lanes):
            problems.append("lanes: duplicate ids")
        if self.goal_lane not in lane_ids:
            problems.append(f"goal_lane: {self.goal_lane} not among lane ids")
        n_ticks = self.episode_s / DT
        if abs(n_ticks - round(n_ticks)) > 1e-9 or self.episode_s <= 0:
            problems.append(f"episode_s: {self.episode_s} not a positive multiple of {DT}")
        if self.ego_speed < 0:
            problems.append("ego_speed: negative")
        seen = set()
        for e in self.exos:
            tag = f"exo {e.id}"
            if e.id in seen:
                problems.append(f"{tag}: duplicate id")
            seen.add(e.id)
            if e.speed < 0:
                problems.append(f"{tag}: negative speed")
            if e.intention not in IntentionKind.__members__:
                problems.append(f"{tag}: unknown intention {e.intention!r}")
            elif e.intention != "LF":
                if e.target_lane is None:
                    problems.append(f"{tag}: {e.intention} without target_lane")
                elif e.target_lane not in lane_ids:
                    problems.append(f"{tag}: target_lane {e.target_lane} not a lane")
            if e.v0 <= 0:
                problems.append(f"{tag}: non-positive v0")
            if e.lookahead <= 0:
                problems.append(f"{tag}: non-positive lookahead")
        network = None
        if not problems:
            try:
                network = build_network(self)
            except RoadError as exc:
                problems.append(f"lanes: {exc}")
        if network is not None:
            starts = [("ego", self.ego_x, self.ego_y)]
            starts += [(f"exo {e.id}", e.x, e.y) for e in self.exos]
            for tag, x, y in starts:
                try:
                    project(network, (x, y))
                except NoLaneWithinRadius as exc:
                    problems.append(f"{tag}: start ({x}, {y}) is on no lane: {exc}")
        if problems:
            raise SpecValidationError(problems)
        return network

    def n_ticks(self) -> int:
        return round(self.episode_s / DT)


def _keys_checked(cls, data, path: str) -> dict:
    """data, the JSON form of dataclass cls at `path`; raises
    SpecValidationError naming each unknown or missing key, or data that
    is not an object."""
    if not isinstance(data, dict):
        raise SpecValidationError([f"{path or 'spec'}: expected a JSON object, got {data!r}"])
    prefix = f"{path}." if path else ""
    known = {f.name: f for f in fields(cls)}
    problems = [f"{prefix}{k}: unknown field" for k in data if k not in known]
    problems += [
        f"{prefix}{k}: missing"
        for k, f in known.items()
        if k not in data and f.default is MISSING and f.default_factory is MISSING
    ]
    if problems:
        raise SpecValidationError(problems)
    return data


def _points(centerline):
    """JSON [x, y] pairs as tuples; any other shape is left for validate()."""
    if not isinstance(centerline, list):
        return centerline
    return [tuple(p) if isinstance(p, list) else p for p in centerline]


def _type_problems(obj, prefix: str) -> list[str]:
    """One problem per field of dataclass obj whose value misfits its annotation."""
    return [
        f"{prefix}{f.name}: expected {f.type}, got {getattr(obj, f.name)!r}"
        for f in fields(obj)
        if not fits(f.type, getattr(obj, f.name))
    ]


def build_network(spec: ScenarioSpec) -> RoadNetwork:
    lanes = [
        Lane(
            ls.id,
            [tuple(p) for p in ls.centerline],
            width=ls.width,
            successors=tuple(ls.successors),
            left_neighbor=ls.left_neighbor,
            right_neighbor=ls.right_neighbor,
        )
        for ls in spec.lanes
    ]
    return RoadNetwork(lanes, goal_lane=spec.goal_lane)


def ground_truth_agents(spec: ScenarioSpec, network: RoadNetwork) -> list[ExoAgent]:
    """Instantiate the true exo-agents with anchored physical states."""
    agents = []
    for e in spec.exos:
        state = make_state(network, (e.x, e.y), e.heading, e.speed)
        kind = IntentionKind[e.intention]
        intention = LF if kind == IntentionKind.LF else Intention(kind, e.target_lane)
        agents.append(
            ExoAgent(e.id, state, intention, StyleParam(e.v0, e.lookahead), e.connector_seed)
        )
    return agents


# ----------------------------------------------------------------------
# templates


def _merge_lanes() -> list[LaneSpec]:
    """Two 800 m through lanes split at x = 150, plus a ramp merging into
    the right lane's second segment."""
    split = 150.0
    main_length = 800.0
    right1 = LaneSpec(0, [(0.0, 0.0), (split, 0.0)], successors=[2], left_neighbor=1)
    left1 = LaneSpec(1, [(0.0, LANE_WIDTH), (split, LANE_WIDTH)], successors=[3], right_neighbor=0)
    right2 = LaneSpec(2, [(split, 0.0), (main_length, 0.0)], left_neighbor=3)
    left2 = LaneSpec(3, [(split, LANE_WIDTH), (main_length, LANE_WIDTH)], right_neighbor=2)
    ramp = LaneSpec(4, [(40.0, -6.0), (110.0, -6.0)], successors=[5])
    conn = LaneSpec(
        5,
        [(110.0, -6.0), (125.0, -5.0), (138.0, -3.0), (146.0, -1.2), (split, 0.0)],
        successors=[2],
    )
    return [right1, left1, right2, left2, ramp, conn]


def _merge(seed: int, n_exo: int) -> ScenarioSpec:
    rng = np.random.Generator(np.random.PCG64(mix(seed, 0x5CE2E)))
    lanes = _merge_lanes()
    ego_x = 20.0 + rng.uniform(-5.0, 5.0)
    ego_speed = 10.0 + rng.uniform(-1.0, 1.0)
    exos: list[ExoSpec] = []
    roster = [
        # a vehicle ahead in the left lane whose true plan is to cut into
        # the ego's lane; from observations alone LF is equally plausible
        ExoSpec(
            1,
            ego_x + 9.0 + rng.uniform(0.0, 3.0),
            LANE_WIDTH,
            0.0,
            5.0 + rng.uniform(-0.4, 0.4),
            "LC_R",
            target_lane=0,
            v0=5.0 + rng.uniform(-0.4, 0.4),
            lookahead=6.0 + rng.uniform(-1.0, 1.0),
        ),
        # traffic entering from the ramp
        ExoSpec(
            2,
            60.0 + rng.uniform(-5.0, 5.0),
            -6.0,
            0.0,
            6.0 + rng.uniform(-0.5, 0.5),
            "LF",
            v0=6.0 + rng.uniform(-0.5, 0.5),
        ),
        # stopped vehicles on the right lane past the merge
        ExoSpec(3, 210.0 + rng.uniform(0.0, 4.0), 0.0, 0.0, 0.0, "LF", v0=2.0),
        ExoSpec(4, 222.0 + rng.uniform(0.0, 4.0), 0.0, 0.0, 0.0, "LF", v0=2.0),
        ExoSpec(
            5,
            260.0 + rng.uniform(0.0, 10.0),
            LANE_WIDTH,
            0.0,
            4.0,
            "LF",
            v0=4.0 + rng.uniform(-0.5, 0.5),
        ),
    ]
    exos = roster[:n_exo]
    return ScenarioSpec(
        name=f"merge-{seed}",
        lanes=lanes,
        goal_lane=3,
        ego_x=ego_x,
        ego_y=0.0,
        ego_heading=0.0,
        ego_speed=ego_speed,
        exos=exos,
        seed=seed,
    )


def _junction(seed: int, n_exo: int) -> ScenarioSpec:
    rng = np.random.Generator(np.random.PCG64(mix(seed, 0x10C7)))
    r = 20.0
    arc = [
        (50.0 + r * math.sin(a), r * (1.0 - math.cos(a)))
        for a in [math.pi / 2 * i / 8 for i in range(9)]
    ]
    lanes = [
        LaneSpec(0, [(-80.0, 0.0), (50.0, 0.0)], successors=[1, 3]),
        LaneSpec(1, arc, successors=[2]),
        LaneSpec(2, [(70.0, 20.0), (70.0, 400.0)]),
        LaneSpec(3, [(50.0, 0.0), (400.0, 0.0)]),
    ]
    exos = []
    for i in range(n_exo):
        exos.append(
            ExoSpec(
                i + 1,
                -40.0 + 18.0 * i + rng.uniform(-3.0, 3.0),
                0.0,
                0.0,
                5.0 + rng.uniform(-1.0, 1.0),
                "LF",
                v0=5.0 + rng.uniform(-1.0, 2.0),
                connector_seed=int(rng.integers(0, 2**31)),
            )
        )
    return ScenarioSpec(
        name=f"junction-{seed}",
        lanes=lanes,
        goal_lane=2,
        ego_x=-70.0 + rng.uniform(-5.0, 5.0),
        ego_y=0.0,
        ego_heading=0.0,
        ego_speed=8.0 + rng.uniform(-1.0, 1.0),
        exos=exos,
        seed=seed,
    )


def _multilane(seed: int, n_exo: int) -> ScenarioSpec:
    rng = np.random.Generator(np.random.PCG64(mix(seed, 0x31A9E)))
    n_lanes = 3
    length = 700.0
    lanes = [
        LaneSpec(
            i,
            [(0.0, i * LANE_WIDTH), (length, i * LANE_WIDTH)],
            left_neighbor=i + 1 if i + 1 < n_lanes else None,
            right_neighbor=i - 1 if i > 0 else None,
        )
        for i in range(n_lanes)
    ]
    exos = []
    for i in range(n_exo):
        lane = int(rng.integers(0, n_lanes))
        kinds = ["LF"]
        if lane + 1 < n_lanes:
            kinds.append("LC_L")
        if lane > 0:
            kinds.append("LC_R")
        kind = kinds[int(rng.integers(0, len(kinds)))]
        target = None
        if kind == "LC_L":
            target = lane + 1
        elif kind == "LC_R":
            target = lane - 1
        exos.append(
            ExoSpec(
                i + 1,
                60.0 + 25.0 * i + rng.uniform(-8.0, 8.0),
                lane * LANE_WIDTH,
                0.0,
                6.0 + rng.uniform(-1.5, 1.5),
                kind,
                target_lane=target,
                v0=6.0 + rng.uniform(-1.5, 2.5),
            )
        )
    return ScenarioSpec(
        name=f"multilane-{seed}",
        lanes=lanes,
        goal_lane=0,
        ego_x=20.0 + rng.uniform(-5.0, 5.0),
        ego_y=2 * LANE_WIDTH,
        ego_heading=0.0,
        ego_speed=9.0 + rng.uniform(-1.0, 1.0),
        exos=exos,
        seed=seed,
    )


def generate_scene(template: str, seed: int = 0, n_exo: int | None = None) -> ScenarioSpec:
    """Deterministically generate a spec from a named template."""
    builders = {"merge": (_merge, 4), "junction": (_junction, 2), "multilane": (_multilane, 3)}
    if template not in builders:
        raise UnknownTemplate(f"{template!r}; known: {sorted(builders)}")
    build, default_n = builders[template]
    spec = build(seed, default_n if n_exo is None else n_exo)
    spec.validate()
    return spec
