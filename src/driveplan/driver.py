"""Closed-loop parametric driver models.

Two behaviors cover urban driving here: lane / lane-connector following
(LF) and lane changes to either side (LC-L / LC-R). Longitudinal control
is IDM and lateral control is pure pursuit on a reference lane polyline.
The same models serve as exo-agent hypotheses and as ego macro-actions.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum

from .road import Lane, LaneId, RoadNetwork, lane_change_distance, project
from .util import clamp, mix, wrap_angle

VEHICLE_LENGTH = 4.5
VEHICLE_WIDTH = 2.0


class DriverError(Exception):
    pass


class IllegalIntention(DriverError):
    """Lane change toward a lane that does not exist."""


class IntentionKind(Enum):
    LF = 0
    LC_L = 1
    LC_R = 2


@dataclass(frozen=True, slots=True)
class Intention:
    kind: IntentionKind
    target_lane: LaneId | None = None  # set for LC kinds at commitment


LF = Intention(IntentionKind.LF)


@dataclass(frozen=True, slots=True)
class StyleParam:
    """Continuous style: IDM desired speed (LF) and pursuit lookahead (LC)."""

    v0: float = 10.0
    lookahead: float = 6.0


#: style bounds (v0 in m/s, lookahead in m)
V0_BOUNDS = (2.0, 20.0)
LOOKAHEAD_BOUNDS = (3.0, 15.0)


@dataclass(frozen=True, slots=True)
class IdmParams:
    a: float = 1.5  # max accel, m/s^2
    b: float = 2.0  # comfortable decel, m/s^2
    s0: float = 2.0  # min gap, m
    T: float = 1.5  # time headway, s
    # derived: 2*sqrt(a*b), the denominator of the dynamic gap term
    two_sqrt_ab: float = field(init=False, repr=False, compare=False, default=0.0)

    def __post_init__(self):
        object.__setattr__(self, "two_sqrt_ab", 2.0 * math.sqrt(self.a * self.b))


DEFAULT_IDM = IdmParams()
B_EMERGENCY = 6.0  # hard-brake bound, m/s^2
YAW_MAX = 1.5  # rad/s
LF_LOOKAHEAD = 6.0  # fixed lookahead for LF, m
GAP_EPS = 0.1  # degenerate-gap clamp, m
END_STOP_RANGE = 100.0  # m; a dead-end road edge starts acting as an obstacle

# LC completion thresholds
LC_DONE_D = 0.3  # m from target centerline
LC_DONE_HEADING = 0.1  # rad from target tangent


@dataclass(slots=True)
class PhysicalState:
    """Kinematic state of one agent, with its lane-frame anchor."""

    x: float
    y: float
    heading: float
    speed: float
    accel: float = 0.0
    yaw_rate: float = 0.0
    lane: LaneId = 0
    s: float = 0.0
    d: float = 0.0


def make_state(
    network: RoadNetwork,
    position: tuple[float, float],
    heading: float,
    speed: float,
    hint: LaneId | None = None,
) -> PhysicalState:
    """Build a PhysicalState with a consistent lane anchor."""
    lane, s, d = project(network, position, hint)
    return PhysicalState(position[0], position[1], heading, speed, lane=lane, s=s, d=d)


def idm_accel(
    v: float,
    v0: float,
    gap: float,
    lead_speed: float = 0.0,
) -> float:
    """IDM acceleration (DEFAULT_IDM, exponent 4); gap=inf means free road.
    Clamped to [-B_EMERGENCY, a]."""
    params = DEFAULT_IDM
    r = v / v0
    r *= r
    free = 1.0 - r * r
    if math.isinf(gap):
        acc = params.a * free
    else:
        gap = max(gap, GAP_EPS)
        dv = v - lead_speed
        # dynamic part clamped at 0 so a fast leader cannot shrink s* below s0;
        # keeps the law monotone in (v, gap, lead_speed)
        dyn = v * params.T + v * dv / params.two_sqrt_ab
        s_star = params.s0 + max(0.0, dyn)
        acc = params.a * (free - (s_star / gap) ** 2)
    return clamp(acc, -B_EMERGENCY, params.a)


class RefPath:
    """A chain of lanes concatenated into one arc-length reference path."""

    __slots__ = ("lane_ids", "offsets", "lanes", "length", "_segs")

    def __init__(self, lanes: list[Lane]):
        self.lane_ids = tuple(ln.id for ln in lanes)
        self.lanes = lanes
        self.offsets: dict[LaneId, float] = {}
        off = 0.0
        for ln in lanes:
            self.offsets[ln.id] = off
            off += ln.length
        self.length = off
        self._segs = [(self.offsets[ln.id], ln) for ln in lanes]

    def point_xy(self, s: float) -> tuple[float, float]:
        """Centerline point at arc length s (clamped to the chain)."""
        s = clamp(s, 0.0, self.length)
        for off, ln in self._segs:
            if s <= off + ln.length:
                break
        else:
            off, ln = self._segs[-1]
        sl = clamp(s - off, 0.0, ln.length)
        cum = ln.cum
        if len(cum) == 2:
            i = 0
        else:
            i = bisect_right(cum, sl) - 1
            if i >= len(ln.seg_heading):
                i = len(ln.seg_heading) - 1
        t = sl - cum[i]
        x0, y0 = ln.centerline[i]
        ux, uy = ln.seg_unit[i]
        return x0 + t * ux, y0 + t * uy

    def project(self, x: float, y: float) -> tuple[float, float]:
        """(s, d) of the closest point over the whole chain."""
        best = None
        for ln in self.lanes:
            s, d = ln.project_local(x, y)
            if best is None or abs(d) < abs(best[1]):
                best = (self.offsets[ln.id] + s, d)
        assert best is not None
        return best


def _choose_successor(lane_id, succ, network, goal, rng_seed) -> LaneId:
    """Successor to follow past the end of lane_id (succ is non-empty).

    Goal-directed (min lane hops to goal, ties to lowest id) when a goal is
    given; otherwise a fixed uniform draw from (rng_seed, lane id).
    """
    if len(succ) == 1:
        return succ[0]
    if goal is not None:
        return min(succ, key=lambda lid: (lane_change_distance(network, lid, goal), lid))
    return succ[mix(rng_seed, lane_id) % len(succ)]


REF_MIN_LENGTH = 80.0  # m of path kept ahead of the end of the anchor lane


def reference_path(
    network: RoadNetwork,
    start_lane: LaneId,
    goal: LaneId | None,
    rng_seed: int,
) -> RefPath:
    """Reference path from start_lane, extended along chosen successors.

    The chain covers the whole start lane plus at least REF_MIN_LENGTH
    beyond its end (where successors exist), so an agent anywhere on the
    start lane always has REF_MIN_LENGTH of path ahead to steer toward.
    """
    ref_key = (start_lane, goal, rng_seed)
    cached = network._ref_cache.get(ref_key)
    if cached is not None:
        return cached
    chain = [start_lane]
    length = network.lanes[start_lane].length
    need = length + REF_MIN_LENGTH
    while length < need:
        succ = network.lanes[chain[-1]].successors
        if not succ:
            break
        nxt = _choose_successor(chain[-1], succ, network, goal, rng_seed)
        if nxt in chain:
            break  # loop guard
        chain.append(nxt)
        length += network.lanes[nxt].length
    key = tuple(chain)
    path = network._path_cache.get(key)
    if path is None:
        path = RefPath([network.lanes[lid] for lid in chain])
        network._path_cache[key] = path
    network._ref_cache[ref_key] = path
    return path


def _leader_on_path(path: RefPath, arc_self: float, neighbors) -> tuple[float, float]:
    """(gap, lead_speed) to the nearest agent ahead on the path, or (inf, 0)."""
    best_gap = math.inf
    best_speed = 0.0
    offsets = path.offsets
    for other in neighbors:
        off = offsets.get(other.lane)
        if off is None:
            continue
        arc = off + other.s
        if arc <= arc_self:
            continue
        gap = arc - arc_self - VEHICLE_LENGTH
        if gap < best_gap:
            best_gap = gap
            best_speed = other.speed
    return best_gap, best_speed


def legal_intentions(network: RoadNetwork, lane_id: LaneId) -> list[Intention]:
    """Intentions realizable from a lane: LF always, LCs where neighbors exist."""
    lane = network.lanes[lane_id]
    out = [LF]
    if lane.left_neighbor is not None:
        out.append(Intention(IntentionKind.LC_L, lane.left_neighbor))
    if lane.right_neighbor is not None:
        out.append(Intention(IntentionKind.LC_R, lane.right_neighbor))
    return out


def _adjacent(network: RoadNetwork, lane_id: LaneId, target_id: LaneId) -> bool:
    """Whether target_id is lane_id itself or one of its lateral neighbors."""
    anchor = network.lanes[lane_id]
    return target_id in (lane_id, anchor.left_neighbor, anchor.right_neighbor)


def settle_lane_change(
    network: RoadNetwork, state: PhysicalState, intention: Intention
) -> Intention:
    """The lane-change completion rule, applied to a state after its step.

    A change whose target is no longer adjacent to the anchor lane (it
    ended at a split while the change was under way) is given up: LF. A
    change within LC_DONE_D of the target centerline and LC_DONE_HEADING of
    its tangent is complete: LF, and the state is re-anchored to the target
    in place. Any other intention is returned unchanged.
    """
    if intention.kind == IntentionKind.LF:
        return intention
    if not _adjacent(network, state.lane, intention.target_lane):
        return LF
    target = network.lanes[intention.target_lane]
    st, d = target.project_local(state.x, state.y)
    _, tangent = target.point_at(st)
    if abs(d) < LC_DONE_D and abs(wrap_angle(state.heading - tangent)) < LC_DONE_HEADING:
        state.lane, state.s, state.d = target.id, st, d
        return LF
    return intention


def step_driver(
    state: PhysicalState,
    intention: Intention,
    style: StyleParam,
    neighbors: list[PhysicalState],
    network: RoadNetwork,
    dt: float,
    goal_lane: LaneId | None = None,
    connector_seed: int = 0,
) -> tuple[PhysicalState, Intention]:
    """Advance one agent by dt under its driver model.

    LF follows the current lane (and chosen connectors) with pure pursuit
    and IDM toward style.v0. LC pursues the target-lane centerline with
    lookahead style.lookahead while IDM follows the most constraining
    leader across current and target paths. Returns the new state and the
    intention left by settle_lane_change: a finished or abandoned lane
    change becomes LF.

    Pure function: identical inputs give bit-identical outputs.
    """
    if not 0.0 < dt <= 0.5:
        raise DriverError(f"dt={dt} outside (0, 0.5]")

    # reference_path's cache probe, inlined: this function is the
    # innermost loop of every simulation and rollout
    own_path = network._ref_cache.get((state.lane, goal_lane, connector_seed))
    if own_path is None:
        own_path = reference_path(network, state.lane, goal_lane, connector_seed)
    off = own_path.offsets.get(state.lane)
    if off is not None:
        arc_self = off + state.s
    else:  # anchor drifted off the chain; re-project
        arc_self, _ = own_path.project(state.x, state.y)

    if intention.kind != IntentionKind.LF:
        tid = intention.target_lane
        if tid is None or tid not in network.lanes:
            raise IllegalIntention(f"{intention.kind.name} without a valid target lane")
        if not _adjacent(network, state.lane, tid):
            # an intention handed in from outside (e.g. a filter particle
            # whose jittered state projected onto another lane) may target
            # a lane out of lateral reach; steering toward its clamped
            # endpoint would spiral, so give up the change
            intention = LF

    steer_arc = arc_self
    if intention.kind == IntentionKind.LF:
        steer_path = own_path
        lookahead = LF_LOOKAHEAD
        gap, lead_speed = _leader_on_path(own_path, arc_self, neighbors)
    else:
        steer_path = reference_path(network, intention.target_lane, goal_lane, connector_seed)
        lookahead = style.lookahead
        gap, lead_speed = _leader_on_path(own_path, arc_self, neighbors)
        t_arc, _ = steer_path.project(state.x, state.y)
        steer_arc = t_arc
        t_gap, t_speed = _leader_on_path(steer_path, t_arc, neighbors)
        # most constraining of current-lane and target-lane leaders
        if idm_accel(state.speed, style.v0, t_gap, t_speed) < idm_accel(
            state.speed, style.v0, gap, lead_speed
        ):
            gap, lead_speed = t_gap, t_speed

    if not own_path.lanes[-1].successors:
        end_gap = own_path.length - arc_self - VEHICLE_LENGTH
        if end_gap < END_STOP_RANGE and end_gap < gap:
            gap, lead_speed = end_gap, 0.0

    accel = idm_accel(state.speed, style.v0, gap, lead_speed)

    tx, ty = steer_path.point_xy(steer_arc + lookahead)
    alpha = wrap_angle(math.atan2(ty - state.y, tx - state.x) - state.heading)
    kappa = 2.0 * math.sin(alpha) / lookahead
    yaw = clamp(kappa * state.speed, -YAW_MAX, YAW_MAX)

    speed = state.speed
    heading = state.heading
    new = PhysicalState(
        state.x + speed * dt * math.cos(heading),
        state.y + speed * dt * math.sin(heading),
        wrap_angle(heading + yaw * dt),
        max(0.0, speed + accel * dt),
        accel,
        yaw,
        state.lane,
        state.s,
        state.d,
    )

    # re-anchor; the common case (still inside the same lane, not clamped at
    # its end) is resolved inline, everything else falls back to the full
    # tiered projection
    ln = network.lanes[state.lane]
    s, d = ln.project_local(new.x, new.y)
    if (d if d >= 0.0 else -d) <= ln.width * 0.5 and not (
        s >= ln.length - 1e-9 and ln.successors
    ):
        new.lane, new.s, new.d = state.lane, s, d
    else:
        lane, s, d = project(network, (new.x, new.y), hint=state.lane)
        new.lane, new.s, new.d = lane, s, d

    return new, settle_lane_change(network, new, intention)
