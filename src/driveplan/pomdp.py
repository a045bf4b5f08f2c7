"""POMDP model: ego macro-actions, joint forward simulation, reward.

Macro-actions are the driver models themselves (LF 2 s, LC 4 s), simulated
at dt = 0.2 s. A scenario determinizes every exo-agent's (state, intention,
style) and all noise draws, so simulate() is a pure function.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .driver import (
    VEHICLE_LENGTH,
    VEHICLE_WIDTH,
    Intention,
    IntentionKind,
    LF,
    PhysicalState,
    StyleParam,
    step_driver,
)
from .observation import AgentId, AgentObs, Observation, ObservationNoise
from .road import UNREACHABLE, LaneId, RoadNetwork, lane_change_distance
from .util import mix

DT = 0.2
LF_DURATION = 2.0
LC_DURATION = 4.0
#: cap on goal distance when the goal is unreachable from the current lane
D_GOAL_CAP = 6.0

EGO_STYLE = StyleParam(v0=10.0, lookahead=6.0)


@dataclass(frozen=True, slots=True)
class MacroAction:
    kind: IntentionKind
    duration: float
    ego_style: StyleParam = EGO_STYLE

    @property
    def ticks(self) -> int:
        return round(self.duration / DT)


def macro_action(kind: IntentionKind) -> MacroAction:
    dur = LF_DURATION if kind == IntentionKind.LF else LC_DURATION
    return MacroAction(kind, dur)


#: fixed enumeration order for deterministic tie-breaks: LF < LC-L < LC-R
ACTION_ORDER = (IntentionKind.LF, IntentionKind.LC_L, IntentionKind.LC_R)


@dataclass(frozen=True, slots=True)
class RewardWeights:
    w_coll: float = 10.0
    w_eff: float = 0.05
    w_goal: float = 0.1
    k_goal: float = 1.0
    w_lc: float = 0.3
    v_des_ego: float = 10.0
    gamma: float = 0.98  # per tick


@dataclass(slots=True)
class ExoAgent:
    id: AgentId
    state: PhysicalState
    intention: Intention
    style: StyleParam
    connector_seed: int


@dataclass(slots=True)
class Scenario:
    """One determinized joint sample: ego + all exo (x, m, theta) + noise seed."""

    ego: PhysicalState
    exos: list[ExoAgent]
    noise_seed: int
    ego_intention: Intention = LF


@dataclass(slots=True)
class SimOutcome:
    states: list[PhysicalState]  # ego state per simulated tick
    reward: float  # discounted from the root tick
    terminal: bool
    end: Scenario  # scenario advanced to the end of the segment


def legal_actions(
    ego: PhysicalState,
    network: RoadNetwork,
    in_progress: Intention | None = None,
) -> list[MacroAction]:
    """Feasible macro-actions: LF always; LC only toward an existing neighbor
    and never sideways while another LC is still mid-execution."""
    lane = network.lanes[ego.lane]
    out = [macro_action(IntentionKind.LF)]
    mid_lc = in_progress is not None and in_progress.kind != IntentionKind.LF
    for kind, neighbor in (
        (IntentionKind.LC_L, lane.left_neighbor),
        (IntentionKind.LC_R, lane.right_neighbor),
    ):
        if mid_lc and in_progress.kind != kind:
            continue
        if mid_lc and in_progress.kind == kind:
            out.append(macro_action(kind))
        elif neighbor is not None:
            out.append(macro_action(kind))
    return out


def goal_distance(network: RoadNetwork, lane: LaneId) -> float:
    d = lane_change_distance(network, lane, network.goal_lane)
    return D_GOAL_CAP if d == UNREACHABLE else min(d, D_GOAL_CAP)


def step_reward(
    ego_speed: float,
    d_goal: float,
    collided: bool,
    lc_initiated: bool,
    weights: RewardWeights,
) -> float:
    """Per-tick penalty: cubic collision, linear speed deviation,
    exponential goal-lane deviation, constant lane-change charge."""
    r = 0.0
    if collided:
        r -= weights.w_coll * (1.0 + ego_speed) ** 3
    r -= weights.w_eff * abs(ego_speed - weights.v_des_ego) * DT
    r -= weights.w_goal * (math.exp(weights.k_goal * d_goal) - 1.0) * DT
    if lc_initiated:
        r -= weights.w_lc
    return r


def rectangles_overlap(a: PhysicalState, b: PhysicalState) -> bool:
    """Oriented-rectangle (vehicle footprint) overlap via separating axes."""
    dx = b.x - a.x
    dy = b.y - a.y
    if dx * dx + dy * dy > (VEHICLE_LENGTH + VEHICLE_WIDTH) ** 2:
        return False
    hl = VEHICLE_LENGTH / 2.0
    hw = VEHICLE_WIDTH / 2.0
    ca, sa = math.cos(a.heading), math.sin(a.heading)
    cb, sb = math.cos(b.heading), math.sin(b.heading)
    axes = ((ca, sa), (-sa, ca), (cb, sb), (-sb, cb))
    for ax, ay in axes:
        centers = abs(dx * ax + dy * ay)
        ra = hl * abs(ca * ax + sa * ay) + hw * abs(-sa * ax + ca * ay)
        rb = hl * abs(cb * ax + sb * ay) + hw * abs(-sb * ax + cb * ay)
        if centers > ra + rb:
            return False
    return True


def extract_observation(
    exo_states: dict[AgentId, PhysicalState],
    noise_seed: int,
    tick: int,
    noise: ObservationNoise = ObservationNoise(),
) -> Observation:
    """Noisy exo-agent observation; draws are a pure function of
    (noise_seed, tick, agent id)."""
    agents = {}
    for aid in sorted(exo_states):
        st = exo_states[aid]
        rng = np.random.Generator(np.random.PCG64(mix(noise_seed, tick, aid)))
        agents[aid] = AgentObs(
            x=st.x + rng.normal(0.0, noise.pos),
            y=st.y + rng.normal(0.0, noise.pos),
            heading=st.heading + rng.normal(0.0, noise.heading),
            speed=max(0.0, st.speed + rng.normal(0.0, noise.speed)),
        )
    return Observation(t=tick * DT, agents=agents)


def scenario_key(sc: Scenario) -> tuple:
    """Hashable content key; simulation physics is a pure function of this
    (the noise seed, deliberately excluded, only affects observation draws)."""
    e = sc.ego
    return (
        (e.x, e.y, e.heading, e.speed, sc.ego_intention),
        tuple(
            (a.id, a.state.x, a.state.y, a.state.heading, a.state.speed,
             a.intention, a.style, a.connector_seed)
            for a in sc.exos
        ),
    )


def _bind_ego_intention(
    ego: PhysicalState, ego_intention: Intention, action: MacroAction, network: RoadNetwork
):
    """Resolve the ego's intention for this action, and whether a fresh LC starts."""
    if action.kind == IntentionKind.LF:
        return LF, False  # also aborts an unfinished LC: steer back, no new charge
    if ego_intention.kind == action.kind:
        return ego_intention, False  # continue mid-execution LC
    lane = network.lanes[ego.lane]
    target = lane.left_neighbor if action.kind == IntentionKind.LC_L else lane.right_neighbor
    if target is None:
        raise ValueError(f"{action.kind.name} illegal from lane {ego.lane}")
    return Intention(action.kind, target), True


def advance(
    prev_ego: PhysicalState,
    ego: PhysicalState,
    exos: list[ExoAgent],
    network: RoadNetwork,
    weights: RewardWeights,
    lc_initiated: bool,
) -> tuple[float, bool]:
    """One joint tick after the ego has moved from prev_ego to ego.

    Steps the exo-agents in place, in list order (Gauss-Seidel): exo k
    sees the previous-tick ego, the already-stepped exos 0..k-1 and the
    not-yet-stepped rest. Then scores the ego's new state against the
    stepped exos. Returns the undiscounted step reward and whether the ego
    collided.
    """
    states = [e.state for e in exos]
    for k, e in enumerate(exos):
        others = [prev_ego]
        others.extend(states[:k])
        others.extend(states[k + 1:])
        e.state, e.intention = step_driver(
            e.state, e.intention, e.style, others, network, DT,
            connector_seed=e.connector_seed,
        )
        states[k] = e.state
    collided = any(rectangles_overlap(ego, st) for st in states)
    d_goal = goal_distance(network, ego.lane)
    return step_reward(ego.speed, d_goal, collided, lc_initiated, weights), collided


def simulate(
    scenario: Scenario,
    action: MacroAction,
    network: RoadNetwork,
    weights: RewardWeights = RewardWeights(),
    start_tick: int = 0,
) -> SimOutcome:
    """Roll the joint state forward for one macro-action.

    Each tick the ego runs the action's driver model against the exo
    states of the previous tick, then advance() steps the exo-agents under
    their scenario (m, theta) and scores the tick. Rewards are discounted
    by gamma^tick from the root.
    """
    ego = scenario.ego
    ego_intent, initiated = _bind_ego_intention(
        scenario.ego, scenario.ego_intention, action, network
    )
    exos = [
        ExoAgent(e.id, e.state, e.intention, e.style, e.connector_seed)
        for e in scenario.exos
    ]

    reward = 0.0
    states: list[PhysicalState] = []
    terminal = False
    goal_lane = network.goal_lane
    ego_style = action.ego_style
    for i in range(action.ticks):
        new_ego, ego_intent = step_driver(
            ego,
            ego_intent,
            ego_style,
            [e.state for e in exos],
            network,
            DT,
            goal_lane=goal_lane,
        )
        r, collided = advance(ego, new_ego, exos, network, weights, initiated and i == 0)
        ego = new_ego
        reward += (weights.gamma ** (start_tick + i)) * r
        states.append(ego)
        if collided:
            terminal = True
            break

    end = Scenario(ego=ego, exos=exos, noise_seed=scenario.noise_seed, ego_intention=ego_intent)
    return SimOutcome(states, reward, terminal, end)
