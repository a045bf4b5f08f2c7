"""Importance-sampling trajectory refinement.

The planner fixes the macro-action; this stage resamples scenarios from a
coverage-ensuring proposal over intentions, rolls out candidate ego
trajectories (longitudinal speed variants of the planned action), replays
each candidate against every scenario's reactive exo-agents, and selects
the argmax of the importance-weighted value estimate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .driver import B_EMERGENCY, YAW_MAX, Intention, LF, PhysicalState, StyleParam
from .driver import step_driver  # noqa: F401  (rebound by perfbench/tracing.py)
from .inference import JointBelief, exo_agent, sample_agent
from .observation import AgentId
from .pomdp import (
    DT,
    ExoAgent,
    MacroAction,
    RewardWeights,
    Scenario,
    _bind_ego_intention,
    advance,
    scenario_key as _scenario_key,
    simulate,
)
from .road import RoadNetwork
from .util import mix

SPEED_SCALES = (0.7, 0.85, 1.0)
DEDUP_DIST = 0.2  # m, max pointwise gap below which two trajectories merge
MAX_SOURCES = 6  # distinct scenarios used to seed candidate trajectories


@dataclass(frozen=True)
class Proposal:
    """Per-agent sampling distribution over intentions, absolutely
    continuous with respect to the filtered posterior."""

    per_agent: dict[AgentId, dict[Intention, float]]


@dataclass
class Candidate:
    states: list[PhysicalState]  # ego pose/speed per tick, dt = 0.2 s
    speed_scale: float
    lc_initiated: bool = False


@dataclass
class CrossEvaluation:
    values: list[list[float]]  # candidate x scenario V_i(tau)
    weights: list[float]  # importance weights w_i
    estimates: list[float]  # (1/n) sum_i w_i V_i per candidate
    selected: int


def build_proposal(belief: JointBelief, lambda_mix: float = 0.5) -> Proposal:
    """q(m) = (1 - lambda) p(m) + lambda * uniform over the agent's legal set."""
    per_agent = {}
    for aid, ab in belief.per_agent.items():
        legal = sorted(ab.intention_prob, key=lambda m: m.kind.value)
        u = 1.0 / len(legal)
        q = {m: (1.0 - lambda_mix) * ab.intention_prob[m] + lambda_mix * u for m in legal}
        assert all(q[m] > 0.0 for m in legal if ab.intention_prob[m] > 0.0)
        per_agent[aid] = q
    return Proposal(per_agent)


def resample(
    proposal: Proposal,
    belief: JointBelief,
    n_is: int,
    seed: int,
    ego: PhysicalState,
    ego_intention: Intention = LF,
) -> list[tuple[Scenario, float]]:
    """Draw n_is scenarios with m ~ q per agent and w_i = prod p(m)/q(m)."""
    out = []
    for i in range(n_is):
        rng = np.random.Generator(np.random.PCG64(mix(seed, 0x15A3F1E, i)))
        exos = []
        w = 1.0
        for aid in sorted(belief.per_agent):
            ab = belief.per_agent[aid]
            q = proposal.per_agent[aid]
            m, p = sample_agent(ab, q, rng)
            w *= ab.intention_prob[m] / q[m]
            exos.append(exo_agent(aid, p))
        sc = Scenario(
            ego=ego,
            exos=exos,
            noise_seed=mix(seed, 0x7AFF5EED, i),
            ego_intention=ego_intention,
        )
        out.append((sc, w))
    return out


def _close(a: Candidate, b: Candidate) -> bool:
    if len(a.states) != len(b.states):
        return False
    return all(
        math.hypot(p.x - q.x, p.y - q.y) < DEDUP_DIST for p, q in zip(a.states, b.states)
    )


def generate_candidates(
    scenarios: list[Scenario],
    planned_sequence: list[MacroAction],
    network: RoadNetwork,
    weights: RewardWeights = RewardWeights(),
    speed_scales: tuple = SPEED_SCALES,
) -> list[Candidate]:
    """Roll out the first planned macro-action per scenario and speed scale.

    Candidates differ only longitudinally (scaled desired speed); the
    lateral behavior stays the planner's choice. Near-identical
    trajectories are merged, and at most MAX_SOURCES distinct scenarios
    (in sampling order) seed candidates.
    """
    assert planned_sequence
    first = planned_sequence[0]
    out: list[Candidate] = []
    seen: set = set()
    for sc in scenarios:
        if len(seen) >= MAX_SOURCES:
            break
        key = _scenario_key(sc)
        if key in seen:  # an exact repeat yields the same trajectories
            continue
        seen.add(key)
        _, initiated = _bind_ego_intention(sc.ego, sc.ego_intention, first, network)
        for scale in speed_scales:
            style = StyleParam(
                v0=first.ego_style.v0 * scale, lookahead=first.ego_style.lookahead
            )
            action = MacroAction(first.kind, first.duration, style)
            sim = simulate(sc, action, network, weights, start_tick=0)
            cand = Candidate(sim.states, scale, lc_initiated=initiated)
            if not any(_close(cand, kept) for kept in out):
                out.append(cand)
    return out


def is_feasible(cand: Candidate, tol: float = 1e-6) -> bool:
    """Per-tick acceleration and yaw-rate within the vehicle envelope."""
    for a, b in zip(cand.states, cand.states[1:]):
        if abs(b.speed - a.speed) / DT > B_EMERGENCY + tol:
            return False
        if abs(b.heading - a.heading) / DT > YAW_MAX + tol:
            return False
    return True


def replay_value(
    cand: Candidate,
    scenario: Scenario,
    network: RoadNetwork,
    weights: RewardWeights = RewardWeights(),
) -> float:
    """V_i(tau): ego follows tau verbatim, exo-agents react via their models.

    The joint tick is the planner simulator's (pomdp.advance), with the
    discount from tick zero and an early stop on collision.
    """
    exos = [
        ExoAgent(e.id, e.state, e.intention, e.style, e.connector_seed)
        for e in scenario.exos
    ]
    prev_ego = scenario.ego
    total = 0.0
    for i, ego_state in enumerate(cand.states):
        r, collided = advance(
            prev_ego, ego_state, exos, network, weights, cand.lc_initiated and i == 0
        )
        total += (weights.gamma ** i) * r
        if collided:
            break
        prev_ego = ego_state
    return total


def cross_evaluate(
    candidates: list[Candidate],
    weighted_scenarios: list[tuple[Scenario, float]],
    network: RoadNetwork,
    weights: RewardWeights = RewardWeights(),
) -> tuple[CrossEvaluation, Candidate]:
    """Importance-weighted estimate E[V(tau)] = (1/n) sum_i w_i V_i(tau);
    returns the argmax candidate (ties: speed scale nearest 1.0, then
    lowest index)."""
    assert candidates and weighted_scenarios
    n = len(weighted_scenarios)
    values = []
    estimates = []
    for cand in candidates:
        row = [replay_value(cand, sc, network, weights) for sc, _ in weighted_scenarios]
        values.append(row)
        estimates.append(sum(w * v for (_, w), v in zip(weighted_scenarios, row)) / n)
    best = max(
        range(len(candidates)),
        key=lambda i: (estimates[i], -abs(candidates[i].speed_scale - 1.0), -i),
    )
    ev = CrossEvaluation(
        values, [w for _, w in weighted_scenarios], estimates, best
    )
    return ev, candidates[best]
