"""Hierarchical multi-model belief tracking for exo-agents.

Per agent: one particle filter per intention hypothesis over (physical
state, style), plus an exact histogram filter over the intention itself.
The intention posterior update is b(m) ~ p(o|m) * b_prev(m), with p(o|m)
obtained by integrating per-particle observation likelihoods.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .driver import (
    LF,
    LOOKAHEAD_BOUNDS,
    V0_BOUNDS,
    Intention,
    PhysicalState,
    StyleParam,
    legal_intentions,
    make_state,
    step_driver,
)
from .observation import AgentId, AgentObs, Observation, ObservationNoise
from .pomdp import ExoAgent, Scenario
from .road import RoadNetwork
from .util import mix, wrap_angle


@dataclass(frozen=True)
class FilterConfig:
    n_particles: int = 100
    ess_frac: float = 0.5  # resample when ESS < ess_frac * n
    theta_jitter_frac: float = 0.02  # of the parameter range, on resample
    lik_floor: float = 1e-12
    intent_floor: float = 1e-4
    noise: ObservationNoise = ObservationNoise()


@dataclass
class Particle:
    state: PhysicalState
    style: StyleParam
    weight: float
    connector_seed: int
    intention: Intention  # current dynamic intention (LC collapses to LF)


@dataclass
class AgentBelief:
    intention_prob: dict[Intention, float]
    particles: dict[Intention, list[Particle]]

    def check(self):
        assert abs(sum(self.intention_prob.values()) - 1.0) < 1e-9
        for ps in self.particles.values():
            assert abs(sum(p.weight for p in ps) - 1.0) < 1e-6


@dataclass
class JointBelief:
    per_agent: dict[AgentId, AgentBelief] = field(default_factory=dict)


def obs_state(network: RoadNetwork, oa: AgentObs, hint=None) -> PhysicalState:
    """Maximum-likelihood physical state implied by one observation entry."""
    return make_state(network, (oa.x, oa.y), oa.heading, max(0.0, oa.speed), hint=hint)


def likelihood(oa: AgentObs, predicted: PhysicalState, noise: ObservationNoise) -> float:
    """Gaussian observation density: position (2-D), wrapped heading, speed."""
    inv2 = -0.5
    z = (
        ((oa.x - predicted.x) / noise.pos) ** 2
        + ((oa.y - predicted.y) / noise.pos) ** 2
        + (wrap_angle(oa.heading - predicted.heading) / noise.heading) ** 2
        + ((oa.speed - predicted.speed) / noise.speed) ** 2
    )
    norm = 1.0 / ((2.0 * math.pi) ** 2 * noise.pos * noise.pos * noise.heading * noise.speed)
    return norm * math.exp(inv2 * z)


def _init_agent(
    oa: AgentObs, network: RoadNetwork, config: FilterConfig, rng: np.random.Generator
) -> AgentBelief:
    anchor = obs_state(network, oa)
    intents = legal_intentions(network, anchor.lane)
    prior = 1.0 / len(intents)
    n = config.n_particles
    noise = config.noise
    belief = AgentBelief({}, {})
    for intent in intents:
        ps = []
        for _ in range(n):
            x = oa.x + rng.normal(0.0, noise.pos)
            y = oa.y + rng.normal(0.0, noise.pos)
            h = oa.heading + rng.normal(0.0, noise.heading)
            v = max(0.0, oa.speed + rng.normal(0.0, noise.speed))
            state = make_state(network, (x, y), h, v, hint=anchor.lane)
            style = StyleParam(
                v0=rng.uniform(*V0_BOUNDS), lookahead=rng.uniform(*LOOKAHEAD_BOUNDS)
            )
            ps.append(Particle(state, style, 1.0 / n, int(rng.integers(0, 2**62)), intent))
        belief.intention_prob[intent] = prior
        belief.particles[intent] = ps
    return belief


def init_belief(
    obs: Observation, network: RoadNetwork, config: FilterConfig, seed: int = 0
) -> JointBelief:
    """Uniform intention prior; particles sampled around the observation."""
    joint = JointBelief()
    for aid, oa in sorted(obs.agents.items()):
        rng = np.random.Generator(np.random.PCG64(mix(seed, 0x1A17, aid)))
        joint.per_agent[aid] = _init_agent(oa, network, config, rng)
    return joint


def _systematic_resample(ps: list[Particle], rng: np.random.Generator) -> list[int]:
    n = len(ps)
    positions = (rng.random() + np.arange(n)) / n
    cumulative = np.cumsum([p.weight for p in ps])
    cumulative[-1] = 1.0
    return list(np.searchsorted(cumulative, positions))


def _jitter_style(style: StyleParam, frac: float, rng: np.random.Generator) -> StyleParam:
    v0_span = V0_BOUNDS[1] - V0_BOUNDS[0]
    ld_span = LOOKAHEAD_BOUNDS[1] - LOOKAHEAD_BOUNDS[0]
    v0 = min(max(style.v0 + rng.normal(0.0, frac * v0_span), V0_BOUNDS[0]), V0_BOUNDS[1])
    ld = min(
        max(style.lookahead + rng.normal(0.0, frac * ld_span), LOOKAHEAD_BOUNDS[0]),
        LOOKAHEAD_BOUNDS[1],
    )
    return StyleParam(v0=v0, lookahead=ld)


def histogram_update(
    prior: dict[Intention, float],
    marginal_likelihoods: dict[Intention, float],
    floor: float = 0.0,
) -> dict[Intention, float]:
    """Exact Bayes update of the intention histogram: b(m) ~ p(o|m) b_prev(m).

    A small probability floor (renormalized) keeps disproven intentions
    recoverable after noise bursts; floor=0 gives the pure update.
    """
    post = {m: prior[m] * marginal_likelihoods[m] for m in prior}
    total = sum(post.values())
    if total <= 0.0:
        post = {m: 1.0 for m in post}
        total = float(len(post))
    post = {m: v / total for m, v in post.items()}
    if floor > 0.0:
        post = {m: max(v, floor) for m, v in post.items()}
        total = sum(post.values())
        post = {m: v / total for m, v in post.items()}
    return post


def update(
    belief: JointBelief,
    obs: Observation,
    dt: float,
    network: RoadNetwork,
    config: FilterConfig = FilterConfig(),
    seed: int = 0,
) -> tuple[JointBelief, dict[AgentId, dict[Intention, float]]]:
    """One filter tick: propagate, weight, resample, update intention histogram.

    Neighbor agents during particle propagation are taken at their observed
    (maximum-likelihood) states, keeping per-agent filters independent.
    Returns the new belief and the per-agent per-intention marginal
    likelihoods p(o|m) for diagnostics.
    """
    noise = config.noise
    ml_states = {
        aid: obs_state(network, oa, hint=_hint(belief, aid)) for aid, oa in obs.agents.items()
    }

    new_joint = JointBelief()
    marginals: dict[AgentId, dict[Intention, float]] = {}
    for aid, oa in sorted(obs.agents.items()):
        rng = np.random.Generator(np.random.PCG64(mix(seed, 0xF117E6, aid)))
        agent_belief = belief.per_agent.get(aid)
        if agent_belief is None:
            new_joint.per_agent[aid] = _init_agent(oa, network, config, rng)
            marginals[aid] = {
                m: 1.0 for m in new_joint.per_agent[aid].intention_prob
            }
            continue

        neighbors = [st for other, st in ml_states.items() if other != aid]
        new_belief = AgentBelief({}, {})
        agent_marginals: dict[Intention, float] = {}
        for intent, ps in agent_belief.particles.items():
            marginal = 0.0
            propagated: list[Particle] = []
            for p in ps:
                state, cur_intent = step_driver(
                    p.state,
                    p.intention,
                    p.style,
                    neighbors,
                    network,
                    dt,
                    connector_seed=p.connector_seed,
                )
                lik = likelihood(oa, state, noise)
                marginal += p.weight * lik
                propagated.append(
                    Particle(state, p.style, p.weight * lik, p.connector_seed, cur_intent)
                )
            if marginal <= 0.0:
                # degenerate set: re-seed from the observation, floor the marginal
                fresh = _init_agent(oa, network, config, rng)
                propagated = fresh.particles.get(intent)
                if propagated is None:
                    propagated = next(iter(fresh.particles.values()))
                marginal = config.lik_floor
            else:
                total = sum(p.weight for p in propagated)
                for p in propagated:
                    p.weight /= total
                ess = 1.0 / sum(p.weight * p.weight for p in propagated)
                if ess < config.ess_frac * len(propagated):
                    idx = _systematic_resample(propagated, rng)
                    n = len(propagated)
                    propagated = [
                        Particle(
                            propagated[i].state,
                            _jitter_style(propagated[i].style, config.theta_jitter_frac, rng),
                            1.0 / n,
                            propagated[i].connector_seed,
                            propagated[i].intention,
                        )
                        for i in idx
                    ]
            marginal = max(marginal, config.lik_floor)
            agent_marginals[intent] = marginal
            new_belief.particles[intent] = propagated

        new_belief.intention_prob = histogram_update(
            agent_belief.intention_prob, agent_marginals, floor=config.intent_floor
        )

        new_joint.per_agent[aid] = new_belief
        marginals[aid] = agent_marginals
    return new_joint, marginals


def _hint(belief: JointBelief, aid: AgentId):
    ab = belief.per_agent.get(aid)
    if ab is None:
        return None
    for ps in ab.particles.values():
        if ps:
            return ps[0].state.lane
    return None


def posterior_style_mean(agent_belief: AgentBelief) -> StyleParam:
    """Intention- and weight-averaged style estimate."""
    v0 = ld = 0.0
    for intent, ps in agent_belief.particles.items():
        pm = agent_belief.intention_prob[intent]
        for p in ps:
            v0 += pm * p.weight * p.style.v0
            ld += pm * p.weight * p.style.lookahead
    return StyleParam(v0=v0, lookahead=ld)


def ml_hypothesis(agent_belief: AgentBelief) -> tuple[Intention, Particle]:
    """Maximum-likelihood (m, particle) pair, deterministic tie-breaks."""
    intents = sorted(
        agent_belief.intention_prob,
        key=lambda m: (-agent_belief.intention_prob[m], m.kind.value),
    )
    best_m = intents[0]
    ps = agent_belief.particles[best_m]
    best_p = max(range(len(ps)), key=lambda i: (ps[i].weight, -i))
    return best_m, ps[best_p]


def sample_agent(
    agent_belief: AgentBelief,
    intention_dist: dict[Intention, float],
    rng: np.random.Generator,
) -> tuple[Intention, Particle]:
    """Draw m ~ intention_dist, then a particle ~ weights within m."""
    intents = sorted(intention_dist, key=lambda m: m.kind.value)
    probs = np.array([intention_dist[m] for m in intents])
    m = intents[rng.choice(len(intents), p=probs / probs.sum())]
    ps = agent_belief.particles[m]
    weights = np.array([p.weight for p in ps])
    p = ps[rng.choice(len(ps), p=weights / weights.sum())]
    return m, p


def exo_agent(aid: AgentId, particle: Particle) -> ExoAgent:
    """The scenario exo-agent a particle determinizes."""
    return ExoAgent(
        aid, particle.state, particle.intention, particle.style, particle.connector_seed
    )


def sample_scenarios(
    belief: JointBelief,
    K: int,
    master_seed: int,
    ego: PhysicalState,
    ego_intention: Intention = LF,
) -> list[Scenario]:
    """Draw K determinized scenarios from the joint belief.

    Per scenario and per agent: intention ~ intention histogram, then a
    particle ~ its weights. Each scenario gets a fresh noise seed derived
    from master_seed, so replays are exact.
    """
    scenarios = []
    for k in range(K):
        rng = np.random.Generator(np.random.PCG64(mix(master_seed, 0x5CE9A810, k)))
        exos = []
        for aid in sorted(belief.per_agent):
            ab = belief.per_agent[aid]
            exos.append(exo_agent(aid, sample_agent(ab, ab.intention_prob, rng)[1]))
        scenarios.append(
            Scenario(
                ego=ego,
                exos=exos,
                noise_seed=mix(master_seed, 0x0B5E12, k),
                ego_intention=ego_intention,
            )
        )
    return scenarios
