"""Closed-loop episode simulator, metrics, traces, and batch runner.

The loop each tick: extract a noisy observation of the true exo-agents,
update the belief, run the tree search and the trajectory refinement, move
the ego one tick along the refined trajectory, and step the exo-agents
with their ground-truth models. Everything is a pure function of
(spec, config, seed).
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace

from .config import Config
from .driver import LC_DONE_D, Intention, LF, make_state, settle_lane_change
from .driver import step_driver  # noqa: F401  (rebound by perfbench/tracing.py)
from .inference import exo_agent, init_belief, ml_hypothesis, posterior_style_mean, update
from .planner import plan
from .pomdp import (
    DT,
    Scenario,
    _bind_ego_intention,
    advance,
    extract_observation,
    goal_distance,
)
from .refine import build_proposal, cross_evaluate, generate_candidates, resample
from .scenes import ScenarioSpec, ground_truth_agents
from .util import mix

COMFORT_ACCEL = 2.5  # m/s^2
COMFORT_JERK = 4.0  # m/s^3


@dataclass
class EpisodeMetrics:
    reward: float  # undiscounted cumulative step reward over the true trace
    collided: bool
    missed_goal: bool
    time_to_goal: float | None  # s; sustained on goal lane to episode end
    comfort: float  # fraction of comfortable ticks, in [0, 1]

    def to_dict(self) -> dict:
        return asdict(self)


def compute_comfort(accels: list[float]) -> float:
    """Fraction of ticks with |accel| <= 2.5 m/s^2 and |jerk| <= 4 m/s^3."""
    assert len(accels) >= 2
    ok = 0
    total = 0
    prev = accels[0]
    for a in accels[1:]:
        jerk = (a - prev) / DT
        total += 1
        if abs(a) <= COMFORT_ACCEL and abs(jerk) <= COMFORT_JERK:
            ok += 1
        prev = a
    return ok / total


def _state_dict(st) -> dict:
    return {
        "x": st.x, "y": st.y, "heading": st.heading, "speed": st.speed,
        "accel": st.accel, "lane": st.lane, "s": st.s, "d": st.d,
    }


def _belief_summary(belief) -> dict:
    out = {}
    for aid, ab in sorted(belief.per_agent.items()):
        style = posterior_style_mean(ab)
        out[str(aid)] = {
            "intention": {
                f"{m.kind.name}:{m.target_lane}": p
                for m, p in sorted(ab.intention_prob.items(), key=lambda kv: kv[0].kind.value)
            },
            "v0_mean": style.v0,
            "lookahead_mean": style.lookahead,
        }
    return out


def _ml_scenario(belief, ego, ego_intention, noise_seed) -> Scenario:
    """Single maximum-likelihood determinization (the wo_unc ablation; the
    exo-free scenario on an empty belief)."""
    exos = [
        exo_agent(aid, ml_hypothesis(belief.per_agent[aid])[1])
        for aid in sorted(belief.per_agent)
    ]
    return Scenario(ego=ego, exos=exos, noise_seed=noise_seed, ego_intention=ego_intention)


def run_episode(
    spec: ScenarioSpec, config: Config = Config(), seed: int = 0
) -> tuple[EpisodeMetrics, list[dict]]:
    """Run one closed-loop episode; returns metrics and the tick trace.

    The trace is a list of plain dicts (one header record, then one record
    per tick) ready for line-delimited serialization.
    """
    network = spec.validate()
    cfg, overrides = config.resolved()
    noise = cfg.observation_noise()
    fcfg = cfg.filter_config()
    weights = cfg.reward_weights()

    master = mix(spec.seed, seed)
    world_noise_seed = mix(master, 0xB0B)

    ego = make_state(network, (spec.ego_x, spec.ego_y), spec.ego_heading, spec.ego_speed)
    ego_intention: Intention = LF
    exos = ground_truth_agents(spec, network)

    trace: list[dict] = [
        {
            "record": "header",
            "spec": spec.name,
            "variant": cfg.variant,
            "variant_overrides": overrides,
            "config": cfg.to_dict(),
            "seed": seed,
            "master_seed": master,
        }
    ]

    obs = extract_observation({e.id: e.state for e in exos}, world_noise_seed, 0, noise)
    belief = init_belief(obs, network, fcfg, seed=mix(master, 1))

    def on_goal(state) -> bool:
        # same goal test the reward uses: zero lateral hops remaining
        return goal_distance(network, state.lane) == 0.0 and abs(state.d) < LC_DONE_D

    total_reward = 0.0
    collided = False
    accels: list[float] = [ego.accel]
    on_goal_since: float | None = 0.0 if on_goal(ego) else None
    n_ticks = spec.n_ticks()

    for tick in range(n_ticks):
        # --- plan ------------------------------------------------------
        # wo_unc, and any scene without exo-agents, plans on and refines
        # against the one maximum-likelihood scenario
        single = cfg.variant == "wo_unc" or not exos
        plan_scenarios = (
            [_ml_scenario(belief, ego, ego_intention, mix(master, 2, tick))] if single else None
        )
        tree = plan(
            belief,
            ego,
            network,
            weights,
            max_expansions=cfg.max_expansions,
            K=cfg.k_scenarios,
            horizon_s=cfg.horizon_s,
            seed=mix(master, 2, tick),
            ego_intention=ego_intention,
            noise=noise,
            scenarios=plan_scenarios,
        )

        # --- refine ----------------------------------------------------
        if single:
            weighted = [(plan_scenarios[0], 1.0)]
        else:
            proposal = build_proposal(belief, cfg.lambda_mix)
            weighted = resample(
                proposal, belief, cfg.n_is, mix(master, 3, tick), ego, ego_intention
            )
        candidates = generate_candidates(
            [sc for sc, _ in weighted], tree.most_likely_sequence or [tree.root_action],
            network, weights,
        )
        ev, best = cross_evaluate(candidates, weighted, network, weights)

        # --- act: consume the refined trajectory for one tick ----------
        bound_intention, _ = _bind_ego_intention(ego, ego_intention, tree.root_action, network)
        new_ego = replace(best.states[0])
        ego_intention = settle_lane_change(network, new_ego, bound_intention)

        # --- world advances (exo-agents react to the previous-tick ego)
        r, tick_collided = advance(ego, new_ego, exos, network, weights, False)
        ego = new_ego
        total_reward += r
        accels.append(ego.accel)

        t_now = (tick + 1) * DT
        if on_goal(ego):
            if on_goal_since is None:
                on_goal_since = t_now
        else:
            on_goal_since = None

        obs = extract_observation(
            {e.id: e.state for e in exos}, world_noise_seed, tick + 1, noise
        )
        belief, _ = update(belief, obs, DT, network, fcfg, seed=mix(master, 4, tick))

        trace.append(
            {
                "record": "tick",
                "tick": tick,
                "t": t_now,
                "ego": _state_dict(ego),
                "ego_intention": ego_intention.kind.name,
                "exos": {str(e.id): _state_dict(e.state) for e in exos},
                "obs": {
                    str(aid): [oa.x, oa.y, oa.heading, oa.speed]
                    for aid, oa in sorted(obs.agents.items())
                },
                "belief": _belief_summary(belief),
                "planner": {
                    "action": tree.root_action.kind.name,
                    "expansions": tree.expansions,
                    "lower": tree.root_lower,
                    "upper": tree.root_upper,
                    "sequence": [a.kind.name for a in tree.most_likely_sequence],
                },
                "refined": {
                    "speed_scale": best.speed_scale,
                    "estimate": ev.estimates[ev.selected],
                    "n_candidates": len(candidates),
                },
                "collided": tick_collided,
                "reward": r,
            }
        )
        if tick_collided:
            collided = True
            break

    on_goal_now = on_goal(ego)
    metrics = EpisodeMetrics(
        reward=total_reward,
        collided=collided,
        missed_goal=not (on_goal_now and not collided),
        time_to_goal=(on_goal_since if (on_goal_now and not collided) else None),
        comfort=compute_comfort(accels),
    )
    trace.append({"record": "metrics", **metrics.to_dict()})
    return metrics, trace


def write_trace(trace: list[dict], path):
    with open(path, "w") as fh:
        for rec in trace:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


@dataclass
class BatchRow:
    variant: str
    episodes: int
    mean_reward: float
    collision_rate: float  # percent
    miss_goal_rate: float  # percent
    mean_ttg: float | None  # over episodes that reached the goal
    mean_comfort: float


def run_batch(
    specs: list[ScenarioSpec],
    variants: list[str],
    seeds: list[int],
    config: Config = Config(),
) -> list[BatchRow]:
    """Run every (spec, seed) episode per variant and aggregate."""
    rows = []
    for variant in variants:
        cfg = replace(config, variant=variant)
        results = [
            run_episode(spec, cfg, seed)[0] for spec in specs for seed in seeds
        ]
        n = len(results)
        ttgs = [m.time_to_goal for m in results if m.time_to_goal is not None]
        rows.append(
            BatchRow(
                variant=variant,
                episodes=n,
                mean_reward=sum(m.reward for m in results) / n,
                collision_rate=100.0 * sum(m.collided for m in results) / n,
                miss_goal_rate=100.0 * sum(m.missed_goal for m in results) / n,
                mean_ttg=(sum(ttgs) / len(ttgs)) if ttgs else None,
                mean_comfort=sum(m.comfort for m in results) / n,
            )
        )
    return rows


def batch_csv(rows: list[BatchRow]) -> str:
    header = "variant,episodes,mean_reward,coll_rate_pct,mgr_pct,mean_ttg_s,mean_comfort"
    lines = [header]
    for r in rows:
        ttg = f"{r.mean_ttg:.2f}" if r.mean_ttg is not None else ""
        lines.append(
            f"{r.variant},{r.episodes},{r.mean_reward:.4f},{r.collision_rate:.2f},"
            f"{r.miss_goal_rate:.2f},{ttg},{r.mean_comfort:.4f}"
        )
    return "\n".join(lines) + "\n"
