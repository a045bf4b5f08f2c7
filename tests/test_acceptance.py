"""End-to-end acceptance gate.

One test per criterion, run in order; each prints a single PASS/FAIL line
directly to the terminal (bypassing capture) before asserting.
"""
import json
import math
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import parallel_network
from test_planner import expectimax, random_micro_instance
from test_refine import mid_lane_belief, set_probs

from driveplan.config import Config
from driveplan.driver import LF, Intention, IntentionKind, StyleParam, make_state, step_driver
from driveplan.harness import run_batch, run_episode, write_trace
from driveplan.inference import (
    FilterConfig,
    histogram_update,
    init_belief,
    posterior_style_mean,
    update,
)
from driveplan.observation import ObservationNoise
from driveplan.planner import check_bounds, plan
from driveplan.pomdp import (
    DT,
    LC_DURATION,
    LF_DURATION,
    RewardWeights,
    Scenario,
    extract_observation,
    macro_action,
    simulate,
)
from driveplan.refine import build_proposal, generate_candidates, replay_value, resample
from driveplan.scenes import generate_scene
from driveplan.util import mix

SUITE_CONFIG = Config(k_scenarios=6, n_is=6, max_expansions=3, n_particles=50)


def report(capsys, num, name, ok, detail=""):
    line = f"[acceptance {num}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    with capsys.disabled():
        print("\n" + line)
    assert ok, line


def test_criterion_1_filter_convergence(capsys):
    net = parallel_network(n_lanes=3, length=700, goal=0)
    noise = ObservationNoise()
    fcfg = FilterConfig(n_particles=60)
    n_eps = 100
    converged = 0
    v0_ok = 0
    t0 = time.perf_counter()
    for ep in range(n_eps):
        rng = np.random.default_rng(ep)
        v0 = float(rng.uniform(6.0, 14.0))
        style = StyleParam(v0=v0, lookahead=6.0)
        st = make_state(net, (30.0, 3.5), 0.0, v0, hint=1)
        intent: Intention = LF
        obs = extract_observation({1: st}, mix(ep, 0xA), 0, noise)
        belief = init_belief(obs, net, fcfg, seed=mix(ep, 1))
        t_conv = None
        for tick in range(50):  # 10 s
            st, intent = step_driver(st, intent, style, [], net, DT)
            obs = extract_observation({1: st}, mix(ep, 0xA), tick + 1, noise)
            belief, _ = update(belief, obs, DT, net, fcfg, seed=mix(ep, 2, tick))
            ab = belief.per_agent[1]
            p_lf = sum(
                p for m, p in ab.intention_prob.items() if m.kind == IntentionKind.LF
            )
            t_now = (tick + 1) * DT
            if t_conv is None and p_lf > 0.9:
                t_conv = t_now
        if t_conv is not None and t_conv <= 5.0:
            converged += 1
        est = posterior_style_mean(belief.per_agent[1])
        if abs(est.v0 - v0) <= 1.5:
            v0_ok += 1
    elapsed = time.perf_counter() - t0
    ok = converged >= 95 and v0_ok >= 95 and elapsed < 120.0
    report(
        capsys, 1, "filter convergence",
        ok,
        f"P(LF)>0.9 within 5s: {converged}/{n_eps}; |v0 err|<=1.5 at 10s: "
        f"{v0_ok}/{n_eps}; {elapsed:.0f}s",
    )


def test_criterion_2_bayes_arithmetic(capsys):
    intents = [
        LF,
        Intention(IntentionKind.LC_L, 1),
        Intention(IntentionKind.LC_R, 2),
    ]
    prior = {m: 1.0 / 3.0 for m in intents}
    lik = dict(zip(intents, (2.0, 1.0, 1.0)))
    post = histogram_update(prior, lik, floor=0.0)
    errs = [
        abs(post[intents[0]] - 0.5),
        abs(post[intents[1]] - 0.25),
        abs(post[intents[2]] - 0.25),
    ]
    ok = max(errs) <= 1e-12
    report(capsys, 2, "Bayes arithmetic", ok, f"max error {max(errs):.2e}")


def test_criterion_3_is_unbiasedness(capsys):
    net = parallel_network(n_lanes=3, length=400, goal=0)
    W = RewardWeights()
    ego = make_state(net, (20.0, 3.5), 0.0, 9.0, hint=1)
    base = Scenario(ego=ego, exos=[], noise_seed=0)
    cand = generate_candidates(
        [base], [macro_action(IntentionKind.LF)], net, W, speed_scales=(1.0,)
    )[0]
    details = []
    ok = True
    for lam in (0.0, 0.3, 0.5, 0.8):
        belief = mid_lane_belief(net, n_particles=1, x=45.0, speed=6.0)
        set_probs(
            belief, 1,
            {IntentionKind.LF: 0.7, IntentionKind.LC_L: 0.2, IntentionKind.LC_R: 0.1},
        )
        prop = build_proposal(belief, lambda_mix=lam)
        weighted = resample(prop, belief, 10_000, seed=17, ego=ego)
        if lam == 0.0:
            ok = ok and all(w == 1.0 for _, w in weighted)
        value_by_kind = {}
        for sc, _ in weighted:
            kind = sc.exos[0].intention.kind
            if kind not in value_by_kind:
                value_by_kind[kind] = replay_value(cand, sc, net, W)
        exact = sum(
            belief.per_agent[1].intention_prob[m] * value_by_kind[m.kind]
            for m in belief.per_agent[1].intention_prob
        )
        est = (
            sum(w * value_by_kind[sc.exos[0].intention.kind] for sc, w in weighted)
            / len(weighted)
        )
        rel = abs(est - exact) / abs(exact)
        details.append(f"lam={lam}: {100 * rel:.2f}%")
        ok = ok and rel < 0.02
    report(capsys, 3, "IS unbiasedness", ok, "; ".join(details))


def test_criterion_4_planner_oracle_equivalence(capsys):
    W = RewardWeights()
    rng = np.random.default_rng(1234)
    worst = 0.0
    n = 20
    for _ in range(n):
        net, ego, scenarios = random_micro_instance(rng)
        tree = plan(
            None, ego, net, W, max_expansions=100_000,
            horizon_s=4.0, scenarios=scenarios,
        )
        oracle = expectimax(scenarios, 0.0, 0, 4.0, net, W)
        worst = max(worst, abs(tree.root_lower - oracle), tree.root_upper - tree.root_lower)
        check_bounds(tree.root)
        if worst > 1e-6:
            break
    ok = worst <= 1e-6
    report(
        capsys, 4, "planner oracle equivalence", ok,
        f"{n} micro-instances, worst gap {worst:.2e}",
    )


def test_criterion_5_ablation_directions(capsys):
    specs = []
    for i in range(17):
        sp = generate_scene("merge", seed=i, n_exo=5)
        sp.episode_s = 16.0
        specs.append(sp)
    t0 = time.perf_counter()
    rows = run_batch(specs, ["full", "wo_unc", "wo_is", "h4"], [0, 1, 2], SUITE_CONFIG)
    elapsed = time.perf_counter() - t0
    by = {r.variant: r for r in rows}
    full, wo_unc, wo_is, h4 = by["full"], by["wo_unc"], by["wo_is"], by["h4"]
    ok = (
        full.collision_rate <= wo_unc.collision_rate
        and full.collision_rate <= wo_is.collision_rate
        and full.miss_goal_rate <= h4.miss_goal_rate
        and full.collision_rate == 0.0
        and full.miss_goal_rate == 0.0
        and wo_unc.collision_rate > 0.0
        and elapsed < 1800.0
    )
    report(
        capsys, 5, "ablation directions", ok,
        f"coll% full/wo_unc/wo_is = {full.collision_rate:.1f}/"
        f"{wo_unc.collision_rate:.1f}/{wo_is.collision_rate:.1f}; "
        f"MGR% full/h4 = {full.miss_goal_rate:.1f}/{h4.miss_goal_rate:.1f}; "
        f"{full.episodes} episodes/variant in {elapsed:.0f}s",
    )


def test_criterion_6_decelerate_then_change_lane(capsys):
    good = 0
    collisions = 0
    n = 20
    for seed in range(n):
        spec = generate_scene("merge", seed=seed, n_exo=5)
        spec.episode_s = 12.0
        metrics, trace = run_episode(spec, SUITE_CONFIG, seed=0)
        collisions += metrics.collided
        ticks = [r for r in trace if r["record"] == "tick"]
        # first tick anchored on the corridor away from the intruder's
        # target lane (the cutter cuts into lane 0; the ego exits to 1/3)
        away = next(
            (i for i, r in enumerate(ticks) if r["ego"]["lane"] in (1, 3)), None
        )
        decelerated = away is not None and any(
            r["ego"]["accel"] <= -0.5 for r in ticks[:away]
        )
        stays = away is not None and ticks[-1]["ego"]["lane"] in (1, 3)
        good += (not metrics.collided) and decelerated and stays
    ok = good >= 18 and collisions == 0
    report(
        capsys, 6, "deceleration followed by avoiding lane change", ok,
        f"{good}/{n} seeds, {collisions} collisions",
    )


def test_criterion_7_determinism(capsys, tmp_path):
    spec = generate_scene("merge", seed=1, n_exo=3)
    spec.episode_s = 2.0
    spec_path = tmp_path / "spec.json"
    spec.save(spec_path)
    cfg = replace(SUITE_CONFIG, n_is=4, k_scenarios=4)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))

    in_proc = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for p in in_proc:
        write_trace(run_episode(spec, cfg, seed=3)[1], p)

    # across process restarts, via the command line
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        subprocess.run(
            [
                sys.executable, "-m", "driveplan.cli", "run-once",
                "--spec", str(spec_path), "--config", str(cfg_path),
                "--seed", "3", "--out", str(out),
            ],
            check=True, capture_output=True,
        )
        outs.append(out / "merge-1-s3-full.trace.jsonl")
    blobs = [p.read_bytes() for p in in_proc + outs]
    ok = all(b == blobs[0] for b in blobs)
    report(
        capsys, 7, "byte-identical determinism", ok,
        f"{len(blobs)} traces compared (2 in-process, 2 subprocess)",
    )


def test_criterion_8_timing_constants(capsys):
    net = parallel_network(n_lanes=3, length=400, goal=0)
    W = RewardWeights()
    ego = make_state(net, (30.0, 7.0), 0.0, 9.0, hint=2)
    sc = Scenario(ego=ego, exos=[], noise_seed=0)
    ok = math.isclose(DT, 0.2) and LF_DURATION == 2.0 and LC_DURATION == 4.0
    # simulated segment lengths match the durations exactly
    ok = ok and len(simulate(sc, macro_action(IntentionKind.LF), net, W).states) == 10
    ok = ok and len(simulate(sc, macro_action(IntentionKind.LC_R), net, W).states) == 20

    tree = plan(
        None, ego, net, W, max_expansions=60,
        horizon_s=9.0, scenarios=[sc],
    )
    max_depth = 0.0

    def walk(node):
        nonlocal ok, max_depth
        max_depth = max(max_depth, node.depth_s)
        ok = ok and node.depth_s <= 9.0 + 1e-9
        for act, child in node.children.items():
            dur = child.action.duration
            ok = ok and dur == (2.0 if act == IntentionKind.LF else 4.0)
            for obs_child in child.obs_children.values():
                walk(obs_child)

    walk(tree.root)

    # trace inspection: tick period and per-tick planned sequence horizon
    spec = generate_scene("merge", seed=0, n_exo=2)
    spec.episode_s = 2.0
    _, trace = run_episode(spec, replace(SUITE_CONFIG, n_is=4, k_scenarios=4), seed=0)
    ticks = [r for r in trace if r["record"] == "tick"]
    for prev, cur in zip(ticks, ticks[1:]):
        ok = ok and math.isclose(cur["t"] - prev["t"], 0.2)
    for r in ticks:
        total = sum(
            2.0 if a == "LF" else 4.0 for a in r["planner"]["sequence"]
        )
        ok = ok and total <= 9.0 + 1e-9
    report(
        capsys, 8, "timing constants", ok,
        f"dt=0.2, LF=2.0s, LC=4.0s, deepest node {max_depth:.1f}s <= 9s",
    )


def test_criterion_9_performance_envelope(capsys):
    spec = generate_scene("merge", seed=7, n_exo=5)
    cfg = Config()  # K=20, n_IS=30, replanning every tick
    assert cfg.k_scenarios == 20 and cfg.n_is == 30
    assert spec.episode_s == 40.0 and len(spec.exos) == 5
    t0 = time.perf_counter()
    metrics, trace = run_episode(spec, cfg, seed=0)
    elapsed = time.perf_counter() - t0
    n_ticks = sum(1 for r in trace if r.get("record") == "tick")
    ok = elapsed < 60.0 and (metrics.collided or n_ticks == 200)
    report(
        capsys, 9, "performance envelope", ok,
        f"40s episode, 5 agents: {elapsed:.1f}s wall ({n_ticks} ticks)",
    )
