"""Tests of the benchmark itself: the output checks must reject doctored
traces, and the tick clock must count one interval per tick.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""
import copy
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from driveplan import harness  # noqa: E402
from driveplan.config import Config  # noqa: E402
from driveplan.driver import PhysicalState  # noqa: E402
from driveplan.pomdp import goal_distance, rectangles_overlap  # noqa: E402
from driveplan.scenes import build_network  # noqa: E402

from perfbench import checks, tracing, workloads  # noqa: E402
from perfbench import run as run_cli  # noqa: E402
from perfbench.bench import p95, tick_floor  # noqa: E402

SMALL = Config(k_scenarios=2, n_is=2, n_particles=20, max_expansions=1)


@pytest.fixture(scope="module")
def episode():
    return workloads.Episode("merge-0/small", workloads.scene("merge", 0, 3, 2.0), SMALL, 0)


@pytest.fixture(scope="module")
def run(episode):
    return tracing.run_timed(episode)


def problems(episode, trace, metrics):
    found, known = checks.check_episode(episode.spec, episode.config, trace, metrics)
    return found + known


def doctored(run, edit):
    trace = copy.deepcopy(run.trace)
    edit(checks.ticks_of(trace))
    return trace


def test_real_episode_passes(episode, run):
    assert problems(episode, run.trace, run.metrics) == []


def test_tick_clock_counts_one_interval_per_tick(episode, run):
    n = episode.spec.n_ticks()
    assert len(checks.ticks_of(run.trace)) == n
    assert len(run.intervals) == n
    assert all(dt > 0.0 for dt in run.intervals)


@pytest.mark.parametrize("agent", ["ego", "exo"])
def test_shifted_x_rejected(episode, run, agent):
    def edit(ticks):
        st = ticks[3]["ego"] if agent == "ego" else ticks[3]["exos"]["1"]
        st["x"] += 0.01

    found = checks.check_kinematics(episode.spec, doctored(run, edit))
    assert found and "tick 3" in found[0] and "x off" in found[0]


def test_flipped_collided_rejected(episode, run):
    def edit(ticks):
        ticks[2]["collided"] = not ticks[2]["collided"]

    found = checks.check_collisions(doctored(run, edit))
    assert found and found[0].startswith("tick 2")


def test_unnormalised_belief_rejected(episode, run):
    def edit(ticks):
        probs = ticks[4]["belief"]["1"]["intention"]
        key = next(iter(probs))
        probs[key] *= 1.5

    found = checks.check_beliefs(doctored(run, edit))
    assert found and found[0].startswith("tick 4 agent 1")


def test_inverted_bound_rejected(episode, run):
    def edit(ticks):
        pl = ticks[5]["planner"]
        pl["lower"], pl["upper"] = pl["upper"], pl["upper"] - 0.5

    found, known = checks.check_planner(episode.config, doctored(run, edit))
    assert found and found[0].startswith("tick 5") and not known


def test_bound_inversion_planned_mid_lane_change_is_known_fault():
    # multilane scene 1, seed 2: the tick-6 plan starts mid-LC_R and its root
    # lower bound exceeds the upper one by 0.0063 (upper_bound_value charges
    # the lane change already under way)
    ep = workloads.truncated(workloads.multilane_tracking(2)[1], 8)
    run = tracing.run_timed(ep)
    found, known = checks.check_planner(ep.config, run.trace)
    assert found == [] and len(known) == 1 and known[0].startswith("tick 6")

    def edit(ticks):
        ticks[6]["planner"]["lower"] += checks.lc_allowance(ep.config)

    found, known = checks.check_planner(ep.config, doctored(run, edit))
    assert found and found[0].startswith("tick 6") and not known


def test_changed_reward_rejected(episode, run):
    def edit(ticks):
        ticks[6]["reward"] -= 1e-3

    found = checks.check_rewards(episode.spec, episode.config, doctored(run, edit), run.metrics)
    assert found and found[0].startswith("tick 6")


def test_traced_trace_equals_untraced_and_bindings_restored(episode, run):
    plan = harness.plan
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = tracing.run_timed(episode)
    assert harness.plan is plan
    assert checks.serialize(traced.trace) == checks.serialize(run.trace)
    n = episode.spec.n_ticks()
    assert tracer.tick == n - 1
    layers = tracer.layer_metrics(sum(traced.intervals), n)
    assert layers["planner.plan.agent_steps_per_tick"][0] > 0
    assert layers["inference.update.agent_steps_per_tick"][0] > 0


def test_truncated_replay_matches_prefix(episode, run):
    replay = tracing.run_timed(workloads.truncated(episode, 4))
    assert len(replay.intervals) == 4
    assert checks.prefix(replay.trace, 4) == checks.prefix(run.trace, 4)


def test_lane_hops_match_goal_distance(episode):
    spec = episode.spec
    net = build_network(spec)
    for ls in spec.lanes:
        hops = min(checks.lane_hops(spec, ls.id, spec.goal_lane), 6.0)
        assert hops == goal_distance(net, ls.id)


def test_boxes_overlap_matches_separating_axes():
    rng = np.random.default_rng(0)
    hits = 0
    for _ in range(2000):
        x, y, h1, h2 = rng.uniform(-6, 6), rng.uniform(-4, 4), *rng.uniform(-math.pi, math.pi, 2)
        a = {"x": 0.0, "y": 0.0, "heading": h1}
        b = {"x": x, "y": y, "heading": h2}
        want = rectangles_overlap(PhysicalState(0.0, 0.0, h1, 0.0), PhysicalState(x, y, h2, 0.0))
        assert checks.boxes_overlap(a, b) == want
        hits += want
    assert 0 < hits < 2000


def test_cli_names_every_workload():
    assert run_cli.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)


def test_p95_leaves_ten_samples_beyond_at_200():
    assert p95([float(i) for i in range(200)]) == (189.0, 10)


def test_tick_floor_takes_each_ticks_fastest_round():
    def round_of(*episodes):
        return [tracing.EpisodeRun("ep", None, [], list(dts)) for dts in episodes]

    rounds = [round_of([3.0, 1.0], [5.0]), round_of([2.0, 4.0], [6.0])]
    assert tick_floor(rounds) == [2.0, 1.0, 5.0]
