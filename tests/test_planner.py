import math

import numpy as np
import pytest

from conftest import parallel_network
from driveplan.driver import LF, IntentionKind, StyleParam, make_state
from driveplan.inference import FilterConfig, init_belief
from driveplan.observation import AgentObs, Observation, ObservationNoise
from driveplan.planner import (
    TERMINAL_KEY,
    _key_order,
    _Search,
    check_bounds,
    extract_sequence,
    observation_key,
    plan,
    upper_bound_value,
)
from driveplan.pomdp import (
    ACTION_ORDER,
    ExoAgent,
    LF_DURATION,
    MacroAction,
    RewardWeights,
    Scenario,
    legal_actions,
    macro_action,
    simulate,
)

W = RewardWeights()
NOISE = ObservationNoise()
BIG = 100_000  # expansions: enough to close every gap


def ego_at(net, x, y, speed=10.0, hint=None):
    return make_state(net, (x, y), 0.0, speed, hint=hint)


def exo(net, aid, x, y, speed, intention=LF, v0=8.0, hint=None):
    st = make_state(net, (x, y), 0.0, speed, hint=hint)
    return ExoAgent(aid, st, intention, StyleParam(v0=v0), connector_seed=aid)


def obs_of(states):
    return Observation(
        0.0, {aid: AgentObs(s.x, s.y, s.heading, s.speed) for aid, s in states.items()}
    )


def expectimax(scenarios, depth_s, start_tick, horizon_s, net, weights):
    """Independent exhaustive oracle sharing the simulator and discretizer."""
    if depth_s + LF_DURATION > horizon_s + 1e-9:
        return 0.0
    legal = None
    for sc in scenarios:
        kinds = {a.kind for a in legal_actions(sc.ego, net, in_progress=sc.ego_intention)}
        legal = kinds if legal is None else (legal & kinds)
    best = -math.inf
    for kind in ACTION_ORDER:
        if kind not in legal:
            continue
        action = macro_action(kind)
        if depth_s + action.duration > horizon_s + 1e-9:
            continue
        outs = [simulate(sc, action, net, weights, start_tick) for sc in scenarios]
        value = sum(o.reward for o in outs) / len(scenarios)
        groups = {}
        child_tick = start_tick + action.ticks
        for out in outs:
            if out.terminal:
                continue
            key = observation_key(out.end, child_tick, net, NOISE)
            groups.setdefault(key, []).append(out.end)
        for subset in groups.values():
            v = expectimax(
                subset,
                depth_s + action.duration,
                child_tick,
                horizon_s,
                net,
                weights,
            )
            value += (len(subset) / len(scenarios)) * v
        best = max(best, value)
    return best if best > -math.inf else 0.0


def random_micro_instance(rng):
    n_lanes = int(rng.integers(2, 4))
    goal = int(rng.integers(0, n_lanes))
    net = parallel_network(n_lanes=n_lanes, length=400, goal=goal)
    ego_lane = int(rng.integers(0, n_lanes))
    ego = ego_at(net, 30.0 + rng.uniform(0, 20), 3.5 * ego_lane, rng.uniform(5, 12), ego_lane)
    exos = []
    for aid in range(int(rng.integers(0, 3))):
        lane = int(rng.integers(0, n_lanes))
        exos.append(
            exo(
                net,
                aid + 1,
                ego.x + rng.uniform(15, 60),
                3.5 * lane,
                rng.uniform(3, 10),
                v0=rng.uniform(4, 11),
                hint=lane,
            )
        )
    k = int(rng.integers(1, 4))
    scenarios = [
        Scenario(ego=ego, exos=[ExoAgent(e.id, e.state, e.intention, e.style, e.connector_seed) for e in exos], noise_seed=int(rng.integers(0, 2**31)) + i)
        for i in range(k)
    ]
    return net, ego, scenarios


class TestOracleEquivalence:
    def test_converged_root_matches_exhaustive_expectimax(self):
        rng = np.random.default_rng(420)
        for trial in range(20):
            net, ego, scenarios = random_micro_instance(rng)
            tree = plan(
                None,
                ego,
                net,
                W,
                max_expansions=BIG,
                horizon_s=4.0,
                scenarios=scenarios,
            )
            assert tree.root_upper - tree.root_lower <= 1e-6, trial
            oracle = expectimax(scenarios, 0.0, 0, 4.0, net, W)
            assert tree.root_lower == pytest.approx(oracle, abs=1e-6), trial
            check_bounds(tree.root)


class TestBounds:
    def test_default_policy_below_upper_bound(self, three_lanes):
        rng = np.random.default_rng(7)
        for _ in range(30):
            lane = int(rng.integers(0, 3))
            ego = ego_at(three_lanes, rng.uniform(10, 60), 3.5 * lane, rng.uniform(3, 12), lane)
            sc = Scenario(ego=ego, exos=[], noise_seed=int(rng.integers(0, 2**31)))
            segs = _Search(three_lanes, W, 9.0, NOISE).lf_rollout(sc, 0.0, 0)
            lo = sum(seg.reward for seg in segs)
            up = upper_bound_value(sc, 9.0, three_lanes, W, 0)
            assert lo <= up + 1e-9

    def test_upper_bound_dominates_lane_change_rollout(self, three_lanes):
        # the optimistic bound must beat an actual greedy goal-seeking rollout
        ego = ego_at(three_lanes, 30.0, 7.0, 10.0, hint=2)
        sc = Scenario(ego=ego, exos=[], noise_seed=3)
        up = upper_bound_value(sc, 9.0, three_lanes, W, 0)
        total, t, d = 0.0, 0, 0.0
        out = simulate(sc, macro_action(IntentionKind.LC_R), three_lanes, W, 0)
        total += out.reward
        out2 = simulate(out.end, macro_action(IntentionKind.LC_R), three_lanes, W, len(out.states))
        total += out2.reward
        assert total <= up + 1e-9

    def test_upper_bound_zero_on_goal_lane(self, three_lanes):
        ego = ego_at(three_lanes, 30.0, 0.0, 10.0)
        sc = Scenario(ego=ego, exos=[], noise_seed=3)
        assert upper_bound_value(sc, 9.0, three_lanes, W, 0) == 0.0

    def test_upper_bound_monotone_in_goal_distance(self):
        net = parallel_network(n_lanes=4, length=300, goal=0)
        vals = []
        for lane in range(4):
            ego = ego_at(net, 30.0, 3.5 * lane, 10.0, hint=lane)
            sc = Scenario(ego=ego, exos=[], noise_seed=1)
            vals.append(upper_bound_value(sc, 9.0, net, W, 0))
        assert vals == sorted(vals, reverse=True)

    def test_sandwich_holds_under_small_budget(self, three_lanes):
        ego = ego_at(three_lanes, 30.0, 3.5, 9.0, hint=1)
        slow = exo(three_lanes, 1, 55.0, 3.5, 4.0, v0=4.0, hint=1)
        sc = [Scenario(ego=ego, exos=[ExoAgent(1, slow.state, LF, slow.style, 1)], noise_seed=i) for i in range(3)]
        for budget in (1, 3, 7):
            tree = plan(
                None, ego, three_lanes, W, max_expansions=budget, horizon_s=9.0, scenarios=sc
            )
            check_bounds(tree.root)


class TestAnytime:
    def test_root_bounds_monotone_in_budget(self, three_lanes):
        ego = ego_at(three_lanes, 30.0, 3.5, 9.0, hint=1)
        slow = exo(three_lanes, 1, 50.0, 3.5, 4.0, v0=4.0, hint=1)
        sc = [
            Scenario(ego=ego, exos=[ExoAgent(1, slow.state, LF, slow.style, 1)], noise_seed=i)
            for i in range(4)
        ]
        lowers, uppers = [], []
        for n in range(0, 40, 4):
            tree = plan(None, ego, three_lanes, W, max_expansions=n, horizon_s=9.0, scenarios=sc)
            lowers.append(tree.root_lower)
            uppers.append(tree.root_upper)
        assert all(b >= a - 1e-12 for a, b in zip(lowers, lowers[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(uppers, uppers[1:]))

    def test_zero_budget_falls_back_to_lane_follow(self, three_lanes):
        ego = ego_at(three_lanes, 30.0, 3.5, 9.0, hint=1)
        sc = [Scenario(ego=ego, exos=[], noise_seed=0)]
        tree = plan(None, ego, three_lanes, W, max_expansions=0, scenarios=sc)
        assert tree.root_action.kind == IntentionKind.LF
        assert tree.expansions == 0


class TestTreeStructure:
    def _tree(self, three_lanes):
        ego = ego_at(three_lanes, 30.0, 3.5, 9.0, hint=1)
        mover = exo(three_lanes, 1, 55.0, 3.5, 6.0, v0=6.0, hint=1)
        sc = [
            Scenario(ego=ego, exos=[ExoAgent(1, mover.state, LF, mover.style, 1)], noise_seed=i)
            for i in range(6)
        ]
        return plan(None, ego, three_lanes, W, max_expansions=30, horizon_s=9.0, scenarios=sc)

    def test_children_partition_parent_scenarios(self, three_lanes):
        tree = self._tree(three_lanes)

        def walk(node):
            for an in node.children.values():
                counts = sum(len(c.scenarios) for c in an.obs_children.values())
                assert counts == len(node.scenarios)
                for child in an.obs_children.values():
                    walk(child)

        walk(tree.root)

    def test_sequence_fits_horizon(self, three_lanes):
        tree = self._tree(three_lanes)
        seq = extract_sequence(tree)
        assert seq
        assert seq[0] == tree.root_action
        assert sum(a.duration for a in seq) <= 9.0 + 1e-9

    def test_terminal_key_sorts_last(self):
        keys = [TERMINAL_KEY, ((1, 0, 5, 8),), ()]
        assert sorted(keys, key=_key_order)[-1] == TERMINAL_KEY


class TestDeterminism:
    def test_identical_replay_from_belief(self, three_lanes):
        truth = make_state(three_lanes, (55.0, 3.5), 0.0, 5.0, hint=1)
        belief = init_belief(obs_of({1: truth}), three_lanes, FilterConfig(n_particles=30), seed=2)
        ego = ego_at(three_lanes, 30.0, 3.5, 9.0, hint=1)
        a = plan(belief, ego, three_lanes, W, max_expansions=20, K=8, seed=5)
        b = plan(belief, ego, three_lanes, W, max_expansions=20, K=8, seed=5)
        assert a.root_action == b.root_action
        assert a.most_likely_sequence == b.most_likely_sequence
        assert a.root_lower == b.root_lower
        assert a.root_upper == b.root_upper
        assert a.expansions == b.expansions


class TestBehavior:
    def test_overtakes_stalled_leader_when_goal_is_left(self):
        net = parallel_network(n_lanes=2, length=400, goal=1)
        ego = ego_at(net, 30.0, 0.0, 10.0)
        wall = exo(net, 1, 60.0, 0.0, 0.0, v0=2.0)
        sc = [Scenario(ego=ego, exos=[ExoAgent(1, wall.state, LF, wall.style, 1)], noise_seed=i) for i in range(5)]
        tree = plan(None, ego, net, W, max_expansions=60, horizon_s=9.0, scenarios=sc)
        assert tree.root_action.kind == IntentionKind.LC_L
        check_bounds(tree.root)

    def test_stays_when_on_goal_lane_and_clear(self, three_lanes):
        ego = ego_at(three_lanes, 30.0, 0.0, 10.0)
        sc = [Scenario(ego=ego, exos=[], noise_seed=i) for i in range(3)]
        tree = plan(None, ego, three_lanes, W, max_expansions=40, horizon_s=9.0, scenarios=sc)
        assert tree.root_action.kind == IntentionKind.LF
