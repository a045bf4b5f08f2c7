import math

import numpy as np
import pytest

from conftest import parallel_network
from driveplan.driver import (
    LF,
    Intention,
    IntentionKind,
    StyleParam,
    make_state,
    step_driver,
)
from driveplan.observation import ObservationNoise
from driveplan.pomdp import (
    DT,
    EGO_STYLE,
    ExoAgent,
    MacroAction,
    RewardWeights,
    Scenario,
    extract_observation,
    goal_distance,
    legal_actions,
    macro_action,
    rectangles_overlap,
    simulate,
    step_reward,
)

W = RewardWeights()


def ego_at(net, x, y, speed=10.0, hint=None):
    return make_state(net, (x, y), 0.0, speed, hint=hint)


def scenario(net, ego, exos=(), seed=7):
    return Scenario(ego=ego, exos=list(exos), noise_seed=seed)


def exo(net, aid, x, y, speed, intention=LF, v0=8.0, hint=None):
    st = make_state(net, (x, y), 0.0, speed, hint=hint)
    return ExoAgent(aid, st, intention, StyleParam(v0=v0), connector_seed=aid)


class TestLegalActions:
    def test_leftmost_lane(self, three_lanes):
        acts = legal_actions(ego_at(three_lanes, 50.0, 7.0, hint=2), three_lanes)
        assert [a.kind for a in acts] == [IntentionKind.LF, IntentionKind.LC_R]

    def test_single_lane_connector(self, junction_network):
        acts = legal_actions(ego_at(junction_network, -20.0, 0.0, hint=0), junction_network)
        assert [a.kind for a in acts] == [IntentionKind.LF]

    def test_middle_lane_all_three(self, three_lanes):
        acts = legal_actions(ego_at(three_lanes, 50.0, 3.5, hint=1), three_lanes)
        assert [a.kind for a in acts] == [
            IntentionKind.LF,
            IntentionKind.LC_L,
            IntentionKind.LC_R,
        ]

    def test_mid_lane_change_blocks_other_side(self, three_lanes):
        mid = Intention(IntentionKind.LC_L, 2)
        acts = legal_actions(
            ego_at(three_lanes, 50.0, 4.5, hint=1), three_lanes, in_progress=mid
        )
        assert [a.kind for a in acts] == [IntentionKind.LF, IntentionKind.LC_L]


class TestStepReward:
    def test_collision_at_standstill(self):
        assert step_reward(0.0, 0.0, True, False, W) == pytest.approx(
            -W.w_coll - W.w_eff * W.v_des_ego * DT
        )

    def test_cubic_ratio(self):
        pen0 = -step_reward(0.0, 0.0, True, False, RewardWeights(w_eff=0.0))
        pen2 = -step_reward(2.0, 0.0, True, False, RewardWeights(w_eff=0.0))
        assert pen2 / pen0 == pytest.approx(27.0)

    def test_zero_on_goal_lane_at_speed(self):
        assert step_reward(W.v_des_ego, 0.0, False, False, W) == 0.0

    def test_never_positive_randomized(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            r = step_reward(
                rng.uniform(0, 25),
                rng.uniform(0, 6),
                bool(rng.integers(2)),
                bool(rng.integers(2)),
                W,
            )
            assert r <= 0.0


class TestCollisionGeometry:
    def test_far_apart(self, three_lanes):
        a = ego_at(three_lanes, 0.0, 0.0)
        b = ego_at(three_lanes, 10.0, 0.0)
        assert not rectangles_overlap(a, b)

    def test_overlapping(self, three_lanes):
        a = ego_at(three_lanes, 0.0, 0.0)
        b = ego_at(three_lanes, 3.0, 0.5)
        assert rectangles_overlap(a, b)

    def test_adjacent_lanes_clear(self, three_lanes):
        a = ego_at(three_lanes, 0.0, 0.0)
        b = ego_at(three_lanes, 0.0, 3.5, hint=1)
        assert not rectangles_overlap(a, b)

    def test_rotated_near_miss(self, three_lanes):
        a = ego_at(three_lanes, 0.0, 0.0)
        b = make_state(three_lanes, (0.0, 2.2), math.pi / 2, 5.0, hint=0)
        # rotated footprint is 2.0 m wide along y: half-extents 1.0 + 2.25 > 2.2
        assert rectangles_overlap(a, b)
        c = make_state(three_lanes, (0.0, 3.4), math.pi / 2, 5.0, hint=0)
        assert not rectangles_overlap(a, c)


class TestSimulate:
    def test_penalty_free_lf_rollout(self, three_lanes):
        ego = ego_at(three_lanes, 20.0, 0.0, W.v_des_ego)
        out = simulate(scenario(three_lanes, ego), macro_action(IntentionKind.LF), three_lanes, W)
        assert out.reward == pytest.approx(0.0, abs=1e-9)
        assert not out.terminal
        assert len(out.states) == 10
        assert out.end.ego.s == pytest.approx(20.0 + W.v_des_ego * 2.0, abs=1e-6)

    def test_forced_collision_terminates_early(self, three_lanes):
        ego = ego_at(three_lanes, 20.0, 0.0, 12.0)
        wall = exo(three_lanes, 1, 28.0, 0.0, 0.0, v0=2.0)
        out = simulate(
            scenario(three_lanes, ego, [wall]), macro_action(IntentionKind.LF), three_lanes, W
        )
        assert out.terminal
        assert len(out.states) < 10
        assert out.reward < -W.w_coll

    def test_bit_identical_replay(self, three_lanes):
        ego = ego_at(three_lanes, 20.0, 0.0, 9.0)
        mover = exo(three_lanes, 1, 45.0, 0.0, 6.0, v0=6.0)
        sc = scenario(three_lanes, ego, [mover])
        a = simulate(sc, macro_action(IntentionKind.LC_L), three_lanes, W)
        b = simulate(sc, macro_action(IntentionKind.LC_L), three_lanes, W)
        assert a.reward == b.reward
        assert a.states == b.states
        assert a.end == b.end

    def test_matches_single_agent_driver_trace(self, three_lanes):
        # with no exo-agents the rollout is exactly the driver model trace
        ego = ego_at(three_lanes, 20.0, 0.3, 8.0, hint=0)
        out = simulate(scenario(three_lanes, ego), macro_action(IntentionKind.LF), three_lanes, W)
        st, intent = ego, LF
        for k in range(10):
            st, intent = step_driver(st, intent, EGO_STYLE, [], three_lanes, DT, goal_lane=0)
            assert out.states[k] == st

    def test_discount_composition(self, three_lanes):
        # one 4 s LC equals two chained 2 s halves with the exponent carried
        ego = ego_at(three_lanes, 20.0, 0.0, 9.0)
        lead = exo(three_lanes, 1, 50.0, 3.5, 7.0, v0=7.0, hint=1)
        sc = scenario(three_lanes, ego, [lead])
        full = simulate(sc, macro_action(IntentionKind.LC_L), three_lanes, W)
        first = simulate(sc, MacroAction(IntentionKind.LC_L, 2.0), three_lanes, W, start_tick=0)
        # continue with whatever the intention collapsed to, so nothing re-initiates
        second = simulate(
            first.end,
            MacroAction(first.end.ego_intention.kind, 2.0),
            three_lanes,
            W,
            start_tick=10,
        )
        # states chain bit-exactly; the reward sum differs only by float
        # summation order, so compare at 1 ulp scale
        assert second.end.ego == full.end.ego
        assert second.end.exos == full.end.exos
        assert first.reward + second.reward == pytest.approx(full.reward, abs=1e-12)

    def test_lane_change_charge_once(self, three_lanes):
        ego = ego_at(three_lanes, 20.0, 0.0, W.v_des_ego)
        on_goal = RewardWeights(w_goal=0.0, w_eff=0.0)
        out = simulate(
            scenario(three_lanes, ego), macro_action(IntentionKind.LC_L), three_lanes, on_goal
        )
        assert out.reward == pytest.approx(-on_goal.w_lc, abs=1e-9)

    def test_reward_lower_bound(self, three_lanes):
        # bound used by the planner: one macro-action cannot lose more than this
        v_max = 25.0
        dur = 4.0
        bound = (
            W.w_coll * (1 + v_max) ** 3
            + dur * (W.w_eff * v_max + W.w_goal * (math.exp(W.k_goal * 6.0) - 1))
            + W.w_lc
        )
        ego = ego_at(three_lanes, 20.0, 0.0, 12.0)
        wall = exo(three_lanes, 1, 28.0, 0.0, 0.0, v0=2.0)
        out = simulate(
            scenario(three_lanes, ego, [wall]), macro_action(IntentionKind.LF), three_lanes, W
        )
        assert 0.0 >= out.reward >= -bound


class TestJointTickOrder:
    """simulate's joint tick steps the exo-agents Gauss-Seidel, in list
    order: exo k sees the previous-tick ego, the already-stepped exos
    0..k-1 and the not-yet-stepped rest."""

    def _platoon(self, net):
        # three followers closing on a slower ego: each one's leader is
        # the agent just ahead, so any other update order changes the gaps
        ego = ego_at(net, 60.0, 0.0, 6.0)
        exos = [exo(net, k + 1, 50.0 - 9.0 * k, 0.0, 9.0, v0=12.0) for k in range(3)]
        return ego, exos

    def _by_hand(self, net, ego, exos, n_ticks, exos_see_new_ego):
        states = [e.state for e in exos]
        intents = [e.intention for e in exos]
        ego_intent = LF
        for _ in range(n_ticks):
            new_ego, ego_intent = step_driver(
                ego, ego_intent, EGO_STYLE, list(states), net, DT, goal_lane=net.goal_lane
            )
            seen_ego = new_ego if exos_see_new_ego else ego
            for k, e in enumerate(exos):
                others = [seen_ego] + states[:k] + states[k + 1:]
                states[k], intents[k] = step_driver(
                    states[k], intents[k], e.style, others, net, DT,
                    connector_seed=e.connector_seed,
                )
            ego = new_ego
        return ego, states

    def test_exos_step_in_list_order_against_previous_ego(self, three_lanes):
        ego, exos = self._platoon(three_lanes)
        out = simulate(
            scenario(three_lanes, ego, exos), macro_action(IntentionKind.LF), three_lanes, W
        )
        assert not out.terminal
        end_ego, states = self._by_hand(three_lanes, ego, exos, len(out.states), False)
        assert out.end.ego == end_ego
        assert [e.state for e in out.end.exos] == states
        # the scene tells the orders apart: exos reacting to the new-tick ego
        # end elsewhere
        _, other = self._by_hand(three_lanes, ego, exos, len(out.states), True)
        assert other != states


class TestExtractObservation:
    def test_zero_noise_exact(self, three_lanes):
        st = ego_at(three_lanes, 40.0, 3.5, 7.0, hint=1)
        obs = extract_observation({1: st}, 99, 3, ObservationNoise(1e-300, 1e-300, 1e-300))
        oa = obs.agents[1]
        assert (oa.x, oa.y, oa.heading) == pytest.approx((st.x, st.y, st.heading))

    def test_pure_function_of_seed_tick_agent(self, three_lanes):
        st = ego_at(three_lanes, 40.0, 3.5, 7.0, hint=1)
        a = extract_observation({1: st, 2: st}, 5, 8)
        b = extract_observation({1: st, 2: st}, 5, 8)
        assert a == b
        c = extract_observation({1: st}, 5, 9)
        assert c.agents[1] != a.agents[1]

    def test_empirical_std(self, three_lanes):
        st = ego_at(three_lanes, 40.0, 0.0, 7.0)
        xs = np.array(
            [extract_observation({1: st}, 123, t).agents[1].x for t in range(20_000)]
        )
        assert abs(xs.std() - 0.3) / 0.3 < 0.02


class TestGoalDistance:
    def test_on_goal(self, three_lanes):
        assert goal_distance(three_lanes, 0) == 0.0

    def test_capped_when_unreachable(self):
        from driveplan.road import Lane, RoadNetwork

        a = Lane(0, [(0.0, 0.0), (10.0, 0.0)])
        b = Lane(1, [(0.0, 50.0), (10.0, 50.0)])
        net = RoadNetwork([a, b], goal_lane=0)
        assert goal_distance(net, 1) == 6.0
