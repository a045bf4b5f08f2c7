import math
import random

import pytest

from conftest import parallel_network
from driveplan.driver import (
    LF_LOOKAHEAD,
    IllegalIntention,
    Intention,
    IntentionKind,
    LF,
    PhysicalState,
    StyleParam,
    idm_accel,
    legal_intentions,
    make_state,
    reference_path,
    settle_lane_change,
    step_driver,
)
from driveplan.scenes import generate_scene

DT = 0.2


def agent(net, x, y, speed, heading=0.0, hint=None):
    return make_state(net, (x, y), heading, speed, hint=hint)


class TestIdm:
    def test_free_road_equilibrium(self):
        assert idm_accel(12.0, 12.0, math.inf) == pytest.approx(0.0)

    def test_standstill_free_road(self):
        assert idm_accel(0.0, 10.0, math.inf) == pytest.approx(1.5)

    def test_formula_oracle(self):
        # independent single-line evaluation of the IDM law
        v, v0, gap, lead = 10.0, 15.0, 30.0, 10.0
        a, b, s0, T, delta = 1.5, 2.0, 2.0, 1.5, 4.0
        s_star = s0 + v * T + v * (v - lead) / (2 * math.sqrt(a * b))
        expected = a * (1 - (v / v0) ** delta - (s_star / gap) ** 2)
        assert idm_accel(v, v0, gap, lead) == pytest.approx(expected, abs=1e-12)

    def test_emergency_clamp_on_degenerate_gap(self):
        assert idm_accel(10.0, 10.0, -1.0, 0.0) == -6.0

    def test_monotonicity_randomized(self):
        rng = random.Random(3)
        for _ in range(200):
            v = rng.uniform(0, 20)
            v0 = rng.uniform(2, 20)
            gap = rng.uniform(1, 80)
            lead = rng.uniform(0, 20)
            base = idm_accel(v, v0, gap, lead)
            assert idm_accel(v + rng.uniform(0.1, 2), v0, gap, lead) <= base + 1e-12
            assert idm_accel(v, v0, gap + rng.uniform(0.1, 20), lead) >= base - 1e-12
            assert idm_accel(v, v0, gap, lead + rng.uniform(0.1, 5)) >= base - 1e-12


class TestPurePursuit:
    """Lateral control, read off step_driver's yaw-rate command."""

    def test_aligned_on_centerline(self, three_lanes):
        st = agent(three_lanes, 50.0, 0.0, 10.0)
        new, _ = step_driver(st, LF, StyleParam(v0=10.0), [], three_lanes, DT)
        assert new.yaw_rate == pytest.approx(0.0, abs=1e-12)

    def test_left_offset_steers_right(self, three_lanes):
        st = agent(three_lanes, 50.0, 1.0, 5.0, hint=0)
        new, _ = step_driver(st, LF, StyleParam(v0=5.0), [], three_lanes, DT)
        assert new.yaw_rate < 0.0

    def test_geometric_oracle(self, three_lanes):
        # 1 m left, aligned, L_d = LF_LOOKAHEAD, speed = 5: alpha from the
        # lookahead triangle; the pose integrates the previous heading
        st = agent(three_lanes, 50.0, 1.0, 5.0, hint=0)
        new, _ = step_driver(st, LF, StyleParam(v0=5.0), [], three_lanes, DT)
        alpha = math.atan2(-1.0, LF_LOOKAHEAD)
        expected = 2.0 * math.sin(alpha) / LF_LOOKAHEAD * 5.0
        assert new.yaw_rate == pytest.approx(expected, abs=1e-9)
        assert new.heading == pytest.approx(expected * DT, abs=1e-9)
        assert (new.x, new.y) == pytest.approx((50.0 + 5.0 * DT, 1.0), abs=1e-12)


class TestStepDriver:
    def test_lf_equilibrium_straight(self, three_lanes):
        style = StyleParam(v0=10.0)
        st = agent(three_lanes, 50.0, 0.0, 10.0)
        new, intent = step_driver(st, LF, style, [], three_lanes, DT)
        assert intent == LF
        assert new.s == pytest.approx(st.s + 10.0 * DT, abs=1e-9)
        assert new.d == pytest.approx(0.0, abs=1e-9)
        assert new.speed == pytest.approx(10.0)

    def test_rest_state_integrator(self, three_lanes):
        # at rest the pose holds for one tick while IDM starts accelerating
        st = agent(three_lanes, 50.0, 0.0, 0.0)
        new, _ = step_driver(st, LF, StyleParam(v0=10.0), [], three_lanes, DT)
        assert (new.x, new.y, new.heading, new.yaw_rate) == (st.x, st.y, st.heading, 0.0)
        assert new.speed == pytest.approx(idm_accel(0.0, 10.0, math.inf) * DT)

    def test_speed_never_negative(self, three_lanes):
        st = agent(three_lanes, 50.0, 0.0, 0.5)
        style = StyleParam(v0=5.0)
        blocker = agent(three_lanes, 52.0, 0.0, 0.0)
        for _ in range(50):
            st, _ = step_driver(st, LF, style, [blocker], three_lanes, DT)
            assert st.speed >= 0.0

    def test_lc_left_offset_decreases_monotonically(self, three_lanes):
        style = StyleParam(v0=10.0, lookahead=8.0)
        st = agent(three_lanes, 20.0, 0.0, 10.0)
        intent = Intention(IntentionKind.LC_L, 1)
        target = three_lanes.lanes[1]
        prev = abs(target.project_local(st.x, st.y)[1])
        seen_done = False
        for _ in range(60):
            st, intent = step_driver(st, intent, style, [], three_lanes, DT)
            cur = abs(target.project_local(st.x, st.y)[1])
            assert cur <= prev + 1e-6
            prev = cur
            if intent == LF:
                seen_done = True
                break
        assert seen_done
        assert st.lane == 1

    def test_lf_lateral_convergence_all_styles(self, three_lanes):
        # from 1 m offset, back within 5 cm of the centerline in 8 s
        for v0 in (2.0, 8.0, 20.0):
            st = agent(three_lanes, 10.0, 1.0, v0, hint=0)
            style = StyleParam(v0=v0)
            for _ in range(int(8.0 / DT)):
                st, _ = step_driver(st, LF, style, [], three_lanes, DT)
            assert abs(st.d) < 0.05, f"v0={v0}, d={st.d}"

    def test_pure_function_bit_identical(self, three_lanes):
        style = StyleParam(v0=9.0, lookahead=7.0)
        st = agent(three_lanes, 30.0, 0.3, 8.0, hint=0)
        lead = agent(three_lanes, 55.0, 0.0, 6.0)
        a1 = step_driver(st, LF, style, [lead], three_lanes, DT, connector_seed=42)
        a2 = step_driver(st, LF, style, [lead], three_lanes, DT, connector_seed=42)
        assert a1 == a2

    def test_illegal_intention_raises(self, three_lanes):
        st = agent(three_lanes, 50.0, 0.0, 10.0)
        with pytest.raises(IllegalIntention):
            step_driver(st, Intention(IntentionKind.LC_R, None), StyleParam(), [], three_lanes, DT)

    def test_follows_connector_through_junction(self, junction_network):
        st = agent(junction_network, -40.0, 0.0, 8.0, hint=0)
        style = StyleParam(v0=8.0)
        intent = LF
        for _ in range(int(14.0 / DT)):
            st, intent = step_driver(st, intent, style, [], junction_network, DT, goal_lane=2)
        assert st.lane == 2
        assert abs(st.d) < 0.5


class TestSelectConnector:
    """Successor choice past a lane's end, read off reference_path's chain."""

    def test_single_successor(self, junction_network):
        assert reference_path(junction_network, 0, 2, 0).lane_ids[:2] == (0, 1)

    def test_goal_directed_choice(self):
        assert reference_path(_fork_network(), 0, 2, 0).lane_ids == (0, 2)

    def test_seeded_choice_is_stable(self):
        first = reference_path(_fork_network(), 0, None, 99).lane_ids
        assert first[1] in (1, 2)
        for _ in range(5):
            assert reference_path(_fork_network(), 0, None, 99).lane_ids == first

    def test_dead_end_ends_path(self, three_lanes):
        assert reference_path(three_lanes, 0, 0, 0).lane_ids == (0,)


class TestSettleLaneChange:
    def merge_network(self):
        return generate_scene("merge", seed=0).validate()

    def test_target_lost_at_split_gives_up(self):
        # mid LC_L from lane 0 toward lane 1, past the x = 150 split: the
        # anchor is now lane 2, and lane 1 (which ended) is not adjacent to it
        net = self.merge_network()
        st = make_state(net, (152.0, 1.0), 0.0, 8.0, hint=0)
        assert st.lane == 2
        assert settle_lane_change(net, st, Intention(IntentionKind.LC_L, 1)) == LF
        assert st.lane == 2

    def test_on_target_centerline_completes_and_reanchors(self):
        net = self.merge_network()
        st = PhysicalState(100.0, 3.5, 0.0, 8.0, lane=0, s=100.0, d=3.5)
        assert settle_lane_change(net, st, Intention(IntentionKind.LC_L, 1)) == LF
        assert (st.lane, st.s, st.d) == (1, pytest.approx(100.0), pytest.approx(0.0))

    def test_under_way_is_kept(self):
        net = self.merge_network()
        lc = Intention(IntentionKind.LC_L, 1)
        st = PhysicalState(100.0, 2.0, 0.1, 8.0, lane=0, s=100.0, d=2.0)
        assert settle_lane_change(net, st, lc) == lc
        misaligned = PhysicalState(100.0, 3.5, 0.3, 8.0, lane=0, s=100.0, d=3.5)
        assert settle_lane_change(net, misaligned, lc) == lc
        assert (st.lane, misaligned.lane) == (0, 0)


def _fork_network():
    from driveplan.road import Lane, RoadNetwork

    stem = Lane(0, [(0.0, 0.0), (20.0, 0.0)], successors=(1, 2))
    up = Lane(1, [(20.0, 0.0), (60.0, 20.0)])
    down = Lane(2, [(20.0, 0.0), (60.0, -20.0)])
    return RoadNetwork([stem, up, down], goal_lane=2)


class TestLegalIntentions:
    def test_middle_lane_has_three(self, three_lanes):
        kinds = {i.kind for i in legal_intentions(three_lanes, 1)}
        assert kinds == {IntentionKind.LF, IntentionKind.LC_L, IntentionKind.LC_R}

    def test_edge_lanes(self, three_lanes):
        assert {i.kind for i in legal_intentions(three_lanes, 2)} == {
            IntentionKind.LF,
            IntentionKind.LC_R,
        }
        assert {i.kind for i in legal_intentions(three_lanes, 0)} == {
            IntentionKind.LF,
            IntentionKind.LC_L,
        }
