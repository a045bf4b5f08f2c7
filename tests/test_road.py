import itertools
import math
import random

import pytest

from driveplan.road import (
    UNREACHABLE,
    Lane,
    NoLaneWithinRadius,
    OutOfRange,
    RoadError,
    RoadNetwork,
    lane_change_distance,
    project,
)

from conftest import LANE_W, parallel_network


class TestProject:
    def test_on_centerline_midpoint(self, three_lanes):
        lid, s, d = project(three_lanes, (100.0, 0.0))
        assert lid == 0
        assert s == pytest.approx(100.0)
        assert d == pytest.approx(0.0, abs=1e-12)

    def test_left_offset_sign(self, three_lanes):
        # 1.5 m left of lane 0 (heading +x means left is +y)
        lid, s, d = project(three_lanes, (50.0, 1.5), hint=0)
        assert lid == 0
        assert d == pytest.approx(1.5)

    def test_hint_preferred_at_overlap(self, three_lanes):
        # midway between lanes 0 and 1 the hint decides
        y_mid = LANE_W / 2
        lid, _, d = project(three_lanes, (50.0, y_mid), hint=0)
        assert lid == 0
        assert d == pytest.approx(y_mid)

    def test_connector_arc_against_dense_sampling(self, junction_network):
        # oracle: brute force over densely sampled centerline points
        conn = junction_network.lanes[1]
        query = (16.0, 7.0)
        best = min(
            (
                (math.hypot(query[0] - p[0], query[1] - p[1]), s)
                for s, p in _dense_samples(conn, 20001)
            ),
        )
        lid, s, d = project(junction_network, query, hint=1)
        assert lid == 1
        assert abs(abs(d) - best[0]) < 0.01
        assert abs(s - best[1]) < 0.01

    def test_far_point_raises(self, three_lanes):
        with pytest.raises(NoLaneWithinRadius):
            project(three_lanes, (50.0, 500.0))

    def test_round_trip(self, junction_network):
        rng = random.Random(7)
        for lane in junction_network.lanes.values():
            for _ in range(20):
                s = rng.uniform(0.0, lane.length)
                (x, y), _ = lane.point_at(s)
                lid, s2, d2 = project(junction_network, (x, y), hint=lane.id)
                assert lid == lane.id
                assert abs(s2 - s) < 0.01
                assert abs(d2) < 0.001


def _dense_samples(lane, n):
    for i in range(n):
        s = lane.length * i / (n - 1)
        p, _ = lane.point_at(s)
        yield s, p


class TestLaneChangeDistance:
    def test_identity(self, three_lanes):
        assert lane_change_distance(three_lanes, 1, 1) == 0

    def test_adjacent(self, three_lanes):
        assert lane_change_distance(three_lanes, 0, 1) == 1

    def test_across_three_lanes_matches_bfs_oracle(self, three_lanes):
        assert lane_change_distance(three_lanes, 2, 0) == _bfs_oracle(three_lanes, 2, 0)
        assert lane_change_distance(three_lanes, 2, 0) == 2

    def test_unreachable(self):
        a = Lane(0, [(0.0, 0.0), (10.0, 0.0)])
        b = Lane(1, [(0.0, 50.0), (10.0, 50.0)])
        net = RoadNetwork([a, b], goal_lane=0)
        assert lane_change_distance(net, 1, 0) == UNREACHABLE

    def test_forward_travel_is_free(self, junction_network):
        assert lane_change_distance(junction_network, 0, 2) == 0

    def test_metric_properties_exhaustive(self, three_lanes):
        lanes = list(three_lanes.lanes)
        d = {
            (a, b): lane_change_distance(three_lanes, a, b)
            for a, b in itertools.product(lanes, lanes)
        }
        for a, b, c in itertools.product(lanes, repeat=3):
            assert d[a, b] >= 0
            assert (d[a, b] == 0) == (a == b)
            assert d[a, c] <= d[a, b] + d[b, c]


def _bfs_oracle(net, src, dst):
    # exhaustive BFS over (lane, hops), forward moves free
    frontier = {src}
    hops = 0
    while hops <= len(net.lanes):
        # closure under successors
        closed = set(frontier)
        grew = True
        while grew:
            grew = False
            for lid in list(closed):
                for suc in net.lanes[lid].successors:
                    if suc not in closed:
                        closed.add(suc)
                        grew = True
        if dst in closed:
            return hops
        frontier = {
            nb
            for lid in closed
            for nb in (net.lanes[lid].left_neighbor, net.lanes[lid].right_neighbor)
            if nb is not None
        }
        hops += 1
    return UNREACHABLE


class TestPointAt:
    def test_endpoints(self, three_lanes):
        lane = three_lanes.lanes[0]
        p0, h0 = lane.point_at(0.0)
        assert p0 == (0.0, 0.0)
        assert h0 == pytest.approx(0.0)
        p1, _ = lane.point_at(lane.length)
        assert p1 == pytest.approx((200.0, 0.0))

    def test_mid_segment_interpolation(self):
        # hand oracle on a two-segment polyline: (0,0)->(3,0)->(3,4)
        lane = Lane(0, [(0.0, 0.0), (3.0, 0.0), (3.0, 4.0)])
        p, h = lane.point_at(5.0)
        assert p == pytest.approx((3.0, 2.0))
        assert h == pytest.approx(math.pi / 2)

    def test_out_of_range(self, three_lanes):
        with pytest.raises(OutOfRange):
            three_lanes.lanes[0].point_at(201.0)


class TestValidation:
    def test_asymmetric_neighbors_rejected(self):
        a = Lane(0, [(0.0, 0.0), (10.0, 0.0)], left_neighbor=1)
        b = Lane(1, [(0.0, 3.5), (10.0, 3.5)])
        with pytest.raises(RoadError):
            RoadNetwork([a, b], goal_lane=0)

    def test_single_point_rejected(self):
        with pytest.raises(RoadError):
            Lane(0, [(0.0, 0.0)])

    def test_repeated_point_rejected(self):
        with pytest.raises(RoadError):
            Lane(0, [(0.0, 0.0), (0.0, 0.0), (1.0, 0.0)])
