import math

import pytest

from driveplan.road import Lane, RoadNetwork

LANE_W = 3.5


def straight_lane(lid, y, length=200.0, n_pts=2, **kw):
    xs = [length * i / (n_pts - 1) for i in range(n_pts)]
    return Lane(lid, [(x, y) for x in xs], width=LANE_W, **kw)


def parallel_network(n_lanes=3, length=200.0, goal=0):
    """n parallel lanes along +x; lane i sits at y = i * LANE_W, left is +y."""
    lanes = []
    for i in range(n_lanes):
        lanes.append(
            straight_lane(
                i,
                i * LANE_W,
                length,
                left_neighbor=i + 1 if i + 1 < n_lanes else None,
                right_neighbor=i - 1 if i > 0 else None,
            )
        )
    return RoadNetwork(lanes, goal_lane=goal)


def connector_arc(lid, radius=20.0, n_pts=9, **kw):
    """Quarter-circle connector from +x heading to +y heading, start at origin."""
    pts = []
    for i in range(n_pts):
        a = (math.pi / 2) * i / (n_pts - 1)
        pts.append((radius * math.sin(a), radius * (1 - math.cos(a))))
    return Lane(lid, pts, width=LANE_W, **kw)


@pytest.fixture
def three_lanes():
    return parallel_network(3)


@pytest.fixture
def junction_network():
    """Straight approach, 90-degree connector, straight exit."""
    approach = Lane(0, [(-50.0, 0.0), (0.0, 0.0)], successors=(1,))
    conn = connector_arc(1, successors=(2,))
    exit_lane = Lane(2, [(20.0, 20.0), (20.0, 80.0)])
    return RoadNetwork([approach, conn, exit_lane], goal_lane=2)
