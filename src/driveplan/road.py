"""Lane-graph road network with arc-length geometry queries.

Lanes are polylines with symmetric left/right neighbor relations and a
successor graph. All longitudinal quantities are arc lengths along the
polyline; lateral offsets are signed, positive to the left of the
centerline direction.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field

LaneId = int

#: Marker returned by lane_change_distance when no path exists.
UNREACHABLE = math.inf


class RoadError(Exception):
    pass


class NoLaneWithinRadius(RoadError):
    """Projection target is too far from every lane."""


class OutOfRange(RoadError):
    """Arc-length query outside [0, lane length]."""


@dataclass(slots=True)
class Lane:
    id: LaneId
    centerline: list[tuple[float, float]]
    width: float = 3.5
    successors: tuple[LaneId, ...] = ()
    left_neighbor: LaneId | None = None
    right_neighbor: LaneId | None = None

    # derived geometry, filled in __post_init__
    cum: list[float] = field(default_factory=list, repr=False)
    seg_heading: list[float] = field(default_factory=list, repr=False)
    seg_unit: list[tuple[float, float]] = field(default_factory=list, repr=False)
    length: float = field(default=0.0, repr=False)

    def __post_init__(self):
        if len(self.centerline) < 2:
            raise RoadError(f"lane {self.id}: centerline needs >= 2 points")
        if self.width <= 0:
            raise RoadError(f"lane {self.id}: non-positive width")
        self.successors = tuple(self.successors)
        self.cum = [0.0]
        self.seg_heading = []
        self.seg_unit = []
        for (x0, y0), (x1, y1) in zip(self.centerline, self.centerline[1:]):
            d = math.hypot(x1 - x0, y1 - y0)
            if d == 0.0:
                raise RoadError(f"lane {self.id}: repeated centerline point")
            self.cum.append(self.cum[-1] + d)
            h = math.atan2(y1 - y0, x1 - x0)
            self.seg_heading.append(h)
            self.seg_unit.append((math.cos(h), math.sin(h)))
        self.length = self.cum[-1]

    def point_at(self, s: float) -> tuple[tuple[float, float], float]:
        """Point and tangent heading at arc length s along the centerline."""
        if s < -1e-9 or s > self.length + 1e-9:
            raise OutOfRange(f"s={s} outside [0, {self.length}] on lane {self.id}")
        s = min(max(s, 0.0), self.length)
        if len(self.cum) == 2:  # straight lane: single segment
            i = 0
        else:
            i = bisect_right(self.cum, s) - 1
            if i >= len(self.seg_heading):
                i = len(self.seg_heading) - 1
        t = s - self.cum[i]
        x0, y0 = self.centerline[i]
        ux, uy = self.seg_unit[i]
        return (x0 + t * ux, y0 + t * uy), self.seg_heading[i]

    def project_local(self, x: float, y: float) -> tuple[float, float]:
        """(s, d) of the closest centerline point; d positive to the left."""
        pts = self.centerline
        if len(pts) == 2:  # straight lane: single-segment closed form
            x0, y0 = pts[0]
            x1, y1 = pts[1]
            dx = x1 - x0
            dy = y1 - y0
            t = ((x - x0) * dx + (y - y0) * dy) / (dx * dx + dy * dy)
            if t < 0.0:
                t = 0.0
            elif t > 1.0:
                t = 1.0
            ex = x - (x0 + t * dx)
            ey = y - (y0 + t * dy)
            dist = math.hypot(ex, ey)
            return t * self.length, dist if dx * ey - dy * ex >= 0.0 else -dist
        best_abs = math.inf
        best_s = 0.0
        best_d = 0.0
        for i in range(len(pts) - 1):
            x0, y0 = pts[i]
            x1, y1 = pts[i + 1]
            dx = x1 - x0
            dy = y1 - y0
            seg2 = dx * dx + dy * dy
            t = ((x - x0) * dx + (y - y0) * dy) / seg2
            t = min(max(t, 0.0), 1.0)
            cx = x0 + t * dx
            cy = y0 + t * dy
            dist = math.hypot(x - cx, y - cy)
            if dist < best_abs:
                best_abs = dist
                seg_len = self.cum[i + 1] - self.cum[i]
                best_s = self.cum[i] + t * seg_len
                # sign: positive when the point lies left of the segment direction
                cross = dx * (y - cy) - dy * (x - cx)
                best_d = dist if cross >= 0.0 else -dist
        return best_s, best_d


class RoadNetwork:
    """Immutable lane graph; safe for concurrent reads after construction."""

    def __init__(self, lanes: list[Lane], goal_lane: LaneId):
        self.lanes: dict[LaneId, Lane] = {ln.id: ln for ln in lanes}
        if len(self.lanes) != len(lanes):
            raise RoadError("duplicate lane ids")
        if goal_lane not in self.lanes:
            raise RoadError(f"goal lane {goal_lane} not in network")
        self.goal_lane = goal_lane
        self.max_width = max(ln.width for ln in lanes)
        self._validate()
        self._hops_to_goal = self._hops_to(goal_lane)
        self._adj_cache: dict[LaneId, list[LaneId]] = {}
        self._path_cache: dict = {}  # used by driver.reference_path
        self._ref_cache: dict = {}  # (start_lane, goal, rng_seed) -> RefPath

    def _validate(self):
        for ln in self.lanes.values():
            for ref in ln.successors:
                if ref not in self.lanes:
                    raise RoadError(f"lane {ln.id}: unknown successor {ref}")
            for attr in ("left_neighbor", "right_neighbor"):
                ref = getattr(ln, attr)
                if ref is None:
                    continue
                if ref not in self.lanes:
                    raise RoadError(f"lane {ln.id}: unknown neighbor {ref}")
            if ln.left_neighbor is not None:
                if self.lanes[ln.left_neighbor].right_neighbor != ln.id:
                    raise RoadError(f"asymmetric neighbor pair {ln.id}/{ln.left_neighbor}")
            if ln.right_neighbor is not None:
                if self.lanes[ln.right_neighbor].left_neighbor != ln.id:
                    raise RoadError(f"asymmetric neighbor pair {ln.id}/{ln.right_neighbor}")

    def _hops_to(self, target: LaneId) -> dict[LaneId, int]:
        """Hop counts from every lane to `target`: a 0-1 BFS over reversed
        edges, where successor moves are free and neighbor moves cost 1."""
        preds: dict[LaneId, list[LaneId]] = {lid: [] for lid in self.lanes}
        for ln in self.lanes.values():
            for suc in ln.successors:
                preds[suc].append(ln.id)
        dist: dict[LaneId, int] = {target: 0}
        dq = deque([(0, target)])
        while dq:
            d, lid = dq.popleft()
            if d > dist.get(lid, math.inf):
                continue  # stale entry
            ln = self.lanes[lid]
            for nxt in preds[lid]:
                if d < dist.get(nxt, math.inf):
                    dist[nxt] = d
                    dq.appendleft((d, nxt))
            for nb in (ln.left_neighbor, ln.right_neighbor):
                if nb is not None and d + 1 < dist.get(nb, math.inf):
                    dist[nb] = d + 1
                    dq.append((d + 1, nb))
        return dist

    def neighbors_and_successors(self, lid: LaneId) -> list[LaneId]:
        cached = self._adj_cache.get(lid)
        if cached is None:
            ln = self.lanes[lid]
            out = list(ln.successors)
            if ln.left_neighbor is not None:
                out.append(ln.left_neighbor)
            if ln.right_neighbor is not None:
                out.append(ln.right_neighbor)
            cached = self._adj_cache[lid] = out
        return cached


def project(
    network: RoadNetwork,
    position: tuple[float, float],
    hint: LaneId | None = None,
) -> tuple[LaneId, float, float]:
    """Project a point onto the lane graph, returning (lane, s, d).

    Candidate lanes are tried in locality tiers -- the hint lane, then its
    neighbors and successors, then every lane -- and the first tier whose
    best lateral offset keeps the point inside the lane wins. This keeps
    projections stable where junction connectors overlap.
    """
    x, y = position
    lanes = network.lanes

    global_best = None
    remaining_tiers: list[list[LaneId]] = []
    if hint is not None and hint in lanes:
        # fast path: the hint lane itself still contains the point -- unless
        # the projection clamps at the lane end, where the endpoint distance
        # masquerades as a lateral offset and a successor is the true anchor
        ln = lanes[hint]
        s, d = ln.project_local(x, y)
        at_end = s >= ln.length - 1e-9 and ln.successors
        if (d if d >= 0.0 else -d) <= ln.width * 0.5 and not at_end:
            return hint, s, d
        global_best = (hint, s, d)
        remaining_tiers.append(network.neighbors_and_successors(hint))
    remaining_tiers.append(sorted(lanes))

    for tier in remaining_tiers:
        best = None
        for lid in tier:
            ln = network.lanes[lid]
            s, d = ln.project_local(x, y)
            if best is None or abs(d) < abs(best[2]):
                best = (lid, s, d)
        if best is None:
            continue
        if global_best is None or abs(best[2]) < abs(global_best[2]):
            global_best = best
        if abs(best[2]) <= network.lanes[best[0]].width / 2.0:
            return best
    assert global_best is not None
    if abs(global_best[2]) > 2.0 * network.max_width:
        raise NoLaneWithinRadius(f"nearest lane is {abs(global_best[2]):.2f} m away")
    return global_best


def lane_change_distance(network: RoadNetwork, from_lane: LaneId, to_lane: LaneId) -> float:
    """Minimum lateral hops from one lane to another, free forward travel.

    Returns UNREACHABLE (inf) when no path exists.
    """
    if from_lane not in network.lanes or to_lane not in network.lanes:
        raise RoadError("unknown lane")
    hops = network._hops_to_goal if to_lane == network.goal_lane else network._hops_to(to_lane)
    return float(hops.get(from_lane, UNREACHABLE))

