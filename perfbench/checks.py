"""Output checks on closed-loop episodes, recomputed apart from the program.

Each check reads the episode's spec, config and trace and returns a list of
problems (empty when the episode passes). Physics, collisions, rewards and
lane hops are recomputed here from first principles; only the model
constants (tick length, vehicle size, actuation limits, goal-distance cap)
come from driveplan.
"""
from __future__ import annotations

import heapq
import json
import math

from driveplan.driver import B_EMERGENCY, DEFAULT_IDM, VEHICLE_LENGTH, VEHICLE_WIDTH, YAW_MAX
from driveplan.pomdp import D_GOAL_CAP, DT

SPEED_SCALES = (0.7, 0.85, 1.0)
TOL = 1e-9  # absolute, on values of order 1..1000
BOUND_TOL = 1e-6  # the planner's own sandwich tolerance (planner.EPS_NUM)
MAX_REPORTED = 3  # problems reported per check and episode


def serialize(trace: list[dict]) -> list[str]:
    """The trace as the lines ``harness.write_trace`` writes."""
    return [json.dumps(rec, sort_keys=True) + "\n" for rec in trace]


def ticks_of(trace: list[dict]) -> list[dict]:
    return [rec for rec in trace if rec.get("record") == "tick"]


def prefix(trace: list[dict], n_ticks: int) -> list[str]:
    """Serialized header and first ``n_ticks`` tick records."""
    head = [rec for rec in trace if rec.get("record") == "header"]
    return serialize(head + ticks_of(trace)[:n_ticks])


# --- geometry ----------------------------------------------------------
def wrap(a: float) -> float:
    return math.remainder(a, 2.0 * math.pi)


def corners(st: dict) -> list[tuple[float, float]]:
    c, s = math.cos(st["heading"]), math.sin(st["heading"])
    hl, hw = VEHICLE_LENGTH / 2.0, VEHICLE_WIDTH / 2.0
    return [
        (st["x"] + c * u - s * v, st["y"] + s * u + c * v)
        for u, v in ((hl, hw), (hl, -hw), (-hl, -hw), (-hl, hw))
    ]


def boxes_overlap(a: dict, b: dict) -> bool:
    """Footprints overlap unless the corner projections separate on one of
    the four edge normals; touching counts as overlap."""
    ca, cb = corners(a), corners(b)
    for poly in (ca, cb):
        for i in range(2):
            (x0, y0), (x1, y1) = poly[i], poly[i + 1]
            nx, ny = y0 - y1, x1 - x0
            pa = [nx * x + ny * y for x, y in ca]
            pb = [nx * x + ny * y for x, y in cb]
            if max(pa) < min(pb) or max(pb) < min(pa):
                return False
    return True


def lane_hops(spec, src: int, dst: int) -> float:
    """Fewest lateral lane changes from src to dst; following a successor
    is free. ``inf`` when dst cannot be reached."""
    lanes = {ls.id: ls for ls in spec.lanes}
    dist = {src: 0}
    heap = [(0, src)]
    while heap:
        d, lid = heapq.heappop(heap)
        if lid == dst:
            return float(d)
        if d > dist[lid]:
            continue
        ls = lanes[lid]
        moves = [(s, 0) for s in ls.successors] + [
            (nb, 1) for nb in (ls.left_neighbor, ls.right_neighbor) if nb is not None
        ]
        for nxt, cost in moves:
            if d + cost < dist.get(nxt, math.inf):
                dist[nxt] = d + cost
                heapq.heappush(heap, (d + cost, nxt))
    return math.inf


def expected_reward(spec, weights, ego: dict, collided: bool) -> float:
    v = ego["speed"]
    d_goal = min(lane_hops(spec, ego["lane"], spec.goal_lane), D_GOAL_CAP)
    r = -weights.w_coll * (1.0 + v) ** 3 if collided else 0.0
    r -= weights.w_eff * abs(v - weights.v_des_ego) * DT
    r -= weights.w_goal * (math.exp(weights.k_goal * d_goal) - 1.0) * DT
    return r


# --- checks --------------------------------------------------------------
def check_kinematics(spec, trace) -> list[str]:
    """Unicycle integration between ticks and the accel/yaw envelope."""
    problems = []
    prev = {"ego": {"x": spec.ego_x, "y": spec.ego_y,
                    "heading": spec.ego_heading, "speed": spec.ego_speed}}
    for e in spec.exos:
        prev[str(e.id)] = {"x": e.x, "y": e.y, "heading": e.heading, "speed": e.speed}
    for rec in ticks_of(trace):
        now = {"ego": rec["ego"], **rec["exos"]}
        for agent, p in prev.items():
            c = now[agent]
            step = p["speed"] * DT
            errs = {
                "x": c["x"] - (p["x"] + step * math.cos(p["heading"])),
                "y": c["y"] - (p["y"] + step * math.sin(p["heading"])),
                "speed": c["speed"] - max(0.0, p["speed"] + c["accel"] * DT),
            }
            bad = [f"{k} off by {v:.3g}" for k, v in errs.items() if abs(v) > TOL]
            if abs(wrap(c["heading"] - p["heading"])) > YAW_MAX * DT + TOL:
                bad.append("yaw rate above YAW_MAX")
            if not -B_EMERGENCY - TOL <= c["accel"] <= DEFAULT_IDM.a + TOL:
                bad.append(f"accel {c['accel']:.3g} outside [-B_EMERGENCY, a]")
            if bad:
                problems.append(f"tick {rec['tick']} agent {agent}: " + ", ".join(bad))
        prev = now
    return problems[:MAX_REPORTED]


def check_collisions(trace) -> list[str]:
    problems = []
    for rec in ticks_of(trace):
        hit = any(boxes_overlap(rec["ego"], st) for st in rec["exos"].values())
        if hit != rec["collided"]:
            problems.append(f"tick {rec['tick']}: collided={rec['collided']}, footprints say {hit}")
    return problems[:MAX_REPORTED]


def check_rewards(spec, config, trace, metrics) -> list[str]:
    weights = config.reward_weights()
    problems = []
    total = 0.0
    for rec in ticks_of(trace):
        want = expected_reward(spec, weights, rec["ego"], rec["collided"])
        if abs(rec["reward"] - want) > TOL * max(1.0, abs(want)):
            problems.append(f"tick {rec['tick']}: reward {rec['reward']!r}, expected {want!r}")
        total += rec["reward"]
    if abs(total - metrics.reward) > TOL * max(1.0, abs(total)):
        problems.append(f"tick rewards sum to {total!r}, metrics.reward is {metrics.reward!r}")
    return problems[:MAX_REPORTED]


def check_beliefs(trace) -> list[str]:
    problems = []
    for rec in ticks_of(trace):
        for aid, summary in rec["belief"].items():
            probs = summary["intention"].values()
            if abs(sum(probs) - 1.0) > TOL or any(not 0.0 <= p <= 1.0 for p in probs):
                problems.append(f"tick {rec['tick']} agent {aid}: intention probs {list(probs)}")
    return problems[:MAX_REPORTED]


def lc_allowance(config) -> float:
    """One lane-change charge, discounted to the horizon.

    ``planner.upper_bound_value`` charges every lane hop still needed to
    reach the goal, including the one a lane change already under way
    completes without a new charge. So on a tick planned from a lane
    change in progress the root's upper bound can fall short of its lower
    bound by up to this much.
    """
    cfg, _ = config.resolved()
    return cfg.w_lc * cfg.gamma ** round(cfg.horizon_s / DT)


def check_planner(config, trace) -> tuple[list[str], list[str]]:
    """Bound sandwich ``lower <= upper <= 0``, speed scale and IS estimate.

    Returns (problems, known): ``known`` lists the ticks planned from a lane
    change in progress whose lower bound exceeds the upper one by no more
    than ``lc_allowance``; they are reported, not failed.
    """
    allowance = lc_allowance(config)
    problems, known = [], []
    planned_from = "LF"  # the ego intention the tick's plan call started from
    for rec in ticks_of(trace):
        lo, up = rec["planner"]["lower"], rec["planner"]["upper"]
        inverted = lo > up + BOUND_TOL
        if inverted and planned_from != "LF" and lo <= up + BOUND_TOL + allowance and up <= 0.0:
            known.append(f"tick {rec['tick']}: lower={lo!r} > upper={up!r} planned mid-{planned_from}")
        elif inverted or up > 0.0:
            problems.append(f"tick {rec['tick']}: bounds lower={lo!r} upper={up!r}")
        ref = rec["refined"]
        if ref["speed_scale"] not in SPEED_SCALES or ref["estimate"] > 0.0:
            problems.append(
                f"tick {rec['tick']}: speed_scale={ref['speed_scale']!r} "
                f"estimate={ref['estimate']!r}")
        planned_from = rec["ego_intention"]
    return problems[:MAX_REPORTED], known


def check_length(spec, trace, metrics) -> list[str]:
    """All ticks run, or the episode ends on its first collision."""
    ticks = ticks_of(trace)
    problems = []
    if [rec["tick"] for rec in ticks] != list(range(len(ticks))):
        problems.append("tick indices are not 0..n-1")
    hits = [rec["tick"] for rec in ticks if rec["collided"]]
    ended_on_hit = bool(ticks) and hits == [ticks[-1]["tick"]]
    if hits and not ended_on_hit:
        problems.append(f"collisions at ticks {hits[:MAX_REPORTED]} without ending the episode")
    if not ended_on_hit and len(ticks) != spec.n_ticks():
        problems.append(f"{len(ticks)} ticks, expected {spec.n_ticks()}")
    if metrics.collided != bool(hits):
        problems.append(f"metrics.collided={metrics.collided} but collision ticks {hits}")
    if trace[-1] != {"record": "metrics", **metrics.to_dict()}:
        problems.append("last trace record differs from the returned metrics")
    return problems


def check_episode(spec, config, trace, metrics) -> tuple[list[str], list[str]]:
    """Every output check on one episode.

    Returns (problems, known faults); see ``check_planner`` for the latter.
    """
    planner_problems, known = check_planner(config, trace)
    problems = (
        check_length(spec, trace, metrics)
        + check_kinematics(spec, trace)
        + check_collisions(trace)
        + check_rewards(spec, config, trace, metrics)
        + check_beliefs(trace)
        + planner_problems
    )
    return problems, known
