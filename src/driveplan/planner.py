"""Anytime determinized belief tree search over macro-actions.

The tree is rooted at K scenarios sampled from the current belief. Action
nodes branch over all feasible macro-actions; observation nodes partition
the parent's scenarios by a discretized final observation. Leaves carry a
default-policy lower bound (LF rollout) and a closed-form optimistic upper
bound; trials descend max-upper actions and max-weighted-gap observation
children, expand one leaf, and back bounds up to the root.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .driver import Intention, IntentionKind, LF, PhysicalState
from .inference import JointBelief, sample_scenarios
from .observation import ObservationNoise
from .pomdp import (
    ACTION_ORDER,
    DT,
    LF_DURATION,
    MacroAction,
    RewardWeights,
    Scenario,
    extract_observation,
    goal_distance,
    legal_actions,
    macro_action,
    simulate,
)
from .pomdp import scenario_key  # noqa: F401  (rebound by perfbench/tracing.py)
from .road import NoLaneWithinRadius, RoadNetwork, project

EPS_GAP = 1e-9
EPS_NUM = 1e-6

#: observation discretization: arc-length bucket (m) and speed bucket (m/s)
S_BUCKET = 2.0
V_BUCKET = 1.0

#: sentinel observation key for scenarios that terminated (collision)
TERMINAL_KEY = ("terminal",)


@dataclass
class BeliefNode:
    scenarios: list[Scenario]
    depth_s: float
    start_tick: int
    lower: float = 0.0
    upper: float = 0.0
    init_lower: float = 0.0
    init_upper: float = 0.0
    terminal: bool = False
    rollouts: list | None = None  # per-scenario cached default-policy segments
    children: dict[IntentionKind, "ActionNode"] = field(default_factory=dict)

    @property
    def expanded(self) -> bool:
        return bool(self.children)


@dataclass
class ActionNode:
    action: MacroAction
    mean_reward: float  # root-discounted, averaged over the parent's scenarios
    obs_children: dict[tuple, BeliefNode]
    q_lower: float = 0.0
    q_upper: float = 0.0


@dataclass
class PolicyTree:
    root_action: MacroAction
    root: BeliefNode
    most_likely_sequence: list[MacroAction]
    expansions: int = 0
    root_lower: float = 0.0
    root_upper: float = 0.0


def _key_order(key: tuple):
    """Sort key placing the terminal bucket last; regular keys sort lexically."""
    return (key == TERMINAL_KEY, key)


def observation_key(
    end: Scenario, tick: int, network: RoadNetwork, noise: ObservationNoise
) -> tuple:
    """Discretized observation of a segment's end exo states at `tick`: per
    agent (lane, 2 m arc bucket, 1 m/s bucket).

    The noisy observation is drawn from (end.noise_seed, tick, agent id) and
    projected with each agent's end lane as the hint.
    """
    obs = extract_observation({e.id: e.state for e in end.exos}, end.noise_seed, tick, noise)
    hints = {e.id: e.state.lane for e in end.exos}
    parts = []
    for aid in sorted(obs.agents):
        oa = obs.agents[aid]
        try:
            lane, s, _ = project(network, (oa.x, oa.y), hint=hints.get(aid))
        except NoLaneWithinRadius:
            lane, s = -1, 0.0  # noisy reading off the network: its own bucket
        parts.append((aid, lane, int(s // S_BUCKET), int(oa.speed // V_BUCKET)))
    return tuple(parts)


def upper_bound_value(
    scenario: Scenario,
    horizon_s: float,
    network: RoadNetwork,
    weights: RewardWeights,
    start_tick: int,
) -> float:
    """Optimistic value: no collision, immediate desired speed, and the goal
    distance reduced by k instantaneous hops, minimized over k.

    Each penalty component is bounded below by its minimum over all
    policies (lane-change charges discounted at the horizon, goal decay at
    the post-hop distance from the first tick), so the sum dominates every
    achievable value and is monotone in the initial goal distance.
    """
    horizon_ticks = round(horizon_s / DT)
    n = horizon_ticks - start_tick
    if n <= 0:
        return 0.0
    g = weights.gamma
    geo = (1.0 - g ** n) / (1.0 - g) if g < 1.0 else float(n)
    disc0 = g ** start_tick
    d0 = goal_distance(network, scenario.ego.lane)
    best = -math.inf
    for k in range(int(d0) + 1):
        lc_cost = k * weights.w_lc * (g ** horizon_ticks)
        goal_cost = (
            weights.w_goal * (math.exp(weights.k_goal * (d0 - k)) - 1.0) * DT * disc0 * geo
        )
        best = max(best, -(lc_cost + goal_cost))
    return min(best, 0.0)


def _legal_kinds(node: BeliefNode, network: RoadNetwork) -> list[MacroAction]:
    """Macro-actions legal in every scenario of the node (LF always is)."""
    common: dict[IntentionKind, MacroAction] | None = None
    for sc in node.scenarios:
        acts = {
            a.kind: a for a in legal_actions(sc.ego, network, in_progress=sc.ego_intention)
        }
        if common is None:
            common = acts
        else:
            common = {k: a for k, a in common.items() if k in acts}
    assert common and IntentionKind.LF in common
    return [common[k] for k in ACTION_ORDER if k in common]


class _Search:
    def __init__(self, network, weights, horizon_s, noise):
        self.network = network
        self.weights = weights
        self.horizon_s = horizon_s
        self.noise = noise

    def lf_rollout(self, scenario: Scenario, depth_s: float, start_tick: int) -> list:
        """Chained LF segments to the horizon (the default policy)."""
        segs = []
        sc, t, d = scenario, start_tick, depth_s
        lf = macro_action(IntentionKind.LF)
        while d + LF_DURATION <= self.horizon_s + 1e-9:
            out = simulate(sc, lf, self.network, self.weights, t)
            segs.append(out)
            if out.terminal:
                break
            sc, t, d = out.end, t + lf.ticks, d + LF_DURATION
        return segs

    def make_leaf(self, scenarios, depth_s, start_tick, rollouts=None) -> BeliefNode:
        node = BeliefNode(scenarios, depth_s, start_tick)
        if depth_s + LF_DURATION > self.horizon_s + 1e-9:
            node.terminal = True
            node.lower = node.upper = node.init_lower = 0.0
            return node
        n = len(scenarios)
        if rollouts is None:
            rollouts = [self.lf_rollout(sc, depth_s, start_tick) for sc in scenarios]
        node.rollouts = rollouts
        lo = sum(sum(seg.reward for seg in r) for r in rollouts) / n
        up = sum(
            upper_bound_value(sc, self.horizon_s, self.network, self.weights, start_tick)
            for sc in scenarios
        ) / n
        node.init_lower = node.lower = lo
        node.init_upper = node.upper = max(up, lo)
        return node

    def expand(self, node: BeliefNode):
        n = len(node.scenarios)
        lf = macro_action(IntentionKind.LF)
        for action in _legal_kinds(node, self.network):
            # the LF expansion re-simulates exactly the cached default-policy
            # segments, so reuse them (and hand continuations to the children)
            if action == lf and node.rollouts is not None:
                outcomes = [r[0] for r in node.rollouts]
                conts = [r[1:] for r in node.rollouts]
            else:
                outcomes = [
                    simulate(sc, action, self.network, self.weights, node.start_tick)
                    for sc in node.scenarios
                ]
                conts = [None] * n
            mean_reward = sum(o.reward for o in outcomes) / n
            child_tick = node.start_tick + action.ticks
            groups: dict[tuple, list] = {}
            for out, cont in zip(outcomes, conts):
                if out.terminal:
                    key = TERMINAL_KEY
                else:
                    key = observation_key(out.end, child_tick, self.network, self.noise)
                groups.setdefault(key, []).append((out.end, cont))
            children = {}
            child_depth = node.depth_s + action.duration
            for key in sorted(groups, key=_key_order):
                ends = [sc for sc, _ in groups[key]]
                if key == TERMINAL_KEY:
                    child = BeliefNode(ends, child_depth, child_tick, terminal=True)
                else:
                    sub = [c for _, c in groups[key]]
                    child = self.make_leaf(
                        ends,
                        child_depth,
                        child_tick,
                        rollouts=sub if all(c is not None for c in sub) else None,
                    )
                children[key] = child
            node.children[action.kind] = ActionNode(action, mean_reward, children)
        self.backup_node(node)

    def backup_node(self, node: BeliefNode):
        n = len(node.scenarios)
        best_l = -math.inf
        best_u = -math.inf
        for kind in ACTION_ORDER:
            an = node.children.get(kind)
            if an is None:
                continue
            ql = an.mean_reward
            qu = an.mean_reward
            for child in an.obs_children.values():
                w = len(child.scenarios) / n
                ql += w * child.lower
                qu += w * child.upper
            an.q_lower, an.q_upper = ql, qu
            best_l = max(best_l, ql)
            best_u = max(best_u, qu)
        # the clamp keeps bounds monotone over expansions; both arguments are
        # valid upper bounds of the node value, so the min still is
        node.lower = max(node.init_lower, best_l)
        node.upper = min(node.init_upper, best_u)

    def select_leaf(self, root: BeliefNode) -> tuple[BeliefNode, list[BeliefNode]] | None:
        """Descend max-upper actions and max weighted-gap observation children."""
        path = [root]
        node = root
        while node.expanded:
            best_kind = None
            best_u = -math.inf
            for kind in ACTION_ORDER:
                an = node.children.get(kind)
                if an is not None and an.q_upper > best_u + EPS_GAP:
                    best_u = an.q_upper
                    best_kind = kind
            an = node.children[best_kind]
            best_child = None
            best_gap = EPS_GAP
            for key in sorted(an.obs_children, key=_key_order):
                child = an.obs_children[key]
                if child.terminal:
                    continue
                gap = (len(child.scenarios) / len(root.scenarios)) * (child.upper - child.lower)
                if gap > best_gap:
                    best_gap = gap
                    best_child = child
            if best_child is None:
                return None  # numerically converged along this path
            node = best_child
            path.append(node)
        if node.terminal:
            return None
        return node, path


def best_root_action(root: BeliefNode) -> MacroAction | None:
    """Action with the highest lower bound (ties to ACTION_ORDER)."""
    best = None
    best_val = -math.inf
    for kind in ACTION_ORDER:
        an = root.children.get(kind)
        if an is None:
            continue
        val = an.q_lower
        if val > best_val + EPS_GAP:
            best_val = val
            best = an.action
    return best


def extract_sequence(tree: PolicyTree) -> list[MacroAction]:
    """Root best action, then follow the most populated observation child."""
    seq = []
    node = tree.root
    while node.expanded:
        action = best_root_action(node)
        if action is None:
            break
        seq.append(action)
        an = node.children[action.kind]
        best_key = None
        best_count = -1
        for key in sorted(an.obs_children, key=_key_order):
            child = an.obs_children[key]
            if len(child.scenarios) > best_count:
                best_count = len(child.scenarios)
                best_key = key
        if best_key is None or best_key == TERMINAL_KEY:
            break
        node = an.obs_children[best_key]
    return seq


def check_bounds(node: BeliefNode, tol: float = EPS_NUM):
    """Sandwich invariant, recursively; raises AssertionError on violation."""
    assert node.lower <= node.upper + tol, (node.lower, node.upper)
    for an in node.children.values():
        for child in an.obs_children.values():
            check_bounds(child, tol)


def plan(
    belief: JointBelief,
    ego: PhysicalState,
    network: RoadNetwork,
    weights: RewardWeights = RewardWeights(),
    max_expansions: int = 80,
    K: int = 20,
    horizon_s: float = 9.0,
    seed: int = 0,
    ego_intention: Intention = LF,
    noise: ObservationNoise = ObservationNoise(),
    scenarios: list[Scenario] | None = None,
) -> PolicyTree:
    """Run the anytime search and return the policy tree.

    Deterministic given (belief, ego, seed, max_expansions). Pre-sampled
    scenarios may be passed in (the harness passes its own for the wo_unc
    ablation and for scenes without exo-agents).
    """
    if scenarios is None:
        scenarios = sample_scenarios(belief, K, seed, ego, ego_intention)
    search = _Search(network, weights, horizon_s, noise)
    root = search.make_leaf(scenarios, 0.0, 0)

    expansions = 0
    while expansions < max_expansions:
        if root.upper - root.lower <= EPS_GAP:
            break
        picked = search.select_leaf(root)
        if picked is None:
            break
        leaf, path = picked
        search.expand(leaf)
        expansions += 1
        for node in reversed(path[:-1]):
            search.backup_node(node)

    action = best_root_action(root)
    if action is None:  # no expansion happened: fall back to the default policy
        action = macro_action(IntentionKind.LF)
        tree = PolicyTree(action, root, [action], expansions, root.lower, root.upper)
        return tree
    tree = PolicyTree(action, root, [], expansions, root.lower, root.upper)
    tree.most_likely_sequence = extract_sequence(tree)
    return tree
