import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from conftest import parallel_network
from driveplan.driver import LF, Intention, IntentionKind, StyleParam, make_state
from driveplan.inference import FilterConfig, init_belief, sample_scenarios
from driveplan.observation import AgentObs, Observation
from driveplan.planner import plan
from driveplan.pomdp import (
    ExoAgent,
    IntentionKind,
    MacroAction,
    RewardWeights,
    Scenario,
    extract_observation,
    legal_actions,
    macro_action,
    simulate,
)
from driveplan.refine import (
    Candidate,
    build_proposal,
    cross_evaluate,
    generate_candidates,
    is_feasible,
    replay_value,
    resample,
)
from driveplan.scenes import TEMPLATES, generate_scene, ground_truth_agents

W = RewardWeights()


def obs_of(states):
    return Observation(
        0.0, {aid: AgentObs(s.x, s.y, s.heading, s.speed) for aid, s in states.items()}
    )


def mid_lane_belief(net, n_particles=20, seed=3, x=55.0, speed=6.0):
    st = make_state(net, (x, 3.5), 0.0, speed, hint=1)
    return init_belief(obs_of({1: st}), net, FilterConfig(n_particles=n_particles), seed=seed)


def set_probs(belief, aid, probs_by_kind):
    ab = belief.per_agent[aid]
    ab.intention_prob = {
        m: probs_by_kind[m.kind] for m in ab.intention_prob
    }


class TestBuildProposal:
    def test_mixture_arithmetic(self, three_lanes):
        belief = mid_lane_belief(three_lanes)
        set_probs(belief, 1, {IntentionKind.LF: 1.0, IntentionKind.LC_L: 0.0, IntentionKind.LC_R: 0.0})
        q = build_proposal(belief, lambda_mix=0.5).per_agent[1]
        by_kind = {m.kind: v for m, v in q.items()}
        assert by_kind[IntentionKind.LF] == pytest.approx(2 / 3, abs=1e-4)
        assert by_kind[IntentionKind.LC_L] == pytest.approx(1 / 6, abs=1e-4)
        assert by_kind[IntentionKind.LC_R] == pytest.approx(1 / 6, abs=1e-4)
        assert sum(q.values()) == pytest.approx(1.0)

    def test_lambda_zero_is_posterior(self, three_lanes):
        belief = mid_lane_belief(three_lanes)
        set_probs(belief, 1, {IntentionKind.LF: 0.7, IntentionKind.LC_L: 0.2, IntentionKind.LC_R: 0.1})
        q = build_proposal(belief, lambda_mix=0.0).per_agent[1]
        for m, v in q.items():
            assert v == pytest.approx(belief.per_agent[1].intention_prob[m])

    def test_uniform_fixed_point(self, three_lanes):
        belief = mid_lane_belief(three_lanes)
        for lam in (0.0, 0.3, 1.0):
            q = build_proposal(belief, lambda_mix=lam).per_agent[1]
            assert all(v == pytest.approx(1 / 3) for v in q.values())


class TestResample:
    def test_identity_weights_when_q_equals_p(self, three_lanes):
        belief = mid_lane_belief(three_lanes)
        set_probs(belief, 1, {IntentionKind.LF: 0.6, IntentionKind.LC_L: 0.3, IntentionKind.LC_R: 0.1})
        ego = make_state(three_lanes, (20.0, 3.5), 0.0, 9.0, hint=1)
        prop = build_proposal(belief, lambda_mix=0.0)
        out = resample(prop, belief, 50, seed=4, ego=ego)
        assert all(w == pytest.approx(1.0) for _, w in out)

    def test_weight_ratio_arithmetic(self, three_lanes):
        # edge lane: exactly two legal intentions
        st = make_state(three_lanes, (55.0, 7.0), 0.0, 6.0, hint=2)
        belief = init_belief(obs_of({1: st}), three_lanes, FilterConfig(n_particles=5), seed=3)
        set_probs(belief, 1, {IntentionKind.LF: 0.8, IntentionKind.LC_R: 0.2})
        ab = belief.per_agent[1]
        prop = build_proposal(belief, lambda_mix=0.0)
        q = prop.per_agent[1]
        manual = {
            m: 0.65 if m.kind == IntentionKind.LF else 0.35 for m in q
        }
        from driveplan.refine import Proposal

        prop = Proposal({1: manual})
        ego = make_state(three_lanes, (20.0, 7.0), 0.0, 9.0, hint=2)
        out = resample(prop, belief, 200, seed=9, ego=ego)
        for sc, w in out:
            kind = sc.exos[0].intention.kind
            if kind == IntentionKind.LF:
                assert w == pytest.approx(0.8 / 0.65)
            else:
                assert w == pytest.approx(0.2 / 0.35)

    def test_unbiasedness_mean_weight_one(self, three_lanes):
        belief = mid_lane_belief(three_lanes, n_particles=4)
        set_probs(belief, 1, {IntentionKind.LF: 0.7, IntentionKind.LC_L: 0.25, IntentionKind.LC_R: 0.05})
        ego = make_state(three_lanes, (20.0, 3.5), 0.0, 9.0, hint=1)
        prop = build_proposal(belief, lambda_mix=0.5)
        out = resample(prop, belief, 10_000, seed=11, ego=ego)
        mean_w = sum(w for _, w in out) / len(out)
        assert abs(mean_w - 1.0) < 0.02

    def test_reproducible(self, three_lanes):
        belief = mid_lane_belief(three_lanes)
        ego = make_state(three_lanes, (20.0, 3.5), 0.0, 9.0, hint=1)
        prop = build_proposal(belief)
        a = resample(prop, belief, 12, seed=7, ego=ego)
        b = resample(prop, belief, 12, seed=7, ego=ego)
        assert a == b


class TestGenerateCandidates:
    def test_single_scenario_matches_simulator_segment(self, three_lanes):
        ego = make_state(three_lanes, (20.0, 0.0), 0.0, 9.0)
        sc = Scenario(ego=ego, exos=[], noise_seed=5)
        cands = generate_candidates([sc], [macro_action(IntentionKind.LF)], three_lanes, W, speed_scales=(1.0,))
        assert len(cands) == 1
        sim = simulate(sc, macro_action(IntentionKind.LF), three_lanes, W)
        assert cands[0].states == sim.states

    def test_identical_scenarios_dedup(self, three_lanes):
        ego = make_state(three_lanes, (20.0, 0.0), 0.0, 9.0)
        scs = [Scenario(ego=ego, exos=[], noise_seed=i) for i in range(6)]
        cands = generate_candidates(scs, [macro_action(IntentionKind.LF)], three_lanes, W)
        assert len(cands) <= 3

    def test_slow_scale_travels_less(self, three_lanes):
        ego = make_state(three_lanes, (20.0, 0.0), 0.0, 10.0)
        sc = Scenario(ego=ego, exos=[], noise_seed=5)
        cands = generate_candidates([sc], [macro_action(IntentionKind.LF)], three_lanes, W)
        by_scale = {c.speed_scale: c for c in cands}
        assert by_scale[0.7].states[-1].s < by_scale[1.0].states[-1].s

    def test_all_candidates_kinematically_feasible(self, three_lanes):
        ego = make_state(three_lanes, (20.0, 3.5), 0.0, 9.0, hint=1)
        slow = make_state(three_lanes, (40.0, 3.5), 0.0, 2.0, hint=1)
        sc = Scenario(
            ego=ego,
            exos=[ExoAgent(1, slow, LF, StyleParam(v0=2.0), 1)],
            noise_seed=5,
        )
        for kind in (IntentionKind.LF, IntentionKind.LC_L):
            cands = generate_candidates([sc], [macro_action(kind)], three_lanes, W)
            assert cands
            for c in cands:
                assert is_feasible(c)

    def test_lane_change_candidate_charges_initiation(self, three_lanes):
        ego = make_state(three_lanes, (20.0, 3.5), 0.0, 9.0, hint=1)
        sc = Scenario(ego=ego, exos=[], noise_seed=5)
        cands = generate_candidates([sc], [macro_action(IntentionKind.LC_L)], three_lanes, W)
        assert all(c.lc_initiated for c in cands)


class TestCrossEvaluate:
    def test_single_pair_equals_rollout_reward(self, three_lanes):
        ego = make_state(three_lanes, (20.0, 0.0), 0.0, 9.0)
        st = make_state(three_lanes, (45.0, 0.0), 0.0, 6.0)
        sc = Scenario(ego=ego, exos=[ExoAgent(1, st, LF, StyleParam(v0=6.0), 1)], noise_seed=5)
        cands = generate_candidates([sc], [macro_action(IntentionKind.LF)], three_lanes, W, speed_scales=(1.0,))
        ev, best = cross_evaluate(cands, [(sc, 1.0)], three_lanes, W)
        sim = simulate(sc, macro_action(IntentionKind.LF), three_lanes, W)
        assert ev.estimates[ev.selected] == pytest.approx(sim.reward, abs=1e-12)

    def test_argmax_contract(self, three_lanes):
        ego = make_state(three_lanes, (20.0, 3.5), 0.0, 9.0, hint=1)
        lead = make_state(three_lanes, (42.0, 3.5), 0.0, 4.0, hint=1)
        sc = Scenario(ego=ego, exos=[ExoAgent(1, lead, LF, StyleParam(v0=4.0), 1)], noise_seed=5)
        cands = generate_candidates([sc], [macro_action(IntentionKind.LF)], three_lanes, W)
        ev, best = cross_evaluate(cands, [(sc, 1.0)], three_lanes, W)
        assert all(ev.estimates[ev.selected] >= e - 1e-12 for e in ev.estimates)

    def test_collision_free_candidate_dominates(self, three_lanes):
        # a candidate that rams the stopped leader loses to one that brakes
        ego = make_state(three_lanes, (20.0, 0.0), 0.0, 12.0)
        wall = make_state(three_lanes, (40.0, 0.0), 0.0, 0.0)
        sc = Scenario(ego=ego, exos=[ExoAgent(1, wall, LF, StyleParam(v0=2.0), 1)], noise_seed=5)
        braking = generate_candidates(
            [sc], [macro_action(IntentionKind.LF)], three_lanes, W, speed_scales=(1.0,)
        )[0]
        blind = Scenario(ego=ego, exos=[], noise_seed=5)
        rammer = generate_candidates(
            [blind], [macro_action(IntentionKind.LF)], three_lanes, W, speed_scales=(1.0,)
        )[0]
        assert replay_value(rammer, sc, three_lanes, W) < -W.w_coll
        ev, best = cross_evaluate([rammer, braking], [(sc, 1.0)], three_lanes, W)
        assert best is braking

    def test_is_estimate_matches_enumeration(self, three_lanes):
        # two-intention agent with degenerate particle sets: compare the
        # importance-weighted estimate to the exact sum over intentions
        st = make_state(three_lanes, (40.0, 7.0), 0.0, 5.0, hint=2)
        belief = init_belief(obs_of({1: st}), three_lanes, FilterConfig(n_particles=1), seed=2)
        set_probs(belief, 1, {IntentionKind.LF: 0.85, IntentionKind.LC_R: 0.15})
        ego = make_state(three_lanes, (20.0, 7.0), 0.0, 9.0, hint=2)
        prop = build_proposal(belief, lambda_mix=0.5)
        weighted = resample(prop, belief, 10_000, seed=21, ego=ego)
        base = Scenario(ego=ego, exos=[], noise_seed=0)
        cand = generate_candidates(
            [base], [macro_action(IntentionKind.LF)], three_lanes, W, speed_scales=(1.0,)
        )[0]
        value_by_kind = {}
        for sc, _ in weighted:
            kind = sc.exos[0].intention.kind
            if kind not in value_by_kind:
                value_by_kind[kind] = replay_value(cand, sc, three_lanes, W)
        exact = sum(
            belief.per_agent[1].intention_prob[m] * value_by_kind[m.kind]
            for m in belief.per_agent[1].intention_prob
        )
        estimate = (
            sum(w * value_by_kind[sc.exos[0].intention.kind] for sc, w in weighted)
            / len(weighted)
        )
        assert abs(estimate - exact) / abs(exact) < 0.02


class TestConsistencyBridge:
    def test_matches_planner_root_mean(self, three_lanes):
        # with the exo-agent far away the ego rollout is scenario-independent,
        # so the nominal candidate's estimate must equal the planner's root
        # action mean exactly
        net = parallel_network(n_lanes=3, length=500, goal=0)
        ego = make_state(net, (20.0, 3.5), 0.0, 10.0, hint=1)
        far = make_state(net, (250.0, 7.0), 0.0, 8.0, hint=2)
        scs = [
            Scenario(ego=ego, exos=[ExoAgent(1, far, LF, StyleParam(v0=8.0), 1)], noise_seed=i)
            for i in range(4)
        ]
        tree = plan(None, ego, net, W, max_expansions=40, horizon_s=9.0, scenarios=scs)
        cands = generate_candidates(scs, [tree.root_action], net, W)
        nominal = [c for c in cands if c.speed_scale == 1.0]
        assert len(nominal) == 1
        ev, _ = cross_evaluate(cands, [(sc, 1.0) for sc in scs], net, W)
        idx = cands.index(nominal[0])
        root_mean = tree.root.children[tree.root_action.kind].mean_reward
        assert ev.estimates[idx] == pytest.approx(root_mean, abs=1e-6)


class TestRefineEndToEnd:
    def test_runs_and_selects_feasible(self, three_lanes):
        belief = mid_lane_belief(three_lanes, x=45.0, speed=5.0)
        ego = make_state(three_lanes, (20.0, 3.5), 0.0, 9.0, hint=1)
        # the four refinement stages, composed as the harness runs them
        weighted = resample(build_proposal(belief), belief, 8, seed=3, ego=ego)
        cands = generate_candidates(
            [sc for sc, _ in weighted], [macro_action(IntentionKind.LF)], three_lanes, W
        )
        ev, best = cross_evaluate(cands, weighted, three_lanes, W)
        assert is_feasible(best)
        assert ev.estimates[ev.selected] == max(ev.estimates)


class TestReplayAgreesWithSimulate:
    """Search and refinement score the same joint tick: replaying the
    nominal (scale 1.0) candidate against its own scenario gives exactly the
    simulator's reward, over generated scenes and every legal first action."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        template=hs.sampled_from(TEMPLATES),
        scene_seed=hs.integers(0, 10_000),
        n_exo=hs.integers(1, 4),
        ego_dx=hs.floats(0.0, 80.0),
        seed=hs.integers(0, 2**32),
    )
    def test_nominal_replay_equals_simulate_reward(
        self, template, scene_seed, n_exo, ego_dx, seed
    ):
        # ego_dx moves the ego forward among the exos, so that some follow it
        spec = generate_scene(template, seed=scene_seed, n_exo=n_exo)
        net = spec.validate()
        truth = {e.id: e.state for e in ground_truth_agents(spec, net)}
        obs = extract_observation(truth, seed, 0)
        belief = init_belief(obs, net, FilterConfig(n_particles=8), seed=seed)
        start = (spec.ego_x + ego_dx, spec.ego_y)
        ego = make_state(net, start, spec.ego_heading, spec.ego_speed)
        for sc in sample_scenarios(belief, 2, seed, ego):
            for action in legal_actions(sc.ego, net, in_progress=sc.ego_intention):
                (cand,) = generate_candidates([sc], [action], net, W, speed_scales=(1.0,))
                assert replay_value(cand, sc, net, W) == simulate(sc, action, net, W).reward
