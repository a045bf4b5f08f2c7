"""Tick timing and per-stage tracing, installed from outside the package.

Both rebind names that driveplan's modules import from one another (module
attributes such as ``harness.plan``) and restore them afterwards, so no
file under src/ changes and a traced episode's trace is byte-identical to
an untraced one.

The tick clock takes one ``perf_counter`` at every ``plan`` call and one
when ``run_episode`` returns: tick i runs from the i-th plan call to the
next, and the last tick ends with the episode.
"""
from __future__ import annotations

import time
import traceback
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

from driveplan import driver, harness, inference, planner, pomdp, refine

#: the span every stage runs under; agent-steps counted here are the
#: harness's own world advance
TICK = "harness.tick"

#: stages whose self time is reported, in per-tick order
STAGES = (
    "planner.plan",
    "inference.sample_scenarios",
    "inference.update",
    "refine.resample",
    "refine.generate_candidates",
    "refine.cross_evaluate",
)

#: stages whose agent-steps are reported
STEP_STAGES = (
    "planner.plan",
    "inference.update",
    "refine.generate_candidates",
    "refine.cross_evaluate",
)


@contextmanager
def rebound(bindings):
    """Set module attributes for the duration of the block.

    ``bindings`` is a list of (module, name, value); the original values
    are restored on exit, also when the block raises.
    """
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in bindings]
    try:
        for mod, name, value in bindings:
            setattr(mod, name, value)
        yield
    finally:
        for mod, name, value in reversed(saved):
            setattr(mod, name, value)


@dataclass
class EpisodeRun:
    label: str
    metrics: harness.EpisodeMetrics | None
    trace: list[dict]
    intervals: list[float]  # seconds per closed-loop tick
    error: str | None = None


def run_timed(ep) -> EpisodeRun:
    """Run one workload episode through ``harness.run_episode`` and time its ticks."""
    stamps: list[float] = []
    clock = time.perf_counter
    plan = harness.plan

    def stamped_plan(*args, **kwargs):
        stamps.append(clock())
        return plan(*args, **kwargs)

    with rebound([(harness, "plan", stamped_plan)]):
        metrics, trace = harness.run_episode(ep.spec, ep.config, ep.seed)
        stamps.append(clock())
    intervals = [b - a for a, b in zip(stamps, stamps[1:])]
    return EpisodeRun(ep.label, metrics, trace, intervals)


def attempt(ep) -> EpisodeRun:
    try:
        return run_timed(ep)
    except Exception:  # an episode that raises counts as failed; the run goes on
        return EpisodeRun(ep.label, None, [], [], traceback.format_exc())


#: every tick is timed at least this often in one run (see bench.tick_floor)
MIN_ROUNDS = 2


def run_rounds(episodes, seconds: float) -> tuple[list[list[EpisodeRun]], float]:
    """Whole rounds of ``episodes`` while another round is expected to end
    within ``seconds``, at least MIN_ROUNDS; returns the runs and the wall time."""
    rounds = []
    t0 = time.perf_counter()
    while True:
        rounds.append([attempt(ep) for ep in episodes])
        wall = time.perf_counter() - t0
        n = len(rounds)
        if n >= MIN_ROUNDS and wall * (n + 1) / n > seconds:
            return rounds, wall


class Tracer:
    """Spans around the per-tick stages and counts of the calls inside them.

    A span records (tick, name, parent, start, end); counts are kept per
    enclosing stage, so an agent-step inside ``simulate`` inside
    ``generate_candidates`` counts toward ``refine.generate_candidates``.
    """

    def __init__(self):
        self.stack = [TICK]
        self.tick = -1  # global tick index, advanced by every plan call
        self.spans: list[tuple[int, str, str, float, float]] = []
        self.calls: dict[str, Counter] = defaultdict(Counter)
        self.candidates = 0  # candidates returned by generate_candidates
        self.pairs = 0  # candidates x scenarios handed to cross_evaluate

    # --- wrappers ------------------------------------------------------
    def span(self, name, fn):
        stack, spans, clock = self.stack, self.spans, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            stack.append(name)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((self.tick, name, parent, t0, t1))

        return traced

    def count(self, name, fn):
        per_stage, stack = self.calls[name], self.stack

        def counted(*args, **kwargs):
            per_stage[stack[-1]] += 1
            return fn(*args, **kwargs)

        return counted

    def _plan(self, fn):
        def plan(*args, **kwargs):
            self.tick += 1
            return fn(*args, **kwargs)

        return plan

    def _generate_candidates(self, fn):
        def generate_candidates(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.candidates += len(out)
            return out

        return generate_candidates

    def _cross_evaluate(self, fn):
        def cross_evaluate(candidates, weighted_scenarios, *args, **kwargs):
            self.pairs += len(candidates) * len(weighted_scenarios)
            return fn(candidates, weighted_scenarios, *args, **kwargs)

        return cross_evaluate

    @contextmanager
    def installed(self):
        span, count = self.span, self.count
        step = count("agent_step", driver.step_driver)
        bindings = [
            (harness, "plan", span("planner.plan", self._plan(harness.plan))),
            (harness, "update", span("inference.update", harness.update)),
            (harness, "resample", span("refine.resample", harness.resample)),
            (harness, "generate_candidates", span(
                "refine.generate_candidates",
                self._generate_candidates(harness.generate_candidates))),
            (harness, "cross_evaluate", span(
                "refine.cross_evaluate", self._cross_evaluate(harness.cross_evaluate))),
            (planner, "sample_scenarios", span(
                "inference.sample_scenarios", planner.sample_scenarios)),
            (planner, "simulate", count("planner.simulate", planner.simulate)),
            (planner, "scenario_key", count("planner.scenario_key", planner.scenario_key)),
            (refine, "simulate", count("refine.simulate", refine.simulate)),
            (refine, "replay_value", count("refine.replay_value", refine.replay_value)),
            (driver, "project", count("road.project", driver.project)),
            (pomdp, "step_driver", step),
            (refine, "step_driver", step),
            (inference, "step_driver", step),
            (harness, "step_driver", step),
        ]
        with rebound(bindings):
            yield self

    # --- reduction -----------------------------------------------------
    def self_seconds(self) -> dict[str, float]:
        """Per span name: total duration minus the time of its child spans."""
        out: dict[str, float] = defaultdict(float)
        for _, name, parent, t0, t1 in self.spans:
            out[name] += t1 - t0
            out[parent] -= t1 - t0
        return out

    def layer_metrics(self, tick_seconds: float, n_ticks: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over ``n_ticks`` traced ticks lasting ``tick_seconds``."""
        self_s = self.self_seconds()
        steps = self.calls["agent_step"]
        out: dict[str, tuple[float, str]] = {}
        for name in STAGES:
            out[f"{name}.ms_per_tick"] = (1e3 * self_s[name] / n_ticks, "ms/tick")
        # the tick span has no span of its own: its self time is what the
        # stages leave of the tick
        out["harness.world.ms_per_tick"] = (
            1e3 * (tick_seconds + self_s[TICK]) / n_ticks, "ms/tick")
        for stage in STEP_STAGES:
            out[f"{stage}.agent_steps_per_tick"] = (steps[stage] / n_ticks, "steps/tick")
        out["agent_steps_per_tick"] = (sum(steps.values()) / n_ticks, "steps/tick")
        for stage in STEP_STAGES:
            out[f"{stage}.us_per_agent_step"] = (
                _ratio(1e6 * self_s[stage], steps[stage]), "us/step")
        sims = sum(self.calls["planner.simulate"].values())
        out["planner.simulate_calls_per_tick"] = (sims / n_ticks, "calls/tick")
        out["road.project_calls_per_tick"] = (
            sum(self.calls["road.project"].values()) / n_ticks, "calls/tick")
        keys = sum(self.calls["planner.scenario_key"].values())
        out["planner.sim_cache_hit_ratio"] = (1.0 - _ratio(sims, keys), "ratio")
        gen_sims = self.calls["refine.simulate"]["refine.generate_candidates"]
        out["refine.candidates_kept_ratio"] = (_ratio(self.candidates, gen_sims), "ratio")
        replays = sum(self.calls["refine.replay_value"].values())
        out["refine.replays_per_pair"] = (_ratio(replays, self.pairs), "replays/pair")
        return out

    def span_records(self):
        for tick, name, parent, t0, t1 in self.spans:
            yield {"tick": tick, "name": name, "parent": parent, "start": t0, "end": t1}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
