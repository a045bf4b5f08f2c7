"""The measured rounds, their checks and the metrics of one benchmark run.

Imported by run.py once the process-start clock is running; see run.py for
the command line.
"""
from __future__ import annotations

import contextlib
import json
import os
import platform
import statistics
import sys
from pathlib import Path

import numpy

from perfbench import checks, tracing, workloads

OUT_DIR = Path(__file__).resolve().parent / "out"
REPLAY_TICKS = 25  # ticks replayed untraced after the measured rounds


def p95(values):
    """Nearest-rank 95th percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = -(-95 * len(ordered) // 100)  # ceil(0.95 n)
    return ordered[rank - 1], len(ordered) - rank


def check_rounds(episodes, rounds):
    """Output checks on every run; later rounds must repeat the first.

    Returns (problems, known faults, number of episodes that raised).
    """
    problems, known_faults, failed = [], [], 0
    first = rounds[0]
    for runs in rounds:
        for ep, run, ref in zip(episodes, runs, first):
            if run.error:
                failed += 1
                print(f"{ep.label}: raised\n{run.error}", file=sys.stderr)
                continue
            found, known = checks.check_episode(ep.spec, ep.config, run.trace, run.metrics)
            problems += [f"{ep.label}: {p}" for p in found]
            if run is ref:
                known_faults += [f"{ep.label}: {k}" for k in known]
            elif checks.serialize(run.trace) != checks.serialize(ref.trace):
                problems.append(f"{ep.label}: round trace differs from round 1")
    return problems, known_faults, failed


def check_replays(pairs, traced):
    """Replay the first REPLAY_TICKS ticks of each (episode, run) untraced
    and compare them with the run's trace.

    In a traced run each untraced replay is followed at once by a traced
    one, so that both see the same host load; returns the problems and the
    tick time of the traced and the untraced replays (0 when not traced).
    """
    problems = []
    traced_s = untraced_s = 0.0
    for ep, run in pairs:
        short = workloads.truncated(ep, REPLAY_TICKS)
        replay = tracing.run_timed(short)
        if checks.prefix(replay.trace, REPLAY_TICKS) != checks.prefix(run.trace, REPLAY_TICKS):
            what = "traced trace differs from untraced" if traced else "replay differs"
            problems.append(f"{ep.label}: {what} in the first {REPLAY_TICKS} ticks")
        if traced:
            with tracing.Tracer().installed():
                traced_replay = tracing.run_timed(short)
            traced_s += sum(traced_replay.intervals)
            untraced_s += sum(replay.intervals)
    return problems, traced_s, untraced_s


def per_layer(tracer, runs, overhead):
    """Per-layer metrics of the traced runs, by name: (value, unit)."""
    intervals = [dt for run in runs for dt in run.intervals]
    n_ticks = len(intervals)
    layers = tracer.layer_metrics(sum(intervals), n_ticks)
    ticks = [rec for run in runs for rec in checks.ticks_of(run.trace)]
    layers["planner.expansions_per_tick"] = (
        sum(rec["planner"]["expansions"] for rec in ticks) / n_ticks, "expansions/tick")
    trace_bytes = sum(len(line.encode()) for run in runs for line in checks.serialize(run.trace))
    layers["harness.trace_bytes_per_tick"] = (trace_bytes / n_ticks, "bytes/tick")
    layers["planner.root_gap_median"] = (statistics.median(
        rec["planner"]["upper"] - rec["planner"]["lower"] for rec in ticks), "reward")
    layers["trace_overhead_pct"] = (100.0 * (overhead - 1.0), "%")
    return layers


def tick_floor(rounds):
    """Each tick's shortest wall time over the rounds, episode by episode.

    Every round repeats the same ticks (check_rounds), so the minimum keeps
    the program's own cost and drops the stretches in which the shared
    host slowed one round, as ``timeit`` does with its repeats.
    """
    floor = []
    for runs in zip(*rounds):  # one episode, every round
        timed = [run.intervals for run in runs if not run.error]
        floor += [min(dts) for dts in zip(*timed)]
    return floor


def end_to_end(rounds, setup_s):
    """End-to-end metrics, by name: (value, unit)."""
    floor = tick_floor(rounds)
    p95_s, beyond = p95(floor)
    print(f"tick_ms_p95 over {len(floor)} ticks, {beyond} beyond it, "
          f"each the fastest of {len(rounds)} rounds")
    penalties = [-run.metrics.reward for run in rounds[0] if not run.error]
    return {
        "tick_ms_p50": (1e3 * statistics.median(floor), "ms"),
        "tick_ms_p95": (1e3 * p95_s, "ms"),
        "ticks_per_s": (len(floor) / sum(floor), "ticks/s"),
        "setup_s": (setup_s, "s"),
        "penalty": (sum(penalties) / len(penalties), "reward"),
    }


def main(args, seconds_since_process_start) -> int:
    """One benchmark run; prints the result line and returns the exit code."""
    episodes = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = seconds_since_process_start()

    tracer = tracing.Tracer() if args.trace else None
    with tracer.installed() if tracer else contextlib.nullcontext():
        rounds, wall = tracing.run_rounds(episodes, args.seconds)

    # everything below runs outside the measured rounds
    first = rounds[0]
    problems, known_faults, failed = check_rounds(episodes, rounds)
    # replay the first episode (determinism) or, traced, every episode (traced
    # traces equal untraced ones, and the tick times give the tracing overhead)
    pairs = [(ep, run) for ep, run in zip(episodes, first) if not run.error]
    replay_problems, traced_s, untraced_s = check_replays(
        pairs if tracer else pairs[:1], bool(tracer))
    problems += replay_problems

    ok_runs = [run for runs in rounds for run in runs if not run.error]
    values = {}
    if not ok_runs:
        problems.append("every episode raised")
    elif tracer:
        values = per_layer(tracer, ok_runs, traced_s / untraced_s)
    else:
        values = end_to_end(rounds, setup_s)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(values.items())}

    for run in first:
        if run.metrics:
            m = run.metrics
            print(f"{run.label}: {len(run.intervals)} ticks, reward {m.reward:.4f}, "
                  f"collided={m.collided}, missed_goal={m.missed_goal}")
    for k in known_faults:
        print(f"KNOWN FAULT {k}", file=sys.stderr)
    for p in problems:
        print(f"CHECK FAILED {p}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": len(rounds), "wall_s": wall,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "problems": problems, "known_faults": known_faults,
        "metrics": metrics,
        "episodes": [
            {"label": run.label, "error": run.error,
             "metrics": run.metrics.to_dict() if run.metrics else None,
             "tick_ms": [1e3 * dt for dt in run.intervals]}
            for run in first
        ],
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        with open(OUT_DIR / f"{stem}.spans.jsonl", "w") as fh:
            for span in tracer.span_records():
                fh.write(json.dumps(span) + "\n")

    attempted = sum(len(runs) for runs in rounds)
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


