"""Closed-loop tick benchmark for driveplan.

Run from the repository root (the package is imported from src/, nothing
is installed):

    python3 perfbench/run.py --workload merge_realtime --seed 0 --seconds 30 --trace 0

One process, one thread. A run repeats whole rounds of its workload's
episodes (see workloads.py) through ``driveplan.harness.run_episode``
while another round still fits in ``--seconds``, always at least two, and
times each tick by its fastest round. Every episode is checked against
recomputed physics, collisions and rewards (checks.py), later rounds must
repeat the first byte for byte, and the first 25 ticks of an episode are
replayed untraced and compared.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
rounds with per-stage spans and counters installed (tracing.py) and prints
the per-layer metrics. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` (episodes that raised) and
``metrics``. The run record, and in traced runs the spans, go to
perfbench/out/. Exit code 0 when every check passed, 1 when a check
failed, 2 when the package cannot be imported or the arguments are bad.
"""
from __future__ import annotations

import time

_SCRIPT_START = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("merge_realtime", "multilane_tracking")


def seconds_since_process_start() -> float:
    """Wall time since this process was created, interpreter start-up included.

    Linux records the start in clock ticks since boot (10 ms resolution);
    elsewhere the time since this script began is returned.
    """
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        elapsed = time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        elapsed = -1.0
    if not 0.0 <= elapsed < 600.0:
        elapsed = time.perf_counter() - _SCRIPT_START
    return elapsed


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0, help="episode seed (default 0)")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="measuring time; whole rounds, at least one")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        from perfbench import bench
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    return bench.main(args, seconds_since_process_start)


if __name__ == "__main__":
    sys.exit(main())
