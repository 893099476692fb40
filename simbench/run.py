"""Benchmark entry point.

Usage (from the repository root)::

    python3 simbench/run.py --workload heavy-window --seed 1 --seconds 15 --trace 0

Runs one workload (``heavy-window``, ``em3d-sweep`` or ``lossy-rpc``) as
closed-loop rounds for ``--seconds``, checks the simulator's outputs, prints
every metric by name with its unit, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer split and writes spans and counters to
``.simbench/trace-<workload>-seed<seed>.json``.  The exit code is 1 when
the outputs check fails and 2 when the simulator sources are missing.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
from multiprocessing import resource_tracker
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def stop_children() -> None:
    """Stop every process the run started and wait for each to end: pool
    workers still up, and multiprocessing's resource tracker, which a
    spawned pool would start and which would otherwise outlive the run."""
    for child in multiprocessing.active_children():
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"simbench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from simbench.bench import run

    try:
        report = run(args.workload, args.seed, args.seconds,
                     bool(args.trace), ROOT)
    finally:
        stop_children()
    for line in report.lines:
        print(line)
    for problem in report.problems:
        print(f"INCORRECT: {problem}", file=sys.stderr)
    print(json.dumps(report.result), flush=True)
    return 0 if report.result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
