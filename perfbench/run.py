#!/usr/bin/env python3
"""Benchmark of the trusskit CLI: exact, truncated and critical-truss paths.

Run from the repository root:

    python3 perfbench/run.py --workload truss-skewed --seed 1 --seconds 24 --trace 0

Each workload makes its input from --seed (once per seed, under
perfbench/inputs/), runs one discarded warm-up, then repeats rounds of one
``python -m trusskit`` process, one run of a fixed reference task
(reference.py) and one set-up process until --seconds have passed. Times
are reported in units of the reference task's time in the same round, so
that changes in the host's speed cancel out. Every output is checked against an independent computation
(oracle.py) and must be byte-identical to the run's other outputs. With
--trace 1 the same command runs in-process, untraced and traced by turns,
and the per-layer metrics come from spans around the calls into each
trusskit module (layers.py).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. README.md describes every metric.
"""

import argparse
import json
import os
import sys
from pathlib import Path

from launch import THREAD_ENV, Launcher

WORKLOADS = ("truss-skewed", "truncated-skewed", "generate-critical", "verify-critical")
CHILD_TIMEOUT_S = 120


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "trusskit" / "__init__.py").is_file():
        print(f"perfbench: no trusskit sources under {root / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)  # before numpy loads in this process
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    # started while this process is small; see launch.py
    launcher = Launcher(env, str(root), CHILD_TIMEOUT_S)
    try:
        import bench

        result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), launcher)
    finally:
        launcher.close()
    for err in result["errors"]:
        print(f"perfbench: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
