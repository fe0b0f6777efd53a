"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload census --seeds 1-10 --seconds 25

Runs the benchmark once per seed, one run after another, and prints for
each end-to-end metric the median of the runs and the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, required=True)
    args = parser.parse_args(argv)
    values = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print("seed %d: incorrect output\n%s" % (seed, proc.stderr), file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("seed %d: %s" % (seed, {k: round(v[-1], 4) for k, v in values.items()}),
              flush=True)
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        print("%-14s median %.4f  spread %.4f" % (name, median, (q3 - q1) / median))
    return 0


if __name__ == "__main__":
    sys.exit(main())
