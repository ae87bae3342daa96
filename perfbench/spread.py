#!/usr/bin/env python3
"""Measure the run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload suite --seeds 1-10 [--seconds 20]

Runs perfbench/run.py once per seed (sequentially) and prints, per
end-to-end metric, the median and the interquartile range as a share of
the median (quartiles from statistics.quantiles(values, n=4)), next to
the metric's bound from BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=None)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {name: [] for name in bounds}
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: result not correct: {result}")
        row = []
        for name in bounds:
            v = result["metrics"][name]["value"]
            values[name].append(v)
            row.append(f"{name}={v:.5g}")
        print(f"seed {seed}: " + " ".join(row), flush=True)

    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med
        print(f"{args.workload} {name}: median {med:.5g}, spread "
              f"{spread:.4f} (bound {bounds[name]}, a third {bounds[name] / 3:.4f})")


if __name__ == "__main__":
    main()
