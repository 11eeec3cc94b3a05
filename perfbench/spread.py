#!/usr/bin/env python3
"""Run one workload on several seeds and print each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--seconds 25] [--trace 0]

For each metric it prints the median over the seeds and the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of that median -- the figure a metric's bound in BENCHMARK.json
must stay clear of.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="25")
    ap.add_argument("--trace", default="0")
    a = ap.parse_args()
    lo, _, hi = a.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    run_py = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    values = {}
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, run_py, "--workload", a.workload, "--seed", str(seed),
             "--seconds", a.seconds, "--trace", a.trace],
            stdout=subprocess.PIPE, text=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: exit {proc.returncode} correct {result['correct']} "
              f"attempted {result['attempted']} failed {result['failed']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vals in values.items():
        med = statistics.median(vals)
        spread = 0.0
        if len(vals) >= 2 and med:
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med
        print(f"{name:<32} median {med:<14.6g} spread {spread:.4f}  values {[round(v, 4) for v in vals]}")


if __name__ == "__main__":
    main()
