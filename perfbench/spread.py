#!/usr/bin/env python3
"""Run a workload over several seeds and report each end-to-end metric's
median and its spread: the distance between the first and third quartile
as a share of the median, next to the metric's bound in BENCHMARK.json.

Run from the repository root after building the benchmark:

    python3 perfbench/spread.py --workload steady --seeds 1-10

A spread at or below a third of the bound is marked steady.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    args = ap.parse_args()
    bench = json.load(open(args.benchmark))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
        ]
        started = time.time()
        proc = subprocess.run(cmd, capture_output=True, text=True)
        wall = time.time() - started
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
        result = json.loads(lines[-1])
        print(f"seed {seed}: {wall:.1f}s correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"{'metric':<28} {'median':>14} {'spread':>8} {'bound':>6}")
    for name, vs in values.items():
        print(f"  {name}: " + " ".join(f"{v:.4g}" for v in vs))
    for name, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2:
            q1, _, q3 = statistics.quantiles(vs, n=4)
        else:
            q1 = q3 = vs[0]
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        mark = "" if bound is None else ("steady" if spread <= bound / 3 else "UNSTEADY")
        print(f"{name:<28} {med:>14.4f} {spread:>8.3f} {bound if bound is not None else '-':>6} {mark}")


if __name__ == "__main__":
    main()
