#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports, per metric, the median
and the spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to a
third of the metric's bound from BENCHMARK.json.

    python3 e2e_bench/spread.py --workload scan-raw-tcp --seeds 1-5
    python3 e2e_bench/spread.py --workload all --seeds 1-10 --seconds 20

Run from the repository root.
"""
import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    cmd = ["bash", "e2e_bench/run.sh", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = ([w["name"] for w in bench["workloads"]]
                 if args.workload == "all" else [args.workload])
    for workload in workloads:
        values = {}
        for seed in parse_seeds(args.seeds):
            result = run(workload, seed, seconds, args.trace)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: {result['attempted']} requests, "
                  + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                flush=True)
        print(f"== {workload}")
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) >= 2 and med != 0:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = f"{(q3 - q1) / med:.4f}"
            else:
                spread = "n/a"
            limit = (f"{bounds[name] / 3:.4f}" if name in bounds else "-")
            print(f"  {name:34s} median {med:14.6g}  spread {spread:>7s}"
                  f"  bound/3 {limit}")


if __name__ == "__main__":
    main()
