#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command in BENCHMARK.json once per seed for each workload given
and prints, per metric, the median, the quartiles and the spread: the
distance between the first and third quartile (statistics.quantiles with
n=4) as a share of the median, next to the metric's bound. A spread of a
third of the bound or more is flagged WIDE.

    python3 perfbench/spread.py --workload online-stream --seeds 1-5
    python3 perfbench/spread.py --workload all --seeds 1-10

Run it from the repository root. Each run's JSON result is appended to
perfbench/work/spread-<workload>.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = bench["end_to_end"] if args.trace == "0" else bench["per_layer"]
    workloads = args.workload
    if workloads == ["all"]:
        workloads = [w["name"] for w in bench["workloads"]]
    os.makedirs(os.path.join(HERE, "work"), exist_ok=True)

    worst = 0.0
    for workload in workloads:
        values = {m["name"]: [] for m in metrics}
        log = os.path.join(HERE, "work", f"spread-{workload}.jsonl")
        for seed in args.seeds:
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
            ]
            run = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                sys.exit(f"{workload} seed {seed}: exit {run.returncode}\n{run.stderr}")
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: incorrect result {lines[-1]}")
            with open(log, "a") as f:
                f.write(json.dumps({"seed": seed, **result}) + "\n")
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)
        print(f"\n{workload}: {len(args.seeds)} runs")
        print(f"{'metric':<40} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for m in metrics:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            q1, q2, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            flag = ""
            if bound is not None:
                worst = max(worst, spread / bound)
                flag = "ok" if spread < bound / 3 else "WIDE"
            print(f"{m['name']:<40} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f} {bound if bound is not None else '-':>6} {flag}")
        print()
    if args.trace == "0":
        print(f"worst spread/bound: {worst:.3f}")


if __name__ == "__main__":
    main()
