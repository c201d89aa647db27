#!/usr/bin/env python3
"""Measures how steady the benchmark is: runs every workload several times,
each time with another seed, and prints each end-to-end metric's median,
quartiles and spread as a markdown table.

    python3 perfbench/steadiness.py [--runs 10] [--workload NAME ...]

Run it from the root of the repository. The spread is the distance between
the first and third quartile (`statistics.quantiles(values, n=4)`) as a share
of the median; `ok` marks a spread below a third of the metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    with open("BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", help="default: every workload")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    print("| workload | metric | unit | median | q1 | q3 | spread | bound | |")
    print("|---|---|---|---:|---:|---:|---:|---:|---|")
    status = 0
    for workload in workloads:
        values = {}
        for seed in range(1, args.runs + 1):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, capture_output=True, text=True, check=False)
            result = json.loads(done.stdout.strip().splitlines()[-1]) if done.stdout.strip() else {}
            if done.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed} failed: {done.stdout[-1000:]}", file=sys.stderr)
                status = 1
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed} done", file=sys.stderr, flush=True)
        for m in spec["end_to_end"]:
            v = values.get(m["name"], [])
            if len(v) < 2:
                continue
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            ok = "ok" if spread < m["bound"] / 3 else "WIDE"
            print(f"| {workload} | {m['name']} | {m['unit']} | {med:.6g} | {q1:.6g} | {q3:.6g} "
                  f"| {spread:.4f} | {m['bound']} | {ok} |", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
