#!/usr/bin/env python3
"""Runs one workload of the M3 simulator benchmark and prints its result.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of the repository. It builds the `perfbench` package
(release profile, into $CARGO_TARGET_DIR, default `.bench_build`), then runs
the workload repeatedly, each repetition in a fresh process, until `--seconds`
have passed. It prints a table of the metrics, then, as the last line, one
JSON object: {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json: host
times and memory are medians over the repetitions, simulated metrics are
identical in every repetition (any difference makes the run incorrect). With
--trace 1 untraced and traced repetitions alternate and the metrics are the
per-layer metrics of BENCHMARK.json; a layer that does no work in this
workload reads 0.

The run is correct when every repetition exits cleanly, every operation's
output matched its reference, and every repetition (traced or not, and for
shard_pdes the 2-worker reference as well) produced identical simulated
metrics. An incorrect run still prints its result line, then exits with 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
PACKAGE = os.path.join("perfbench", "Cargo.toml")
SPEC = "BENCHMARK.json"

# Repetitions per run: at least MIN_REPS even when --seconds is short, never
# more than MAX_REPS processes.
MIN_REPS = 3
MAX_REPS = 400
# A repetition that takes longer than this is broken.
REP_TIMEOUT_S = 120
# shard_pdes times its repetitions on one PDES worker: with one worker per
# island, every window barrier waits for the slower thread, and on a shared
# two-core host that made the run-to-run spread of wall_s several times the
# bound. Each run checks one repetition on PDES_WORKERS workers instead,
# which must give identical simulated results.
PDES_WORKERS = 2


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Builds the benchmark binary and returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", PACKAGE]
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, check=False)
    if done.returncode != 0:
        return None
    return os.path.join(target, "release", "perfbench")


def repetition(binary, workload, seed, traced, workers):
    """Runs one repetition in a fresh process; its JSON record, or None."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0", "--workers", str(workers)]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=REP_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"repetition timed out: {' '.join(cmd)}")
        return None
    if done.returncode != 0:
        log(f"repetition failed ({done.returncode}): {done.stderr.strip()[-2000:]}")
        return None
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        log(f"repetition printed no result: {done.stdout[-500:]}")
        return None


def median(values):
    return statistics.median(values) if values else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, SPEC), encoding="utf-8") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload!r}")
        return 2
    binary = build()
    if binary is None:
        log("build failed")
        return 1

    problems = []
    reference = None
    if args.workload == "shard_pdes":
        reference = repetition(binary, args.workload, args.seed, False, PDES_WORKERS)
        if reference is None:
            problems.append(f"{PDES_WORKERS}-worker reference repetition failed")

    untraced, traced = [], []
    start = time.monotonic()
    while len(untraced) + len(traced) < MAX_REPS:
        enough = len(untraced) >= MIN_REPS and (not args.trace or len(traced) >= MIN_REPS)
        if enough and time.monotonic() - start >= args.seconds:
            break
        # In a traced run, traced and untraced repetitions alternate.
        with_trace = bool(args.trace) and len(traced) < len(untraced)
        rec = repetition(binary, args.workload, args.seed, with_trace, 1)
        if rec is None:
            problems.append("a repetition failed")
            break
        (traced if with_trace else untraced).append(rec)

    runs = untraced + traced + ([reference] if reference else [])
    attempted = sum(int(r["attempted"]) for r in untraced + traced)
    failed = sum(int(r["failed"]) for r in untraced + traced)
    for r in runs:
        for note in r["mismatches"]:
            problems.append(note)
    first = runs[0]["sim"] if runs else {}
    for r in runs[1:]:
        diff = sorted(k for k in set(first) | set(r["sim"]) if first.get(k) != r["sim"].get(k))
        if diff:
            problems.append(f"simulated metrics differ between repetitions: {diff[:6]}")
            break
    if args.trace and traced:
        counts = traced[0]["trace"]
        if any(r["trace"] != counts for r in traced[1:]):
            problems.append("trace event counts differ between traced repetitions")
        if counts.get("trace.dropped", 0):
            problems.append("the trace recorder dropped events")

    def wall(reps):
        return median([r["wall_s"] for r in reps])

    if args.trace:
        names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        values = {}
        if traced:
            values.update(traced[0]["sim"])
            values.update(traced[0]["trace"])
        for key in (untraced[0]["host"] if untraced else {}):
            values[key] = median([r["host"][key] for r in untraced])
        values["trace.overhead_ratio"] = wall(traced) / wall(untraced) if untraced and traced else 0.0
    else:
        names = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        values = dict(first)
        values.update({
            "setup_s": median([r["setup_s"] for r in untraced]),
            "wall_s": wall(untraced),
            "sim_mcycles_per_s": median([r["cycles_advanced"] / 1e6 / r["wall_s"] for r in untraced]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in untraced]),
            "ok_op_ratio": 1.0 - failed / max(attempted, 1),
        })
        names.append(("failed_op_ratio", "fraction"))

    correct = not problems and failed == 0 and bool(untraced)
    metrics = {n: {"value": values.get(n, 0.0), "unit": u} for n, u in names}
    print(f"# {args.workload} seed {args.seed}: {len(untraced)} untraced + {len(traced)} traced repetitions, "
          f"{attempted} ops, {failed} failed")
    for n, m in metrics.items():
        print(f"{n:34s} {m['value']:>20.6g} {m['unit']}")
    for p in problems[:10]:
        print(f"! {p}")
    metrics.pop("failed_op_ratio", None)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
