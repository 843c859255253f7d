#!/usr/bin/env python3
"""Builds perfbench from source (first use) and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The driver is compiled into .bench_build/
against the libraries under src/.  A traced run also writes its span file
to .bench_results/trace-<workload>-seed<n>.json.  Progress goes to stderr.
The last line of stdout is the run's JSON result.  The exit status is 0
only when the run finished, every output checked out and the printed
metrics are exactly the ones BENCHMARK.json names.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
RESULTS = ROOT / ".bench_results"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    try:
        if not (BUILD / "CMakeCache.txt").exists():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", str(BUILD), "--target", "perfbench",
                        "-j", "4"], stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")
    return BUILD / "perfbench"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {spec_path}: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    expected = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    binary = build()
    # op2::init lets OP2_* variables override the backend, thread count,
    # tuner, fusion, fault injection and shard settings each arm sets, so
    # the benchmark runs without them.
    env = {k: v for k, v in os.environ.items() if not k.startswith("OP2_")}
    dropped = sorted(set(os.environ) - set(env))
    if dropped:
        print(f"perfbench: ignoring {' '.join(dropped)}", file=sys.stderr)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        RESULTS.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(RESULTS / f"trace-{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"no result line (exit status {proc.returncode})")

    got = set(result["metrics"])
    if got != expected:
        fail(f"metric names differ from BENCHMARK.json: missing "
             f"{sorted(expected - got)}, unexpected {sorted(got - expected)}")
    print(json.dumps(result))
    if proc.returncode != 0 or not result["correct"]:
        fail(f"outputs did not check out (exit status {proc.returncode})")


if __name__ == "__main__":
    main()
