#!/usr/bin/env python3
"""Runs perfbench over several seeds and collects the results.

    python3 perfbench/sweep.py --out runs.jsonl [--workloads a,b] \
        [--seeds 1-10] [--seconds S]

Runs are untraced.  Each line of the output file is {"workload", "seed",
"exit", "result"}; compare.py reads two such files.  Defaults: every
workload in BENCHMARK.json, seeds 1-10, its run_seconds.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()

    with open(args.out, "a") as out:
        for seed in parse_seeds(args.seeds):
            for wl in args.workloads.split(","):
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", wl,
                     "--seed", str(seed), "--seconds", str(args.seconds),
                     "--trace", "0"],
                    cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                    text=True)
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1]) if lines else None
                out.write(json.dumps({"workload": wl, "seed": seed,
                                      "exit": proc.returncode,
                                      "result": result}) + "\n")
                out.flush()
                print(f"{wl} seed {seed}: exit {proc.returncode}", file=sys.stderr)


if __name__ == "__main__":
    main()
