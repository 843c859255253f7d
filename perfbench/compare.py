#!/usr/bin/env python3
"""Compares two sets of perfbench runs against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py A.jsonl B.jsonl

Inputs are files written by sweep.py.  For each workload x end-to-end
metric it prints both sets' median and quartiles (statistics.quantiles,
n=4), their spread (IQR / median) and a verdict:

  unresolved  a set's spread exceeds the metric's bound, so a difference
              of that size cannot be told from noise (setup_s is exempt:
              it is one cold set-up per run and only its median is held
              to the bound)
  agree       B's median is within the bound of A's, in both directions
  worse       B's median is worse than A's by more than the bound
  better      B's median is better than A's by more than the bound

It also compares the share of failed operations.  The exit status is 0
only when every row agrees and the failed shares are equal.
"""
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    runs = defaultdict(list)
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            if rec.get("result"):
                runs[rec["workload"]].append(rec["result"])
    return runs


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def failed_share(results):
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0.0


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a, b = load(sys.argv[1]), load(sys.argv[2])
    all_ok = True
    print(f"{'workload':16s} {'metric':16s} {'A median [q1, q3]':>30s} "
          f"{'spread':>7s} {'B median [q1, q3]':>30s} {'spread':>7s} "
          f"{'change':>8s} {'bound':>6s}  verdict")
    for w in spec["workloads"]:
        name = w["name"]
        ra, rb = a.get(name, []), b.get(name, [])
        if len(ra) < 2 or len(rb) < 2:
            print(f"{name:16s} needs at least two runs in each set "
                  f"(have {len(ra)} and {len(rb)})")
            all_ok = False
            continue
        for m in spec["end_to_end"]:
            key, bound = m["name"], m["bound"]
            sa = summary([r["metrics"][key]["value"] for r in ra])
            sb = summary([r["metrics"][key]["value"] for r in rb])
            change = (sb[1] - sa[1]) / sa[1] if sa[1] else float("inf")
            worse = change if m["better"] == "lower" else -change
            if key != "setup_s" and (sa[3] > bound or sb[3] > bound):
                verdict = "unresolved"
            elif worse > bound:
                verdict = "worse"
            elif worse < -bound:
                verdict = "better"
            else:
                verdict = "agree"
            all_ok = all_ok and verdict == "agree"
            print(f"{name:16s} {key:16s} "
                  f"{sa[1]:10.4g} [{sa[0]:8.4g}, {sa[2]:8.4g}] {sa[3]:7.3f} "
                  f"{sb[1]:10.4g} [{sb[0]:8.4g}, {sb[2]:8.4g}] {sb[3]:7.3f} "
                  f"{change:+8.3f} {bound:6.3f}  {verdict}")
        fa, fb = failed_share(ra), failed_share(rb)
        same = fa == fb
        all_ok = all_ok and same
        print(f"{name:16s} failed share A {fa:.6f} B {fb:.6f} "
              f"({'same' if same else 'DIFFERENT'})")
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
