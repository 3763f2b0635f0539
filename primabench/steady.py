#!/usr/bin/env python3
"""Steadiness check for the PRIMA benchmark.

    python3 primabench/steady.py --workloads brep_hot,mmo_local --seeds 1-10

Runs run.py once per (workload, seed) with --trace 0 and the run length of
BENCHMARK.json, then prints for every end-to-end metric the median, the
quartiles and the spread (Q3 - Q1) / median next to the metric's bound, and
the share of failed operations. Raw results go to --out (JSON).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"] + extra
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit("%s seed %d exited %d" % (workload, seed,
                                                    proc.returncode))
    return json.loads(lines[-1])


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--out", default="")
    ap.add_argument("extra", nargs="*", help="passed through to run.py")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    raw = {}
    for workload in args.workloads.split(","):
        results = [run_once(workload, seed, args.seconds, args.extra)
                   for seed in parse_seeds(args.seeds)]
        raw[workload] = results
        shares = {r["failed"] / r["attempted"] for r in results}
        ok = all(r["correct"] for r in results)
        print("%s: %d runs, correct=%s, failed shares %s" %
              (workload, len(results), ok, sorted(shares)))
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "ok" if name == "setup_s" or spread < bound / 3 else "WIDE"
            print("  %-14s median %12.5g  q1 %12.5g  q3 %12.5g  spread %.3f"
                  "  bound %.2f  %s" % (name, med, q1, q3, spread, bound, flag))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(raw, f, indent=1)


if __name__ == "__main__":
    main()
