#!/usr/bin/env python3
"""Runs the benchmark once per seed and prints each metric's median and its
quartile spread (Q3 - Q1 as a share of the median), the steadiness figure the
bounds in BENCHMARK.json are set against.

    python3 perfbench/spread.py --workload sweep-random --seeds 1-10 [--seconds 20] [--trace 0]
"""
import argparse
import json
import statistics
import subprocess
import sys


def seed_list(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    values = {}
    for seed in seed_list(args.seeds):
        cmd = ["bash", "perfbench/run.sh", "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", args.trace]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
        if proc.returncode != 0 or not last.startswith("{"):
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        res = json.loads(last)
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}",
              flush=True)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    for name in sorted(values):
        vs = values[name]
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
        rel = (q3 - q1) / abs(med) if med else 0.0
        print(f"{name:28s} median {med:14.6g}  spread {rel:7.4f}  min {min(vs):.6g}  max {max(vs):.6g}")


if __name__ == "__main__":
    main()
