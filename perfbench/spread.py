#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command from BENCHMARK.json once per (workload, seed) and
prints, for every end-to-end metric, the median, the distance between
the first and third quartiles as a share of the median (the spread),
and the metric's bound.

    python3 perfbench/spread.py --seeds 1-10 [--workloads compile-cold,exec-nest]

Run it from the repository root. Results of each run are appended to
perfbench/out/spread-runs.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()

    os.makedirs("perfbench/out", exist_ok=True)
    log = open("perfbench/out/spread-runs.jsonl", "a")
    failed = False
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in bench["end_to_end"]}
        steal = []
        for seed in args.seeds:
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", "0",
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if proc.returncode != 0 or result is None or not result["correct"]:
                failed = True
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
                continue
            stolen = [l for l in lines if l.startswith("host CPU time stolen")]
            if stolen:
                steal.append(float(stolen[0].split(":")[1].split("%")[0]))
            log.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            log.flush()
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
        print(f"{workload} ({len(args.seeds)} seeds)")
        if steal:
            print(f"  host CPU time stolen: median {statistics.median(steal):.1f} %, max {max(steal):.1f} %")
        print(f"  {'metric':<16} {'median':>12} {'spread':>8} {'bound':>6}")
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            if len(v) < 2:
                print(f"  {m['name']:<16} {'-':>12}")
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < m["bound"] / 3 else "  (above a third of the bound)"
            print(f"  {m['name']:<16} {med:>12.4f} {spread:>8.4f} {m['bound']:>6}{flag}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
