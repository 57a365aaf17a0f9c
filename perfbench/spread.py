#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workloads scan,batch]
        [--seeds 1-10] [--seconds S] [--trace 0|1] [--out FILE]

For every workload and end-to-end metric this prints the median of the
runs and the spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to
the metric's bound from BENCHMARK.json.  Raw results go to --out as one
JSON object per line.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    out = open(args.out, "a") if args.out else None

    worst = 0.0
    for wl in workloads:
        values = {}
        for seed in seeds_of(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", wl, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
            res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                 text=True)
            lines = res.stdout.strip().splitlines()
            if res.returncode != 0 or not lines:
                print(f"{wl} seed {seed}: exit {res.returncode}")
                continue
            result = json.loads(lines[-1])
            if out:
                out.write(json.dumps({"workload": wl, "seed": seed,
                                      "result": result}) + "\n")
                out.flush()
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            if bound is not None:
                worst = max(worst, spread / bound)
            print(f"{wl:6} {name:36} n={len(vals):2} median={med:.6g} "
                  f"spread={spread:.4f}"
                  + (f" bound={bound}" if bound is not None else ""))
    if worst:
        print(f"largest spread / bound: {worst:.3f}")


if __name__ == "__main__":
    main()
