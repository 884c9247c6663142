#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, as the acceptance driver takes it.

Runs the command in BENCHMARK.json ten times per workload, each time with
another --seed, and prints for each (workload, metric) the median and the
interquartile range as a share of the median, next to the metric's bound.
A benchmark is steady when every spread (setup_s aside) is below a third of
its bound.

    perf/spread.py [--runs 10] [--first-seed 1] [--workload NAME ...]
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

root = Path(__file__).resolve().parent.parent
bench = json.loads((root / "BENCHMARK.json").read_text())

ap = argparse.ArgumentParser()
ap.add_argument("--runs", type=int, default=10)
ap.add_argument("--first-seed", type=int, default=1)
ap.add_argument("--workload", action="append")
args = ap.parse_args()

worst = 0.0
for w in args.workload or [w["name"] for w in bench["workloads"]]:
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, cwd=root, check=True, capture_output=True, text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, result
        for name, v in result["metrics"].items():
            values[name].append(v["value"])
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        spread = (q3 - q1) / med
        if m["name"] != "setup_s":
            worst = max(worst, spread / m["bound"])
        print(f"{w:<16} {m['name']:<18} median {med:>14.4f} {m['unit']:<6} "
              f"spread {spread * 100:6.2f}%  bound {m['bound'] * 100:4.0f}%  "
              f"min {min(v):.4f} max {max(v):.4f}", flush=True)
print(f"largest spread / bound: {worst:.2f} (steady below 0.33)")
sys.exit(0 if worst < 1 / 3 else 1)
