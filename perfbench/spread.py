#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads clickbench tpch serving \
        --seeds 1 2 3 4 5 [--seconds S]

For every workload and metric it prints the median over the seeds and
the distance between the first and third quartile as a share of the
median (statistics.quantiles(values, n=4)), next to the metric's bound
from BENCHMARK.json. Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    failures = 0
    for workload in args.workloads:
        values = {}
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(args.seconds),
                                     "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"] or result["failed"]:
                failures += 1
                print(f"{workload} seed {seed}: FAILED\n{proc.stderr[-2000:]}")
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                if k in bounds), flush=True)
        print(f"\n{workload}: median, (Q3-Q1)/median over {len(args.seeds)} seeds")
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) >= 2 and med != 0:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = f"{(q3 - q1) / abs(med):.4f}"
            else:
                spread = "-"
            bound = bounds.get(name)
            print(f"  {name:28s} {med:14.6g}  spread {spread:>8s}"
                  + (f"  bound {bound}" if bound is not None else ""))
        print(flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
