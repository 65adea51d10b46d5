#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 qnnbench/spread.py [--workload W ...] [--seeds 1,2,3] [--seconds S]

Runs the benchmark once per seed on each workload (--trace 0) and prints,
per metric, the median of the runs and the distance between the first and
third quartile (statistics.quantiles(values, n=4)) as a share of that
median, beside the metric's bound from BENCHMARK.json. A benchmark is
steady when every spread except setup_s stays below its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    r = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                       cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    res = json.loads(r.stdout.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {res}")
    return {k: v["value"] for k, v in res["metrics"].items()}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    a = ap.parse_args()
    seeds = [int(s) for s in a.seeds.split(",")]
    worst = 0.0
    for w in a.workload or [w["name"] for w in bench["workloads"]]:
        runs = [run_once(w, s, a.seconds) for s in seeds]
        print(f"{w}:")
        for m in bench["end_to_end"]:
            vals = [r[m["name"]] for r in runs]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med
            if m["name"] != "setup_s":
                worst = max(worst, spread / m["bound"])
            print(f"  {m['name']:<13} median {med:>12.4f} {m['unit']:<6} "
                  f"spread {spread:6.3f}  bound {m['bound']:.2f}  "
                  f"values {' '.join(f'{v:.4g}' for v in vals)}")
        sys.stdout.flush()
    print(f"worst spread/bound (excluding setup_s): {worst:.2f}")


if __name__ == "__main__":
    main()
