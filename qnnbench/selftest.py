#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 qnnbench/selftest.py

Checks, with short runs of every workload at seed 7:
  - the result line has exactly the contract keys, is correct, and fails
    no op;
  - every metric BENCHMARK.json names is printed with its unit (end-to-end
    metrics with --trace 0, per-layer metrics with --trace 1);
  - guest cycles repeat exactly between the untraced and traced runs;
  - cluster-paper reproduces the 8-core makespans committed in
    BENCH_cluster.json (the model is pinned to the repo's own reference
    results; no hardware reference exists);
  - the span file parses, every span's parent exists and belongs to the
    same op, and every span ends after it starts;
  - in a directory holding only BENCHMARK.json and the benchmark, the
    benchmark exits non-zero without printing a result.
Exits non-zero on the first failed check.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
SHORT_S = 1
# BENCH_cluster.json, scaling.b{8,4,2}.c8.makespan.
CLUSTER_MAKESPANS = {"8b": 321658, "4b": 181594, "2b": 98215}


def check(cond, msg):
    if not cond:
        sys.exit(f"selftest FAILED: {msg}")


def run(root, workload, trace):
    cmd = [sys.executable, str(root / "qnnbench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SHORT_S), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                          timeout=600)


def result_of(proc, what):
    check(proc.returncode == 0, f"{what}: exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    check(len(lines) >= 2, f"{what}: expected an environment line and a result line")
    env = json.loads(lines[-2])["qnnbench"]
    res = json.loads(lines[-1])
    check(set(res) == {"correct", "attempted", "failed", "metrics"},
          f"{what}: result keys {sorted(res)}")
    check(res["correct"] is True, f"{what}: correct is {res['correct']}")
    check(isinstance(res["attempted"], int) and res["attempted"] >= 1,
          f"{what}: attempted {res['attempted']}")
    check(res["failed"] == 0, f"{what}: {res['failed']} failed ops")
    return env, res


def check_metrics(what, metrics, declared):
    check(set(metrics) == {m["name"] for m in declared},
          f"{what}: metric names differ from BENCHMARK.json")
    for m in declared:
        got = metrics[m["name"]]
        check(got["unit"] == m["unit"],
              f"{what}: {m['name']} unit {got['unit']} != {m['unit']}")
        v = got["value"]
        check(isinstance(v, (int, float)) and math.isfinite(v),
              f"{what}: {m['name']} value {v}")


def check_spans(what, path):
    doc = json.loads(Path(path).read_text())
    spans = doc["spans"]
    check(spans, f"{what}: span file is empty")
    by_id = {s["id"]: s for s in spans}
    check(len(by_id) == len(spans), f"{what}: duplicate span ids")
    for s in spans:
        check(set(s) == {"id", "name", "start_s", "end_s", "parent", "op"},
              f"{what}: span fields {sorted(s)}")
        check(s["end_s"] >= s["start_s"], f"{what}: span {s['id']} ends before it starts")
        if s["parent"] != -1:
            p = by_id.get(s["parent"])
            check(p is not None, f"{what}: span {s['id']} has missing parent {s['parent']}")
            check(p["op"] == s["op"], f"{what}: span {s['id']} crosses ops")
    roots = {s["name"] for s in spans if s["parent"] == -1}
    check(roots == {"op", "probe"}, f"{what}: root spans {sorted(roots)}")


def check_isolated():
    """Only BENCHMARK.json and the benchmark's files: must fail cleanly."""
    iso = ROOT / ".bench_build" / "selftest-isolated"
    shutil.rmtree(iso, ignore_errors=True)
    iso.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", iso)
    shutil.copytree(HERE, iso / "qnnbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(iso, "streamed-tiles", 0)
    shutil.rmtree(iso)
    check(proc.returncode != 0, "isolated run exited 0")
    check("correct" not in proc.stdout, "isolated run printed a result")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in [w["name"] for w in bench["workloads"]]:
        env0, res0 = result_of(run(ROOT, w, 0), f"{w} --trace 0")
        check_metrics(f"{w} --trace 0", res0["metrics"], bench["end_to_end"])
        env1, res1 = result_of(run(ROOT, w, 1), f"{w} --trace 1")
        check_metrics(f"{w} --trace 1", res1["metrics"], bench["per_layer"])
        check(env0["guest_cycles_by_key"] == env1["guest_cycles_by_key"],
              f"{w}: guest cycles differ between untraced and traced runs")
        check_spans(w, env1["spans"])
        if w == "cluster-paper":
            check(env0["guest_cycles_by_key"] == CLUSTER_MAKESPANS,
                  f"cluster-paper makespans {env0['guest_cycles_by_key']} != "
                  f"BENCH_cluster.json {CLUSTER_MAKESPANS}")
        print(f"ok  {w}: {res0['attempted']} + {res1['attempted']} ops, "
              f"guest cycles {env0['guest_cycles_by_key']}")
    check_isolated()
    print("ok  isolated checkout fails without a result")
    print("selftest passed")


if __name__ == "__main__":
    main()
