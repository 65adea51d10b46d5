#!/usr/bin/env python3
"""Build and run the repository benchmark (see qnnbench/README.md).

    python3 qnnbench/run.py --workload <net-mixed|cluster-paper|streamed-tiles>
                            --seed <n> --seconds <s> --trace <0|1>

Configures and builds qnnbench/ (which compiles the simulator from ../src)
into .bench_build/qnnbench, then runs one measurement. Build output goes to
stderr; the last line of stdout is the benchmark's JSON result. With
--trace 1 the span file is written to .bench_build/qnnbench-out/.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "qnnbench"
OUT = ROOT / ".bench_build" / "qnnbench-out"
WORKLOADS = ("net-mixed", "cluster-paper", "streamed-tiles")
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"qnnbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    cmd_out = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not (BUILD / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        r = subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                            "-DCMAKE_BUILD_TYPE=Release", *gen], **cmd_out)
        if r.returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    r = subprocess.run(["cmake", "--build", str(BUILD), "--target", "qnnbench",
                        "-j", jobs], **cmd_out)
    if r.returncode != 0:
        fail("build failed")
    return BUILD / "qnnbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    exe = build()
    cmd = [str(exe), "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        OUT.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(OUT / f"spans-{a.workload}-seed{a.seed}.json")]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(rc)


if __name__ == "__main__":
    main()
