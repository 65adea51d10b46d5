#!/usr/bin/env bash
# Tier-1 verification: build + full test suite on the default preset, then
# the same suite under address+UB sanitizers (catches the memory bugs the
# fast interpreter paths could hide, e.g. decode-cache indexing).
#
# Each step is timed; the run ends with a per-step wall-time summary, and
# a failing step aborts immediately with its name and exit code.
set -euo pipefail
cd "$(dirname "$0")/.."

STEP_NAMES=()
STEP_SECS=()
CURRENT_STEP=""

# step <name> <command...>: announce, run, time; abort with the step name
# on failure (the summary of completed steps still prints via the trap).
step() {
  CURRENT_STEP="$1"
  shift
  echo "== ${CURRENT_STEP} =="
  local t0 t1 rc=0
  t0=$(date +%s.%N)
  "$@" || rc=$?
  t1=$(date +%s.%N)
  STEP_NAMES+=("${CURRENT_STEP}")
  STEP_SECS+=("$(awk -v a="$t0" -v b="$t1" 'BEGIN { printf "%.1f", b - a }')")
  if [[ ${rc} -ne 0 ]]; then
    echo "verify: FAILED at step '${CURRENT_STEP}' (exit ${rc})" >&2
    exit "${rc}"
  fi
  CURRENT_STEP=""
}

summary() {
  local rc=$?
  if [[ ${#STEP_NAMES[@]} -gt 0 ]]; then
    echo
    echo "-- step wall times --"
    local i
    for i in "${!STEP_NAMES[@]}"; do
      printf '%9ss  %s\n' "${STEP_SECS[$i]}" "${STEP_NAMES[$i]}"
    done
  fi
  if [[ ${rc} -ne 0 && -n "${CURRENT_STEP}" ]]; then
    echo "verify: FAILED at step '${CURRENT_STEP}' (exit ${rc})" >&2
  fi
  return "${rc}"
}
trap summary EXIT

step "configure (default preset)" cmake --preset default
step "build (default preset)" cmake --build --preset default -j "$(nproc)"
step "ctest (default preset)" ctest --preset default -j "$(nproc)"

# Short runs of every BENCHMARK.json workload through qnnbench/run.py:
# result contract, correctness, metric coverage, exact guest cycles.
step "qnnbench: benchmark self-test" python3 qnnbench/selftest.py

step "xlint: encoding-space audit + kernel sweep" \
  ./build/tools/xlint --audit --kernels

step "xrace: static race sweep" \
  ./build/tools/xrace --static --kernels --json /tmp/xrace-static.json
step "xrace: shadow-validated parallel conv" \
  ./build/tools/xrace --shadow --cores 4 --json /tmp/xrace-shadow.json

# Sampled superblock pass + profiled pass of CI's layer: golden output,
# region/cycle and energy reconciliation, pass agreement.
step "xtel: sampled telemetry + cycle and energy attribution" \
  ./build/tools/xtel --small --mode superblock --json /tmp/xtel.json
step "xtel: cluster heatmap reconciliation + scheduler parity" \
  ./build/tools/xtel --small --cores 4 --heatmap /tmp/xtel-heatmap.json

step "cluster: burst scheduler differential (2 + 8 cores)" \
  ./build/tests/test_cluster_sched \
  --gtest_filter='*/b8_c2:*/b8_c8:*/b4_c2:*/b4_c8:*/b2_c8:BurstSchedDiff.Budget*:BurstSchedDiff.Sampled*'

# Every host number against the committed BENCH_host.json; bench_host
# names the section, row and field of a failed gate.
host_bench_step() {
  cmake --preset release-bench
  cmake --build --preset release-bench -j "$(nproc)" --target bench_host
  (cd /tmp && "$OLDPWD"/build-bench/bench/bench_host \
    --baseline "$OLDPWD"/BENCH_host.json)
}
step "bench gates: host numbers vs committed BENCH_host.json" host_bench_step

step "xfault: seeded fault campaign (gated)" \
  ./build/tools/xfault --small --inject 100 --seed 2026 \
  --min-detected 1.0 --min-recovered 0.6 --json /tmp/xfault.json
step "xfault: determinism rerun" \
  ./build/tools/xfault --small --inject 100 --seed 2026 \
  --json /tmp/xfault-rerun.json
step "xfault: rerun byte-compare" cmp /tmp/xfault.json /tmp/xfault-rerun.json

clang_tidy_step() {
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "clang-tidy not installed; skipping (config in .clang-tidy)"
    return 0
  fi
  cmake --preset tidy
  if command -v run-clang-tidy >/dev/null 2>&1; then
    run-clang-tidy -p build-tidy -quiet \
      "src/.*\.cpp$" "tools/.*\.cpp$" "tests/.*\.cpp$" "bench/.*\.cpp$"
  else
    # Fall back to serial invocation when the parallel driver is absent.
    find src tools tests bench -name '*.cpp' -print0 |
      xargs -0 -n 1 clang-tidy -p build-tidy --quiet
  fi
}
step "clang-tidy (bugprone/performance/readability)" clang_tidy_step

step "configure (asan-ubsan preset)" cmake --preset asan-ubsan
step "build (asan-ubsan preset)" \
  cmake --build --preset asan-ubsan -j "$(nproc)"
step "ctest (asan-ubsan preset)" ctest --preset asan-ubsan -j "$(nproc)"

echo "verify: all suites passed"
