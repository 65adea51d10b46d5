#!/usr/bin/env bash
# Line coverage of the simulator engines under their differential suites.
#
# Runs the four engine suites (dispatch diff, checkpoint diff, cluster
# scheduler, superblock) from a `coverage` preset build, reports per-file
# line coverage of the core interpreter, the superblock engine and the
# cluster scheduler with plain gcov, and fails if a file is below its
# floor. Writes summary.txt and the annotated .gcov of each file to the
# output directory.
#
#   cmake --preset coverage
#   cmake --build --preset coverage --target test_dispatch_diff \
#     test_ckpt_diff test_cluster_sched test_superblock
#   scripts/coverage.sh [build-dir] [output-dir]
set -euo pipefail

build=$(realpath "${1:-build-coverage}")
out=$(realpath -m "${2:-$build/coverage}")
suites=(test_dispatch_diff test_ckpt_diff test_cluster_sched test_superblock)
# source, library target, floor (% of lines)
files=(
  "src/sim/core.cpp xp_sim 90"
  "src/sim/superblock.cpp xp_sim 96"
  "src/cluster/cluster.cpp xp_cluster 94"
)

find "$build" -name '*.gcda' -delete
for t in "${suites[@]}"; do
  "$build/tests/$t" --gtest_brief=1
done

mkdir -p "$out"
summary="$out/summary.txt"
: > "$summary"
status=0
for f in "${files[@]}"; do
  read -r src lib floor <<< "$f"
  gcda="$build/$(dirname "$src")/CMakeFiles/$lib.dir/$(basename "$src").gcda"
  # gcov reports every source the object touched; keep this file's line.
  report=$(cd "$out" && gcov "$gcda" 2>/dev/null |
    awk -v f="$src'" 'index($0, "File ") == 1 {
        hit = !done && substr($0, length($0) - length(f) + 1) == f; next }
      hit && /^Lines executed:/ { sub(/^Lines executed:/, ""); print; done = 1 }')
  pct=${report%%%*}
  if [[ -z "$pct" ]]; then
    echo "$src: no coverage data in $gcda" | tee -a "$summary"
    status=1
    continue
  fi
  verdict=ok
  if awk -v p="$pct" -v f="$floor" 'BEGIN { exit !(p < f) }'; then
    verdict="BELOW FLOOR"
    status=1
  fi
  printf '%-26s %s lines (floor %s%%) %s\n' "$src" "$report" "$floor" \
    "$verdict" | tee -a "$summary"
done
# Keep the annotated listings of the three files only.
find "$out" -name '*.gcov' ! -name core.cpp.gcov ! -name superblock.cpp.gcov \
  ! -name cluster.cpp.gcov -delete
exit $status
