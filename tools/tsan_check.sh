#!/usr/bin/env bash
# Builds the tree with ThreadSanitizer (-DBLUEDOVE_TSAN=ON) and runs the
# concurrency-sensitive suites under it: the thread-cluster runtime, the TCP
# transport (its reactor inbox, fed by test threads, offload workers and
# edge reactors; the batched wire path), the node logic they drive, the obs
# metrics hot path (relaxed atomics updated from matcher worker threads
# while snapshots read them),
# and the `parallel` label (offload worker pool, work-stealing lanes,
# probes of the live indexes beside held-back writes, the ordering and
# churn differentials). The `cover` label
# runs too: covering mutations are node-thread-only by design and the
# expansion pre-pass must never touch pool workers — TSan enforces that
# claim rather than trusting the comment.
#
# Usage: tools/tsan_check.sh [--label LABEL] [ctest-args...]
#   --label LABEL replaces the default suite selection with one ctest label
#   (repeatable); any further arguments pass through to ctest unchanged.
#   Exits nonzero when the build or any selected test fails.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/build-tsan"
jobs="$(nproc 2>/dev/null || echo 2)"

labels=()
ctest_args=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --label)
      [[ $# -ge 2 ]] || { echo "--label needs an argument" >&2; exit 2; }
      labels+=("$2")
      shift 2
      ;;
    --label=*)
      labels+=("${1#--label=}")
      shift
      ;;
    *)
      ctest_args+=("$1")
      shift
      ;;
  esac
done

cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DBLUEDOVE_TSAN=ON
cmake --build "${build_dir}" -j "${jobs}"

export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}"
if [[ ${#labels[@]} -gt 0 ]]; then
  for label in "${labels[@]}"; do
    ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}" \
      -L "${label}" ${ctest_args[@]+"${ctest_args[@]}"}
  done
else
  ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}" \
    -R 'Tcp|Wire|ThreadCluster|Logger|Registry|LatencyHistogram' \
    ${ctest_args[@]+"${ctest_args[@]}"}
  ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}" \
    -L parallel ${ctest_args[@]+"${ctest_args[@]}"}
  ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}" \
    -L cover ${ctest_args[@]+"${ctest_args[@]}"}
fi
