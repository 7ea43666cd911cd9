#!/usr/bin/env bash
# Builds the tree with ASan+UBSan (-DBLUEDOVE_SANITIZE=ON) and runs the full
# test suite under it (including the `wire` label — batched transport framing,
# the reactor's receive buffer, per-frame carving and per-connection write
# buffers, backpressure — and the `parallel` label — offload worker pool,
# probes of the live indexes). The SoA index code moves raw column entries
# instead of shared_ptrs and trusts nodes to refuse wrong-arity input, so
# this is the lifetime/bounds safety net for src/index, and
# the connection buffers in src/net get the same coverage. The `cover` label
# (subscription covering layer) rides along: expansion reads its member
# blocks and range rows by raw offset, and a group's members move when its
# block grows, the classic place for a bounds slip.
#
# Usage: tools/sanitize_check.sh [--label LABEL] [ctest-args...]
#   --label LABEL restricts the run to one ctest label (repeatable); any
#   further arguments pass through to ctest unchanged. Exits nonzero when
#   the build or any selected test fails.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/build-asan"
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
  -DBLUEDOVE_SANITIZE=ON
cmake --build "${build_dir}" -j "${jobs}"

export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1:strict_string_checks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}"
# One ctest run per label: repeated -L options would select only the tests
# that carry every label.
if [[ ${#labels[@]} -gt 0 ]]; then
  for label in "${labels[@]}"; do
    ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}" \
      -L "${label}" ${ctest_args[@]+"${ctest_args[@]}"}
  done
else
  ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}" \
    ${ctest_args[@]+"${ctest_args[@]}"}
fi
