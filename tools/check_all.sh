#!/usr/bin/env bash
# Umbrella gate: everything a change should pass before review, in rough
# order of cost. Each sub-check exits nonzero on failure and this script
# stops at the first one (see README "Verifying a change").
#
#   1. default build + full ctest suite
#   2. in-tree lint (tools/lint_check.sh)
#   2b. whole-program static analysis (tools/analysis/): thread-affinity
#       reachability + serialize/deserialize symmetry, then the checker
#       golden-file suite (ctest label: analysis)
#   3. determinism digest double-run (tools/determinism_check.sh), on the
#      linear-scan default and again on flat-bucket with covering
#   4. audit-enabled test label (invariant auditor, affinity checker)
#   5. SIMD kernel label (vector kernels vs the scalar oracle)
#   5b. obs label (flight recorder, trace export, segment load) and the
#       TCP trace smoke (tools/trace_smoke.sh: 7-process cluster, merged
#       Perfetto dump validated by tools/trace_check.py)
#   5c. cover label (covering table semantics, residual exactness,
#       covered-vs-uncovered deployment differentials) and the small-scale
#       micro_cover smoke CI runs: exits nonzero when a covered cell's
#       deliveries are not identical to the uncovered index's. Runs in a
#       scratch directory so the committed BENCH_cover.json stays untouched.
#   5d. edge label (epoll reactor front end, resumable sessions, slow-client
#       eviction, swarm drop/resume) and a reduced-count micro_edge smoke
#       (connection ramp + sustained fan-out + resume; exits nonzero on any
#       sequence gap, duplicate, lost session, or payload copy). Runs in a
#       scratch directory so the committed BENCH_edge.json stays untouched.
#   5e. reduced-scale micro_parallel smoke: the matcher probing its live
#       indexes over loopback TCP on the node thread (cores 1) and on
#       worker pools (cores 2/4/8), ten rounds; exits nonzero when any
#       request goes unmatched. Runs in a scratch directory so the committed
#       BENCH_parallel.json stays untouched.
#   5f. reduced-count micro_wire smoke: TcpHost to TcpHost blasts at wire
#       batch 1/8/32 and the default WireConfig; exits nonzero when a
#       publication is missing that the sender's drop counter does not
#       account for, or when the receiver copied a payload. Runs in a
#       scratch directory so the committed BENCH_wire.json stays untouched.
#   5g. the end-to-end smoke on the standalone bench/e2e build (the build
#       bench/e2e/run.py times): every workload at a tenth of its scale,
#       delivered sets checked against the oracle
#   6. ASan+UBSan suite (tools/sanitize_check.sh), then the simd and cover
#      labels again under ASan/UBSan (gather/tail lanes and the member
#      arena's raw range strips are exactly where an out-of-bounds read
#      would hide)
#   7. TSan concurrency suites (tools/tsan_check.sh), then the edge label
#      under TSan (reactor threads, swarm drivers, session migration) and
#      the wire label (TCP hosts: reactor inbox, non-blocking dials)
#
# Usage: tools/check_all.sh [--fast]
#   --fast stops after step 5 (skips the sanitizer rebuilds).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 2)"
fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

echo "== build + ctest =="
cmake -B "${repo_root}/build" -S "${repo_root}"
cmake --build "${repo_root}/build" -j "${jobs}"
ctest --test-dir "${repo_root}/build" --output-on-failure -j "${jobs}"

echo "== lint =="
"${repo_root}/tools/lint_check.sh" "${repo_root}/build"

echo "== static analysis (affinity + serde checkers, goldens) =="
python3 "${repo_root}/tools/analysis/bd_affinity_check.py" --root "${repo_root}"
python3 "${repo_root}/tools/analysis/bd_serde_check.py" --root "${repo_root}"
ctest --test-dir "${repo_root}/build" --output-on-failure -L analysis

echo "== determinism =="
"${repo_root}/tools/determinism_check.sh" "${repo_root}/build"
BD_DET_ARGS="--index=flat-bucket --cover" \
  "${repo_root}/tools/determinism_check.sh" "${repo_root}/build"

echo "== audit label =="
ctest --test-dir "${repo_root}/build" --output-on-failure -L audit

echo "== simd label =="
ctest --test-dir "${repo_root}/build" --output-on-failure -L simd

echo "== obs label (recorder, trace export, segment load) =="
ctest --test-dir "${repo_root}/build" --output-on-failure -L obs

echo "== cover label (subscription covering layer) =="
ctest --test-dir "${repo_root}/build" --output-on-failure -L cover

echo "== micro_cover smoke (small scale, identical-deliveries gate) =="
cover_dir="$(mktemp -d)"
(cd "${cover_dir}" && "${repo_root}/build/bench/micro_cover" \
  --subs 50000 --msgs 512)
rm -rf "${cover_dir}"

echo "== edge label (client edge layer: reactors, sessions, resume) =="
ctest --test-dir "${repo_root}/build" --output-on-failure -L edge

echo "== micro_edge smoke (reduced scale, zero-loss + zero-copy gates) =="
edge_dir="$(mktemp -d)"
(cd "${edge_dir}" && "${repo_root}/build/bench/micro_edge" \
  --connections 5000 --live 2500 --publishes 5000 --resume 250)
rm -rf "${edge_dir}"

echo "== micro_parallel smoke (reduced scale, every request matched) =="
parallel_dir="$(mktemp -d)"
(cd "${parallel_dir}" && "${repo_root}/build/bench/micro_parallel" \
  --subs 20000 --requests 4000)
rm -rf "${parallel_dir}"

echo "== micro_wire smoke (reduced count, lossless + zero-copy gates) =="
wire_dir="$(mktemp -d)"
(cd "${wire_dir}" && "${repo_root}/build/bench/micro_wire" \
  --publishes 20000 --rounds 50)
rm -rf "${wire_dir}"

echo "== e2e smoke (standalone bench/e2e build, oracle-checked) =="
cmake -S "${repo_root}/bench/e2e" -B "${repo_root}/build-e2e" \
  -DCMAKE_BUILD_TYPE=Release
cmake --build "${repo_root}/build-e2e" --target e2e_bench -j "${jobs}"
ctest --test-dir "${repo_root}/build-e2e" --output-on-failure -L bench

echo "== flight-recorder TCP trace smoke =="
"${repo_root}/tools/trace_smoke.sh" "${repo_root}/build"

if [[ "${fast}" == "1" ]]; then
  echo "check_all: OK (--fast: sanitizers skipped)"
  exit 0
fi

echo "== asan+ubsan =="
"${repo_root}/tools/sanitize_check.sh"

echo "== asan+ubsan: simd label =="
"${repo_root}/tools/sanitize_check.sh" --label simd

echo "== asan+ubsan: cover label =="
"${repo_root}/tools/sanitize_check.sh" --label cover

echo "== tsan =="
"${repo_root}/tools/tsan_check.sh"

echo "== tsan: edge label =="
"${repo_root}/tools/tsan_check.sh" --label edge

echo "== tsan: wire label =="
"${repo_root}/tools/tsan_check.sh" --label wire

echo "check_all: OK"
