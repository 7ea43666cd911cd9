#!/usr/bin/env bash
# End-to-end flight-recorder acceptance run (ISSUE: observability PR).
#
# Boots a real TCP cluster — 2 dispatchers, 4 matchers, 1 delivery sink, all
# separate processes — publishes traced traffic through it, then:
#
#   1. pulls one matcher's recorder live over TCP
#      (`bluedove_cli trace-dump`) and validates the Perfetto JSON;
#   2. collects every process's own dump (--trace-json, written at exit),
#      merges all seven with tools/trace_check.py --merge, and requires at
#      least one async trace id to span multiple pids — the causal
#      dispatch -> match -> deliver chain crossing node boundaries.
#
# Usage: tools/trace_smoke.sh [BUILD_DIR]   (default: <repo>/build)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-${repo_root}/build}"
noded="${build}/tools/bluedove_noded"
cli="${build}/tools/bluedove_cli"
check="${repo_root}/tools/trace_check.py"

[[ -x "${noded}" && -x "${cli}" ]] || {
  echo "trace_smoke: build ${build} first (bluedove_noded, bluedove_cli)" >&2
  exit 2
}

tmp="$(mktemp -d)"
pids=()
cleanup() {
  for p in "${pids[@]:-}"; do kill "${p}" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "${tmp}"
}
trap cleanup EXIT

base=7600
sink_id=2;  sink_port=$((base + 2))
m_ids=(1000 1001 1002 1003)
d_ids=(10 11)
cluster="1000,1001,1002,1003"
dispatchers="10,11"

# Full address directory: every process can reach every other.
peers="${sink_id}@127.0.0.1:${sink_port}"
for i in 0 1 2 3; do
  peers+=",${m_ids[$i]}@127.0.0.1:$((base + 100 + i))"
done
for i in 0 1; do
  peers+=",${d_ids[$i]}@127.0.0.1:$((base + 200 + i))"
done

"${noded}" --role=sink --id="${sink_id}" --port="${sink_port}" \
  --trace-json="${tmp}/trace_sink.json" >"${tmp}/sink.log" 2>&1 &
pids+=($!)

for i in 0 1 2 3; do
  "${noded}" --role=matcher --id="${m_ids[$i]}" --port=$((base + 100 + i)) \
    --cluster="${cluster}" --dispatchers="${dispatchers}" \
    --sink="${sink_id}" --peers="${peers}" --cores=2 --index=flat-bucket \
    --trace-json="${tmp}/trace_m${i}.json" >"${tmp}/m${i}.log" 2>&1 &
  pids+=($!)
done

for i in 0 1; do
  "${noded}" --role=dispatcher --id="${d_ids[$i]}" --port=$((base + 200 + i)) \
    --cluster="${cluster}" --peers="${peers}" --trace-sample=1 \
    --trace-json="${tmp}/trace_d${i}.json" >"${tmp}/d${i}.log" 2>&1 &
  pids+=($!)
done

sleep 1  # listeners up

echo "== traced traffic through both dispatchers =="
"${cli}" blast --peer=127.0.0.1:$((base + 200)) --target-id=10 \
  --subs=200 --count=2000 --wire-batch=1 >"${tmp}/blast0.log" 2>&1
"${cli}" blast --peer=127.0.0.1:$((base + 201)) --target-id=11 \
  --subs=200 --count=2000 --wire-batch=1 --seed=7 >"${tmp}/blast1.log" 2>&1
sleep 2  # let matching + delivery drain

echo "== live trace-dump from matcher ${m_ids[0]} =="
"${cli}" trace-dump --peer=127.0.0.1:$((base + 100)) \
  --out="${tmp}/live_matcher.json"
python3 "${check}" "${tmp}/live_matcher.json"

echo "== segment-load attribution visible in stats =="
"${cli}" stats --peer=127.0.0.1:$((base + 100)) | tee "${tmp}/stats.log" \
  | grep -q "segment load" || {
  echo "trace_smoke: no segment-load table in stats output" >&2
  exit 1
}

echo "== shut down and merge all seven process dumps =="
for p in "${pids[@]}"; do kill -TERM "${p}" 2>/dev/null || true; done
for p in "${pids[@]}"; do wait "${p}" 2>/dev/null || true; done
pids=()

python3 "${check}" --merge "${tmp}/merged.json" \
  "${tmp}"/trace_sink.json "${tmp}"/trace_m*.json "${tmp}"/trace_d*.json
python3 "${check}" "${tmp}/merged.json" --require-cross-node

echo "trace_smoke: OK"
