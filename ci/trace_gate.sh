#!/usr/bin/env bash
# Trace-determinism gate: two same-seed runs of every traced experiment
# (`exp list --traced`) must produce byte-identical JSONL traces and
# RunReport JSON (modulo the wall-clock lines, which `xtask trace diff`
# exempts). `exp --trace` writes through the streaming sink, so the pair
# is itself streamed; that the sink's bytes equal the buffered one's is
# `trace.rs::streaming_sink_bytes_match_the_buffered_sink`.
#
#   ./ci/trace_gate.sh [seed]
#
# Four of those rows are also checked for the events they exist to
# produce: exp04 exercises the engine, the overlay, the oracle and the
# underlay accounting in one run; exp16's non-empty FaultPlan drives
# routing rebuilds, route-cache invalidation and every overlay's recovery
# path — the layers most likely to smuggle nondeterminism in; exp17
# double-runs the incremental routing-repair path itself (its
# routing.repair events pin dirty-source selection and the row-by-row
# recompute to a deterministic order); exp18 backs swarm transfers with
# the flow allocator.
set -euo pipefail
cd "$(dirname "$0")/.."

SEED="${1:-42}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

exp() { cargo run --release -q -p uap-bench --bin exp -- "$@"; }
xtask() { cargo run --release -q -p xtask -- "$@"; }

run() { # run <id> <dir>
  mkdir -p "$2"
  exp "$1" --quick --seed "$SEED" --out "$2" --trace "$2/$1.trace.jsonl" \
    > "$2/stdout.txt"
}

must_fire() { # must_fire <id> <event kind> <what it proves>
  if ! grep -q "\"k\":\"$2\"" "$WORK/$1/a/$1.trace.jsonl"; then
    echo "$1 trace contains no $2 events — $3" >&2
    exit 1
  fi
}

for id in $(exp list --traced); do
  echo "== $id, seed $SEED: runs A and B"
  run "$id" "$WORK/$id/a"
  run "$id" "$WORK/$id/b"

  echo "trace diff (JSONL)"
  xtask trace diff "$WORK/$id/a/$id.trace.jsonl" "$WORK/$id/b/$id.trace.jsonl"

  echo "trace diff (RunReport JSON)"
  xtask trace diff "$WORK/$id/a/"*.report.json "$WORK/$id/b/"*.report.json

  echo "trace summary"
  xtask trace summary "$WORK/$id/a/$id.trace.jsonl"

  echo "trace check (causal integrity)"
  xtask trace check "$WORK/$id/a/$id.trace.jsonl"
  xtask trace check "$WORK/$id/b/$id.trace.jsonl"
done

must_fire exp16 fault.epoch "FaultPlan not applied"
must_fire exp17 routing.repair "repair path not exercised"
must_fire exp18 flow.open "flow model not exercised"

echo "trace spans (exp16)"
xtask trace spans "$WORK/exp16/a/exp16.trace.jsonl"

# Provenance smoke: a download.retry must explain back to a fault.epoch
# root — the causal chain the fault campaign exists to exercise.
echo "trace explain (exp16 download.retry provenance)"
must_fire exp16 download.retry "recovery path not exercised"
RETRY_SEQ="$(grep -m1 '"k":"download.retry"' "$WORK/exp16/a/exp16.trace.jsonl" \
  | sed -E 's/^\{"seq":([0-9]+).*/\1/')"
EXPLAIN="$(xtask trace explain "$WORK/exp16/a/exp16.trace.jsonl" "$RETRY_SEQ")"
echo "$EXPLAIN"
if ! echo "$EXPLAIN" | grep -q 'fault.epoch'; then
  echo "download.retry seq $RETRY_SEQ does not trace back to a fault.epoch root" >&2
  exit 1
fi

echo "trace gate passed."
