#!/usr/bin/env bash
# Trace-determinism gate: two same-seed runs of every traced experiment
# (`exp list --traced`) must produce byte-identical JSONL traces and
# RunReport JSON (modulo the wall-clock lines, which `exp trace diff`
# exempts), and each run's trace must pass `exp trace check` (census, then
# causal integrity; a seq gap — a line the file lost — fails it). `exp --trace` writes through the streaming sink, so the pair
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

must_explain() { # must_explain <id> <event kind>: its first event's causal chain ends at a fault.epoch
  local seq explain
  seq="$(grep -m1 "\"k\":\"$2\"" "$WORK/$1/a/$1.trace.jsonl" | sed -E 's/^\{"seq":([0-9]+).*/\1/')"
  explain="$(exp trace explain "$WORK/$1/a/$1.trace.jsonl" "$seq")"
  echo "$explain"
  if ! echo "$explain" | grep -q 'fault.epoch'; then
    echo "$1 $2 seq $seq does not trace back to a fault.epoch root" >&2
    exit 1
  fi
}

for id in $(exp list --traced); do
  echo "== $id, seed $SEED: runs A and B"
  run "$id" "$WORK/$id/a"
  run "$id" "$WORK/$id/b"

  echo "trace diff (JSONL)"
  exp trace diff "$WORK/$id/a/$id.trace.jsonl" "$WORK/$id/b/$id.trace.jsonl"

  echo "trace diff (RunReport JSON)"
  exp trace diff "$WORK/$id/a/"*.report.json "$WORK/$id/b/"*.report.json

  echo "trace check (census and causal integrity)"
  exp trace check "$WORK/$id/a/$id.trace.jsonl"
  exp trace check "$WORK/$id/b/$id.trace.jsonl"
done

must_fire exp16 fault.epoch "FaultPlan not applied"
must_fire exp16 download.retry "Gnutella recovery path not exercised"
must_fire exp16 reannounce "swarm recovery path not exercised"
must_fire exp16 rpc.retry "Kademlia retransmit path not exercised"
must_fire exp17 routing.repair "repair path not exercised"
must_fire exp18 flow.open "flow model not exercised"

echo "trace spans (exp16)"
exp trace spans "$WORK/exp16/a/exp16.trace.jsonl"

# Provenance smoke: Gnutella's download.retry, the swarm's reannounce and
# Kademlia's rpc.retry must each explain back to a fault.epoch root — the
# causal chains the fault campaign exists to exercise.
echo "trace explain (exp16 download.retry, reannounce and rpc.retry provenance)"
must_explain exp16 download.retry
must_explain exp16 reannounce
must_explain exp16 rpc.retry

echo "trace gate passed."
