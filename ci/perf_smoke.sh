#!/usr/bin/env bash
# Perf-smoke gate for the routing hot path:
#
#   ./ci/perf_smoke.sh
#
# Runs the routing microbench in quick mode and fails if the small-size
# path query rate drops more than 5x below the committed floor. The
# floor is the post-CSR/route-cache rate measured on the reference dev
# box (path ~440M qps); the 5x slack absorbs machine-to-machine and
# noisy-neighbor variance while still catching a reintroduced per-query
# allocation or table walk, which costs an order of magnitude.
#
# Also runs exp16 (resilience) in quick mode and gates its event rate:
# exp16 drives the gnutella flood, kademlia lookup and bittorrent swarm
# paths end-to-end, so it covers the scratch-buffer burn-down the alloc
# pass ratchets (~7.3k events/sec after the burn-down; see
# docs/PERFORMANCE.md "Allocation discipline" evidence).
#
# Also runs exp17 (fault-scale repair) in quick mode and gates the
# medium-size incremental repair rate (epochs repaired per second): ~8.3k
# epochs/sec measured on the reference dev box, floor 6000. A regression
# here means fault epochs silently went back to paying full all-pairs
# rebuild cost (see docs/PERFORMANCE.md "Incremental repair").
#
# Also runs exp18 (congestion) in quick mode and gates the max-min flow
# allocator's cycle rate (full begin/add-256-flows/allocate cycles per
# second): ~3.7k cycles/sec measured on the reference dev box, floor
# 3000. A regression here means the per-round allocation recompute grew
# a hidden quadratic or started allocating (see docs/BANDWIDTH.md).
#
# Floors are in queries/sec (routing), events/sec (exp16), repaired
# epochs/sec (exp17), and allocate cycles/sec (exp18). Update them
# (with a note in docs/PERFORMANCE.md) only when a deliberate trade-off
# changes the hot-path cost model.
set -euo pipefail
cd "$(dirname "$0")/.."

SLACK=5

# One row per floor:
#   title | binary and args | PERF line prefix | key | label | floor | unit
FLOORS=(
  "routing microbench (quick)|bench_routing --quick|PERF size=small|path_qps|path_qps|440000000|queries/sec"
  "exp16 resilience event-rate smoke (quick)|exp exp16 --quick --seed 42|PERF exp16_resilience|events_per_sec|exp16_events_per_sec|7000|events/sec"
  "exp17 fault-scale repair-throughput smoke (quick)|exp exp17 --quick --seed 42|PERF fault_scale size=medium|repair_eps|exp17_repair_epochs_per_sec|6000|epochs/sec"
  "exp18 flow-allocator throughput smoke (quick)|exp exp18 --quick --seed 42|PERF flow_alloc|allocs_per_sec|flow_alloc_cycles_per_sec|3000|cycles/sec"
)

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

for row in "${FLOORS[@]}"; do
  IFS='|' read -r title cmd prefix key label floor unit <<<"$row"
  read -ra argv <<<"$cmd"
  echo "$title"
  cargo run --release -q -p uap-bench --bin "${argv[0]}" -- \
    "${argv[@]:1}" --out "$WORK/${argv[0]}" | tee "$WORK/stdout.txt"

  line="$(grep "^$prefix " "$WORK/stdout.txt" || true)"
  measured="$(sed -n "s/.* $key=\([0-9]*\).*/\1/p" <<<"$line")"
  if [[ -z "$measured" ]]; then
    echo "FAIL: could not parse PERF line: $line" >&2
    exit 1
  fi
  min=$((floor / SLACK))
  if ((measured < min)); then
    echo "FAIL: $label = $measured $unit, below $min (floor $floor / ${SLACK}x slack)" >&2
    exit 1
  fi
  echo "ok: $label = $measured $unit (>= $min)"
done

echo "perf smoke passed."
