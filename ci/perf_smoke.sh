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
# Also runs exp16_resilience in quick mode and gates its event rate:
# exp16 drives the gnutella flood, kademlia lookup and bittorrent swarm
# paths end-to-end, so it covers the scratch-buffer burn-down the alloc
# pass ratchets (~7.3k events/sec after the burn-down; see
# docs/PERFORMANCE.md "Allocation discipline" evidence).
#
# Also runs exp17_fault_scale in quick mode and gates the medium-size
# incremental repair rate (fault epochs repaired per second): ~8.3k
# epochs/sec measured on the reference dev box, floor 6000. A regression
# here means fault epochs silently went back to paying full all-pairs
# rebuild cost (see docs/PERFORMANCE.md "Incremental repair").
#
# Also runs exp18_congestion in quick mode and gates the max-min flow
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

PATH_QPS_FLOOR=440000000
EXP16_EPS_FLOOR=7000
EXP17_REPAIR_EPS_FLOOR=6000
FLOW_ALLOC_CPS_FLOOR=3000
SLACK=5

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

echo "routing microbench (quick)"
cargo run --release -q -p uap-bench --bin bench_routing -- \
  --quick --out "$WORK" | tee "$WORK/stdout.txt"

line="$(grep '^PERF size=small ' "$WORK/stdout.txt")"
path_qps="$(sed -n 's/.* path_qps=\([0-9]*\).*/\1/p' <<<"$line")"

if [[ -z "$path_qps" ]]; then
  echo "FAIL: could not parse PERF line: $line" >&2
  exit 1
fi

check() { # check <label> <measured> <floor> <unit>
  local min=$(($3 / SLACK))
  if (($2 < min)); then
    echo "FAIL: $1 = $2 $4, below $min (floor $3 / ${SLACK}x slack)" >&2
    exit 1
  fi
  echo "ok: $1 = $2 $4 (>= $min)"
}

check path_qps "$path_qps" "$PATH_QPS_FLOOR" queries/sec

echo "exp16 resilience event-rate smoke (quick)"
cargo run --release -q -p uap-bench --bin exp16_resilience -- \
  --quick --seed 42 --out "$WORK/e16" | tee "$WORK/e16_stdout.txt"

e16_line="$(grep '^PERF exp16_resilience ' "$WORK/e16_stdout.txt")"
e16_eps="$(sed -n 's/.* events_per_sec=\([0-9]*\).*/\1/p' <<<"$e16_line")"
if [[ -z "$e16_eps" ]]; then
  echo "FAIL: could not parse PERF line: $e16_line" >&2
  exit 1
fi
check exp16_events_per_sec "$e16_eps" "$EXP16_EPS_FLOOR" events/sec

echo "exp17 fault-scale repair-throughput smoke (quick)"
cargo run --release -q -p uap-bench --bin exp17_fault_scale -- \
  --quick --seed 42 --out "$WORK/e17" | tee "$WORK/e17_stdout.txt"

e17_line="$(grep '^PERF fault_scale size=medium ' "$WORK/e17_stdout.txt")"
e17_repair_eps="$(sed -n 's/.* repair_eps=\([0-9]*\).*/\1/p' <<<"$e17_line")"
if [[ -z "$e17_repair_eps" ]]; then
  echo "FAIL: could not parse PERF line: $e17_line" >&2
  exit 1
fi
check exp17_repair_epochs_per_sec "$e17_repair_eps" "$EXP17_REPAIR_EPS_FLOOR" epochs/sec

echo "exp18 flow-allocator throughput smoke (quick)"
cargo run --release -q -p uap-bench --bin exp18_congestion -- \
  --quick --seed 42 --out "$WORK/e18" | tee "$WORK/e18_stdout.txt"

e18_line="$(grep '^PERF flow_alloc ' "$WORK/e18_stdout.txt")"
e18_cps="$(sed -n 's/.* allocs_per_sec=\([0-9]*\).*/\1/p' <<<"$e18_line")"
if [[ -z "$e18_cps" ]]; then
  echo "FAIL: could not parse PERF line: $e18_line" >&2
  exit 1
fi
check flow_alloc_cycles_per_sec "$e18_cps" "$FLOW_ALLOC_CPS_FLOOR" cycles/sec

echo "perf smoke passed."
