#!/usr/bin/env bash
# The full pre-merge gate, runnable locally or from CI:
#
#   ./ci/check.sh
#
# Steps (in order, fail-fast):
#   1. cargo fmt --check        — formatting drift
#   2. cargo clippy -D warnings — lints (unwrap_used etc.; see clippy.toml)
#   3. xtask analyze            — the static determinism gate, run once,
#                                 six passes: the token-level lint plus
#                                 the call-graph passes (the one ratchet,
#                                 panic sites against
#                                 ci/analyze_panic_baseline.txt; the
#                                 hot-path allocation and truncating-cast
#                                 denies; parallel regions; trace
#                                 registry). Prints one summary line per
#                                 pass, so a failure names its pass; no
#                                 timing line, no wall budget.
#                                 docs/STATIC_ANALYSIS.md
#   4. cargo build --release    — tier-1: release build
#   5. cargo test               — tier-1: root-package tests
#   6. cargo test --workspace   — every crate's unit + integration tests
#   7. ci/trace_gate.sh         — trace determinism: two same-seed runs of
#                                 every traced experiment (`exp list
#                                 --traced`: exp04, 09, 10, 15, 16, 17, 18)
#                                 byte-identical under `xtask trace diff`
#                                 (both streamed: `--trace` always is)
#   7b. quick suite             — `exp all --quick` must exit 0 and leave
#                                 every CSV `exp list --csvs` names
#   7c. results/ are current    — `exp all` at full scale must reproduce
#                                 every committed results/*.csv byte for
#                                 byte, and results/ must hold no CSV the
#                                 table does not declare
#   7d. EXPERIMENTS.md is current — `exp doc` regenerates its tables from
#                                 results/; the committed file must not
#                                 change
#   8. benchmark/ build + smoke   — the standalone benchmark package
#                                 (outside the workspace) builds offline
#                                 against the crates' public API and
#                                 every workload passes its checks at
#                                 one-tenth scale, so an API deletion
#                                 cannot silently break BENCHMARK.json
#   9. benchmark/ self-tests    — the package's own tests (harness, stats,
#                                 compare verdicts, each workload at tiny
#                                 scale in a debug build), same shared
#                                 target/ directory
#  10. benchmark/ is untouched  — `git status --porcelain -- benchmark
#                                 BENCHMARK.json` must be empty after 8
#                                 and 9: a dependency edit that makes
#                                 cargo rewrite benchmark/Cargo.lock (or
#                                 a stray edit there) fails here, not at
#                                 the benchmark driver
set -euo pipefail
cd "$(dirname "$0")/.."

step() { printf '\n== %s ==\n' "$*"; }

step "cargo fmt --check"
cargo fmt --all --check

step "cargo clippy (workspace, all targets, -D warnings)"
cargo clippy --workspace --all-targets -q -- -D warnings

step "static determinism gate (cargo run -p xtask -- analyze)"
cargo run -q -p xtask -- analyze

step "cargo build --release"
cargo build --release -q

step "cargo test (root package)"
cargo test -q

step "cargo test --workspace"
cargo test --workspace -q

step "trace determinism gate (ci/trace_gate.sh)"
./ci/trace_gate.sh

exp() { cargo run --release -q -p uap-bench --bin exp -- "$@"; }
OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT

step "quick suite (exp all --quick)"
exp all --quick --seed 42 --out "$OUT/quick" > "$OUT/quick.stdout.txt"
for stem in $(exp list --csvs); do
  [ -s "$OUT/quick/$stem.csv" ] || { echo "missing $stem.csv" >&2; exit 1; }
done

step "results/*.csv are what the binaries emit (exp all, full scale)"
exp all --seed 42 --out "$OUT/full" > "$OUT/full.stdout.txt"
for stem in $(exp list --csvs); do
  diff "results/$stem.csv" "$OUT/full/$stem.csv"
done
for csv in results/*.csv; do
  [ -e "$OUT/full/$(basename "$csv")" ] || { echo "$csv is not an output of any experiment" >&2; exit 1; }
done

step "EXPERIMENTS.md tables are generated (exp doc)"
exp doc
git diff --exit-code -- EXPERIMENTS.md

step "benchmark package build + smoke (benchmark/smoke.sh)"
./benchmark/smoke.sh | tail -n 3

step "benchmark package self-tests"
cargo test --offline -q --manifest-path benchmark/Cargo.toml --target-dir target

step "benchmark/ and BENCHMARK.json are untouched"
DIRTY="$(git status --porcelain -- benchmark BENCHMARK.json)"
[ -z "$DIRTY" ] || { printf 'the benchmark must not change:\n%s\n' "$DIRTY" >&2; exit 1; }

printf '\nAll checks passed.\n'
