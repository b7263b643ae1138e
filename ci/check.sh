#!/usr/bin/env bash
# The full pre-merge gate, runnable locally or from CI:
#
#   ./ci/check.sh
#
# Steps (in order, fail-fast):
#   1. cargo fmt --check        — formatting drift
#   2. cargo clippy -D warnings — the static gate (clippy.toml, Cargo.toml
#                                 [workspace.lints]): disallowed types
#                                 (HashMap, HashSet, RandomState,
#                                 SystemTime) and methods (Instant::now,
#                                 thread::spawn/scope); truncating `as`
#                                 casts; in non-test code unwrap /
#                                 expect, panic! / unreachable! / todo! /
#                                 unimplemented! and slice indexing; a
#                                 reason on every #[allow] and #[expect].
#                                 Where an escape may stand is pinned by
#                                 tests/source_scan.rs (step 4), which
#                                 also checks that the trace / metrics
#                                 registry declares nothing the code no
#                                 longer writes. docs/DETERMINISM.md
#   3. cargo build --release    — tier-1: release build
#   4. cargo test               — tier-1: root-package tests
#   5. cargo test --workspace   — every crate's unit + integration tests
#   5b. allocation counts       — tests/alloc_count.rs in a release build
#                                 (debug invariant checkers allocate, so
#                                 its windows are ignored in debug):
#                                 per-event paths allocate within their
#                                 stated bounds. docs/PERFORMANCE.md
#   6. ci/trace_gate.sh         — trace determinism: two same-seed runs of
#                                 every traced experiment (`exp list
#                                 --traced`: exp04, 09, 10, 15, 16, 17, 18)
#                                 byte-identical under `xtask trace diff`
#                                 (both streamed: `--trace` always is)
#   6b. quick suite             — `exp all --quick` must exit 0 and leave
#                                 every CSV `exp list --csvs` names
#   6c. results/ are current    — `exp all` at full scale must reproduce
#                                 every committed results/*.csv byte for
#                                 byte, and results/ must hold no CSV the
#                                 table does not declare
#   6d. generated docs are current — `exp doc` regenerates EXPERIMENTS.md's
#                                 tables from results/ and
#                                 docs/OBSERVABILITY.md's registry tables
#                                 from uap_sim::trace::registry; neither
#                                 committed file may change
#   7. benchmark/ build + smoke — the standalone benchmark package
#                                 (outside the workspace) builds offline
#                                 against the crates' public API and
#                                 every workload passes its checks at
#                                 one-tenth scale, so an API deletion
#                                 cannot silently break BENCHMARK.json;
#                                 then each workload's seed-42 sim_digest
#                                 must equal its line in
#                                 ci/smoke_digests.txt, so simulated
#                                 output that moves by one rate bit fails
#   8. benchmark/ self-tests    — the package's own tests (harness, stats,
#                                 compare verdicts, each workload at tiny
#                                 scale in a debug build), same shared
#                                 target/ directory
#   9. benchmark/ is untouched  — `git status --porcelain -- benchmark
#                                 BENCHMARK.json` must be empty after 7
#                                 and 8: a dependency edit that makes
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

step "cargo build --release"
cargo build --release -q

step "cargo test (root package)"
cargo test -q

step "cargo test --workspace"
cargo test --workspace -q

step "allocation counts (release)"
cargo test --release -q --test alloc_count

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

step "EXPERIMENTS.md and OBSERVABILITY.md tables are generated (exp doc)"
exp doc
git diff --exit-code -- EXPERIMENTS.md docs/OBSERVABILITY.md

step "benchmark package build + smoke (benchmark/smoke.sh), pinned digests"
./benchmark/smoke.sh --seed 42 | tail -n 3
while read -r workload pinned; do
  case "$workload" in '#'* | '') continue ;; esac
  measured="benchmark/out/$workload.measured.json"
  [ -f "$measured" ] || { echo "the smoke run wrote no $measured" >&2; exit 1; }
  got="$(sed -n 's/.*"sim_digest": *"\([0-9a-f]*\)".*/\1/p' "$measured")"
  [ "$got" = "$pinned" ] || {
    echo "$workload: sim_digest $got, pinned $pinned (ci/smoke_digests.txt)" >&2; exit 1; }
done < ci/smoke_digests.txt

step "benchmark package self-tests"
cargo test --offline -q --manifest-path benchmark/Cargo.toml --target-dir target

step "benchmark/ and BENCHMARK.json are untouched"
DIRTY="$(git status --porcelain -- benchmark BENCHMARK.json)"
[ -z "$DIRTY" ] || { printf 'the benchmark must not change:\n%s\n' "$DIRTY" >&2; exit 1; }

printf '\nAll checks passed.\n'
