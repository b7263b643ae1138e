#!/usr/bin/env bash
# Benchmark smoke run: every workload at about one-tenth scale, one
# iteration each, same checks and result schema as the full run. Exits
# non-zero if a check fails. Under 20 s once built.
#
#   ./benchmark/smoke.sh [--seed N]
#
# Not wired into ci/check.sh yet; it shares the root `target/` directory
# so a CI job that already built the workspace only compiles this package.
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet \
  --manifest-path benchmark/Cargo.toml --target-dir target -- all --smoke "$@"
