#!/usr/bin/env bash
# Paired A/B of the benchmark: a git revision against the working tree.
#
#   ci/ab.sh <rev> [workload…]
#
# Extracts <rev> with `git archive` into a temporary directory and builds
# its uap-benchmark there, with its own --target-dir; the working tree's
# builds into target/ (both --offline). For each workload (default: every
# one BENCHMARK.json names) it runs 10 pairs of `--workload <w> --seed 42
# --trace 0` at the benchmark's own run length, switching which side goes
# first from pair to pair, so slow stretches of a shared host fall on
# both sides alike.
#
# For every end-to-end metric BENCHMARK.json declares it prints the
# parent and change medians, their ratio (change / parent), the parent's
# interquartile range (nearest-rank quartiles) and how many pairs the
# change won, then a verdict:
#   better      the change wins >= 9 of 10 pairs and the medians differ
#               by more than the parent's IQR
#   worse       the change is worse than the parent by more than the
#               metric's bound
#   unresolved  the parent's IQR is wider than that bound (as a share of
#               the parent's median)
#   same        otherwise
# When the two sides report different sim_digests, the workload's table
# ends with a note: they simulated different things, so host time does
# not compare like with like.
# A run that exits non-zero or fails a check stops the script (exit 1).
# The extracted revision and its build are removed on exit; the runs of
# the working tree's binary write only under the ignored benchmark/out/.
#
# This is a stopgap while benchmark/ is frozen: `uap-benchmark ab` is to
# replace it, so that benchmark/src/compare.rs holds the one verdict
# policy.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  echo "usage: ci/ab.sh <rev> [workload…]" >&2
  exit 2
}
[ $# -ge 1 ] || usage
rev="$1"
shift
pairs=10
for a in "$@"; do
  case "$a" in -*) usage ;; esac
done
workloads=("$@")
git rev-parse --verify -q "$rev^{commit}" > /dev/null || { echo "unknown revision $rev" >&2; exit 2; }

# BENCHMARK.json is pretty-printed one key per line: read the workload
# names and each end-to-end metric's "name better bound".
if [ ${#workloads[@]} -eq 0 ]; then
  mapfile -t workloads < <(awk '
    /"workloads"/ { on = 1 }
    on && /"name"/ { gsub(/[",]/, "", $2); print $2 }
    on && /^  \]/ { exit }' BENCHMARK.json)
fi
metrics="$(awk '
  /"end_to_end"/ { on = 1 }
  /"per_layer"/ { on = 0 }
  on && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
  on && /"better"/ { gsub(/[",]/, "", $2); better = $2 }
  on && /"bound"/ { gsub(/[",]/, "", $2); print name, better, $2 }' BENCHMARK.json)"
names="$(echo "$metrics" | awk '{ printf "%s ", $1 }')"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/rev"
git archive "$rev" | tar -x -C "$tmp/rev"
build() {
  cargo build --release --offline -q --manifest-path "$1/benchmark/Cargo.toml" --target-dir "$2"
}
echo "building $rev's benchmark" >&2
build "$tmp/rev" "$tmp/target"
echo "building the working tree's benchmark" >&2
build . target
parent_bin="$tmp/target/release/uap-benchmark"
change_bin="target/release/uap-benchmark"

# One run: appends "<side> <pair> <metric values in $names order>" to
# the workload's sample file and the run's sim_digest (from
# <checkout>/benchmark/out/<workload>.measured.json) to its digest file.
run() {
  local side="$1" bin="$2" checkout="$3" workload="$4" pair="$5" line values
  line="$("$bin" --workload "$workload" --seed 42 --trace 0 | tail -n 1)" || {
    echo "$side run of $workload (pair $pair) exited non-zero" >&2
    exit 1
  }
  values="$(echo "$line" | awk -v side="$side" -v pair="$pair" -v names="$names" '
    {
      if ($0 !~ /"failed":0[,}]/) { print "failed"; exit }
      n = split(names, m, " ")
      out = side " " pair
      for (i = 1; i <= n; i++) {
        if (!match($0, "\"" m[i] "\":\\{\"value\":[-0-9.eE+]+")) { print "failed"; exit }
        v = substr($0, RSTART, RLENGTH)
        sub(/.*:/, "", v)
        out = out " " v
      }
      print out
    }')"
  if [ "$values" = failed ]; then
    echo "$side run of $workload (pair $pair) failed a check or lost a metric: $line" >&2
    exit 1
  fi
  echo "$values" >> "$tmp/$workload.samples"
  sed -n 's/^ *"sim_digest": *"\([0-9a-f]*\)".*/\1/p' \
    "$checkout/benchmark/out/$workload.measured.json" >> "$tmp/$workload.$side.digests"
}

for workload in "${workloads[@]}"; do
  : > "$tmp/$workload.samples"
  for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then
      run parent "$parent_bin" "$tmp/rev" "$workload" "$pair"
      run change "$change_bin" . "$workload" "$pair"
    else
      run change "$change_bin" . "$workload" "$pair"
      run parent "$parent_bin" "$tmp/rev" "$workload" "$pair"
    fi
    echo "$workload: pair $pair of $pairs done" >&2
  done

  printf '\n%s, %s pairs\n' "$workload" "$pairs"
  printf '%-12s %12s %12s %7s %25s %6s  %s\n' \
    metric parent change ratio "parent IQR" won verdict
  echo "$metrics" | while read -r name better bound; do
    awk -v names="$names" -v better="$better" -v bound="$bound" -v name="$name" '
      function sort(a, n,    i, j, t) {
        for (i = 2; i <= n; i++) {
          t = a[i]
          for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
          a[j + 1] = t
        }
      }
      function median(a, n) {
        return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2
      }
      function rank(q, n,    r) {
        r = q * n
        r = (r == int(r)) ? r : int(r) + 1
        return r < 1 ? 1 : r
      }
      BEGIN {
        # Sample lines are "<side> <pair> <values in $names order>".
        n = split(names, m, " ")
        for (i = 1; i <= n; i++) if (m[i] == name) col = i + 2
      }
      $1 == "parent" { p[$2] = $col + 0 }
      $1 == "change" { c[$2] = $col + 0 }
      END {
        n = 0
        for (k in p) {
          n++
          ps[n] = p[k]
          cs[n] = c[k]
          if (better == "lower" ? c[k] < p[k] : c[k] > p[k]) won++
        }
        sort(ps, n)
        sort(cs, n)
        mp = median(ps, n)
        mc = median(cs, n)
        q1 = ps[rank(0.25, n)]
        q3 = ps[rank(0.75, n)]
        iqr = q3 - q1
        worse_by = (better == "lower" ? mc - mp : mp - mc) / mp
        gap = mc > mp ? mc - mp : mp - mc
        if (n >= 10 && 10 * won >= 9 * n && gap > iqr && worse_by < 0) verdict = "better"
        else if (worse_by > bound) verdict = "worse"
        else if (iqr / mp > bound) verdict = "unresolved"
        else verdict = "same"
        printf "%-12s %12.6g %12.6g %7.3f %12.6g-%-12.6g %3d/%-2d  %s\n",
          name, mp, mc, mc / mp, q1, q3, won, n, verdict
      }' "$tmp/$workload.samples"
  done
  parent_digests="$(sort -u "$tmp/$workload.parent.digests" | tr '\n' ' ')"
  change_digests="$(sort -u "$tmp/$workload.change.digests" | tr '\n' ' ')"
  if [ "$parent_digests" != "$change_digests" ]; then
    echo "note: sim_digest differs (parent ${parent_digests% }, change ${change_digests% }):" \
      "simulated statistics moved, so host time does not compare like with like"
  fi
done
