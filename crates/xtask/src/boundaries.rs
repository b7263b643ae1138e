//! The audited determinism boundaries, declared exactly once.
//!
//! Two passes of [`crate::analyze`] consume these lists — the
//! token-level lint ([`crate::lint`]) and `par` — the lint through one
//! check (`SinkKind::audited`): a `wallclock` allow escape comment is
//! honored only inside [`WALLCLOCK_BOUNDARY`] and a `threads` one only
//! inside a file carrying a [`PARALLEL_REGIONS`] entry. Extending an
//! audited boundary is a single edit here, reviewed once, and picked up
//! by every pass at the same time.

/// The only files where a `wallclock` allow comment is honored: the
/// trace sink's `WallTimer` boundary (see `docs/OBSERVABILITY.md`).
/// Anywhere else the allow comment is itself a violation — wall-clock
/// readings must stay out of simulation state and traced output.
pub const WALLCLOCK_BOUNDARY: [&str; 1] = ["crates/sim/src/trace.rs"];

/// One audited fork-join parallel region: a function that is allowed to
/// spawn worker threads, together with the *declared merge discipline*
/// that makes its output independent of thread scheduling.
///
/// This manifest is the single source of truth for workspace
/// parallelism. The lint pass derives the `threads` allow boundary from
/// the `file` column; `--pass=par` checks the manifest
/// against the actual thread-spawn sites in both directions (an
/// undeclared spawn site fails, and a manifest entry whose function no
/// longer spawns fails as stale) and audits each region's worker
/// closures for determinism hazards not covered by `audited_hazards`.
/// See `docs/STATIC_ANALYSIS.md` ("Parallel-region discipline").
#[derive(Clone, Copy, Debug)]
pub struct ParallelRegion {
    /// Workspace-relative file the region lives in (suffix-matched,
    /// separator-agnostic, like the other boundary lists).
    pub file: &'static str,
    /// Qualified name (`Type::method` or free-function name) of the
    /// function containing the thread-spawn site(s).
    pub function: &'static str,
    /// Human-auditable statement of why the merge is deterministic.
    pub discipline: &'static str,
    /// Worker-side hazard classes (see the analyzer's `HazardKind`
    /// names: `"cell-write"`, `"atomic"`, `"lock"`, `"channel"`,
    /// `"rng"`, `"float-accum"`) that the discipline explicitly audits.
    /// Any worker hazard *not* listed here is a violation.
    pub audited_hazards: &'static [&'static str],
}

/// Every audited parallel region in the workspace. Keep sorted by file
/// then function; `docs/PERFORMANCE.md` carries the determinism
/// argument for the routing region and `crates/core/src/experiments/
/// sweep.rs` documents the sweep runner's.
pub const PARALLEL_REGIONS: [ParallelRegion; 2] = [
    ParallelRegion {
        file: "crates/core/src/experiments/sweep.rs",
        function: "parallel_map",
        discipline: "index-slotted merge: workers claim items via an atomic counter and \
                     write results into per-index slots, so output order equals input order \
                     regardless of scheduling",
        audited_hazards: &["atomic", "lock"],
    },
    ParallelRegion {
        file: "crates/net/src/routing.rs",
        function: "Routing::rows",
        discipline: "no merge: over a sorted source list (every source for a full build, the \
                     dirty ones for a repair) workers own disjoint contiguous ranges and write \
                     each row in place through `&mut` slots split off before the fork; the \
                     scope joins them all; byte-identical for any thread count",
        audited_hazards: &[],
    },
];

/// Rule name of the allocation-discipline escape, consumed by the
/// analyzer's alloc pass (`docs/STATIC_ANALYSIS.md`). Unlike the
/// wallclock / threads escapes, the alloc escape is **per function, not
/// per file**: a `// lint:allow(alloc) — <why this path is one-shot>`
/// comment on (or directly above) a `fn` declaration exempts that whole
/// body from the hot-path allocation inventory. It is reserved for
/// audited setup / one-shot paths — code that is *reachable* from the
/// per-event entry set but provably runs O(1) times per run segment
/// (fault-epoch rebuilds, end-of-run flushes), where a fresh allocation
/// is not a per-event cost.
pub const ALLOC_RULE: &str = "alloc";

/// Rule name of the truncating-cast escape, consumed by the analyzer's
/// cast pass (`docs/STATIC_ANALYSIS.md`). Per line, like the panic
/// escapes: a `// lint:allow(cast) — bound: <why the value fits>`
/// comment on (or directly above) a truncating `as` cast documents the
/// bound and removes the site from the ratcheted inventory. Reserved
/// for cases where the bound is structural (path offsets bounded by a
/// row's segment length, AS indices bounded by the u16 `AsId` domain) —
/// anything host-count-proportional must widen or use a checked
/// conversion instead, because it silently corrupts at 1M+ hosts.
pub const CAST_RULE: &str = "cast";

/// True when `label` is one of the [`WALLCLOCK_BOUNDARY`] files.
pub fn in_wallclock_boundary(label: &str) -> bool {
    let norm = label.replace('\\', "/");
    WALLCLOCK_BOUNDARY.iter().any(|b| norm.ends_with(b))
}

/// True when `label` is a file carrying at least one audited
/// [`PARALLEL_REGIONS`] entry — the only files where a `threads` allow
/// comment is honored.
pub fn in_threads_boundary(label: &str) -> bool {
    let norm = label.replace('\\', "/");
    PARALLEL_REGIONS.iter().any(|r| norm.ends_with(r.file))
}

/// The distinct files of [`PARALLEL_REGIONS`], for diagnostics.
pub fn threads_boundary_files() -> Vec<&'static str> {
    let mut v: Vec<&'static str> = PARALLEL_REGIONS.iter().map(|r| r.file).collect();
    v.dedup();
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundary_membership_is_suffix_based_and_separator_agnostic() {
        assert!(in_wallclock_boundary("/abs/path/crates/sim/src/trace.rs"));
        assert!(in_wallclock_boundary("crates\\sim\\src\\trace.rs"));
        assert!(!in_wallclock_boundary("crates/sim/src/engine.rs"));
        assert!(in_threads_boundary("crates/net/src/routing.rs"));
        assert!(in_threads_boundary("crates/core/src/experiments/sweep.rs"));
        assert!(!in_threads_boundary("crates/gnutella/src/sim.rs"));
    }

    #[test]
    fn boundaries_are_disjoint() {
        // A file audited for wall-clock reads is not thereby audited for
        // threading, and vice versa.
        for w in WALLCLOCK_BOUNDARY {
            assert!(!in_threads_boundary(w));
        }
        for r in PARALLEL_REGIONS {
            assert!(!in_wallclock_boundary(r.file));
        }
    }

    #[test]
    fn manifest_is_sorted_and_files_dedupe() {
        // threads_boundary_files relies on sorted order for dedup, and a
        // sorted manifest keeps drift diffs reviewable.
        for pair in PARALLEL_REGIONS.windows(2) {
            assert!(
                (pair[0].file, pair[0].function) < (pair[1].file, pair[1].function),
                "PARALLEL_REGIONS must stay sorted by (file, function)"
            );
        }
        assert_eq!(
            threads_boundary_files(),
            vec![
                "crates/core/src/experiments/sweep.rs",
                "crates/net/src/routing.rs"
            ]
        );
    }

    #[test]
    fn audited_hazards_use_known_names() {
        const KNOWN: [&str; 6] = [
            "cell-write",
            "atomic",
            "lock",
            "channel",
            "rng",
            "float-accum",
        ];
        for r in PARALLEL_REGIONS {
            for h in r.audited_hazards {
                assert!(KNOWN.contains(h), "unknown hazard class `{h}` in manifest");
            }
        }
    }
}
