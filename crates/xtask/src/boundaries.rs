//! The audited determinism boundaries, declared exactly once.
//!
//! Clippy bans the wall clock and ad-hoc threads everywhere
//! (`clippy.toml`, `docs/DETERMINISM.md`), and an
//! `#[expect(clippy::disallowed_methods, reason = …)]` lifts the ban at
//! one site. The lists here say where such an escape may stand: the par
//! pass of [`crate::analyze`] checks every spawn site against
//! [`PARALLEL_REGIONS`], and a test below checks every disallowed-item
//! escape against it and against the wall-clock boundary declared
//! beside that test. The same test keeps `clippy::indexing_slicing`
//! escapes no broader than a `fn` outside xtask's `main.rs`. Extending an
//! audited boundary is a single edit here, reviewed once.

/// One audited fork-join parallel region: a function that is allowed to
/// spawn worker threads, together with the *declared merge discipline*
/// that makes its output independent of thread scheduling.
///
/// This manifest is the single source of truth for workspace
/// parallelism. Its `file` column is where a thread escape may stand;
/// `--pass=par` checks the manifest
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

/// Rule name of the truncating-cast escape, consumed by the analyzer's
/// cast pass (`docs/STATIC_ANALYSIS.md`). Per line: a
/// `// lint:allow(cast) — bound: <why the value fits>`
/// comment on (or directly above) a truncating `as` cast documents the
/// bound and removes the site from the ratcheted inventory. Reserved
/// for cases where the bound is structural (path offsets bounded by a
/// row's segment length, AS indices bounded by the u16 `AsId` domain) —
/// anything host-count-proportional must widen or use a checked
/// conversion instead, because it silently corrupts at 1M+ hosts.
pub const CAST_RULE: &str = "cast";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::lexer::{lex, Tok};
    use crate::analyze::{Corpus, SourceFile};

    /// The only files where a wall-clock escape may stand: the trace
    /// sink's `WallTimer` boundary (see `docs/OBSERVABILITY.md`).
    /// Wall-clock readings must stay out of simulation state and traced
    /// output.
    const WALLCLOCK_BOUNDARY: [&str; 1] = ["crates/sim/src/trace.rs"];

    /// Build tooling: the one file allowed crate-wide escapes.
    const XTASK_MAIN: &str = "crates/xtask/src/main.rs";

    /// Files carrying at least one [`PARALLEL_REGIONS`] entry.
    fn region_files() -> Vec<&'static str> {
        PARALLEL_REGIONS.iter().map(|r| r.file).collect()
    }

    #[test]
    fn boundaries_are_disjoint() {
        // A file audited for wall-clock reads is not thereby audited for
        // threading, and vice versa.
        for w in WALLCLOCK_BOUNDARY {
            assert!(!region_files().contains(&w));
        }
    }

    #[test]
    fn manifest_is_sorted() {
        // A sorted manifest keeps drift diffs reviewable.
        for pair in PARALLEL_REGIONS.windows(2) {
            assert!(
                (pair[0].file, pair[0].function) < (pair[1].file, pair[1].function),
                "PARALLEL_REGIONS must stay sorted by (file, function)"
            );
        }
    }

    /// Whether token `j` sits inside an inner attribute `#![…]`.
    fn in_inner_attribute(toks: &[Tok], j: usize) -> bool {
        let open = toks[..j].iter().rposition(|t| t.is_punct('['));
        open.is_some_and(|o| o >= 2 && toks[o - 1].is_punct('!') && toks[o - 2].is_punct('#'))
    }

    /// `file:line` of every non-test escape clippy would honour outside
    /// its audited boundary: a `clippy::disallowed_{methods,types}` item
    /// anywhere but the wall-clock file, a [`PARALLEL_REGIONS`] file or
    /// xtask's `main.rs`, and a crate-level `clippy::indexing_slicing`
    /// anywhere but xtask's `main.rs`.
    fn stray_escapes(files: &[SourceFile]) -> Vec<String> {
        let audited: Vec<&str> = WALLCLOCK_BOUNDARY
            .into_iter()
            .chain(region_files())
            .chain([XTASK_MAIN])
            .collect();
        let mut stray = Vec::new();
        for f in files.iter().filter(|f| !f.is_test_file) {
            let toks = &f.lexed.toks;
            for (j, t) in toks.iter().enumerate() {
                if j < 3 || !toks[j - 3].is_ident("clippy") || f.lexed.in_test[j] {
                    continue;
                }
                let disallowed = t.is_ident("disallowed_methods") || t.is_ident("disallowed_types");
                let crate_wide_index =
                    t.is_ident("indexing_slicing") && in_inner_attribute(toks, j);
                if disallowed && !audited.contains(&&*f.label)
                    || crate_wide_index && f.label != XTASK_MAIN
                {
                    stray.push(format!("{}:{}", f.label, t.line));
                }
            }
        }
        stray
    }

    #[test]
    fn disallowed_escapes_sit_at_audited_boundaries() {
        // Clippy honours an `#[expect(clippy::disallowed_methods, …)]` or
        // `#![expect(clippy::indexing_slicing, …)]` anywhere; this keeps
        // wall-clock and thread escapes in the files audited for them,
        // xtask's HashMaps in its own `main.rs`, and indexing escapes on
        // one `fn` each outside it.
        let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = manifest.ancestors().nth(2).expect("workspace root");
        let stray = stray_escapes(&Corpus::load(root).files);
        assert!(
            stray.is_empty(),
            "escapes outside their boundaries: {stray:?}"
        );

        let file = |label: &str, src: &str| SourceFile {
            label: label.to_string(),
            is_test_file: false,
            is_bin: false,
            lexed: lex(src),
        };
        let crate_wide =
            "//! A crate.\n\n#![expect(\n    clippy::indexing_slicing,\n    reason = \"…\"\n)]\n";
        let fn_level = "#[expect(clippy::indexing_slicing, reason = \"i < v.len()\")]\nfn f(v: &[u8], i: usize) -> u8 { v[i] }\n";
        assert_eq!(
            stray_escapes(&[file("crates/net/src/lib.rs", crate_wide)]),
            ["crates/net/src/lib.rs:4"]
        );
        assert!(stray_escapes(&[file(XTASK_MAIN, crate_wide)]).is_empty());
        assert!(stray_escapes(&[file("crates/net/src/lib.rs", fn_level)]).is_empty());
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
