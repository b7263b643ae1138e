//! `xtask analyze` — the static gate's call-graph half, one pass table
//! over one lexed corpus.
//!
//! [`Corpus::load`] walks the workspace once, lexes every file once
//! ([`lexer`]) and parses the token streams into a call graph
//! ([`parser`], [`graph`]). Every check is then a row of [`PASSES`],
//! and every one is a plain deny — there is no baseline file:
//!
//! - **`par`**: every thread-spawn site must carry a
//!   [`crate::boundaries::PARALLEL_REGIONS`] manifest entry (drift in
//!   either direction fails), and worker closures must be free of
//!   determinism hazards not audited by the entry (see [`par`]).
//! - **`cast`**: every sim-reachable truncating `as` cast fails unless a
//!   `lint:allow(cast)` on its line documents the structural bound.
//! - **`registry`**: emitted trace kinds and metrics keys must agree
//!   with `uap_sim::trace::registry` (see [`registry_check`]).
//!
//! The token-level rules (no `HashMap`, wall clock or ad-hoc threads; no
//! unexplained unwrap, expect, panic or indexing) are clippy's, not a
//! pass here: see `docs/DETERMINISM.md`. Allocation on the per-event
//! paths is counted at run time by `tests/alloc_count.rs`, not guessed
//! from syntax. Everything here is hand-rolled on the
//! workspace's own lexer — no `syn`, no network, deterministic output.
//! See `docs/STATIC_ANALYSIS.md`.

pub mod graph;
pub mod lexer;
pub mod par;
pub mod parser;
pub mod registry_check;

use std::path::{Path, PathBuf};

use graph::Graph;

/// One row of the pass table: the `--pass=<name>` spelling and the
/// check it runs.
pub type Pass = (&'static str, fn(&Corpus, &mut Report));

/// Every pass, in the order a full run executes them.
pub const PASSES: [Pass; 3] = [
    ("par", |c, report| {
        par::par_pass(&c.graph, &crate::boundaries::PARALLEL_REGIONS, report)
    }),
    ("cast", cast_pass),
    ("registry", |c, report| {
        report.violations.extend(registry_check::run(&c.graph.fns));
    }),
];

/// Looks `name` up in [`PASSES`].
pub fn pass(name: &str) -> Option<&'static Pass> {
    PASSES.iter().find(|(n, _)| *n == name)
}

/// One lexed workspace source file.
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub label: String,
    /// Whole file is test code (a `tests/` integration dir).
    pub is_test_file: bool,
    /// Binary code (`main.rs`, `src/bin/`).
    pub is_bin: bool,
    /// The file's token stream.
    pub lexed: lexer::Lexed,
}

/// Everything the passes read: the workspace lexed once, parsed once.
pub struct Corpus {
    /// Every source file, sorted by label.
    pub files: Vec<SourceFile>,
    /// The call graph over the files' functions.
    pub graph: Graph,
}

impl Corpus {
    /// Walks, lexes and parses the workspace rooted at `root`.
    pub fn load(root: &Path) -> Corpus {
        let files = collect_workspace(root);
        let mut fns = Vec::new();
        for f in &files {
            // The xtask crate is build tooling end to end: like
            // `main.rs` / `src/bin/` code it stays out of the site
            // inventories.
            let is_bin = f.is_bin || f.label.starts_with("crates/xtask/");
            fns.extend(parser::parse_file(
                &f.label,
                &f.lexed,
                f.is_test_file,
                is_bin,
            ));
        }
        Corpus {
            files,
            graph: Graph::build(fns),
        }
    }
}

/// Corpus and graph sizes, for the closing `analyze: ok (…)` line.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stats {
    pub files: usize,
    pub fns: usize,
    pub entries: usize,
    pub edges: usize,
}

/// The result of one analyzer run.
#[derive(Debug, Default)]
pub struct Report {
    /// Hard failures: each one line (or block, for witness chains).
    pub violations: Vec<String>,
    /// One `<pass>: ok …` / `<pass>: N violation(s) …` line per pass run.
    pub summaries: Vec<String>,
    /// What the running pass wants appended to its summary line (site
    /// and key counts, a pointer to the docs); reset before each pass.
    pub detail: String,
    /// Corpus sizes.
    pub stats: Stats,
}

/// Runs `passes` (rows of [`PASSES`]) over the workspace rooted at `root`.
pub fn run_passes(root: &Path, passes: &[Pass]) -> Report {
    let corpus = Corpus::load(root);
    let g = &corpus.graph;
    let mut report = Report::default();
    report.stats.files = corpus.files.len();
    report.stats.fns = g.fns.len();
    report.stats.entries = g.entries.len();
    report.stats.edges = g.edge_count;
    if g.entries.is_empty() {
        report.violations.push(
            "analyze: found no simulation entry points — the parser or the entry heuristics \
             regressed; refusing to vacuously pass"
                .to_string(),
        );
        return report;
    }
    for (name, pass) in passes {
        let before = report.violations.len();
        report.detail.clear();
        pass(&corpus, &mut report);
        let verdict = match report.violations.len() - before {
            0 => "ok".to_string(),
            n => format!("{n} violation(s)"),
        };
        let summary = format!("{name}: {verdict} {}", report.detail);
        report.summaries.push(summary.trim_end().to_string());
    }
    report
}

/// The distinct source lines behind an inventory key, `3,7,12`.
fn line_list(lines: &[usize]) -> String {
    let mut lines = lines.to_vec();
    lines.sort_unstable();
    lines.dedup();
    let lines: Vec<String> = lines.iter().map(usize::to_string).collect();
    lines.join(",")
}

/// Truncating-cast pass: a plain deny. Every sim-reachable truncating
/// `as` cast not documented with `lint:allow(cast)` is a violation —
/// nothing is grandfathered.
fn cast_pass(c: &Corpus, report: &mut Report) {
    let (dist, _) = c.graph.reach();
    let inv = graph::cast_inventory(&c.graph, &dist);
    for ((file, qual, target), lines) in &inv {
        report.violations.push(format!(
            "cast: {file}:{}: truncating `as {target}` in `{qual}` reachable from the sim entry \
             points; widen the type, use a checked conversion (`try_into` with the bound \
             handled), or document a structural bound with `lint:allow(cast)`",
            line_list(lines)
        ));
    }
}

/// Collects `crates/*/src`, `crates/*/tests`, and the root `src/` +
/// `tests/`, lexed, sorted by label. `compat/` (vendored stubs) lives
/// outside these roots and is skipped by construction.
fn collect_workspace(root: &Path) -> Vec<SourceFile> {
    let mut out = Vec::new();
    let mut push_tree = |dir: PathBuf, is_test_file: bool| {
        let mut stack = vec![dir];
        while let Some(d) = stack.pop() {
            let Ok(entries) = std::fs::read_dir(&d) else {
                continue;
            };
            for p in entries.flatten().map(|e| e.path()) {
                if p.is_dir() {
                    stack.push(p);
                    continue;
                }
                if p.extension().is_none_or(|e| e != "rs") {
                    continue;
                }
                let Ok(source) = std::fs::read_to_string(&p) else {
                    continue;
                };
                let label = p
                    .strip_prefix(root)
                    .unwrap_or(&p)
                    .to_string_lossy()
                    .replace('\\', "/");
                let is_bin = p.file_name().is_some_and(|n| n == "main.rs")
                    || p.components().any(|c| c.as_os_str() == "bin");
                out.push(SourceFile {
                    is_test_file,
                    is_bin,
                    label,
                    lexed: lexer::lex(&source),
                });
            }
        }
    };

    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for krate in entries.flatten().map(|e| e.path()) {
            push_tree(krate.join("src"), false);
            push_tree(krate.join("tests"), true);
        }
    }
    push_tree(root.join("src"), false);
    push_tree(root.join("tests"), true);

    out.sort_by(|a, b| a.label.cmp(&b.label));
    out
}

/// Renders the report for the CLI. Returns `true` when clean.
pub fn print_report(report: &Report) -> bool {
    for line in &report.violations {
        println!("{line}");
    }
    for line in &report.summaries {
        println!("{line}");
    }
    if report.violations.is_empty() {
        println!(
            "analyze: ok ({} files, {} fns, {} entry points, {} call edges)",
            report.stats.files, report.stats.fns, report.stats.entries, report.stats.edges
        );
        true
    } else {
        println!("analyze: {} violation(s)", report.violations.len());
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::Graph;
    use lexer::lex;
    use parser::parse_file;

    fn workspace_root() -> PathBuf {
        // crates/xtask -> crates -> workspace root
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("xtask lives two levels under the workspace root")
            .to_path_buf()
    }

    fn graph_of(files: &[(&str, &str)]) -> Graph {
        let mut fns = Vec::new();
        for (label, src) in files {
            fns.extend(parse_file(label, &lex(src), false, false));
        }
        Graph::build(fns)
    }

    /// Writes `files` (label, source) into a fresh on-disk workspace under
    /// `target/` (a deterministic path outside the real analyzer roots).
    fn fixture(name: &str, files: &[(&str, &str)]) -> PathBuf {
        let root = workspace_root()
            .join("target")
            .join("analyze-test")
            .join(name);
        let _ = std::fs::remove_dir_all(&root);
        for (label, src) in files {
            let path = root.join(label);
            let dir = path.parent().expect("a fixture label names a directory");
            std::fs::create_dir_all(dir).expect("create fixture directory");
            std::fs::write(path, src).expect("write fixture file");
        }
        root
    }

    /// The one-row pass table of `--pass=<name>`.
    fn only(name: &str) -> [Pass; 1] {
        [*pass(name).expect("a PASSES row")]
    }

    #[test]
    fn cast_pass_denies_every_undocumented_site() {
        // The bare u32 cast fails with its source line; the documented
        // u16 one does not.
        let root = fixture(
            "cast-deny",
            &[(
                "crates/sim/src/engine.rs",
                "impl Simulator { pub fn run(&mut self, x: u64) {\n    let a = x as u32;\n    let b = x as u16; // lint:allow(cast) — bound: x < 65536 structurally\n    drop((a, b));\n} }\n",
            )],
        );
        let report = run_passes(&root, &only("cast"));
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        let v = &report.violations[0];
        assert!(v.contains("truncating `as u32` in `Simulator::run`"), "{v}");
        assert!(v.contains("crates/sim/src/engine.rs:2:"), "{v}");
    }

    #[test]
    fn par_fixture_hazards_fail_with_witness_chains() {
        // The three canonical worker hazards: a captured-`Cell` write, a
        // `Mutex<Vec<_>>` push, and a `ctx.rng` call that resolves into
        // `SimRng`.
        let root = fixture(
            "par-fixture",
            &[
                (
                    "crates/sim/src/engine.rs",
                    "impl Simulator {\n    pub fn run(&mut self, ctx: &mut Ctx) {\n        let hits = Cell::new(0u64);\n        let out = Mutex::new(Vec::new());\n        std::thread::scope(|s| {\n            s.spawn(|| hits.set(hits.get() + 1));\n            s.spawn(|| out.lock().unwrap().push(1));\n            s.spawn(move || ctx.rng.below(4));\n        });\n    }\n}\n",
                ),
                (
                    "crates/sim/src/rng.rs",
                    "impl SimRng {\n    pub fn below(&mut self, n: u64) -> u64 { n / 2 }\n}\n",
                ),
            ],
        );
        let report = run_passes(&root, &only("par"));
        let v = &report.violations;
        assert_eq!(v.len(), 4, "{v:#?}");
        assert!(
            v[0].contains("`thread::scope` in `Simulator::run` is not declared"),
            "{}",
            v[0]
        );
        assert!(v[0].contains("crates/sim/src/engine.rs:5"), "{}", v[0]);
        // Worker 1: captured Cell write, direct witness.
        assert!(
            v[1].contains("hits `.set(` (cell-write hazard)"),
            "{}",
            v[1]
        );
        assert!(
            v[1].contains("witness: Simulator::run (crates/sim/src/engine.rs:2)"),
            "{}",
            v[1]
        );
        assert!(
            v[1].contains("worker closure [spawned at crates/sim/src/engine.rs:6]"),
            "{}",
            v[1]
        );
        assert!(
            v[1].contains(".set( @ crates/sim/src/engine.rs:6"),
            "{}",
            v[1]
        );
        // Worker 2: Mutex<Vec<_>> push under the lock.
        assert!(v[2].contains("hits `.lock(` (lock hazard)"), "{}", v[2]);
        assert!(
            v[2].contains("worker closure [spawned at crates/sim/src/engine.rs:7]"),
            "{}",
            v[2]
        );
        // Worker 3: ctx.rng reached transitively through SimRng::below.
        assert!(v[3].contains("`SimRng::below` (rng hazard)"), "{}", v[3]);
        assert!(
            v[3].contains("reachable from a worker closure of `Simulator::run`"),
            "{}",
            v[3]
        );
        assert!(
            v[3].contains("-> SimRng::below (crates/sim/src/rng.rs:2)"),
            "{}",
            v[3]
        );
    }

    #[test]
    fn par_manifest_covers_sites_and_detects_drift_both_ways() {
        use crate::boundaries::ParallelRegion;
        let g = graph_of(&[(
            "crates/sim/src/engine.rs",
            "impl Simulator { pub fn run(&mut self) { std::thread::scope(|s| { s.spawn(|| work()); }); } }\nfn work() {}\n",
        )]);
        // Covered: a matching manifest entry, hazard-free worker → clean.
        let covered = [ParallelRegion {
            file: "crates/sim/src/engine.rs",
            function: "Simulator::run",
            discipline: "test",
            audited_hazards: &[],
        }];
        let mut report = Report::default();
        par::par_pass(&g, &covered, &mut report);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        // Undeclared drift: a spawn site without a manifest entry.
        let mut report = Report::default();
        par::par_pass(&g, &[], &mut report);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert!(report.violations[0].contains("not declared in"));
        // Stale drift: the manifest names a function that no longer
        // spawns, in a file that *is* in the corpus.
        let stale = [
            covered[0],
            ParallelRegion {
                file: "crates/sim/src/engine.rs",
                function: "work",
                discipline: "test",
                audited_hazards: &[],
            },
        ];
        let mut report = Report::default();
        par::par_pass(&g, &stale, &mut report);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert!(
            report.violations[0].contains("stale PARALLEL_REGIONS entry `work`"),
            "{}",
            report.violations[0]
        );
        // A manifest file absent from the corpus is not stale — fixture
        // roots must not report the real manifest.
        let absent = [ParallelRegion {
            file: "crates/net/src/routing.rs",
            function: "Routing::rows",
            discipline: "test",
            audited_hazards: &[],
        }];
        let mut report = Report::default();
        par::par_pass(&g, &absent, &mut report);
        assert!(
            !report.violations.iter().any(|v| v.contains("stale")),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn audited_hazard_classes_pass_and_unaudited_fail() {
        use crate::boundaries::ParallelRegion;
        // The sweep-runner shape: workers claim via an atomic counter and
        // write through per-slot locks.
        let g = graph_of(&[(
            "crates/sim/src/engine.rs",
            "impl Simulator { pub fn run(&mut self, n: &AtomicUsize, out: &Mutex<Vec<u8>>) { std::thread::scope(|s| { s.spawn(|| { n.fetch_add(1, Ordering::Relaxed); out.lock().unwrap().push(1); }); }); } }\n",
        )]);
        let region = |audited: &'static [&'static str]| ParallelRegion {
            file: "crates/sim/src/engine.rs",
            function: "Simulator::run",
            discipline: "index-slotted merge",
            audited_hazards: audited,
        };
        let mut report = Report::default();
        par::par_pass(&g, &[region(&["atomic", "lock"])], &mut report);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        // Dropping `lock` from the audit list exposes the lock hazard.
        let mut report = Report::default();
        par::par_pass(&g, &[region(&["atomic"])], &mut report);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert!(
            report.violations[0].contains("`.lock(` (lock hazard)"),
            "{}",
            report.violations[0]
        );
    }

    #[test]
    fn workspace_analyze_is_clean() {
        // The real workspace must pass every pass.
        let report = run_passes(&workspace_root(), &PASSES);
        assert!(
            report.violations.is_empty(),
            "analyze must be clean on the workspace:\n{}",
            report.violations.join("\n")
        );
        assert!(report.stats.entries > 0, "entry points must be found");
        assert!(report.stats.edges > 0, "call edges must be resolved");
    }

    #[test]
    fn workspace_graph_reaches_the_overlays() {
        // Sanity: the entry heuristics must pull the overlay handlers in,
        // and the graph must reach beyond the engine crate.
        let corpus = Corpus::load(&workspace_root());
        let files = &corpus.files;
        assert!(files.len() > 50, "workspace walk found {}", files.len());
        let g = &corpus.graph;
        let names: Vec<String> = g.entries.iter().map(|&i| g.fns[i].qualname()).collect();
        assert!(
            names.iter().any(|n| n == "Simulator::run"),
            "engine loop missing from entries: {names:?}"
        );
        assert!(
            names.iter().any(|n| n == "GnutellaSim::handle"),
            "overlay handler missing from entries: {names:?}"
        );
        let (dist, _) = g.reach();
        let reached_files: std::collections::BTreeSet<&str> = g
            .fns
            .iter()
            .enumerate()
            .filter(|(i, _)| dist[*i] != usize::MAX)
            .map(|(_, f)| f.file.as_str())
            .collect();
        assert!(
            reached_files.iter().any(|f| f.contains("crates/net/")),
            "reachability must cross into the underlay crate"
        );
    }
}
