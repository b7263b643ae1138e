//! `xtask analyze` — the static gate's call-graph half, one pass table
//! over one lexed corpus.
//!
//! [`Corpus::load`] walks the workspace once, lexes every file once
//! ([`lexer`]) and parses the token streams into a call graph
//! ([`parser`], [`graph`]). Every check is then a row of [`PASSES`]:
//!
//! - **`panic`**: every unwrap / expect / panic! / indexing site
//!   reachable from the entry points is inventoried by kind against the
//!   checked-in baseline `ci/analyze_panic_baseline.txt` — the one
//!   ratchet: new sites fail, removed sites are reported as burn-down
//!   progress.
//! - **`alloc`**: every allocation site reachable from a hot entry point
//!   fails with the shortest witness call chain, `file:line` per hop,
//!   unless its `fn` carries `lint:allow(alloc)` (a one-shot path).
//! - **`par`**: every thread-spawn site must carry a
//!   [`crate::boundaries::PARALLEL_REGIONS`] manifest entry (drift in
//!   either direction fails), and worker closures must be free of
//!   determinism hazards not audited by the entry (see [`par`]).
//! - **`cast`**: every sim-reachable truncating `as` cast fails unless a
//!   `lint:allow(cast)` on its line documents the structural bound.
//! - **`registry`**: emitted trace kinds and metrics keys must agree
//!   with `uap_sim::trace::registry` and with the tables in
//!   `docs/OBSERVABILITY.md` (see [`registry_check`]).
//!
//! The token-level rules (no `HashMap`, wall clock, ad-hoc threads or
//! unexplained panics) are clippy's, not a pass here: see
//! `docs/DETERMINISM.md`. Everything here is hand-rolled on the
//! workspace's own lexer — no `syn`, no network, deterministic output.
//! See `docs/STATIC_ANALYSIS.md`.

pub mod graph;
pub mod lexer;
pub mod par;
pub mod parser;
pub mod registry_check;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use graph::{Graph, Inventory};

/// Relative path of the panic-site baseline file, the only baseline.
pub const BASELINE_PATH: &str = "ci/analyze_panic_baseline.txt";

/// One row of the pass table: the `--pass=<name>` spelling and the
/// check it runs.
pub type Pass = (&'static str, fn(&Corpus, &mut Report));

/// Every pass, in the order a full run executes them.
pub const PASSES: [Pass; 5] = [
    ("panic", panic_pass),
    ("alloc", alloc_pass),
    ("par", |c, report| {
        par::par_pass(&c.graph, &crate::boundaries::PARALLEL_REGIONS, report)
    }),
    ("cast", cast_pass),
    ("registry", |c, report| {
        report
            .violations
            .extend(registry_check::run(&c.root, &c.graph.fns));
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
    /// The workspace root the labels and baseline paths are relative to.
    pub root: PathBuf,
    /// Every source file, sorted by label.
    pub files: Vec<SourceFile>,
    /// The call graph over the files' functions.
    pub graph: Graph,
    /// `--update-baseline`: the panic pass rewrites its baseline from the
    /// current inventory instead of comparing against it.
    pub update_baseline: bool,
}

impl Corpus {
    /// Walks, lexes and parses the workspace rooted at `root`.
    pub fn load(root: &Path, update_baseline: bool) -> Corpus {
        let files = collect_workspace(root);
        let mut fns = Vec::new();
        for f in &files {
            // The xtask crate is build tooling end to end: like
            // `main.rs` / `src/bin/` code it may abort freely, so it
            // stays out of the panic inventory.
            let is_bin = f.is_bin || f.label.starts_with("crates/xtask/");
            fns.extend(parser::parse_file(
                &f.label,
                &f.lexed,
                f.is_test_file,
                is_bin,
            ));
        }
        Corpus {
            root: root.to_path_buf(),
            files,
            graph: Graph::build(fns),
            update_baseline,
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
    /// Informational output (burn-down progress, baseline updates).
    pub notes: Vec<String>,
    /// One `<pass>: ok …` / `<pass>: N violation(s) …` line per pass run.
    pub summaries: Vec<String>,
    /// What the running pass wants appended to its summary line (site
    /// and key counts, a pointer to the docs); reset before each pass.
    pub detail: String,
    /// Corpus sizes.
    pub stats: Stats,
}

/// Runs `passes` (rows of [`PASSES`]) over the workspace rooted at `root`.
pub fn run_passes(root: &Path, passes: &[Pass], update_baseline: bool) -> Report {
    let corpus = Corpus::load(root, update_baseline);
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

/// Renders the panic inventory as baseline text under its header.
fn render_baseline(inv: &Inventory) -> String {
    let mut out = "# Baseline of the panic pass — generated by `cargo run -p xtask -- analyze \
                   --pass=panic --update-baseline`.\n\
                   # Each line: <count>\\t<file>::<fn>\\t<key>, sorted.\n\
                   # New sites fail CI; burn this list down, never up.\n"
        .to_string();
    for ((file, qual, key), lines) in inv {
        out.push_str(&format!("{}\t{file}::{qual}\t{key}\n", lines.len()));
    }
    out
}

/// Parses baseline text back into per-key site counts.
fn parse_baseline(body: &str) -> BTreeMap<(String, String, String), usize> {
    let mut counts = BTreeMap::new();
    for line in body.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(3, '\t');
        let (Some(count), Some(site), Some(key)) = (parts.next(), parts.next(), parts.next())
        else {
            continue;
        };
        let Ok(count) = count.parse::<usize>() else {
            continue;
        };
        // `<file>::<fn>` — the file part ends at its `.rs`.
        let Some((file, qual)) = site.split_once(".rs::") else {
            continue;
        };
        counts.insert(
            (format!("{file}.rs"), qual.to_string(), key.to_string()),
            count,
        );
    }
    counts
}

/// Allocation-discipline pass: a plain deny, like [`cast_pass`]. Every
/// allocation site reachable from the hot-path entry set fails with the
/// shortest witness chain from a hot entry point; a one-shot path is
/// exempted by `lint:allow(alloc)` on its `fn`, nothing is grandfathered.
fn alloc_pass(c: &Corpus, report: &mut Report) {
    let g = &c.graph;
    let hot = graph::find_hot_entries(&g.fns);
    if hot.is_empty() {
        report.violations.push(
            "analyze: found no hot-path entry points — the parser or the hot-entry \
             heuristics regressed; refusing to vacuously pass the allocation pass"
                .to_string(),
        );
        return;
    }
    let (dist, parent) = g.reach_from(&hot);
    let inv = graph::inventory(g, &dist, graph::alloc_sites);
    report.detail = format!("{} sites / {} keys", graph::site_count(&inv), inv.len());
    for ((file, qual, kind), lines) in &inv {
        // The chain from a hot entry point into the first function behind
        // the key, down to its first site of that kind.
        let hit = g.fns.iter().enumerate().find_map(|(i, f)| {
            let site = f.allocs.iter().find(|a| a.kind.name() == kind)?;
            (f.file == *file && f.qualname() == *qual).then_some((i, site))
        });
        let witness = hit.map_or(String::new(), |(i, site)| {
            let chain = g.witness(&parent, i);
            format!("\n{}", g.render_witness(&chain, &site.what, site.line))
        });
        report.violations.push(format!(
            "alloc: {file}:{}: `{kind}` allocation site(s) in `{qual}` reachable from the \
             hot-path entry set; reuse a scratch buffer, hoist the allocation out of the \
             per-event path, or document a one-shot path with `lint:allow(alloc)` on the \
             fn{witness}",
            line_list(lines)
        ));
    }
}

/// Truncating-cast pass: a plain deny. Every sim-reachable truncating
/// `as` cast not documented with `lint:allow(cast)` is a violation — no
/// baseline, nothing grandfathered.
fn cast_pass(c: &Corpus, report: &mut Report) {
    let (dist, _) = c.graph.reach();
    let inv = graph::inventory(&c.graph, &dist, graph::cast_sites);
    for ((file, qual, target), lines) in &inv {
        report.violations.push(format!(
            "cast: {file}:{}: truncating `as {target}` in `{qual}` reachable from the sim entry \
             points; widen the type, use a checked conversion (`try_into` with the bound \
             handled), or document a structural bound with `lint:allow(cast)`",
            line_list(lines)
        ));
    }
}

/// Panic pass, the one ratchet: compares the sim-reachable panic-site
/// inventory against `ci/analyze_panic_baseline.txt` (rows
/// `<count>\t<file>::<fn>\t<key>`) or, under `--update-baseline`, rewrites
/// the baseline from it. New and grown keys fail with their source lines;
/// shrunk keys are reported as burn-down progress.
fn panic_pass(c: &Corpus, report: &mut Report) {
    let (dist, _) = c.graph.reach();
    let inv = graph::inventory(&c.graph, &dist, graph::panic_sites);
    let sites = graph::site_count(&inv);
    report.detail = format!("{sites} sites / {} keys", inv.len());
    let path = c.root.join(BASELINE_PATH);
    if c.update_baseline {
        match std::fs::write(&path, render_baseline(&inv)) {
            Ok(()) => report.notes.push(format!(
                "analyze: wrote {} entries ({sites} sites) to {BASELINE_PATH}",
                inv.len()
            )),
            Err(e) => report
                .violations
                .push(format!("analyze: cannot write {BASELINE_PATH}: {e}")),
        }
        return;
    }
    let Ok(body) = std::fs::read_to_string(&path) else {
        report.violations.push(format!(
            "analyze: missing {BASELINE_PATH} — run `cargo run -p xtask -- analyze --pass=panic \
             --update-baseline` and commit the result"
        ));
        return;
    };
    let old = parse_baseline(&body);
    for (k, lines) in &inv {
        let (file, qual, kind) = k;
        match old.get(k) {
            None => report.violations.push(format!(
                "panics: {file}:{}: new {kind} site(s) in `{qual}` reachable from the engine \
                 step loop; handle the None/Err case (baseline: {BASELINE_PATH})",
                line_list(lines)
            )),
            Some(&b) if lines.len() > b => report.violations.push(format!(
                "panics: {file}: `{qual}` grew from {b} to {} {kind} site(s) reachable \
                 from the engine step loop (baseline: {BASELINE_PATH})",
                lines.len()
            )),
            Some(_) => {}
        }
    }
    let gone: usize = old
        .iter()
        .map(|(k, &b)| b.saturating_sub(inv.get(k).map_or(0, Vec::len)))
        .sum();
    if gone > 0 {
        report.notes.push(format!(
            "analyze: {gone} baselined panic site(s) no longer present — run `analyze \
             --pass=panic --update-baseline` to ratchet {BASELINE_PATH} down"
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
    for line in report.notes.iter().chain(&report.violations) {
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

    #[test]
    fn baseline_roundtrip_and_new_site_detection() {
        let g = graph_of(&[(
            "crates/sim/src/engine.rs",
            "impl Simulator { pub fn run(&mut self, o: Option<u8>) { o.unwrap(); } }\n",
        )]);
        let (dist, _) = g.reach();
        let inv = graph::inventory(&g, &dist, graph::panic_sites);
        let text = render_baseline(&inv);
        let parsed = parse_baseline(&text);
        let counts = inv.iter().map(|(k, l)| (k.clone(), l.len())).collect();
        assert_eq!(parsed, counts, "baseline must round-trip through text");

        // A newly introduced reachable unwrap (not in the baseline) fails.
        let g2 = graph_of(&[(
            "crates/sim/src/engine.rs",
            "impl Simulator { pub fn run(&mut self, o: Option<u8>) { o.unwrap(); } }\npub fn helper(o: Option<u8>) { o.unwrap(); }\nimpl Ctx { pub fn now(&self, o: Option<u8>) { helper(o); } }\n",
        )]);
        let (dist2, _) = g2.reach();
        let inv2 = graph::inventory(&g2, &dist2, graph::panic_sites);
        let new_keys: Vec<_> = inv2.keys().filter(|k| !inv.contains_key(*k)).collect();
        assert_eq!(new_keys.len(), 1);
        assert_eq!(new_keys[0].1, "helper");
    }

    /// Builds a minimal on-disk workspace under `target/` (deterministic
    /// path, outside the real analyzer roots) with one hot entry that
    /// allocates per event and one bare unwrap.
    fn synthetic_root(name: &str) -> PathBuf {
        let root = workspace_root()
            .join("target")
            .join("analyze-test")
            .join(name);
        let _ = std::fs::remove_dir_all(&root);
        let src_dir = root.join("crates/sim/src");
        std::fs::create_dir_all(&src_dir).expect("create synthetic src");
        std::fs::create_dir_all(root.join("ci")).expect("create synthetic ci");
        std::fs::write(
            src_dir.join("engine.rs"),
            "impl Simulator { pub fn run(&mut self, o: Option<u8>) {\n    let v = vec![o.unwrap()];\n    drop(v);\n} }\n",
        )
        .expect("write synthetic engine");
        root
    }

    /// The one-row pass table of `--pass=<name>`.
    fn only(name: &str) -> [Pass; 1] {
        [*pass(name).expect("a PASSES row")]
    }

    /// Whether the synthetic root's `ci/` holds no file.
    fn ci_is_empty(root: &Path) -> bool {
        std::fs::read_dir(root.join("ci"))
            .expect("synthetic ci")
            .next()
            .is_none()
    }

    #[test]
    fn panic_baseline_is_written_by_update_and_then_checked_against() {
        let root = synthetic_root("panic-ratchet");
        // No baseline yet: the check says how to make one.
        let report = run_passes(&root, &only("panic"), false);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert!(report.violations[0].contains(BASELINE_PATH));
        // `--update-baseline` writes it, and the same tree then passes.
        let report = run_passes(&root, &only("panic"), true);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        let body = std::fs::read_to_string(root.join(BASELINE_PATH)).expect("baseline readable");
        assert!(body.contains("1\tcrates/sim/src/engine.rs::Simulator::run\tunwrap\n"));
        let report = run_passes(&root, &only("panic"), false);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.summaries, vec!["panic: ok 1 sites / 1 keys"]);
    }

    #[test]
    fn new_hot_path_alloc_site_fails_with_witness_chain() {
        // No baseline to read or write: the vec! in Simulator::run fails
        // with a witness chain naming the entry point and the sink, the
        // panic pass (whose baseline is missing) never ran, and
        // `--update-baseline` grandfathers nothing.
        let root = synthetic_root("alloc-new-site");
        for update in [false, true] {
            let report = run_passes(&root, &only("alloc"), update);
            assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
            let v = &report.violations[0];
            assert!(
                v.contains("`vec` allocation site(s) in `Simulator::run`"),
                "{v}"
            );
            assert!(
                v.contains("witness: Simulator::run (crates/sim/src/engine.rs:1)"),
                "{v}"
            );
            assert!(v.contains("vec! @ crates/sim/src/engine.rs:2"), "{v}");
            assert_eq!(
                report.summaries,
                vec!["alloc: 1 violation(s) 1 sites / 1 keys"]
            );
        }
        assert!(ci_is_empty(&root));
    }

    /// Synthetic root with a truncating and a documented cast in the
    /// sim entry point.
    fn cast_root(name: &str) -> PathBuf {
        let root = workspace_root()
            .join("target")
            .join("analyze-test")
            .join(name);
        let _ = std::fs::remove_dir_all(&root);
        let src_dir = root.join("crates/sim/src");
        std::fs::create_dir_all(&src_dir).expect("create synthetic src");
        std::fs::create_dir_all(root.join("ci")).expect("create synthetic ci");
        std::fs::write(
            src_dir.join("engine.rs"),
            "impl Simulator { pub fn run(&mut self, x: u64) {\n    let a = x as u32;\n    let b = x as u16; // lint:allow(cast) — bound: x < 65536 structurally\n    drop((a, b));\n} }\n",
        )
        .expect("write synthetic engine");
        root
    }

    #[test]
    fn cast_pass_denies_every_undocumented_site() {
        // No baseline to read or write: the bare u32 cast fails with its
        // source line, the documented u16 one does not, and
        // `--update-baseline` grandfathers nothing.
        let root = cast_root("cast-deny");
        for update in [false, true] {
            let report = run_passes(&root, &only("cast"), update);
            assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
            let v = &report.violations[0];
            assert!(v.contains("truncating `as u32` in `Simulator::run`"), "{v}");
            assert!(v.contains("crates/sim/src/engine.rs:2:"), "{v}");
        }
        assert!(ci_is_empty(&root));
    }

    /// Synthetic root seeding the three canonical worker hazards: a
    /// captured-`Cell` write, a `Mutex<Vec<_>>` push, and a `ctx.rng`
    /// call that resolves into `SimRng`.
    fn par_root(name: &str) -> PathBuf {
        let root = workspace_root()
            .join("target")
            .join("analyze-test")
            .join(name);
        let _ = std::fs::remove_dir_all(&root);
        let src_dir = root.join("crates/sim/src");
        std::fs::create_dir_all(&src_dir).expect("create synthetic src");
        std::fs::write(
            src_dir.join("engine.rs"),
            "impl Simulator {\n    pub fn run(&mut self, ctx: &mut Ctx) {\n        let hits = Cell::new(0u64);\n        let out = Mutex::new(Vec::new());\n        std::thread::scope(|s| {\n            s.spawn(|| hits.set(hits.get() + 1));\n            s.spawn(|| out.lock().unwrap().push(1));\n            s.spawn(move || ctx.rng.below(4));\n        });\n    }\n}\n",
        )
        .expect("write synthetic engine");
        std::fs::write(
            src_dir.join("rng.rs"),
            "impl SimRng {\n    pub fn below(&mut self, n: u64) -> u64 { n / 2 }\n}\n",
        )
        .expect("write synthetic rng");
        root
    }

    #[test]
    fn par_fixture_hazards_fail_with_witness_chains() {
        let root = par_root("par-fixture");
        let report = run_passes(&root, &only("par"), false);
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
        // The real workspace must pass every pass against the
        // checked-in baseline and the committed OBSERVABILITY.md tables.
        let report = run_passes(&workspace_root(), &PASSES, false);
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
        let corpus = Corpus::load(&workspace_root(), false);
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
