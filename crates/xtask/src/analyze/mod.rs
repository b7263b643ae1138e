//! `xtask analyze` — the static determinism gate, one pass table over
//! one lexed corpus.
//!
//! [`Corpus::load`] walks the workspace once, lexes every file once
//! ([`lexer`]) and parses the token streams into a call graph
//! ([`parser`], [`graph`]). Every check is then a row of [`PASSES`]:
//!
//! - **`lint`**: the token-level determinism rules ([`crate::lint`]).
//! - **`purity`**: no call path from a simulation entry point (the engine
//!   step loop, overlay `World::handle` impls, `Ctx` methods, experiment
//!   drivers) reaches a wallclock / entropy / thread-spawn sink, except
//!   through the audited boundaries in [`crate::boundaries`]. Each
//!   violation carries the shortest witness call chain, `file:line` per
//!   hop.
//! - **`panic`**: every unwrap / expect / panic! / indexing site
//!   reachable from the entry points is inventoried against the
//!   checked-in baseline `ci/analyze_panic_baseline.txt`; new sites fail,
//!   removed sites are reported as burn-down progress.
//! - **`alloc`**: the same ratchet over hot-path allocation sites
//!   (`ci/analyze_alloc_baseline.txt`), new sites failing with a witness
//!   chain from a hot entry point.
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
//! Everything is hand-rolled on the workspace's own lexer — no `syn`,
//! no network, deterministic output. See `docs/STATIC_ANALYSIS.md`.

pub mod graph;
pub mod lexer;
pub mod par;
pub mod parser;
pub mod registry_check;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::lint::FileKind;
use graph::{Graph, Inventory};

/// Relative path of the panic-site baseline file.
pub const BASELINE_PATH: &str = "ci/analyze_panic_baseline.txt";

/// Relative path of the allocation-site baseline file.
pub const ALLOC_BASELINE_PATH: &str = "ci/analyze_alloc_baseline.txt";

/// One row of the pass table: the `--pass=<name>` spelling and the
/// check it runs.
pub type Pass = (&'static str, fn(&Corpus, &mut Report));

/// Every pass, in the order a full run executes them.
pub const PASSES: [Pass; 7] = [
    ("lint", crate::lint::pass),
    ("purity", |c, report| {
        let (dist, parent) = c.graph.reach();
        report
            .violations
            .extend(purity_pass(&c.graph, &dist, &parent));
    }),
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
    /// Which rule set applies (test dir / binary / sim path).
    pub kind: FileKind,
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
    /// `--update-baseline`: a ratchet pass rewrites its baseline from the
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
            let is_bin = f.kind.is_bin || f.label.starts_with("crates/xtask/");
            fns.extend(parser::parse_file(
                &f.label,
                &f.lexed,
                f.kind.is_test_file,
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

/// Corpus and graph sizes, for the PERF line.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stats {
    pub files: usize,
    pub fns: usize,
    pub entries: usize,
    pub edges: usize,
    /// Hot-path entry points of the allocation pass.
    pub hot_entries: usize,
    /// Allocation sites in the current hot-path inventory.
    pub alloc_sites: usize,
    /// Thread-spawn sites seen by the parallel pass.
    pub spawn_sites: usize,
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
    // Every pass but the token-level lint walks the call graph.
    if g.entries.is_empty() && passes.iter().any(|(name, _)| *name != "lint") {
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

/// Purity pass: unaudited sinks in functions reachable from the entry
/// set, each with its shortest witness chain.
fn purity_pass(g: &Graph, dist: &[usize], parent: &[Option<(usize, usize)>]) -> Vec<String> {
    let mut out = Vec::new();
    for (i, f) in g.fns.iter().enumerate() {
        if f.is_test || dist[i] == usize::MAX {
            continue;
        }
        for s in &f.sinks {
            if s.audited {
                continue;
            }
            let chain = g.witness(parent, i);
            let kind = match s.kind {
                parser::SinkKind::Wallclock => "wallclock",
                parser::SinkKind::Entropy => "entropy",
                parser::SinkKind::Thread => "thread-spawn",
            };
            out.push(format!(
                "purity: {}:{}: `{}` in `{}` is reachable from the sim entry points \
                 ({kind} sink outside the audited boundaries)\n{}",
                f.file,
                s.line,
                s.what,
                f.qualname(),
                g.render_witness(&chain, s.what, s.line)
            ));
        }
    }
    out
}

/// The per-pass wording of [`ratchet`].
struct Ratchet<'a> {
    /// The pass's [`PASSES`] name, for the regeneration hint.
    pass: &'static str,
    /// Prefix of the pass's violation lines.
    tag: &'static str,
    /// Relative path of the checked-in baseline.
    baseline: &'static str,
    /// Where the inventoried sites are reachable from.
    scope: &'static str,
    /// A key's site description (`` `vec` allocation ``) and the advice
    /// for a new one.
    describe: &'a dyn Fn(&str) -> (String, String),
    /// Evidence block appended to a new key's violation.
    witness: &'a dyn Fn(&str, &str, &str) -> String,
}

/// The one ratchet: compares `inv` against the checked-in baseline (rows
/// `<count>\t<file>::<fn>\t<key>`) or, under `--update-baseline`,
/// rewrites the baseline from it. New and grown keys fail with their
/// source lines; shrunk keys are reported as burn-down progress. Returns
/// the inventory's site count.
fn ratchet(c: &Corpus, report: &mut Report, r: &Ratchet<'_>, inv: &Inventory) -> usize {
    let Ratchet {
        pass,
        tag,
        baseline,
        scope,
        ..
    } = *r;
    let sites = graph::site_count(inv);
    report.detail = format!("{sites} sites / {} keys", inv.len());
    let path = c.root.join(baseline);
    if c.update_baseline {
        let header = format!(
            "# Baseline of the {pass} pass — generated by `cargo run -p xtask -- analyze \
             --pass={pass} --update-baseline`.\n\
             # Each line: <count>\\t<file>::<fn>\\t<key>, sorted.\n\
             # New sites fail CI; burn this list down, never up.\n"
        );
        match std::fs::write(&path, render_baseline(&header, inv)) {
            Ok(()) => report.notes.push(format!(
                "analyze: wrote {} entries ({sites} sites) to {baseline}",
                inv.len()
            )),
            Err(e) => report
                .violations
                .push(format!("analyze: cannot write {baseline}: {e}")),
        }
        return sites;
    }
    let Ok(body) = std::fs::read_to_string(&path) else {
        report.violations.push(format!(
            "analyze: missing {baseline} — run `cargo run -p xtask -- analyze --pass={pass} \
             --update-baseline` and commit the result"
        ));
        return sites;
    };
    let old = parse_baseline(&body);
    for (k, lines) in inv {
        let (file, qual, key) = k;
        let (what, advice) = (r.describe)(key);
        match old.get(k) {
            None => {
                report.violations.push(format!(
                    "{tag}: {file}:{}: new {what} site(s) in `{qual}` reachable from {scope}; \
                     {advice} (baseline: {baseline}){}",
                    line_list(lines),
                    (r.witness)(file, qual, key)
                ));
            }
            Some(&b) if lines.len() > b => report.violations.push(format!(
                "{tag}: {file}: `{qual}` grew from {b} to {} {what} site(s) reachable from \
                 {scope} (baseline: {baseline})",
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
            "analyze: {gone} baselined {pass} site(s) no longer present — run `analyze \
             --pass={pass} --update-baseline` to ratchet {baseline} down"
        ));
    }
    sites
}

/// The distinct source lines behind an inventory key, `3,7,12`.
fn line_list(lines: &[usize]) -> String {
    let mut lines = lines.to_vec();
    lines.sort_unstable();
    lines.dedup();
    let lines: Vec<String> = lines.iter().map(usize::to_string).collect();
    lines.join(",")
}

/// Renders an inventory as baseline text under `header`.
fn render_baseline(header: &str, inv: &Inventory) -> String {
    let mut out = header.to_string();
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

/// Allocation-discipline pass: hot-path allocation inventory vs
/// `ci/analyze_alloc_baseline.txt`, new keys failing with the shortest
/// witness chain from a hot entry point.
fn alloc_pass(c: &Corpus, report: &mut Report) {
    let g = &c.graph;
    let hot = graph::find_hot_entries(&g.fns);
    report.stats.hot_entries = hot.len();
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
    // The chain from a hot entry point into the first function behind
    // the key, down to its first site of that kind.
    let witness = |file: &str, qual: &str, kind: &str| {
        let hit = g.fns.iter().enumerate().find_map(|(i, f)| {
            let site = f.allocs.iter().find(|a| a.kind.name() == kind)?;
            (f.file == file && f.qualname() == qual).then_some((i, site))
        });
        hit.map_or(String::new(), |(i, site)| {
            let chain = g.witness(&parent, i);
            format!("\n{}", g.render_witness(&chain, &site.what, site.line))
        })
    };
    let r = Ratchet {
        pass: "alloc",
        tag: "alloc",
        baseline: ALLOC_BASELINE_PATH,
        scope: "the hot-path entry set",
        describe: &|kind| {
            (
                format!("`{kind}` allocation"),
                "reuse a scratch buffer, hoist the allocation out of the per-event path, or \
                 document a one-shot path with `lint:allow(alloc)` on the fn"
                    .to_string(),
            )
        },
        witness: &witness,
    };
    report.stats.alloc_sites = ratchet(c, report, &r, &inv);
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

/// Panic pass: sim-reachable panic-site inventory vs
/// `ci/analyze_panic_baseline.txt`.
fn panic_pass(c: &Corpus, report: &mut Report) {
    let (dist, _) = c.graph.reach();
    let inv = graph::inventory(&c.graph, &dist, graph::panic_sites);
    let r = Ratchet {
        pass: "panic",
        tag: "panics",
        baseline: BASELINE_PATH,
        scope: "the engine step loop",
        describe: &|key| {
            let (kind, class) = key.split_once(' ').unwrap_or((key, ""));
            (
                format!("{class} {kind}"),
                format!(
                    "document the invariant with `lint:allow({kind})` or handle the None/Err case"
                ),
            )
        },
        witness: &|_, _, _| String::new(),
    };
    ratchet(c, report, &r, &inv);
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
                    kind: FileKind {
                        is_test_file,
                        is_bin,
                        is_sim_path: !is_test_file && !label.starts_with("crates/xtask/"),
                    },
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
            .expect("xtask lives two levels under the workspace root") // lint:allow(expect)
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
    fn synthetic_indirect_leak_is_caught_with_witness_chain() {
        // Entry -> helper -> leak() which calls Instant::now: the purity
        // pass must flag it and the witness must name every hop with
        // file:line.
        let g = graph_of(&[
            (
                "crates/sim/src/engine.rs",
                "impl Simulator {\n    pub fn run(&mut self) {\n        helper();\n    }\n}\npub fn helper() {\n    leak();\n}\n",
            ),
            (
                "crates/net/src/bad.rs",
                "pub fn leak() {\n    let _t = std::time::Instant::now();\n}\n",
            ),
        ]);
        let (dist, parent) = g.reach();
        let v = purity_pass(&g, &dist, &parent);
        assert_eq!(v.len(), 1, "{v:?}");
        let msg = &v[0];
        assert!(msg.contains("crates/net/src/bad.rs:2"), "{msg}");
        assert!(msg.contains("Instant::now"), "{msg}");
        assert!(
            msg.contains("Simulator::run (crates/sim/src/engine.rs:2)"),
            "{msg}"
        );
        assert!(msg.contains("helper (crates/sim/src/engine.rs:6)"), "{msg}");
        assert!(msg.contains("leak (crates/net/src/bad.rs:1)"), "{msg}");
        assert!(
            msg.contains("[call at crates/sim/src/engine.rs:3]"),
            "{msg}"
        );
    }

    #[test]
    fn audited_boundary_sinks_are_exempt() {
        // The WallTimer quarantine in crates/sim/src/trace.rs and the
        // fork-join boundaries may touch their sinks when the site
        // carries the lint:allow — no purity violation.
        let g = graph_of(&[
            (
                "crates/sim/src/engine.rs",
                "impl Simulator { pub fn run(&mut self) { WallTimer::start(); par(); } }\n",
            ),
            (
                "crates/sim/src/trace.rs",
                "impl WallTimer { pub fn start() { let _ = std::time::Instant::now(); // lint:allow(wallclock)\n } }\n",
            ),
            (
                "crates/net/src/routing.rs",
                "pub fn par() { std::thread::scope(|s| {}); // lint:allow(threads)\n }\n",
            ),
        ]);
        let (dist, parent) = g.reach();
        let v = purity_pass(&g, &dist, &parent);
        assert!(v.is_empty(), "{v:?}");
        // The same thread sink outside the boundary file is flagged even
        // with an allow comment.
        let g = graph_of(&[
            (
                "crates/sim/src/engine.rs",
                "impl Simulator { pub fn run(&mut self) { par(); } }\n",
            ),
            (
                "crates/net/src/host.rs",
                "pub fn par() { std::thread::scope(|s| {}); // lint:allow(threads)\n }\n",
            ),
        ]);
        let (dist, parent) = g.reach();
        let v = purity_pass(&g, &dist, &parent);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("thread-spawn sink"));
    }

    #[test]
    fn baseline_roundtrip_and_new_site_detection() {
        let g = graph_of(&[(
            "crates/sim/src/engine.rs",
            "impl Simulator { pub fn run(&mut self, o: Option<u8>) { o.unwrap(); } }\n",
        )]);
        let (dist, _) = g.reach();
        let inv = graph::inventory(&g, &dist, graph::panic_sites);
        let text = render_baseline("# header\n", &inv);
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
    /// allocates per event and one bare unwrap, so both baselines have
    /// content to write.
    fn synthetic_root(name: &str) -> PathBuf {
        let root = workspace_root()
            .join("target")
            .join("analyze-test")
            .join(name);
        let _ = std::fs::remove_dir_all(&root);
        let src_dir = root.join("crates/sim/src");
        std::fs::create_dir_all(&src_dir).expect("create synthetic src"); // lint:allow(expect)
        std::fs::create_dir_all(root.join("ci")).expect("create synthetic ci"); // lint:allow(expect)
        std::fs::write(
            src_dir.join("engine.rs"),
            "impl Simulator { pub fn run(&mut self, o: Option<u8>) {\n    let v = vec![o.unwrap()];\n    drop(v);\n} }\n",
        )
        .expect("write synthetic engine"); // lint:allow(expect)
        root
    }

    /// The one-row pass table of `--pass=<name>`.
    fn only(name: &str) -> [Pass; 1] {
        [*pass(name).expect("a PASSES row")] // lint:allow(expect)
    }

    /// Violations of the graph passes: minus the registry pass's (a
    /// synthetic root has no OBSERVABILITY.md and emits nothing) and the
    /// lint's (the fixture's bare unwrap) — neither is under test.
    fn non_registry(report: &Report) -> Vec<String> {
        report
            .violations
            .iter()
            .filter(|v| !v.starts_with("registry:") && !v.contains(": rule("))
            .cloned()
            .collect()
    }

    #[test]
    fn updating_the_panic_baseline_does_not_touch_the_other_baselines() {
        let root = synthetic_root("scope-panic");
        let report = run_passes(&root, &only("panic"), true);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(root.join(BASELINE_PATH).exists());
        assert!(!root.join(ALLOC_BASELINE_PATH).exists());
        // A full check now misses exactly the alloc baseline.
        let report = run_passes(&root, &PASSES, false);
        let v = non_registry(&report);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains(ALLOC_BASELINE_PATH), "{v:?}");
    }

    #[test]
    fn updating_the_alloc_baseline_does_not_touch_the_panic_baseline() {
        let root = synthetic_root("scope-alloc");
        run_passes(&root, &only("alloc"), true);
        assert!(root.join(ALLOC_BASELINE_PATH).exists());
        assert!(!root.join(BASELINE_PATH).exists());
        let report = run_passes(&root, &PASSES, false);
        let v = non_registry(&report);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains(BASELINE_PATH), "{v:?}");

        // After updating the panic baseline too, a check is clean and
        // the alloc baseline carries the vec site (in-loop class not
        // armed here: the vec! sits at fn top, so kind is plain `vec`).
        run_passes(&root, &only("panic"), true);
        let report = run_passes(&root, &PASSES, false);
        assert!(non_registry(&report).is_empty(), "{:?}", report.violations);
        let body =
            std::fs::read_to_string(root.join(ALLOC_BASELINE_PATH)).expect("baseline readable"); // lint:allow(expect)
        assert!(body.contains("crates/sim/src/engine.rs::Simulator::run\tvec"));
    }

    #[test]
    fn updating_with_every_pass_writes_every_baseline() {
        let root = synthetic_root("scope-all");
        let report = run_passes(&root, &PASSES, true);
        assert!(non_registry(&report).is_empty(), "{:?}", report.violations);
        for p in [BASELINE_PATH, ALLOC_BASELINE_PATH] {
            assert!(root.join(p).exists(), "{p} must be written");
        }
    }

    #[test]
    fn pass_alloc_skips_the_panic_and_registry_passes() {
        // With no baselines at all, a `--pass=alloc` run must complain
        // about the alloc baseline only — the panic pass never ran.
        let root = synthetic_root("pass-alloc");
        let report = run_passes(&root, &only("alloc"), false);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert!(report.violations[0].contains(ALLOC_BASELINE_PATH));
        assert!(!report.violations[0].contains(BASELINE_PATH));
        assert_eq!(
            report.summaries,
            vec!["alloc: 1 violation(s) 1 sites / 1 keys"]
        );
    }

    #[test]
    fn new_hot_path_alloc_site_fails_with_witness_chain() {
        let root = synthetic_root("alloc-new-site");
        // Baseline an empty inventory, then the vec! in Simulator::run is
        // a *new* site and must fail with a witness chain naming the
        // entry point and the sink.
        std::fs::write(root.join(ALLOC_BASELINE_PATH), "# empty\n").expect("write baseline"); // lint:allow(expect)
        let report = run_passes(&root, &only("alloc"), false);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        let v = &report.violations[0];
        assert!(
            v.contains("new `vec` allocation site(s) in `Simulator::run`"),
            "{v}"
        );
        assert!(
            v.contains("witness: Simulator::run (crates/sim/src/engine.rs:1)"),
            "{v}"
        );
        assert!(v.contains("vec! @ crates/sim/src/engine.rs:2"), "{v}");
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
        std::fs::create_dir_all(&src_dir).expect("create synthetic src"); // lint:allow(expect)
        std::fs::create_dir_all(root.join("ci")).expect("create synthetic ci"); // lint:allow(expect)
        std::fs::write(
            src_dir.join("engine.rs"),
            "impl Simulator { pub fn run(&mut self, x: u64) {\n    let a = x as u32;\n    let b = x as u16; // lint:allow(cast) — bound: x < 65536 structurally\n    drop((a, b));\n} }\n",
        )
        .expect("write synthetic engine"); // lint:allow(expect)
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
        assert!(std::fs::read_dir(root.join("ci"))
            .expect("synthetic ci") // lint:allow(expect)
            .next()
            .is_none());
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
        std::fs::create_dir_all(&src_dir).expect("create synthetic src"); // lint:allow(expect)
        std::fs::write(
            src_dir.join("engine.rs"),
            "impl Simulator {\n    pub fn run(&mut self, ctx: &mut Ctx) {\n        let hits = Cell::new(0u64);\n        let out = Mutex::new(Vec::new());\n        std::thread::scope(|s| {\n            s.spawn(|| hits.set(hits.get() + 1));\n            s.spawn(|| out.lock().unwrap().push(1));\n            s.spawn(move || ctx.rng.below(4));\n        });\n    }\n}\n",
        )
        .expect("write synthetic engine"); // lint:allow(expect)
        std::fs::write(
            src_dir.join("rng.rs"),
            "impl SimRng {\n    pub fn below(&mut self, n: u64) -> u64 { n / 2 }\n}\n",
        )
        .expect("write synthetic rng"); // lint:allow(expect)
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
        assert_eq!(report.stats.spawn_sites, 1);
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
        // checked-in baselines and the committed OBSERVABILITY.md tables.
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
