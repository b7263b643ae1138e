//! The determinism lint: a flat token pass over every workspace `.rs`
//! file (`xtask lint`, i.e. `xtask analyze --pass=lint`).
//!
//! The simulator's contract is that a run is a pure function of its
//! configuration and seed (see `docs/DETERMINISM.md`). Five classes of
//! code break that contract silently, so they are banned mechanically:
//!
//! | rule        | bans                                                        |
//! |-------------|-------------------------------------------------------------|
//! | `hashmap`   | `HashMap`/`HashSet` in non-test sim-path code (iteration    |
//! |             | order is per-process random; use `BTreeMap`/`BTreeSet`)     |
//! | `wallclock` | `Instant::now`, `SystemTime`, `thread_rng`, `rand::random`  |
//! |             | (wall clocks and ambient randomness; use `SimTime`/`SimRng`)|
//! | `unwrap`    | `.unwrap()` / `.expect(` / `panic!` in library code         |
//! |             | (non-test, non-bin) without an allow comment                |
//! | `floatsum`  | f64 accumulation over unordered containers:                 |
//! |             | `.values()…sum()` chains, or `.iter()…sum()` in files that  |
//! |             | also mention `HashMap`/`HashSet` (float addition is not     |
//! |             | associative, so the random order changes the total)         |
//! | `threads`   | `thread::scope` / `thread::spawn` (scheduling order is      |
//! |             | nondeterministic; fork-join parallelism is only audited in  |
//! |             | the routing-build and sweep boundaries, where results are   |
//! |             | joined in input order)                                      |
//!
//! Escape hatch: a `// lint:allow(<rule>)` comment on the same line or
//! the line directly above suppresses that rule there. On a multi-line
//! chained expression this means the allow binds to the line of the
//! `.unwrap()` / `.expect(` itself (or the line directly above it), not
//! to the line the statement starts on — the justification must sit next
//! to the site it blesses. Exception: a `wallclock` allow is honored
//! only inside the documented trace-sink boundary
//! ([`WALLCLOCK_BOUNDARY`], the `uap_sim::WallTimer` home), and a
//! `threads` allow only inside files carrying a
//! [`crate::boundaries::PARALLEL_REGIONS`] manifest entry (the parallel
//! routing-table build/repair and the experiment sweep runner — the
//! audited deterministic fork-join sites); both lists live in
//! [`crate::boundaries`], shared with the call-graph passes
//! ([`crate::analyze`]) so each audited boundary is declared exactly
//! once. Anywhere else the allow comment is
//! itself reported, so wall-clock readings and ad-hoc threading cannot
//! quietly spread past the audited sites.
//!
//! The pass reads the analyzer's token stream ([`crate::analyze::lexer`];
//! `syn` is unavailable offline) and looks at *every* token of a file —
//! `use` lines, struct fields and `static` initialisers as much as `fn`
//! bodies. Comments are already stripped and a string or char literal is
//! one opaque token, so the rules only ever match real code, and tokens
//! inside `#[cfg(test)]` items carry the lexer's `in_test` mark. Sink
//! paths come from the one table the `par` pass uses
//! ([`crate::analyze::parser::SINKS`]). Because no token is skipped, a
//! sink that passes this lint is inside an audited boundary — there is
//! no separate reachability proof for sinks.

use crate::analyze::lexer::Lexed;
use crate::analyze::parser::{sink_at, SinkKind, SINKS};
use crate::analyze::{Corpus, Report};
use crate::boundaries::{
    in_threads_boundary, in_wallclock_boundary, threads_boundary_files, WALLCLOCK_BOUNDARY,
};
use std::fmt;

/// One diagnostic, rendered as `path:line: rule(<name>): message`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Path relative to the workspace root.
    pub path: String,
    /// 1-indexed line.
    pub line: usize,
    /// Rule identifier (a name from the module table).
    pub rule: &'static str,
    /// Human-readable explanation with the suggested fix.
    pub msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: rule({}): {}",
            self.path, self.line, self.rule, self.msg
        )
    }
}

/// What kind of file is being scanned; decides which rules apply.
#[derive(Clone, Copy, Debug)]
pub struct FileKind {
    /// Whole file is test code (`tests/` integration dirs): rules
    /// `hashmap`, `unwrap` and `floatsum` are off, `wallclock` stays on.
    pub is_test_file: bool,
    /// Binary code (`main.rs`, `src/bin/`): rule `unwrap` is off — a CLI
    /// aborting with a message is fine.
    pub is_bin: bool,
    /// Simulation-path code (the `uap-*` crates and the root `src/`):
    /// rules `hashmap` and `floatsum` apply only here.
    pub is_sim_path: bool,
}

/// The `lint` row of the pass table: scans every corpus file.
pub fn pass(corpus: &Corpus, report: &mut Report) {
    let before = report.violations.len();
    for f in &corpus.files {
        let found = scan(&f.label, &f.lexed, f.kind);
        report
            .violations
            .extend(found.iter().map(Violation::to_string));
    }
    if report.violations.len() > before {
        report.detail = "— see docs/DETERMINISM.md for the rules and the \
                         `// lint:allow(<rule>)` escape hatch"
            .to_string();
    }
}

/// Scans one lexed file. Separated from I/O so the unit tests can feed
/// synthetic sources and assert exact diagnostics. Rules are evaluated
/// line by line — the unit `lint:allow` binds to — and report once per
/// line and pattern.
pub fn scan(label: &str, lexed: &Lexed, kind: FileKind) -> Vec<Violation> {
    let toks = &lexed.toks;
    let mut out = Vec::new();
    let mut report = |line: usize, rule: &'static str, msg: String| {
        out.push(Violation {
            path: label.to_string(),
            line,
            rule,
            msg,
        });
    };
    let ident = |j: usize, s: &str| toks.get(j).is_some_and(|t| t.is_ident(s));
    let punct = |j: usize, c: char| toks.get(j).is_some_and(|t| t.is_punct(c));
    // The rules that exempt test code only look at live tokens.
    let live = |j: usize| !kind.is_test_file && !lexed.in_test[j];
    // Live `.name(` at `j`.
    let method =
        |j: usize, name: &str| live(j) && punct(j, '.') && ident(j + 1, name) && punct(j + 2, '(');

    // floatsum needs file-level context: `.iter()…sum()` is only
    // suspicious when the file actually handles unordered containers.
    let mentions_unordered = toks
        .iter()
        .any(|t| t.is_ident("HashMap") || t.is_ident("HashSet"));
    let allow_on =
        |line: usize, rule: &str| lexed.allows.get(&line).is_some_and(|s| s.contains(rule));

    let last_line = toks
        .last()
        .map(|t| t.line)
        .max(lexed.allows.keys().next_back().copied())
        .unwrap_or(0);
    let mut end = 0usize;
    for line in 1..=last_line {
        let start = end;
        while toks.get(end).is_some_and(|t| t.line == line) {
            end += 1;
        }
        let here = start..end;

        if allow_on(line, "wallclock") && !in_wallclock_boundary(label) {
            report(
                line,
                "wallclock",
                format!(
                    "`lint:allow(wallclock)` is only valid inside the documented trace-sink \
                     boundary ({}); move the timing into uap_sim::WallTimer",
                    WALLCLOCK_BOUNDARY.join(", ")
                ),
            );
        }

        if kind.is_sim_path && !lexed.allowed(line, "hashmap") {
            for (name, ordered) in [("HashMap", "BTreeMap"), ("HashSet", "BTreeSet")] {
                if here.clone().any(|j| live(j) && ident(j, name)) {
                    report(
                        line,
                        "hashmap",
                        format!("{name} iterates in per-process random order; use {ordered}"),
                    );
                }
            }
        }

        if allow_on(line, "threads") && !in_threads_boundary(label) {
            report(
                line,
                "threads",
                format!(
                    "`lint:allow(threads)` is only valid inside the audited fork-join \
                     boundaries ({}); keep simulation runs single-threaded",
                    threads_boundary_files().join(", ")
                ),
            );
        }

        let sinks: Vec<&str> = here
            .clone()
            .filter_map(|j| sink_at(toks, j))
            .map(|(path, _)| path)
            .collect();
        for (path, sink) in SINKS {
            if !sinks.contains(&path) || sink.audited(label, lexed, line) {
                continue;
            }
            let msg = match sink {
                SinkKind::Thread => format!(
                    "`{path}` outside the audited fork-join boundaries; thread \
                     scheduling is nondeterministic — keep simulation runs \
                     single-threaded, or declare a PARALLEL_REGIONS manifest \
                     entry with an order-preserving join argument"
                ),
                SinkKind::Wallclock => format!(
                    "`{path}` breaks seed-reproducibility; use uap_sim::SimTime from the \
                     event loop"
                ),
                SinkKind::Entropy => format!(
                    "`{path}` breaks seed-reproducibility; thread the seeded \
                     uap_sim::SimRng through instead"
                ),
            };
            report(line, sink.rule(), msg);
        }

        if !kind.is_bin && !lexed.allowed(line, "unwrap") {
            let hits = [
                (
                    "unwrap",
                    here.clone()
                        .any(|j| method(j, "unwrap") && punct(j + 3, ')')),
                ),
                ("expect", here.clone().any(|j| method(j, "expect"))),
                (
                    "panic",
                    here.clone()
                        .any(|j| live(j) && ident(j, "panic") && punct(j + 1, '!')),
                ),
            ];
            for (what, hit) in hits {
                // `.expect(` and panics justified in place carry their own
                // finer-grained allow names for auditability.
                if hit && !lexed.allowed(line, what) {
                    report(
                        line,
                        "unwrap",
                        format!(
                            "`{what}` in library code; return a Result, or justify with \
                             `// lint:allow({what})`"
                        ),
                    );
                }
            }
        }

        if kind.is_sim_path && !lexed.allowed(line, "floatsum") {
            // `.first()` followed (same line, any chain in between) by `.sum`.
            let chained = |first: &str| {
                here.clone()
                    .find(|&j| method(j, first) && punct(j + 3, ')'))
                    .is_some_and(|p| (p + 4..end).any(|j| punct(j, '.') && ident(j + 1, "sum")))
            };
            if chained("values") || (mentions_unordered && chained("iter")) {
                report(
                    line,
                    "floatsum",
                    "float accumulation over a possibly-unordered container; collect \
                     into a Vec and sort, or use an ordered map"
                        .to_string(),
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{lexer::lex, run_passes, Pass};

    /// The one-row pass table of `xtask lint`.
    fn lint_only() -> [Pass; 1] {
        [("lint", pass)]
    }

    fn scan_source(label: &str, source: &str, kind: FileKind) -> Vec<Violation> {
        scan(label, &lex(source), kind)
    }

    const LIB: FileKind = FileKind {
        is_test_file: false,
        is_bin: false,
        is_sim_path: true,
    };

    fn rules_of(vs: &[Violation]) -> Vec<&'static str> {
        vs.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn flags_hashmap_with_file_line() {
        let src = "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }\n";
        let vs = scan_source("crates/sim/src/x.rs", src, LIB);
        assert_eq!(rules_of(&vs), vec!["hashmap", "hashmap"]);
        assert_eq!(vs[0].line, 1);
        assert_eq!(vs[1].line, 2);
        assert_eq!(vs[0].path, "crates/sim/src/x.rs");
        // The rendered diagnostic is file:line: rule(...): …
        assert!(vs[0]
            .to_string()
            .starts_with("crates/sim/src/x.rs:1: rule(hashmap)"));
    }

    #[test]
    fn seeded_thread_rng_violation_is_reported() {
        // The acceptance scenario: a thread_rng() call seeded into
        // crates/sim must produce a non-empty diagnostic with file:line.
        let src = "fn jitter() -> u64 {\n    let mut r = rand::thread_rng();\n    r.gen()\n}\n";
        let vs = scan_source("crates/sim/src/rng.rs", src, LIB);
        assert_eq!(vs.len(), 1);
        assert_eq!((vs[0].rule, vs[0].line), ("wallclock", 2));
    }

    #[test]
    fn wallclock_tokens_flagged_even_in_tests_dir() {
        let kind = FileKind {
            is_test_file: true,
            is_bin: false,
            is_sim_path: false,
        };
        let src = "fn t() { let _ = std::time::Instant::now(); }\n";
        assert_eq!(
            rules_of(&scan_source("tests/x.rs", src, kind)),
            vec!["wallclock"]
        );
    }

    #[test]
    fn unwrap_expect_panic_in_library() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    let a = x.unwrap();\n    let b = x.expect(\"b\");\n    if a + b > 9 { panic!(\"no\"); }\n    a\n}\n";
        let vs = scan_source("crates/net/src/x.rs", src, LIB);
        assert_eq!(rules_of(&vs), vec!["unwrap", "unwrap", "unwrap"]);
        assert_eq!(vs.iter().map(|v| v.line).collect::<Vec<_>>(), vec![2, 3, 4]);
    }

    #[test]
    fn bins_and_test_modules_may_unwrap() {
        let bin = FileKind {
            is_test_file: false,
            is_bin: true,
            is_sim_path: true,
        };
        let src = "fn main() { std::fs::read(\"x\").unwrap(); }\n";
        assert!(scan_source("src/main.rs", src, bin).is_empty());

        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(3).unwrap(); let m = std::collections::HashMap::<u8, u8>::new(); drop(m); }\n}\n";
        assert!(scan_source("crates/sim/src/x.rs", src, LIB).is_empty());
    }

    #[test]
    fn code_after_test_module_is_still_checked() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { Some(3).unwrap(); }\n}\nfn after(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let vs = scan_source("crates/sim/src/x.rs", src, LIB);
        assert_eq!(rules_of(&vs), vec!["unwrap"]);
        assert_eq!(vs[0].line, 5);
        // A braceless `#[cfg(test)]` item ends at its `;`: the next
        // item's braces are not a test body.
        let src = "#[cfg(test)]\nuse x::HashMap;\nfn lib(o: Option<u8>) -> u8 { o.unwrap() }\n";
        let vs = scan_source("crates/sim/src/x.rs", src, LIB);
        assert_eq!(rules_of(&vs), vec!["unwrap"]);
        assert_eq!(vs[0].line, 3);
    }

    #[test]
    fn sinks_outside_fn_bodies_are_checked() {
        // The pass reads every token of a file, not only fn bodies:
        // a `static` initialiser, a struct field, a `use` line.
        let src = "static T: SystemTime = SystemTime::UNIX_EPOCH;\nstruct S {\n    m: HashMap<u8, u8>,\n}\nuse std::thread::spawn;\n";
        let vs = scan_source("crates/sim/src/x.rs", src, LIB);
        let found: Vec<(&str, usize)> = vs.iter().map(|v| (v.rule, v.line)).collect();
        assert_eq!(
            found,
            vec![("wallclock", 1), ("hashmap", 3), ("threads", 5)]
        );
    }

    #[test]
    fn allow_comments_suppress_same_and_next_line() {
        let src = "use std::collections::HashMap; // lint:allow(hashmap)\n// lint:allow(hashmap)\ntype T = HashMap<u8, u8>;\n";
        assert!(scan_source("crates/sim/src/x.rs", src, LIB).is_empty());
        // …but only for the named rule.
        let src = "let x = opt.unwrap(); // lint:allow(hashmap)\n";
        assert_eq!(
            rules_of(&scan_source("crates/sim/src/x.rs", src, LIB)),
            vec!["unwrap"]
        );
    }

    #[test]
    fn expect_allow_is_fine_grained() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    x.expect(\"invariant: set in new()\") // lint:allow(expect)\n}\n";
        assert!(scan_source("crates/net/src/x.rs", src, LIB).is_empty());
        // an `expect` allow does not bless a bare unwrap
        let src = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap() // lint:allow(expect)\n}\n";
        assert_eq!(
            rules_of(&scan_source("crates/net/src/x.rs", src, LIB)),
            vec!["unwrap"]
        );
    }

    #[test]
    fn wallclock_allow_only_honored_in_boundary_file() {
        let src = "pub fn t() -> std::time::Instant {\n    std::time::Instant::now() // lint:allow(wallclock)\n}\n";
        // Inside the documented boundary the allow works.
        assert!(scan_source("crates/sim/src/trace.rs", src, LIB).is_empty());
        // Outside it, both the token and the misplaced allow are reported.
        let vs = scan_source("crates/net/src/x.rs", src, LIB);
        assert_eq!(rules_of(&vs), vec!["wallclock", "wallclock"]);
        assert!(vs[0].msg.contains("boundary"));
    }

    #[test]
    fn threads_allow_only_honored_in_boundary_files() {
        let src = "pub fn par() {\n    std::thread::scope(|s| { let _ = s; }) // lint:allow(threads)\n}\n";
        // Inside either documented boundary the allow works.
        assert!(scan_source("crates/net/src/routing.rs", src, LIB).is_empty());
        assert!(scan_source("crates/core/src/experiments/sweep.rs", src, LIB).is_empty());
        // Outside them, both the token and the misplaced allow are reported.
        let vs = scan_source("crates/gnutella/src/sim.rs", src, LIB);
        assert_eq!(rules_of(&vs), vec!["threads", "threads"]);
        assert!(vs[0].msg.contains("boundaries"));
    }

    #[test]
    fn thread_spawn_flagged_without_allow_even_in_boundary() {
        // The boundary only honors explicit allows; an unannotated spawn
        // is still reported there.
        let src = "pub fn f() { std::thread::spawn(|| {}); }\n";
        assert_eq!(
            rules_of(&scan_source("crates/net/src/routing.rs", src, LIB)),
            vec!["threads"]
        );
        // Qualified paths match the same suffix token.
        let src = "pub fn g() { foo::thread::scope(|s| { let _ = s; }); }\n";
        assert_eq!(
            rules_of(&scan_source("crates/core/src/lib.rs", src, LIB)),
            vec!["threads"]
        );
    }

    #[test]
    fn tokens_in_strings_and_comments_do_not_count() {
        let src = "// HashMap is banned here\nfn f() -> &'static str { \"HashMap thread_rng Instant::now .unwrap()\" }\nconst R: &str = r#\"SystemTime panic!\"#;\n";
        assert!(scan_source("crates/sim/src/x.rs", src, LIB).is_empty());
    }

    #[test]
    fn raw_string_contents_are_inert_but_code_after_them_is_not() {
        // A HashMap mention inside a raw string must not be flagged …
        let src = "const R: &str = r#\"use HashMap here \"quoted\" fine\"#;\n";
        assert!(scan_source("crates/sim/src/x.rs", src, LIB).is_empty());
        // … and a violation *after* a raw string on a later line must
        // still be reported at the correct line number.
        let src = "const R: &str = r#\"HashMap\"#;\ntype T = HashMap<u8, u8>;\n";
        let vs = scan_source("crates/sim/src/x.rs", src, LIB);
        assert_eq!(rules_of(&vs), vec!["hashmap"]);
        assert_eq!(vs[0].line, 2);
        // Hash-depth ≥ 2 and an embedded "# that must not close early.
        let src = "const R: &str = r##\"has \"# inside HashMap\"##;\nfn g(o: Option<u8>) -> u8 { o.unwrap() }\n";
        let vs = scan_source("crates/sim/src/x.rs", src, LIB);
        assert_eq!(rules_of(&vs), vec!["unwrap"]);
        assert_eq!(vs[0].line, 2);
    }

    #[test]
    fn multi_line_raw_string_keeps_line_numbers_straight() {
        let src = "const R: &str = r#\"line one HashMap\nline two SystemTime\nline three\"#;\nfn g(o: Option<u8>) -> u8 { o.unwrap() }\n";
        let vs = scan_source("crates/sim/src/x.rs", src, LIB);
        assert_eq!(rules_of(&vs), vec!["unwrap"]);
        assert_eq!(
            vs[0].line, 4,
            "raw-string newlines must advance the line counter"
        );
    }

    #[test]
    fn nested_block_comments_are_stripped_completely() {
        // Rust block comments nest; the outer comment only closes after
        // the inner one does. Everything inside is inert.
        let src = "/* outer /* inner HashMap */ still comment SystemTime */\nfn g(o: Option<u8>) -> u8 { o.unwrap() }\n";
        let vs = scan_source("crates/sim/src/x.rs", src, LIB);
        assert_eq!(rules_of(&vs), vec!["unwrap"]);
        assert_eq!(vs[0].line, 2);
        // A lint:allow inside a nested block comment still lands on the
        // comment's *starting* line (and the line after it).
        let src = "/* nested /* deep */ lint:allow(hashmap) */\ntype T = HashMap<u8, u8>;\n";
        assert!(scan_source("crates/sim/src/x.rs", src, LIB).is_empty());
    }

    #[test]
    fn multi_line_string_literals_keep_line_numbers_straight() {
        // Plain multi-line string: the contents (including a HashMap
        // mention) are blanked, and lines after it stay aligned.
        let src = "const S: &str = \"first HashMap\nsecond\";\nfn g(o: Option<u8>) -> u8 { o.unwrap() }\n";
        let vs = scan_source("crates/sim/src/x.rs", src, LIB);
        assert_eq!(rules_of(&vs), vec!["unwrap"]);
        assert_eq!(vs[0].line, 3);
        // Regression: a backslash line-continuation inside a string used
        // to swallow the newline, shifting every later diagnostic up one
        // line (and dragging allow-comment matching with it).
        let src = "const S: &str = \"continued \\\n tail HashMap\";\nfn g(o: Option<u8>) -> u8 { o.unwrap() }\n";
        let vs = scan_source("crates/sim/src/x.rs", src, LIB);
        assert_eq!(rules_of(&vs), vec!["unwrap"]);
        assert_eq!(
            vs[0].line, 3,
            "escaped newline in a string must still advance the line counter"
        );
    }

    #[test]
    fn allow_on_multi_line_chain_binds_to_the_unwrap_line() {
        // The documented contract: `lint:allow` suppresses on the line it
        // is written on and the line directly below — i.e. it must sit on
        // (or directly above) the line of the `.unwrap()` itself, not the
        // line the statement starts on.
        let src = "fn f(o: Option<u8>) -> u8 {\n    o\n        .map(|x| x + 1)\n        .unwrap() // lint:allow(unwrap)\n}\n";
        assert!(scan_source("crates/net/src/x.rs", src, LIB).is_empty());
        // Allow on the line directly above the .unwrap() line also works.
        let src = "fn f(o: Option<u8>) -> u8 {\n    o\n        // lint:allow(unwrap) — chain tail below\n        .unwrap()\n}\n";
        assert!(scan_source("crates/net/src/x.rs", src, LIB).is_empty());
        // An allow on the statement's *first* line does NOT bless an
        // unwrap two lines further down: the escape hatch is deliberately
        // line-scoped so a justification sits next to the site it blesses.
        let src = "fn f(o: Option<u8>) -> u8 {\n    o // lint:allow(unwrap)\n        .map(|x| x + 1)\n        .unwrap()\n}\n";
        let vs = scan_source("crates/net/src/x.rs", src, LIB);
        assert_eq!(rules_of(&vs), vec!["unwrap"]);
        assert_eq!(vs[0].line, 4);
    }

    #[test]
    fn lifetimes_do_not_derail_the_lexer() {
        let src =
            "fn f<'a>(x: &'a str) -> &'a str { x }\nfn g(o: Option<char>) -> char { o.unwrap() }\n";
        let vs = scan_source("crates/sim/src/x.rs", src, LIB);
        assert_eq!(rules_of(&vs), vec!["unwrap"]);
        assert_eq!(vs[0].line, 2);
    }

    #[test]
    fn floatsum_on_values_chains() {
        let src =
            "fn total(m: &std::collections::BTreeMap<u8, f64>) -> f64 {\n    m.values().sum()\n}\n";
        // .values().sum() is flagged regardless of receiver type: even on
        // ordered maps the chain is one refactor away from a HashMap.
        let vs = scan_source("crates/core/src/x.rs", src, LIB);
        assert_eq!(rules_of(&vs), vec!["floatsum"]);
        // .iter().sum() only fires in files that mention unordered maps.
        let src = "fn t(v: &[f64]) -> f64 { v.iter().sum() }\n";
        assert!(scan_source("crates/core/src/x.rs", src, LIB).is_empty());
        let src = "struct S { m: HashMap<u8, f64> } // lint:allow(hashmap)\nfn t(s: &S) -> f64 { s.m.iter().map(|(_, v)| v).sum::<f64>() }\n";
        let vs = scan_source("crates/core/src/x.rs", src, LIB);
        assert_eq!(rules_of(&vs), vec!["floatsum"]);
    }

    #[test]
    fn non_sim_path_skips_container_rules_only() {
        let xtask = FileKind {
            is_test_file: false,
            is_bin: true,
            is_sim_path: false,
        };
        let src = "fn f() { let m = std::collections::HashMap::<u8, u8>::new(); drop(m); let _t = std::time::SystemTime::now(); }\n";
        assert_eq!(
            rules_of(&scan_source("crates/xtask/src/x.rs", src, xtask)),
            vec!["wallclock"]
        );
    }

    #[test]
    fn end_to_end_on_disk_scan_finds_seeded_violation() {
        // Full-pipeline self-test: write a synthetic crate tree with a
        // thread_rng call, run the directory walker, expect exactly the
        // seeded diagnostic with its file:line.
        let root = std::env::temp_dir().join(format!("xtask-lint-selftest-{}", std::process::id()));
        let src_dir = root.join("crates/sim/src");
        std::fs::create_dir_all(&src_dir).unwrap();
        std::fs::write(
            src_dir.join("lib.rs"),
            "pub fn f() -> u64 {\n    let mut r = rand::thread_rng();\n    r.gen()\n}\n",
        )
        .unwrap();
        let report = run_passes(&root, &lint_only(), false);
        std::fs::remove_dir_all(&root).unwrap();
        let vs = report.violations;
        assert_eq!(vs.len(), 1);
        assert!(
            vs[0].starts_with("crates/sim/src/lib.rs:2: rule(wallclock): "),
            "{}",
            vs[0]
        );
        assert_eq!(report.summaries.len(), 1);
        assert!(report.summaries[0].starts_with("lint: 1 violation(s) — see docs/DETERMINISM.md"));
    }

    #[test]
    fn workspace_is_clean() {
        // The acceptance gate: the real workspace must lint clean. Uses
        // the same root resolution as the binary.
        let manifest = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let root = manifest.parent().unwrap().parent().unwrap();
        let report = run_passes(root, &lint_only(), false);
        assert!(
            report.violations.is_empty(),
            "workspace has lint violations:\n{}",
            report.violations.join("\n")
        );
        assert_eq!(report.summaries, vec!["lint: ok"]);
    }
}
