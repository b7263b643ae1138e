//! Workspace automation tasks (the cargo `xtask` pattern).
//!
//! ```text
//! cargo run -p xtask -- analyze [--pass=<name>]
//! cargo run -p xtask -- trace summary <trace.jsonl>
//! cargo run -p xtask -- trace diff <a> <b>
//! cargo run -p xtask -- trace spans <trace.jsonl>
//! cargo run -p xtask -- trace explain <trace.jsonl> <seq>
//! cargo run -p xtask -- trace check <trace.jsonl>
//! ```
//!
//! `analyze` is the call-graph half of the static gate: it lexes and
//! parses the workspace once and runs the pass table of [`analyze`] over
//! it (four plain denies: hot-path allocations, truncating casts,
//! parallel regions, trace-registry agreement; `docs/STATIC_ANALYSIS.md`),
//! exiting non-zero with `file:line` diagnostics when any fail. There is
//! no baseline file. The token-level half of the static gate (no
//! `HashMap`, wall clock or ad-hoc threads; no unexplained unwrap,
//! expect, panic or indexing) is clippy's, configured in the root
//! `clippy.toml` and `Cargo.toml` (`docs/DETERMINISM.md`). `analyze`
//! reads no clock: host time is measured in `benchmark/` only.
//! `--pass=<name>` runs one row of the table. `trace` summarizes
//! and compares the JSONL traces / RunReport JSON the experiment
//! binaries emit (see [`trace_cmd`] and `docs/OBSERVABILITY.md`); `diff`
//! exits 1 on the first divergence, which makes it the CI determinism
//! gate.

#![expect(
    clippy::disallowed_types,
    reason = "build tooling: the call graph's name indexes are lookup-only HashMaps; \
              nothing iterates them, so their order never reaches the output"
)]
#![expect(
    clippy::indexing_slicing,
    reason = "build tooling: token and call-graph indices are bounds-checked by construction, \
              and a slip aborts the check instead of corrupting a simulation"
)]

mod analyze;
mod boundaries;
mod trace_cmd;

use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("analyze") => analyze_main(&args[1..]),
        Some("trace") => trace_main(&args[1..]),
        _ => usage(),
    }
}

fn analyze_main(args: &[String]) -> ! {
    let mut passes: &[analyze::Pass] = &analyze::PASSES;
    for arg in args {
        if let Some(pass) = arg.strip_prefix("--pass=").and_then(analyze::pass) {
            passes = std::slice::from_ref(pass);
        } else {
            eprintln!("xtask analyze: unknown flag `{arg}`");
            usage()
        }
    }
    let report = analyze::run_passes(&workspace_root(), passes);
    std::process::exit(if analyze::print_report(&report) { 0 } else { 1 });
}

fn trace_main(args: &[String]) -> ! {
    let Some((sub, rest)) = args.split_first() else {
        usage()
    };
    let result = match (sub.as_str(), rest) {
        ("summary", [path]) => trace_cmd::summarize(&read_or_die(path)).map_err(|e| (path, e)),
        ("spans", [path]) => trace_cmd::spans(&read_or_die(path)).map_err(|e| (path, e)),
        ("check", [path]) => trace_cmd::check(&read_or_die(path))
            .map_err(|e| (path, format!("causal-integrity violation(s):\n{e}"))),
        ("explain", [path, seq]) => {
            let Ok(seq) = seq.parse::<u64>() else {
                eprintln!("xtask trace explain: `{seq}` is not a seq number");
                usage()
            };
            trace_cmd::explain(&read_or_die(path), seq).map_err(|e| (path, e))
        }
        ("diff", [a, b]) => {
            let r = trace_cmd::diff(&read_or_die(a), &read_or_die(b));
            print!("{}", trace_cmd::render_diff((a, b), &r));
            match r {
                trace_cmd::DiffResult::Identical { .. } => std::process::exit(0),
                trace_cmd::DiffResult::Divergence { .. } => std::process::exit(1),
            }
        }
        _ => usage(),
    };
    match result {
        Ok(s) => {
            print!("{s}");
            std::process::exit(0);
        }
        Err((path, e)) => {
            eprintln!("xtask trace {sub}: {path}: {e}");
            std::process::exit(1);
        }
    }
}

fn read_or_die(path: &str) -> String {
    match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("xtask trace: cannot read {path}: {e}");
            std::process::exit(1);
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: cargo run -p xtask -- analyze [--pass={}]\n       \
         cargo run -p xtask -- trace summary <trace.jsonl>\n       \
         cargo run -p xtask -- trace diff <a> <b>\n       \
         cargo run -p xtask -- trace spans <trace.jsonl>\n       \
         cargo run -p xtask -- trace explain <trace.jsonl> <seq>\n       \
         cargo run -p xtask -- trace check <trace.jsonl>",
        analyze::PASSES.map(|(name, _)| name).join("|")
    );
    std::process::exit(2);
}

/// The workspace root, two levels up from this crate's manifest.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .unwrap_or(manifest) // unreachable: the manifest always has two ancestors
}
