//! Workspace automation tasks (the cargo `xtask` pattern).
//!
//! ```text
//! cargo run -p xtask -- analyze [--pass=<name>] [--update-baseline]
//! cargo run -p xtask -- lint
//! cargo run -p xtask -- trace summary <trace.jsonl>
//! cargo run -p xtask -- trace diff <a> <b>
//! cargo run -p xtask -- trace spans <trace.jsonl>
//! cargo run -p xtask -- trace explain <trace.jsonl> <seq>
//! cargo run -p xtask -- trace check <trace.jsonl>
//! ```
//!
//! `analyze` is the static determinism gate: it lexes and parses the
//! workspace once and runs the pass table of [`analyze`] over it — the
//! token-level determinism lint ([`lint`], `docs/DETERMINISM.md`), then
//! the call-graph passes (the panic ratchet, alloc and cast denies,
//! parallel regions, trace-registry agreement; `docs/STATIC_ANALYSIS.md`)
//! — exiting non-zero with `file:line` diagnostics when any fail. It
//! reads no clock: host time is measured in `benchmark/` only.
//! `--pass=<name>` runs one row of the table, and `lint` is the spelling
//! of `analyze --pass=lint`. `trace` summarizes
//! and compares the JSONL traces / RunReport JSON the experiment
//! binaries emit (see [`trace_cmd`] and `docs/OBSERVABILITY.md`); `diff`
//! exits 1 on the first divergence, which makes it the CI determinism
//! gate.

mod analyze;
mod boundaries;
mod lint;
mod trace_cmd;

use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") if args.len() == 1 => analyze_main(&["--pass=lint".to_string()]),
        Some("analyze") => analyze_main(&args[1..]),
        Some("trace") => trace_main(&args[1..]),
        _ => usage(),
    }
}

fn analyze_main(args: &[String]) -> ! {
    let mut update_baseline = false;
    let mut passes: &[analyze::Pass] = &analyze::PASSES;
    for arg in args {
        if arg == "--update-baseline" {
            update_baseline = true;
        } else if let Some(pass) = arg.strip_prefix("--pass=").and_then(analyze::pass) {
            passes = std::slice::from_ref(pass);
        } else {
            eprintln!("xtask analyze: unknown flag `{arg}`");
            usage()
        }
    }
    let report = analyze::run_passes(&workspace_root(), passes, update_baseline);
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
        "usage: cargo run -p xtask -- analyze [--pass={}] [--update-baseline]\n       \
         cargo run -p xtask -- lint\n       \
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
        .unwrap_or(manifest) // lint:allow(unwrap) — unreachable: the manifest always has two ancestors
}
