//! Workspace automation tasks (the cargo `xtask` pattern): the trace
//! toolbox.
//!
//! ```text
//! cargo run -p xtask -- trace summary <trace.jsonl>
//! cargo run -p xtask -- trace diff <a> <b>
//! cargo run -p xtask -- trace spans <trace.jsonl>
//! cargo run -p xtask -- trace explain <trace.jsonl> <seq>
//! cargo run -p xtask -- trace check <trace.jsonl>
//! ```
//!
//! `trace` summarizes and compares the JSONL traces / RunReport JSON the
//! experiment binaries emit (see [`trace_cmd`] and
//! `docs/OBSERVABILITY.md`); `diff` exits 1 on the first divergence, which
//! makes it the CI determinism gate. The static gate is clippy's
//! (`clippy.toml`, the root `Cargo.toml`'s `[workspace.lints]`) plus the
//! root package's `tests/source_scan.rs`; see `docs/DETERMINISM.md`.

mod trace_cmd;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) if cmd == "trace" => trace_main(rest),
        _ => usage(),
    }
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
        "usage: cargo run -p xtask -- trace summary <trace.jsonl>\n       \
         cargo run -p xtask -- trace diff <a> <b>\n       \
         cargo run -p xtask -- trace spans <trace.jsonl>\n       \
         cargo run -p xtask -- trace explain <trace.jsonl> <seq>\n       \
         cargo run -p xtask -- trace check <trace.jsonl>"
    );
    std::process::exit(2);
}
