//! `exp` — runs the rows of [`uap_core::experiments::TABLE`].
//!
//! ```text
//! exp <id>  [--quick] [--seed N] [--out D] [--trace P]
//! exp all   [--quick] [--seed N] [--out D]
//! exp list  [--traced | --csvs]
//! exp doc   [--out D]
//! exp trace diff <a> <b> | spans <trace> | explain <trace> <seq> | check <trace>
//! ```
//!
//! `<id>` is a row id (`exp04`). `doc` rewrites the generated blocks of
//! `./EXPERIMENTS.md` from the CSVs in `--out`, and the registry tables
//! of `./docs/OBSERVABILITY.md` from `uap_sim::trace::registry`. `trace`
//! reads a run's trace or report back ([`uap_bench::trace_cmd`]). Exit
//! status: 0 on success, 1 when an artifact cannot be written or read,
//! a trace fails `check` or two files `diff` (the path is named on
//! stderr), 2 on a usage error or an unknown id. A run whose claim (the
//! paper headline, [`uap_core::experiments::Outcome::claim`]) does not
//! hold at that scale and seed says so on stderr and still exits 0.

use std::io;
use std::process::ExitCode;
use uap_bench::trace_cmd::{self, DiffResult};
use uap_bench::{emit, usage, write_csv, Cli, Run};
use uap_core::experiments::{doc, table, Experiment, Scale, TABLE};

/// Runs one row and writes everything it publishes.
fn run(e: &Experiment, cli: &Cli) -> io::Result<()> {
    let mut tel = Run::start(cli, e.name)?;
    let scale = if cli.quick { Scale::Quick } else { Scale::Full };
    let out = (e.run)(scale, cli.seed, &mut tel.tracer);
    if out.tables.len() != e.csvs.len() || out.dumps.len() != e.dumps.len() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{} returned tables its row does not declare", e.id),
        ));
    }
    for (stem, table) in e.csvs.iter().zip(&out.tables) {
        emit(cli, stem, table)?;
        tel.table(stem, table);
    }
    for (stem, table) in e.dumps.iter().zip(&out.dumps) {
        write_csv(cli, stem, table)?;
    }
    if let Err(why) = &out.claim {
        eprintln!("warning: {}'s claim does not hold here: {why}", e.id);
    }
    for line in &out.notes {
        println!("{line}");
    }
    for (k, v) in out.config {
        tel.report.config(k, v);
    }
    for (k, v) in out.values {
        tel.report.value(k, v);
    }
    tel.finish(out.events)
}

fn list(filter: Option<&str>) -> Result<(), String> {
    for e in &TABLE {
        match filter {
            None => println!("{}  {}  {}", e.id, e.name, e.title),
            Some("--traced") if e.traced => println!("{}", e.id),
            Some("--traced") => {}
            Some("--csvs") => e.csvs.iter().chain(e.dumps).for_each(|s| println!("{s}")),
            Some(other) => return Err(format!("unknown list filter {other}")),
        }
    }
    Ok(())
}

/// Rewrites the generated blocks of the document at `path`.
fn rewrite_doc(path: &str, rewrite: impl FnOnce(&str) -> io::Result<String>) -> io::Result<()> {
    let named = |e: io::Error| io::Error::new(e.kind(), format!("{path}: {e}"));
    let old = std::fs::read_to_string(path).map_err(named)?;
    let new = rewrite(&old).map_err(named)?;
    if new == old {
        println!("{path} is up to date");
    } else {
        std::fs::write(path, new).map_err(named)?;
        println!("{path} rewritten");
    }
    Ok(())
}

/// `exp trace <sub> <file>…`: runs one reader over whole files and
/// prints its report; `Err` names the file that failed.
fn trace(args: &[String]) -> Result<(), String> {
    if let Some(flag) = args.iter().find(|a| a.starts_with('-')) {
        match flag.as_str() {
            "--help" | "-h" => usage(""),
            _ => usage(&format!("trace takes no flag {flag}")),
        }
    }
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let (path, report) = match args {
        [sub, a, b] if sub == "diff" => {
            let r = trace_cmd::diff(&read(a)?, &read(b)?);
            print!("{}", trace_cmd::render_diff((a, b), &r));
            return match r {
                DiffResult::Identical { .. } => Ok(()),
                DiffResult::Divergence { line, .. } => {
                    Err(format!("{a}, {b}: differ at line {line}"))
                }
            };
        }
        [sub, path] if sub == "spans" => (path, trace_cmd::spans(&read(path)?)),
        [sub, path, seq] if sub == "explain" => {
            let Ok(seq) = seq.parse() else {
                usage(&format!("trace explain: `{seq}` is not a seq number"));
            };
            (path, trace_cmd::explain(&read(path)?, seq))
        }
        [sub, path] if sub == "check" => {
            let (census, verdict) = trace_cmd::check(&read(path)?);
            print!("{census}");
            (path, verdict)
        }
        _ => usage("unknown trace subcommand or wrong argument count"),
    };
    print!("{}", report.map_err(|e| format!("{path}: {e}"))?);
    Ok(())
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        usage("no experiment given");
    };
    let done = match cmd.as_str() {
        "--help" | "-h" => usage(""),
        "list" => {
            let filter = args.next();
            return match list(filter.as_deref()) {
                Ok(()) => ExitCode::SUCCESS,
                Err(msg) => usage(&msg),
            };
        }
        "doc" => {
            let args: Vec<String> = args.collect();
            if args.iter().any(|a| a.starts_with("--") && a != "--out") {
                usage("doc takes only --out <dir>");
            }
            let dir = Cli::parse_from(args).out;
            rewrite_doc("EXPERIMENTS.md", |md| doc::rewrite(md, &dir))
                .and_then(|()| rewrite_doc("docs/OBSERVABILITY.md", doc::rewrite_registry))
        }
        "trace" => trace(&args.collect::<Vec<_>>()).map_err(io::Error::other),
        "all" => {
            let cli = Cli::parse_from(args);
            if cli.trace.is_some() {
                usage("--trace needs a single experiment, not `all`");
            }
            TABLE.iter().try_for_each(|e| run(e, &cli))
        }
        id => match table::find(id) {
            Some(e) => run(e, &Cli::parse_from(args)),
            None => {
                eprintln!("error: unknown experiment {id}; the table holds:");
                let _ = list(None);
                return ExitCode::from(2);
            }
        },
    };
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
