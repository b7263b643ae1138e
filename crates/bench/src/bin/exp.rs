//! `exp` — runs the rows of [`uap_core::experiments::TABLE`].
//!
//! ```text
//! exp <id>  [--quick] [--seed N] [--out D] [--trace P]
//! exp all   [--quick] [--seed N] [--out D]
//! exp list  [--traced | --csvs]
//! exp doc   [--out D]
//! ```
//!
//! `<id>` is a row id (`exp04`). `doc` rewrites the generated blocks of
//! `./EXPERIMENTS.md` from the CSVs in `--out`. Exit status: 0 on
//! success, 1 when an artifact cannot be written (the path is named on
//! stderr), 2 on a usage error or an unknown id. A run whose claim (the
//! paper headline, [`uap_core::experiments::Outcome::claim`]) does not
//! hold at that scale and seed says so on stderr and still exits 0.

use std::io;
use std::path::Path;
use std::process::ExitCode;
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

fn rewrite_doc(dir: &Path) -> io::Result<()> {
    let path = "EXPERIMENTS.md";
    let named = |e: io::Error| io::Error::new(e.kind(), format!("{path}: {e}"));
    let old = std::fs::read_to_string(path).map_err(named)?;
    let new = doc::rewrite(&old, dir)?;
    if new == old {
        println!("{path} is up to date");
    } else {
        std::fs::write(path, new).map_err(named)?;
        println!("{path} rewritten from {}", dir.display());
    }
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
            rewrite_doc(&Cli::parse_from(args).out)
        }
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
