//! The repository's benchmark: four workloads over the public API of the
//! simulator crates, end-to-end host-time metrics, and a per-module
//! ledger from a separate traced run. See `README.md` beside this
//! package for every metric's definition.
//!
//! ```text
//! uap-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! uap-benchmark all [--seed <n>] [--seconds <s>] [--smoke]
//! uap-benchmark run <workload> [--seed <n>] [--seconds <s>] [--smoke]
//! uap-benchmark compare <a.json> <b.json>
//! ```
//!
//! The first form is what `BENCHMARK.json` names: one workload in this
//! process, one JSON result as the last line of standard output.

mod compare;
mod digest;
mod harness;
mod json;
mod metrics;
mod report;
mod run;
mod stats;
mod timed;
mod workloads;

use json::Json;
use report::AllOptions;
use run::Options;
use std::process::ExitCode;
use workloads::{Workload, NAMES};

const USAGE: &str = "usage:
  uap-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
  uap-benchmark all [--seed <n>] [--seconds <s>] [--smoke]
  uap-benchmark run <workload> [--seed <n>] [--seconds <s>] [--smoke]
  uap-benchmark compare <a.json> <b.json>";

/// Seconds a measured run lasts unless told otherwise; `BENCHMARK.json`
/// carries the same number as `run_seconds`.
const DEFAULT_SECONDS: f64 = 20.0;
const DEFAULT_SEED: u64 = 42;

/// Flags shared by every form.
struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    positional: Vec<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => flags.workload = Some(value("--workload")?),
            "--seed" => {
                flags.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed must be a u64".to_owned())?;
            }
            "--seconds" => {
                flags.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds must be a positive number")?;
            }
            "--trace" => {
                flags.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_owned()),
                };
            }
            "--smoke" => flags.smoke = true,
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => flags.positional.push(other.to_owned()),
        }
    }
    Ok(flags)
}

fn lookup(name: &str, smoke: bool) -> Result<Workload, String> {
    Workload::by_name(name, smoke)
        .ok_or_else(|| format!("unknown workload {name:?}; known: {}", NAMES.join(", ")))
}

/// Contract mode: one workload in this process, one JSON result as the
/// last line of standard output.
fn single(flags: &Flags, name: &str) -> Result<bool, String> {
    let workload = lookup(name, flags.smoke)?;
    let opts = Options {
        workload: name.to_owned(),
        seed: flags.seed,
        seconds: flags.seconds,
        trace: flags.trace,
        smoke: flags.smoke,
    };
    std::fs::create_dir_all(run::out_dir()).map_err(|e| format!("creating out/: {e}"))?;
    let detail = if opts.trace {
        run::traced(&opts, &workload)?
    } else {
        run::measure(&opts, &workload)?
    };
    let path = run::detail_path(name, opts.trace);
    std::fs::write(&path, detail.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    report::print_detail(&detail);
    println!("{}", run::contract_line(&detail).compact());
    // A failed check is a result, not a crash: the line above carries
    // `correct: false`, and the exit code stays 0 for the driver.
    Ok(true)
}

fn all(flags: &Flags, names: Vec<String>) -> Result<bool, String> {
    for name in &names {
        lookup(name, flags.smoke)?;
    }
    std::fs::create_dir_all(run::out_dir()).map_err(|e| format!("creating out/: {e}"))?;
    let opts = AllOptions {
        workloads: names,
        seed: flags.seed,
        seconds: flags.seconds,
        smoke: flags.smoke,
    };
    let (path, clean) = report::all(&opts)?;
    println!("results written to {}", path.display());
    if !clean {
        println!("check_fail_share > 0: at least one check failed");
    }
    Ok(clean)
}

fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (rows, notes) = compare::compare(&load(a)?, &load(b)?)?;
    Ok(compare::print(&rows, &notes))
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    let flags = parse_flags(args)?;
    let positional: Vec<&str> = flags.positional.iter().map(String::as_str).collect();
    match (flags.workload.as_deref(), positional.as_slice()) {
        (Some(name), []) => single(&flags, name),
        (None, ["all"]) => all(&flags, NAMES.iter().map(|&n| n.to_owned()).collect()),
        (None, ["run", name]) => all(&flags, vec![(*name).to_owned()]),
        (None, ["compare", a, b]) => compare_files(a, b),
        _ => Err(USAGE.to_owned()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}
