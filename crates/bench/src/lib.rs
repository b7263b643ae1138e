//! # uap-bench — the experiment binary
//!
//! One binary, `exp`, runs every row of [`uap_core::experiments::TABLE`]
//! (`cargo run --release -p uap-bench --bin exp -- <id>`): it prints the
//! tables the paper reports, writes their CSVs under `results/`, and
//! emits the run report described below. `exp all` runs every row,
//! `exp list` prints the table's ids (`--traced`: the rows that record a
//! trace; `--csvs`: every CSV stem), `exp doc` regenerates the result
//! tables of EXPERIMENTS.md from the CSVs and the registry tables of
//! docs/OBSERVABILITY.md from `uap_sim::trace::registry`, and
//! `exp trace <diff|spans|explain|check>` reads traces and reports back
//! ([`trace_cmd`]). Common flags of the runs:
//!
//! * `--quick` — the fast test-scale parameters (default is the full,
//!   paper-scale configuration);
//! * `--seed <u64>` — experiment seed (default 42);
//! * `--out <dir>` — output directory (default `results`);
//! * `--trace <path>` — also write the run's structured trace as JSONL
//!   to `<path>` (see `docs/OBSERVABILITY.md` for the event schema),
//!   through the streaming sink: write-through, O(1) memory, and what a
//!   crashed run had emitted is on disk.
//!
//! ## Telemetry
//!
//! Every run writes, next to its CSVs, **`<name>.report.json`** — the
//! deterministic [`uap_sim::RunReport`]: config, seed, headline values
//! (every table cell, keyed `<csv stem>/<row>:<first cell>/<column>`),
//! counters, histogram quantiles and time series. Two same-seed runs
//! produce byte-identical reports except for the `wall_secs` line, which
//! `exp trace diff` skips, and byte-identical stdout:
//! no host-time figure is printed. Performance is measured by the
//! standalone `benchmark/` package and nowhere in this crate
//! (`docs/PERFORMANCE.md`).

#![forbid(unsafe_code)]

pub mod trace_cmd;

use std::io;
use std::path::{Path, PathBuf};
use uap_core::report::{artifact_line, Table};
use uap_sim::{RunReport, TraceLevel, Tracer, WallTimer};

/// Parsed common CLI flags.
#[derive(Clone, Debug)]
pub struct Cli {
    /// Fast parameters instead of paper-scale.
    pub quick: bool,
    /// Experiment seed.
    pub seed: u64,
    /// Output directory for CSVs and telemetry JSON.
    pub out: PathBuf,
    /// Optional JSONL trace output path.
    pub trace: Option<PathBuf>,
}

impl Cli {
    /// Parses `std::env::args`. Unknown flags abort with a usage message.
    pub fn parse() -> Cli {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parses from an iterator (testable).
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Cli {
        let mut cli = Cli {
            quick: false,
            seed: 42,
            out: PathBuf::from("results"),
            trace: None,
        };
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--quick" => cli.quick = true,
                "--seed" => {
                    let v = it.next().unwrap_or_else(|| usage("--seed needs a value"));
                    cli.seed = v.parse().unwrap_or_else(|_| usage("--seed must be a u64"));
                }
                "--out" => {
                    let v = it.next().unwrap_or_else(|| usage("--out needs a value"));
                    cli.out = PathBuf::from(v);
                }
                "--trace" => {
                    let v = it.next().unwrap_or_else(|| usage("--trace needs a value"));
                    cli.trace = Some(PathBuf::from(v));
                }
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown flag {other}")),
            }
        }
        cli
    }
}

/// The one usage text, for `--help` anywhere on the command line and
/// for every usage error.
const USAGE: &str = "usage: exp <id>|all|list [--traced|--csvs]|doc \
                     [--quick] [--seed <u64>] [--out <dir>] [--trace <path>]\n       \
                     exp trace diff <a> <b> | spans <trace> | explain <trace> <seq> | \
                     check <trace>";

/// Prints the usage line and exits: status 0 on stdout for an empty `msg`
/// (`--help`), else status 2 with `msg` on stderr.
pub fn usage(msg: &str) -> ! {
    if msg.is_empty() {
        println!("{USAGE}");
        std::process::exit(0);
    }
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2);
}

/// Names the file an IO error is about.
fn at(path: &Path, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

/// Writes `<name>.csv` under the output directory and prints its path.
pub fn write_csv(cli: &Cli, name: &str, table: &Table) -> io::Result<()> {
    let path = cli.out.join(format!("{name}.csv"));
    table.write_csv(&path).map_err(|e| at(&path, e))?;
    println!("{}\n", artifact_line("csv", &path));
    Ok(())
}

/// Prints a table and writes its CSV under the output directory.
pub fn emit(cli: &Cli, name: &str, table: &Table) -> io::Result<()> {
    println!("{}", table.render());
    write_csv(cli, name, table)
}

/// Telemetry accumulator for one experiment binary run: owns the
/// [`RunReport`], the [`Tracer`] handed to traced harnesses, and the
/// wall-clock timer. Construct with [`Run::start`], feed it tables and
/// config, then call [`Run::finish`] to write `<name>.report.json` and
/// (with `--trace`) the JSONL trace.
pub struct Run {
    name: String,
    out: PathBuf,
    trace_path: Option<PathBuf>,
    /// The structured report being accumulated.
    pub report: RunReport,
    /// Tracer to thread through traced experiment harnesses: writes
    /// through to the `--trace` path, disabled without one (so the hot
    /// path stays free).
    pub tracer: Tracer,
    wall: WallTimer,
}

impl Run {
    /// Starts telemetry for the binary `name` (also the RunReport's
    /// experiment id and the stem of every written file).
    pub fn start(cli: &Cli, name: &str) -> io::Result<Run> {
        let mut report = RunReport::new(name, cli.seed);
        report.config("quick", cli.quick);
        let tracer = match &cli.trace {
            Some(tp) => {
                if let Some(dir) = tp.parent() {
                    std::fs::create_dir_all(dir).map_err(|e| at(dir, e))?;
                }
                Tracer::streaming(tp, TraceLevel::Debug).map_err(|e| at(tp, e))?
            }
            None => Tracer::disabled(),
        };
        Ok(Run {
            name: name.to_owned(),
            out: cli.out.clone(),
            trace_path: cli.trace.clone(),
            report,
            tracer,
            wall: WallTimer::start(),
        })
    }

    /// Folds every cell of the table written as `<stem>.csv` into the
    /// report's headline values, keyed
    /// `"<stem>/<row index>:<first cell>/<column header>"` — first cells
    /// repeat within a table and across the tables of one run, the stem
    /// and the row index do not.
    pub fn table(&mut self, stem: &str, table: &Table) {
        let header = table.header();
        for r in 0..table.len() {
            let Some((first, cells)) = table.row_cells(r).split_first() else {
                continue;
            };
            for (h, cell) in header.iter().skip(1).zip(cells) {
                self.report.value(format!("{stem}/{r}:{first}/{h}"), cell);
            }
        }
    }

    /// Writes the telemetry files and prints their paths. `events` is the
    /// run's total event (or round) count.
    pub fn finish(mut self, events: u64) -> io::Result<()> {
        self.report.events = events;
        self.report.wall_secs = Some(self.wall.elapsed_secs());
        // A JSON reader keeps one of two equal keys and drops the other
        // silently; refuse to write such a report.
        for keys in [&self.report.config, &self.report.values] {
            let mut keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
            keys.sort_unstable();
            if let Some((dup, _)) = keys.iter().zip(keys.iter().skip(1)).find(|(a, b)| a == b) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}: duplicate report key {dup:?}", self.name),
                ));
            }
        }
        std::fs::create_dir_all(&self.out).map_err(|e| at(&self.out, e))?;
        let report_path = self.out.join(format!("{}.report.json", self.name));
        self.report
            .write_json(&report_path)
            .map_err(|e| at(&report_path, e))?;
        println!("{}", artifact_line("report", &report_path));
        if let Some(tp) = &self.trace_path {
            // A write the sink refused is a line the trace lacks, even if
            // the error has cleared by the time of the flush.
            let lost = self.tracer.dropped();
            if lost > 0 {
                let e = io::Error::other(format!("trace lost {lost} event(s)"));
                return Err(at(tp, e));
            }
            self.tracer.flush().map_err(|e| at(tp, e))?;
            println!("{}", artifact_line("trace", tp));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_defaults() {
        let c = Cli::parse_from(Vec::<String>::new());
        assert!(!c.quick);
        assert_eq!(c.seed, 42);
        assert_eq!(c.out, PathBuf::from("results"));
        assert!(c.trace.is_none());
    }

    #[test]
    fn parse_flags() {
        let c = Cli::parse_from(
            [
                "--quick",
                "--seed",
                "7",
                "--out",
                "/tmp/x",
                "--trace",
                "/tmp/t.jsonl",
            ]
            .iter()
            .map(|s| s.to_string()),
        );
        assert!(c.quick);
        assert_eq!(c.seed, 7);
        assert_eq!(c.out, PathBuf::from("/tmp/x"));
        assert_eq!(c.trace, Some(PathBuf::from("/tmp/t.jsonl")));
    }

    #[test]
    fn trace_flag_opens_a_streaming_run() {
        let path = std::env::temp_dir().join("uap_bench_stream_run.jsonl");
        let cli = Cli::parse_from(["--trace", path.to_str().unwrap()].map(String::from));
        let run = Run::start(&cli, "exp_test").unwrap();
        assert!(run.tracer.is_active());
        assert!(path.exists(), "streaming sink creates the file up front");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn run_folds_table_cells_into_report_values() {
        let cli = Cli::parse_from(Vec::<String>::new());
        let mut run = Run::start(&cli, "exp_test").unwrap();
        let mut t = Table::new("demo", &["row", "count"]);
        t.row(&["ping".into(), "7".into()]);
        t.row(&["ping".into(), "8".into()]);
        run.table("demo", &t);
        assert_eq!(
            run.report.values,
            vec![
                ("demo/0:ping/count".to_owned(), "7".to_owned()),
                ("demo/1:ping/count".to_owned(), "8".to_owned())
            ]
        );
        assert!(!run.tracer.is_active());
    }

    #[test]
    fn finish_refuses_duplicate_report_keys() {
        let out = std::env::temp_dir().join("uap_bench_dup_keys");
        let cli = Cli::parse_from(["--out", out.to_str().unwrap()].map(String::from));
        let mut run = Run::start(&cli, "exp_test").unwrap();
        run.report.value("agreement", 1).value("agreement", 2);
        let err = run.finish(0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("\"agreement\""), "{err}");
        assert!(!out.join("exp_test.report.json").exists());
    }
}
