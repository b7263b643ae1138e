//! # uap-bench — experiment binaries
//!
//! One binary per paper artifact (run with `cargo run --release -p
//! uap-bench --bin expNN_…`), each printing the table/series the paper
//! reports, writing a CSV under `results/`, and emitting the structured
//! telemetry files described below. Common flags:
//!
//! * `--quick` — the fast test-scale parameters (default is the full,
//!   paper-scale configuration);
//! * `--seed <u64>` — experiment seed (default 42);
//! * `--out <dir>` — output directory (default `results`);
//! * `--trace <path>` — also write the run's structured trace as JSONL
//!   to `<path>` (see `docs/OBSERVABILITY.md` for the event schema);
//! * `--trace-stream` — with `--trace`, write the JSONL through the
//!   streaming sink (buffered write-through, O(1) memory) instead of
//!   accumulating the run in RAM. Byte-identical output either way.
//!
//! ## Telemetry files
//!
//! Every binary writes, next to its CSVs:
//!
//! * **`<name>.report.json`** — the deterministic
//!   [`uap_sim::RunReport`]: config, seed, headline values (every table
//!   cell), counters, histogram quantiles and time series. Two same-seed
//!   runs produce byte-identical reports except for the `wall_secs`
//!   line, which `cargo run -p xtask -- trace diff` skips.
//!
//! * **`BENCH_<name>.json`** — the machine-readable perf sample, one
//!   JSON object with exactly these keys, in this order:
//!
//!   | key              | type   | meaning                                     |
//!   |------------------|--------|---------------------------------------------|
//!   | `experiment`     | string | experiment id (e.g. `exp04_message_counts`) |
//!   | `seed`           | u64    | the run's root seed                         |
//!   | `quick`          | bool   | `--quick` parameters were used              |
//!   | `events`         | u64    | simulation events (or rounds) processed     |
//!   | `wall_secs`      | f64    | wall-clock duration, from the one allowed   |
//!   |                  |        | [`uap_sim::WallTimer`] boundary             |
//!   | `events_per_sec` | f64    | `events / wall_secs` (0 when unmeasured)    |
//!
//!   `wall_secs` and `events_per_sec` are intentionally *not*
//!   deterministic — they are the perf trajectory — which is why they
//!   live in `BENCH_*.json` and not in the trace or the RunReport's
//!   compared lines.
//!
//!   One binary deviates from this schema: `bench_routing` is a pure
//!   microbench with no simulation run, so its `BENCH_routing.json`
//!   carries per-topology-size query rates instead of event counts —
//!   see `docs/PERFORMANCE.md` for that document's layout.

#![forbid(unsafe_code)]

use std::path::PathBuf;
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
    /// Stream the trace through the write-through sink instead of
    /// buffering the whole run in memory.
    pub trace_stream: bool,
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
            trace_stream: false,
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
                "--trace-stream" => cli.trace_stream = true,
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown flag {other}")),
            }
        }
        cli
    }
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: <experiment> [--quick] [--seed <u64>] [--out <dir>] [--trace <path>] \
         [--trace-stream]"
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}

/// Prints a table and writes its CSV under the output directory.
pub fn emit(cli: &Cli, name: &str, table: &Table) {
    println!("{}", table.render());
    let path = cli.out.join(format!("{name}.csv"));
    match table.write_csv(&path) {
        Ok(()) => println!("{}\n", artifact_line("csv", &path)),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Telemetry accumulator for one experiment binary run: owns the
/// [`RunReport`], the [`Tracer`] handed to traced harnesses, and the
/// wall-clock timer. Construct with [`Run::start`], feed it tables and
/// config, then call [`Run::finish`] to write `<name>.report.json`,
/// `BENCH_<name>.json`, and (with `--trace`) the JSONL trace.
pub struct Run {
    name: String,
    out: PathBuf,
    trace_path: Option<PathBuf>,
    /// The tracer already writes through to `trace_path`; `finish` only
    /// flushes instead of serializing the buffered events.
    streaming: bool,
    /// The structured report being accumulated.
    pub report: RunReport,
    /// Tracer to thread through traced experiment harnesses. Disabled
    /// unless `--trace` was given (so the hot path stays free).
    pub tracer: Tracer,
    wall: WallTimer,
}

impl Run {
    /// Starts telemetry for the binary `name` (also the RunReport's
    /// experiment id and the stem of every written file).
    pub fn start(cli: &Cli, name: &str) -> Run {
        let mut report = RunReport::new(name, cli.seed);
        report.config("quick", cli.quick);
        let mut streaming = false;
        let tracer = match &cli.trace {
            Some(tp) if cli.trace_stream => {
                if let Some(dir) = tp.parent() {
                    let _ = std::fs::create_dir_all(dir);
                }
                match Tracer::streaming(tp, TraceLevel::Debug) {
                    Ok(t) => {
                        streaming = true;
                        t
                    }
                    Err(e) => {
                        eprintln!(
                            "warning: could not open {} for streaming, buffering instead: {e}",
                            tp.display()
                        );
                        Tracer::buffered(TraceLevel::Debug)
                    }
                }
            }
            Some(_) => Tracer::buffered(TraceLevel::Debug),
            None => Tracer::disabled(),
        };
        Run {
            name: name.to_owned(),
            out: cli.out.clone(),
            trace_path: cli.trace.clone(),
            streaming,
            report,
            tracer,
            wall: WallTimer::start(),
        }
    }

    /// Folds every cell of a rendered table into the report's headline
    /// values, keyed `"<row name>/<column header>"`.
    pub fn table(&mut self, table: &Table) {
        let header = table.header().to_vec();
        for r in 0..table.len() {
            let cells = table.row_cells(r).to_vec();
            for (j, h) in header.iter().enumerate().skip(1) {
                self.report.value(format!("{}/{}", cells[0], h), &cells[j]);
            }
        }
    }

    /// Writes the telemetry files and prints their paths. `events` is the
    /// run's total event (or round) count for the throughput sample.
    pub fn finish(mut self, events: u64) {
        let wall = self.wall.elapsed_secs();
        self.report.events = events;
        self.report.wall_secs = Some(wall);
        if let Err(e) = std::fs::create_dir_all(&self.out) {
            eprintln!("warning: could not create {}: {e}", self.out.display());
        }
        let report_path = self.out.join(format!("{}.report.json", self.name));
        match self.report.write_json(&report_path) {
            Ok(()) => println!("{}", artifact_line("report", &report_path)),
            Err(e) => eprintln!("warning: could not write {}: {e}", report_path.display()),
        }
        let bench_path = self.out.join(format!("BENCH_{}.json", self.name));
        let quick = self
            .report
            .config
            .iter()
            .any(|(k, v)| k == "quick" && v == "true");
        let bench = bench_json(&self.name, self.report.seed, quick, events, wall);
        match std::fs::write(&bench_path, bench) {
            Ok(()) => println!("{}", artifact_line("bench", &bench_path)),
            Err(e) => eprintln!("warning: could not write {}: {e}", bench_path.display()),
        }
        // One grep-able throughput line per run, mirroring bench_routing's
        // `PERF size=…` lines — ci/perf_smoke.sh parses exp16's.
        let eps = if wall > 0.0 {
            events as f64 / wall
        } else {
            0.0
        };
        println!(
            "PERF {} events={events} wall_secs={wall:.3} events_per_sec={eps:.0}",
            self.name
        );
        if let Some(tp) = &self.trace_path {
            if self.streaming {
                match self.tracer.flush() {
                    Ok(()) => println!("{}", artifact_line("trace", tp)),
                    Err(e) => eprintln!("warning: could not flush {}: {e}", tp.display()),
                }
            } else {
                if let Some(dir) = tp.parent() {
                    let _ = std::fs::create_dir_all(dir);
                }
                let mut buf = Vec::new();
                match self.tracer.write_jsonl(&mut buf) {
                    Ok(()) => match std::fs::write(tp, &buf) {
                        Ok(()) => println!("{}", artifact_line("trace", tp)),
                        Err(e) => eprintln!("warning: could not write {}: {e}", tp.display()),
                    },
                    Err(e) => eprintln!("warning: could not serialize trace: {e}"),
                }
            }
        }
    }
}

/// Renders the `BENCH_*.json` document (schema in the module docs).
fn bench_json(name: &str, seed: u64, quick: bool, events: u64, wall_secs: f64) -> String {
    let eps = if wall_secs > 0.0 {
        events as f64 / wall_secs
    } else {
        0.0
    };
    format!(
        "{{\n  \"experiment\": \"{name}\",\n  \"seed\": {seed},\n  \"quick\": {quick},\n  \
         \"events\": {events},\n  \"wall_secs\": {wall_secs:?},\n  \
         \"events_per_sec\": {eps:?}\n}}\n"
    )
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
                "--trace-stream",
            ]
            .iter()
            .map(|s| s.to_string()),
        );
        assert!(c.quick);
        assert_eq!(c.seed, 7);
        assert_eq!(c.out, PathBuf::from("/tmp/x"));
        assert_eq!(c.trace, Some(PathBuf::from("/tmp/t.jsonl")));
        assert!(c.trace_stream);
    }

    #[test]
    fn trace_stream_flag_opens_a_streaming_run() {
        let path = std::env::temp_dir().join("uap_bench_stream_run.jsonl");
        let cli = Cli::parse_from(
            ["--trace", path.to_str().unwrap(), "--trace-stream"]
                .iter()
                .map(|s| s.to_string()),
        );
        let run = Run::start(&cli, "exp_test");
        assert!(run.tracer.is_active());
        assert!(run.streaming);
        assert!(path.exists(), "streaming sink creates the file up front");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn run_folds_table_cells_into_report_values() {
        let cli = Cli::parse_from(Vec::<String>::new());
        let mut run = Run::start(&cli, "exp_test");
        let mut t = Table::new("demo", &["row", "count"]);
        t.row(&["ping".into(), "7".into()]);
        run.table(&t);
        assert_eq!(
            run.report.values,
            vec![("ping/count".to_owned(), "7".to_owned())]
        );
        assert!(!run.tracer.is_active());
    }

    #[test]
    fn trace_flag_enables_the_tracer() {
        let cli = Cli::parse_from(["--trace", "/tmp/t.jsonl"].iter().map(|s| s.to_string()));
        let run = Run::start(&cli, "exp_test");
        assert!(run.tracer.is_active());
    }

    #[test]
    fn bench_json_schema_is_stable() {
        let j = bench_json("exp_test", 42, true, 100, 2.0);
        assert_eq!(
            j,
            "{\n  \"experiment\": \"exp_test\",\n  \"seed\": 42,\n  \"quick\": true,\n  \
             \"events\": 100,\n  \"wall_secs\": 2.0,\n  \"events_per_sec\": 50.0\n}\n"
        );
    }
}
