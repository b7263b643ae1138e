//! Running one workload in this process: the measured loop (`--trace 0`)
//! and the traced pass list (`--trace 1`). Each returns the detail
//! document that is written under `out/` and merged by `all`.

use crate::digest::Digest;
use crate::harness::{peak_rss_mb, Checks, Env, IterOut, Ledger, Pass, Recorder};
use crate::json::Json;
use crate::metrics::{END_TO_END, PEAK_RSS_MB, PER_LAYER, RUN_S, SETUP_S, UNITS_PER_S};
use crate::stats::Summary;
use crate::workloads::Workload;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;
use uap_sim::Tracer;

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Workload seed; every input derives from it.
    pub seed: u64,
    /// Seconds to measure for (warm-up included).
    pub seconds: f64,
    /// Run the traced pass list instead of the measured loop.
    pub trace: bool,
    /// One-tenth scale, one iteration, no warm-up.
    pub smoke: bool,
}

/// Fewest measured iterations a full-scale median is taken over.
const MIN_MEASURED: usize = 3;

/// Share of an iteration's wall time that may go into repeating set-up
/// alone for extra `setup_s` samples.
const EXTRA_SETUP_SHARE: f64 = 0.05;

/// Where detail files, span files and streamed traces go.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Path of a workload's detail file for one mode.
pub fn detail_path(workload: &str, trace: bool) -> PathBuf {
    let mode = if trace { "traced" } else { "measured" };
    out_dir().join(format!("{workload}.{mode}.json"))
}

/// Running tallies over a run's iterations.
struct Tally {
    checks: Checks,
    reference: Option<Digest>,
    /// Checks a panicking iteration is charged with: as many as the last
    /// iteration that finished evaluated.
    checks_per_iteration: u64,
}

impl Tally {
    fn new() -> Tally {
        Tally {
            checks: Checks::default(),
            reference: None,
            checks_per_iteration: 1,
        }
    }

    /// Runs one iteration; a panic in an arm fails all of its checks.
    fn iteration(&mut self, w: &Workload, env: &mut Env, keep_spans: bool) -> Option<IterOut> {
        env.rec.begin_iteration(keep_spans);
        match catch_unwind(AssertUnwindSafe(|| w.iterate(env))) {
            Ok(out) => {
                self.checks_per_iteration = out.checks.attempted + 1;
                self.checks.absorb(&out.checks);
                // Same seed, same process, tracer on or off: the simulated
                // statistics must not move.
                let reference = *self.reference.get_or_insert(out.digest);
                self.checks.check(out.digest == reference, || {
                    format!(
                        "sim_digest {} differs from the first iteration's {} ({} pass)",
                        out.digest.hex(),
                        reference.hex(),
                        env.pass.name()
                    )
                });
                Some(out)
            }
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("non-string panic");
                self.checks.attempted += self.checks_per_iteration;
                self.checks.failed += self.checks_per_iteration;
                self.checks
                    .failures
                    .push(format!("iteration panicked: {msg}"));
                env.tracer = Tracer::disabled();
                None
            }
        }
    }

    fn json(&self) -> Json {
        Json::obj([
            ("attempted", Json::from(self.checks.attempted)),
            ("failed", Json::from(self.checks.failed)),
            (
                "failures",
                Json::Arr(
                    self.checks
                        .failures
                        .iter()
                        .map(|f| Json::from(f.as_str()))
                        .collect(),
                ),
            ),
        ])
    }
}

fn new_env(seed: u64) -> Env {
    Env {
        seed,
        pass: Pass::Plain,
        probes: false,
        rec: Recorder::new(),
        tracer: Tracer::disabled(),
        ledger: Ledger::new(),
    }
}

fn header(opts: &Options, w: &Workload, units: u64, tally: &Tally) -> Vec<(&'static str, Json)> {
    vec![
        ("workload", Json::from(opts.workload.as_str())),
        ("seed", Json::from(opts.seed)),
        ("smoke", Json::from(opts.smoke)),
        ("unit", Json::from(w.unit())),
        ("units", Json::from(units)),
        (
            "sim_digest",
            Json::from(tally.reference.map_or(String::new(), |d| d.hex())),
        ),
        ("checks", tally.json()),
    ]
}

/// The measured loop: one discarded warm-up, then untraced iterations
/// until `seconds` have passed (at least [`MIN_MEASURED`]), each followed
/// by set-up-only repeats where set-up is short. A smoke run is a single
/// iteration.
pub fn measure(opts: &Options, w: &Workload) -> Result<Json, String> {
    let started = Instant::now();
    let mut env = new_env(opts.seed);
    let mut tally = Tally::new();
    if !opts.smoke {
        tally.iteration(w, &mut env, false);
    }
    let mut samples: Vec<[f64; 2]> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    let mut units = 0u64;
    loop {
        let iteration_started = Instant::now();
        if let Some(out) = tally.iteration(w, &mut env, false) {
            units = out.units;
            let run_s = env.rec.run_s();
            samples.push([run_s, out.units as f64 / run_s]);
            setups.push(env.rec.setup_s());
            // Where set-up is milliseconds, one sample per iteration makes
            // a noisy median: repeat set-up alone while it fits in a
            // twentieth of the iteration's time.
            let mut budget = EXTRA_SETUP_SHARE * iteration_started.elapsed().as_secs_f64();
            while !opts.smoke && setups.last().is_some_and(|&last| last <= budget) {
                env.rec.begin_iteration(false);
                w.setup_only(&mut env);
                budget -= env.rec.setup_s();
                setups.push(env.rec.setup_s());
            }
        }
        let enough =
            samples.len() >= MIN_MEASURED && started.elapsed().as_secs_f64() >= opts.seconds;
        // A workload that keeps panicking must still terminate.
        let hopeless = samples.is_empty() && tally.checks.failed > 3 * tally.checks_per_iteration;
        if opts.smoke || enough || hopeless {
            break;
        }
    }
    if samples.is_empty() {
        return Err(format!(
            "no iteration of {} finished: {}",
            opts.workload,
            tally.checks.failures.join("; ")
        ));
    }
    let rss = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    let column = |i: usize| -> Vec<f64> { samples.iter().map(|s| s[i]).collect() };
    let end_to_end = END_TO_END.iter().map(|m| {
        let values = match m.name {
            SETUP_S => setups.clone(),
            RUN_S => column(0),
            UNITS_PER_S => column(1),
            PEAK_RSS_MB => vec![rss],
            other => unreachable!("no sampler for end-to-end metric {other}"),
        };
        let s = Summary::of(&values);
        (
            m.name,
            Json::obj([
                ("unit", Json::from(m.unit)),
                ("median", Json::from(s.median)),
                ("min", Json::from(s.min)),
                ("max", Json::from(s.max)),
                ("n", Json::from(s.n)),
                (
                    "samples",
                    Json::Arr(values.iter().map(|&v| Json::from(v)).collect()),
                ),
            ]),
        )
    });
    let mut doc = header(opts, w, units, &tally);
    doc.push(("end_to_end", Json::obj(end_to_end)));
    Ok(Json::obj(doc))
}

/// The traced run: one warm-up, then the workload's pass list once —
/// untraced baseline with spans, `Timed` wrapper, buffered tracer,
/// streaming tracer — with kernel probes in the last pass. Spans of every
/// pass are written to `out/<workload>.spans.json`.
pub fn traced(opts: &Options, w: &Workload) -> Result<Json, String> {
    let mut env = new_env(opts.seed);
    let mut tally = Tally::new();
    if !opts.smoke {
        tally.iteration(w, &mut env, false);
    }
    let stream_path = out_dir().join(format!("{}.trace.jsonl", opts.workload));
    let passes = w.passes();
    let mut units = 0u64;
    for (i, &pass) in passes.iter().enumerate() {
        env.pass = pass;
        env.probes = i + 1 == passes.len();
        env.tracer = pass
            .tracer(&stream_path)
            .map_err(|e| format!("cannot stream to {}: {e}", stream_path.display()))?;
        let out = tally.iteration(w, &mut env, true).ok_or_else(|| {
            format!(
                "{} pass of {} did not finish: {}",
                pass.name(),
                opts.workload,
                tally.checks.failures.join("; ")
            )
        })?;
        units = out.units;
        let run_s = env.rec.run_s();
        let plain_run_s = *env.ledger.entry("scratch.plain_run_s").or_insert(run_s);
        let overhead = run_s / plain_run_s - 1.0;
        let events = env.tracer.emitted();
        match pass {
            Pass::Plain => {
                env.ledger.insert("pass.plain.setup_s", env.rec.setup_s());
                env.ledger.insert("pass.plain.run_s", run_s);
                env.ledger
                    .insert("pass.check_s", env.rec.secs_with_prefix("check."));
            }
            Pass::Timed => {
                env.ledger.insert("pass.timed.run_s", run_s);
            }
            Pass::Buffered => {
                env.ledger.insert("pass.buffered.run_s", run_s);
                env.ledger.insert("sim.trace.events", events as f64);
                env.ledger.insert(
                    "sim.trace.ns_per_event",
                    (run_s - plain_run_s).max(0.0) * 1e9 / events.max(1) as f64,
                );
                env.ledger
                    .insert("sim.trace.overhead_share.buffered", overhead);
            }
            Pass::Streaming => {
                env.tracer
                    .flush()
                    .map_err(|e| format!("flushing {}: {e}", stream_path.display()))?;
                let bytes = std::fs::metadata(&stream_path).map_or(0, |m| m.len());
                // The file is only here to be sized; it can reach
                // hundreds of MB.
                let _ = std::fs::remove_file(&stream_path);
                env.ledger.insert("pass.streaming.run_s", run_s);
                env.ledger.insert("sim.trace.jsonl_mb", bytes as f64 / 1e6);
                env.ledger
                    .insert("sim.trace.overhead_share.streaming", overhead);
            }
        }
        if env.probes {
            env.ledger.insert("pass.probe_s", env.rec.secs("probe"));
        }
        env.tracer = Tracer::disabled();
    }
    let spans_path = out_dir().join(format!("{}.spans.json", opts.workload));
    std::fs::write(&spans_path, env.rec.spans_json().compact())
        .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;

    let per_layer = PER_LAYER.iter().map(|&(name, unit, _)| {
        let value = env.ledger.get(name).copied().unwrap_or(0.0);
        (
            name,
            Json::obj([("unit", Json::from(unit)), ("value", Json::from(value))]),
        )
    });
    let mut doc = header(opts, w, units, &tally);
    doc.push(("per_layer", Json::obj(per_layer)));
    Ok(Json::obj(doc))
}

/// The one-line result the benchmark contract asks for, built from a
/// detail document: `correct`, `attempted`, `failed`, `metrics`.
pub fn contract_line(detail: &Json) -> Json {
    let checks = detail.get("checks");
    let count = |key: &str| {
        checks
            .and_then(|c| c.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let metric = |(name, m): &(String, Json), value_key: &str| {
        (
            name.clone(),
            Json::obj([
                ("value", m.get(value_key).cloned().unwrap_or(Json::Null)),
                ("unit", m.get("unit").cloned().unwrap_or(Json::Null)),
            ]),
        )
    };
    let metrics: Vec<(String, Json)> = match (detail.get("end_to_end"), detail.get("per_layer")) {
        (Some(Json::Obj(ms)), _) => ms.iter().map(|m| metric(m, "median")).collect(),
        (_, Some(Json::Obj(ms))) => ms.iter().map(|m| metric(m, "value")).collect(),
        _ => Vec::new(),
    };
    Json::obj([
        ("correct", Json::from(count("failed") == 0.0)),
        ("attempted", Json::Num(count("attempted"))),
        ("failed", Json::Num(count("failed"))),
        ("metrics", Json::Obj(metrics)),
    ])
}
