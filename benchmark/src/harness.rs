//! What every workload iteration is built from: the span recorder that
//! splits host time into set-up and run, the check list, the per-layer
//! ledger, and the instrumentation passes of a traced run.

use crate::digest::Digest;
use crate::json::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;
use uap_sim::{TraceLevel, Tracer};

/// Which end-to-end total a span's duration is added to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Setup,
    Run,
}

/// One harness span: a named interval around a call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// Iteration the span belongs to (the "request" identifier).
    pub iter: u32,
    /// Layer-qualified name, e.g. `net.underlay.build`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    phase: Option<Phase>,
}

/// Records spans in memory and accumulates the set-up / run totals of
/// the current iteration. Spans are written out only when the run ends.
pub struct Recorder {
    epoch: Instant,
    iter: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
    iter_first: usize,
    setup_ns: u64,
    run_ns: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            iter: 0,
            spans: Vec::new(),
            open: Vec::new(),
            iter_first: 0,
            setup_ns: 0,
            run_ns: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Starts the next iteration: totals reset, later spans carry its id.
    /// With `keep_earlier` false the spans of earlier iterations are
    /// dropped (measured runs keep nothing; traced runs keep all).
    pub fn begin_iteration(&mut self, keep_earlier: bool) {
        if !keep_earlier {
            self.spans.clear();
        }
        self.open.clear();
        self.iter += 1;
        self.iter_first = self.spans.len();
        self.setup_ns = 0;
        self.run_ns = 0;
    }

    fn enter_phase(&mut self, phase: Option<Phase>, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            iter: self.iter,
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            phase,
        });
        self.open.push(id);
        id
    }

    /// Opens a grouping span (an arm, a probe block) that counts towards
    /// neither total; spans opened before [`Recorder::exit`] nest in it.
    pub fn enter(&mut self, name: &'static str) -> usize {
        self.enter_phase(None, name)
    }

    /// Closes the span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        // A phase span inside a phase span is attributed once, to the
        // outermost one.
        let nested = self.open.iter().any(|&o| self.spans[o].phase.is_some());
        match self.spans[id].phase {
            Some(Phase::Setup) if !nested => self.setup_ns += end_ns - self.spans[id].start_ns,
            Some(Phase::Run) if !nested => self.run_ns += end_ns - self.spans[id].start_ns,
            _ => {}
        }
    }

    fn timed<T>(&mut self, phase: Option<Phase>, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter_phase(phase, name);
        let out = f();
        self.exit(id);
        out
    }

    /// Times `f` as set-up (`setup_s`).
    pub fn setup<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.timed(Some(Phase::Setup), name, f)
    }

    /// Times `f` as run (`run_s`).
    pub fn run<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.timed(Some(Phase::Run), name, f)
    }

    /// Times `f` towards neither total: the harness's own checking and
    /// probing is not the program's time.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.timed(None, name, f)
    }

    /// Set-up seconds of the current iteration.
    pub fn setup_s(&self) -> f64 {
        self.setup_ns as f64 / 1e9
    }

    /// Run seconds of the current iteration.
    pub fn run_s(&self) -> f64 {
        self.run_ns as f64 / 1e9
    }

    fn secs_where(&self, keep: impl Fn(&str) -> bool) -> f64 {
        self.spans[self.iter_first..]
            .iter()
            .filter(|s| keep(s.name))
            .fold(0.0, |acc, s| acc + (s.end_ns - s.start_ns) as f64 / 1e9)
    }

    /// Summed seconds of the current iteration's closed spans named `name`.
    pub fn secs(&self, name: &str) -> f64 {
        self.secs_where(|n| n == name)
    }

    /// Summed seconds of the current iteration's spans whose name starts
    /// with `prefix` (e.g. all `check.*` spans).
    pub fn secs_with_prefix(&self, prefix: &str) -> f64 {
        self.secs_where(|n| n.starts_with(prefix))
    }

    /// Number of the current iteration's spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans[self.iter_first..]
            .iter()
            .filter(|s| s.name == name)
            .count()
    }

    /// All retained spans as a JSON array (name, start, end, parent).
    pub fn spans_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj([
                        ("id", Json::from(id)),
                        ("iter", Json::from(u64::from(s.iter))),
                        ("name", Json::from(s.name)),
                        ("start_ns", Json::from(s.start_ns)),
                        ("end_ns", Json::from(s.end_ns)),
                        ("parent", s.parent.map_or(Json::Null, Json::from)),
                    ])
                })
                .collect(),
        )
    }
}

/// The correctness checks of one iteration.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    /// Checks evaluated.
    pub attempted: u64,
    /// Checks that did not hold.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Checks {
    /// Evaluates one check; `what` describes it if it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Adds another list's tallies to this one.
    pub fn absorb(&mut self, other: &Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend_from_slice(&other.failures);
    }
}

/// Per-layer metric values by name.
pub type Ledger = BTreeMap<&'static str, f64>;

/// How an iteration is instrumented. Measured iterations are always
/// [`Pass::Plain`]; a traced run walks a workload's pass list once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pass {
    /// Tracer disabled, no wrapper, no profiler: what `--trace 0` times.
    /// In a traced run this pass supplies the span-derived layer times.
    Plain,
    /// `Timed` world wrapper plus the engine profiler, tracer disabled:
    /// handler time per event kind, engine overhead, queue depth.
    Timed,
    /// `Tracer::buffered(Debug)`: boundary counts and buffered overhead.
    Buffered,
    /// `Tracer::streaming(Debug)`: streaming overhead and trace size.
    Streaming,
}

impl Pass {
    /// Name used in reports and span files.
    pub fn name(self) -> &'static str {
        match self {
            Pass::Plain => "plain",
            Pass::Timed => "timed",
            Pass::Buffered => "buffered",
            Pass::Streaming => "streaming",
        }
    }

    /// The tracer this pass installs; `stream_to` is the JSONL file of a
    /// streaming pass.
    pub fn tracer(self, stream_to: &Path) -> std::io::Result<Tracer> {
        Ok(match self {
            Pass::Plain | Pass::Timed => Tracer::disabled(),
            Pass::Buffered => Tracer::buffered(TraceLevel::Debug),
            Pass::Streaming => Tracer::streaming(stream_to, TraceLevel::Debug)?,
        })
    }
}

/// What an iteration runs against.
pub struct Env {
    /// The workload seed; every input is derived from it.
    pub seed: u64,
    /// Instrumentation of this iteration.
    pub pass: Pass,
    /// Run the kernel probes after the arms (last pass of a traced run).
    pub probes: bool,
    /// Span recorder.
    pub rec: Recorder,
    /// The tracer the arms thread through the overlays.
    pub tracer: Tracer,
    /// Per-layer values; persists across the passes of a traced run, so a
    /// probe can read the operating point an earlier pass measured.
    pub ledger: Ledger,
}

/// What one iteration returns.
#[derive(Clone, Debug)]
pub struct IterOut {
    /// The workload's unit count (exact; repeats bit for bit).
    pub units: u64,
    /// Digest of every simulated statistic the arms returned.
    pub digest: Digest,
    /// The paper-direction and invariant checks.
    pub checks: Checks,
}

/// Peak resident set of this process in MB (`VmHWM`), if the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Nanoseconds per call of `f`, timed over `reps` calls after one
/// untimed warm-up call. Probes report cache-warm costs, so shares
/// derived from them are upper bounds on what a faster layer can save.
pub fn ns_per_call(reps: u64, mut f: impl FnMut()) -> f64 {
    f();
    let t = Instant::now();
    for _ in 0..reps {
        f();
    }
    t.elapsed().as_nanos() as f64 / reps.max(1) as f64
}

/// Nanoseconds of the fastest of `reps` individually timed calls of `f`.
pub fn min_ns_per_call(reps: u32, mut f: impl FnMut()) -> f64 {
    (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_accumulate_and_nest_once() {
        let mut rec = Recorder::new();
        rec.begin_iteration(false);
        let pause = |ms| std::thread::sleep(std::time::Duration::from_millis(ms));
        let arm = rec.enter("arm");
        let build = rec.enter_phase(Some(Phase::Setup), "build");
        // Inner phase span: recorded, but attributed to the outer.
        rec.setup("inner", || pause(2));
        rec.exit(build);
        rec.run("loop", || pause(3));
        rec.exit(arm);
        assert!(rec.setup_s() >= 0.002 && rec.setup_s() < rec.setup_s() + rec.run_s());
        assert!(rec.run_s() >= 0.003);
        assert!((rec.secs("build") - rec.setup_s()).abs() < 1e-12);
        assert!(rec.secs("inner") <= rec.secs("build"));
        assert_eq!(rec.count("loop"), 1);
        let Json::Arr(spans) = rec.spans_json() else {
            panic!("spans are an array")
        };
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
        assert_eq!(spans[2].get("parent"), Some(&Json::Num(1.0)));
        assert_eq!(spans[3].get("parent"), Some(&Json::Num(0.0)));
    }

    #[test]
    fn iterations_reset_totals_and_keep_spans_on_request() {
        let mut rec = Recorder::new();
        rec.begin_iteration(false);
        rec.run("a", || ());
        rec.begin_iteration(true);
        assert_eq!(rec.run_s(), 0.0);
        rec.run("a", || ());
        assert_eq!(rec.count("a"), 1, "only the current iteration is summed");
        assert_eq!(rec.spans_json().as_arr().map(<[Json]>::len), Some(2));
        rec.begin_iteration(false);
        assert_eq!(rec.spans_json().as_arr().map(<[Json]>::len), Some(0));
    }

    #[test]
    fn checks_tally_failures() {
        let mut c = Checks::default();
        c.check(true, || unreachable!());
        c.check(false, || "oracle must cut messages".to_owned());
        let mut total = Checks::default();
        total.absorb(&c);
        assert_eq!((total.attempted, total.failed), (2, 1));
        assert_eq!(total.failures, ["oracle must cut messages"]);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if let Some(mb) = peak_rss_mb() {
            assert!(mb > 0.0);
        }
    }
}
