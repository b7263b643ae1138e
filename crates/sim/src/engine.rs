//! The simulation driver.
//!
//! [`Simulator`] owns the clock, the event queue, the RNG and the metrics
//! registry. A protocol crate supplies a [`World`] implementation; the engine
//! pops events in deterministic order and hands each to the world together
//! with a [`Ctx`] through which the world schedules follow-up events.

use crate::event::EventQueue;
use crate::metrics::Metrics;
use crate::rng::SimRng;
use crate::time::SimTime;
use crate::trace::{Fields, Provenance, TraceLevel, Tracer, WallTimer};

/// A protocol state machine driven by the engine.
pub trait World<E> {
    /// Handles one event. `ctx` exposes the clock, scheduling, randomness and
    /// metrics.
    fn handle(&mut self, event: E, ctx: &mut Ctx<'_, E>);

    /// A stable, static name for the event's type, used by the engine's
    /// per-kind profiling counters (`engine.events.<kind>`) and dispatch
    /// trace events. Worlds with a single event shape can keep the default.
    fn kind_of(&self, _event: &E) -> &'static str {
        "event"
    }
}

/// Engine services exposed to the world while it handles an event.
pub struct Ctx<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
    /// Deterministic random number generator for this run.
    pub rng: &'a mut SimRng,
    /// Metrics registry for this run.
    pub metrics: &'a mut Metrics,
    /// Structured trace collector for this run (no-op unless the harness
    /// installed one via [`Simulator::set_tracer`]).
    pub tracer: &'a mut Tracer,
    stop: &'a mut bool,
}

impl<'a, E> Ctx<'a, E> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` after `delay`. The tracer's current causal
    /// provenance (span + cause) rides along with the event and is
    /// restored when the engine dispatches it, so causal chains span
    /// message hops through the queue.
    pub fn schedule_in(&mut self, delay: SimTime, event: E) {
        self.queue
            .push_with(self.now + delay, event, self.tracer.provenance());
    }

    /// Schedules `event` at absolute time `at`; clamped to "now" if in the
    /// past so causality is never violated. Carries the current causal
    /// provenance like [`Ctx::schedule_in`].
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        self.queue
            .push_with(at.max(self.now), event, self.tracer.provenance());
    }

    /// Schedules `event` after `delay` with **root** (empty) provenance,
    /// ignoring the current causal context. Periodic self-reschedules
    /// (ping cycles, query cycles) use this so inherited chains stay
    /// bounded: each new cycle is a fresh causal root, not a descendant
    /// of every cycle before it.
    pub fn schedule_in_root(&mut self, delay: SimTime, event: E) {
        self.queue
            .push_with(self.now + delay, event, Provenance::ROOT);
    }

    /// Requests the run to stop after the current event.
    pub fn stop(&mut self) {
        *self.stop = true;
    }

    /// Number of events currently pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Emits a trace event stamped with the current simulated time and the
    /// tracer's ambient causal provenance. The field-builder closure only
    /// runs when `component`/`level` is enabled, so this costs one branch
    /// on the disabled path. Returns the admitted event's `seq` (or
    /// `None` when filtered) so the caller can use it as a cause anchor.
    #[inline]
    pub fn trace(
        &mut self,
        component: &'static str,
        level: TraceLevel,
        kind: &'static str,
        build: impl FnOnce(&mut Fields),
    ) -> Option<u64> {
        self.tracer.emit(self.now, component, level, kind, build)
    }
}

/// Summary of a completed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunStats {
    /// Number of events processed.
    pub events_processed: u64,
    /// Simulated time at which the run ended.
    pub end_time: SimTime,
    /// Whether the run ended because the world called [`Ctx::stop`].
    pub stopped_early: bool,
}

/// Opt-in, determinism-safe engine profiling.
///
/// Everything the profiler writes into [`Metrics`] is a pure function of
/// the run (event kinds, queue depths, sim-time buckets) and therefore
/// byte-identical across same-seed runs. The one wall-clock facility —
/// the stage timer — is kept *outside* the metrics registry and the
/// tracer: its reading is only available through
/// [`Simulator::profile_wall_secs`], a host-time reading no determinism
/// comparison sees.
#[derive(Clone, Copy, Debug)]
pub struct ProfileConfig {
    /// Sample the queue depth into the `engine.queue_depth` time series
    /// every this many processed events (`0` disables the series).
    pub queue_depth_every: u64,
    /// Record the `engine.events_per_sec` time series: events processed
    /// per simulated second.
    pub events_per_sim_sec: bool,
    /// Start the opt-in wall-clock stage timer (the wallclock allow
    /// boundary lives in [`crate::trace`]).
    pub wall_timer: bool,
}

impl Default for ProfileConfig {
    fn default() -> Self {
        ProfileConfig {
            queue_depth_every: 1024,
            events_per_sim_sec: true,
            wall_timer: false,
        }
    }
}

/// Internal profiler state.
struct Profiler {
    cfg: ProfileConfig,
    /// Events processed per [`World::kind_of`] name; flushed into
    /// `engine.events.<kind>` counters when a run segment ends.
    kinds: std::collections::BTreeMap<&'static str, u64>,
    /// Current events-per-sim-second bucket: (second index, count).
    sec_bucket: (u64, u64),
    wall: Option<WallTimer>,
}

impl Profiler {
    fn new(cfg: ProfileConfig) -> Profiler {
        Profiler {
            cfg,
            kinds: std::collections::BTreeMap::new(),
            sec_bucket: (0, 0),
            wall: if cfg.wall_timer {
                Some(WallTimer::start())
            } else {
                None
            },
        }
    }

    fn on_event(
        &mut self,
        kind: &'static str,
        now: SimTime,
        queue_len: usize,
        n: u64,
        metrics: &mut Metrics,
    ) {
        *self.kinds.entry(kind).or_insert(0) += 1;
        if self.cfg.queue_depth_every > 0 && n.is_multiple_of(self.cfg.queue_depth_every) {
            metrics.trace("engine.queue_depth", now, queue_len as f64);
        }
        if self.cfg.events_per_sim_sec {
            let sec = now.as_micros() / 1_000_000;
            if sec != self.sec_bucket.0 {
                if self.sec_bucket.1 > 0 {
                    metrics.trace(
                        "engine.events_per_sec",
                        SimTime::from_secs(self.sec_bucket.0),
                        self.sec_bucket.1 as f64,
                    );
                }
                self.sec_bucket = (sec, 0);
            }
            self.sec_bucket.1 += 1;
        }
    }

    /// Drains accumulated per-kind counts into `engine.events.<kind>`
    /// counters and closes the open events-per-sec bucket.
    // lint:allow(alloc) — end-of-run drain, once per run, not per event
    fn flush(&mut self, metrics: &mut Metrics) {
        for (kind, n) in std::mem::take(&mut self.kinds) {
            metrics.incr(&format!("engine.events.{kind}"), n);
        }
        if self.cfg.events_per_sim_sec && self.sec_bucket.1 > 0 {
            metrics.trace(
                "engine.events_per_sec",
                SimTime::from_secs(self.sec_bucket.0),
                self.sec_bucket.1 as f64,
            );
            self.sec_bucket.1 = 0;
        }
    }
}

/// The discrete-event simulator.
pub struct Simulator<E> {
    queue: EventQueue<E>,
    now: SimTime,
    rng: SimRng,
    metrics: Metrics,
    tracer: Tracer,
    profiler: Option<Profiler>,
    events_processed: u64,
    /// Hard cap on processed events; guards against protocol bugs that
    /// generate unbounded event storms. Default: 500 million.
    pub event_limit: u64,
}

impl<E> Simulator<E> {
    /// Creates a simulator with the given seed.
    pub fn new(seed: u64) -> Self {
        Simulator {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            rng: SimRng::new(seed),
            metrics: Metrics::new(),
            tracer: Tracer::disabled(),
            profiler: None,
            events_processed: 0,
            event_limit: 500_000_000,
        }
    }

    /// Installs a tracer; the default is the no-op [`Tracer::disabled`].
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The installed tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Mutable access to the tracer (for setup-time events).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Removes and returns the tracer, leaving a disabled one behind.
    /// Harnesses use this to write the trace after the run.
    pub fn take_tracer(&mut self) -> Tracer {
        std::mem::take(&mut self.tracer)
    }

    /// Enables determinism-safe engine profiling (see [`ProfileConfig`]).
    pub fn enable_profiling(&mut self, cfg: ProfileConfig) {
        self.profiler = Some(Profiler::new(cfg));
    }

    /// Wall-clock seconds since profiling was enabled, if the opt-in
    /// stage timer was requested. This value never enters [`Metrics`] or
    /// the trace stream — it exists solely for perf artifacts that the
    /// determinism gate excludes.
    pub fn profile_wall_secs(&self) -> Option<f64> {
        self.profiler
            .as_ref()
            .and_then(|p| p.wall.as_ref())
            .map(|w| w.elapsed_secs())
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules an event at an absolute time before the run starts (or
    /// between runs).
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        self.queue.push(at.max(self.now), event);
    }

    /// The RNG, for pre-run setup draws.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Runs until the queue is empty or the world stops the run.
    pub fn run<W: World<E>>(&mut self, world: &mut W) -> RunStats {
        self.run_until(world, SimTime::MAX)
    }

    /// Runs until `deadline` (inclusive of events at the deadline), the queue
    /// empties, or the world stops the run.
    pub fn run_until<W: World<E>>(&mut self, world: &mut W, deadline: SimTime) -> RunStats {
        let mut stopped = false;
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            if self.events_processed >= self.event_limit {
                // Deliberate abort: a runaway event storm means the world is
                // livelocked and no useful result exists. lint:allow(panic)
                panic!(
                    "event limit {} exceeded at t={} — runaway event storm?",
                    self.event_limit, self.now
                );
            }
            let (t, ev, prov) = self.queue.pop_full().expect("peeked event vanished"); // lint:allow(expect)
            debug_assert!(t >= self.now, "event queue delivered out of order");
            self.now = t;
            self.events_processed += 1;
            // Restore the scheduler's causal context: events this handler
            // emits or schedules inherit the provenance the message was
            // sent with (fresh for every dispatch, so nothing leaks
            // between handlers).
            self.tracer.set_provenance(prov);
            if self.profiler.is_some() || self.tracer.is_enabled(TraceLevel::Trace) {
                let kind = world.kind_of(&ev);
                let queue_len = self.queue.len();
                if let Some(p) = &mut self.profiler {
                    p.on_event(
                        kind,
                        self.now,
                        queue_len,
                        self.events_processed,
                        &mut self.metrics,
                    );
                }
                self.tracer
                    .emit(self.now, "engine", TraceLevel::Trace, "dispatch", |f| {
                        f.str("kind", kind).u64("queue", queue_len as u64);
                    });
            }
            let mut ctx = Ctx {
                now: self.now,
                queue: &mut self.queue,
                rng: &mut self.rng,
                metrics: &mut self.metrics,
                tracer: &mut self.tracer,
                stop: &mut stopped,
            };
            world.handle(ev, &mut ctx);
            if stopped {
                break;
            }
        }
        // End-of-run emissions (link totals, run summaries) are causal
        // roots, not descendants of the last dispatched event.
        self.tracer.clear_provenance();
        if let Some(p) = &mut self.profiler {
            p.flush(&mut self.metrics);
        }
        if !stopped && self.now < deadline && deadline != SimTime::MAX {
            // Queue drained before the deadline: advance the clock so
            // rate-style metrics (bytes/sec over the run) are well defined.
            self.now = deadline;
        }
        RunStats {
            events_processed: self.events_processed,
            end_time: self.now,
            stopped_early: stopped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Ev {
        Ping(u32),
        Stop,
    }

    struct Echo {
        seen: Vec<(SimTime, u32)>,
    }

    impl World<Ev> for Echo {
        fn handle(&mut self, ev: Ev, ctx: &mut Ctx<'_, Ev>) {
            match ev {
                Ev::Ping(n) => {
                    self.seen.push((ctx.now(), n));
                    ctx.metrics.incr("ping", 1);
                    ctx.trace("echo", TraceLevel::Debug, "ping", |f| {
                        f.u64("n", n as u64);
                    });
                    if n < 3 {
                        ctx.schedule_in(SimTime::from_millis(10), Ev::Ping(n + 1));
                    }
                }
                Ev::Stop => ctx.stop(),
            }
        }

        fn kind_of(&self, ev: &Ev) -> &'static str {
            match ev {
                Ev::Ping(_) => "ping",
                Ev::Stop => "stop",
            }
        }
    }

    #[test]
    fn chain_of_events_advances_clock() {
        let mut sim = Simulator::new(1);
        sim.schedule_at(SimTime::from_millis(1), Ev::Ping(0));
        let mut w = Echo { seen: vec![] };
        let stats = sim.run(&mut w);
        assert_eq!(stats.events_processed, 4);
        assert_eq!(w.seen.len(), 4);
        assert_eq!(w.seen[3], (SimTime::from_millis(31), 3));
        assert_eq!(sim.metrics().counter("ping"), 4);
        assert!(!stats.stopped_early);
    }

    #[test]
    fn stop_halts_immediately() {
        let mut sim = Simulator::new(1);
        sim.schedule_at(SimTime::from_millis(1), Ev::Stop);
        sim.schedule_at(SimTime::from_millis(2), Ev::Ping(0));
        let mut w = Echo { seen: vec![] };
        let stats = sim.run(&mut w);
        assert!(stats.stopped_early);
        assert!(w.seen.is_empty());
    }

    #[test]
    fn deadline_cuts_off_and_advances_clock() {
        let mut sim = Simulator::new(1);
        sim.schedule_at(SimTime::from_millis(1), Ev::Ping(0));
        let mut w = Echo { seen: vec![] };
        let stats = sim.run_until(&mut w, SimTime::from_millis(15));
        // Pings at 1ms and 11ms fire; 21ms is beyond the deadline.
        assert_eq!(w.seen.len(), 2);
        assert_eq!(stats.end_time, SimTime::from_millis(15));
    }

    #[test]
    fn past_events_clamp_to_now() {
        struct Clamper {
            fired_at: Option<SimTime>,
        }
        enum E2 {
            First,
            Late,
        }
        impl World<E2> for Clamper {
            fn handle(&mut self, ev: E2, ctx: &mut Ctx<'_, E2>) {
                match ev {
                    E2::First => ctx.schedule_at(SimTime::ZERO, E2::Late),
                    E2::Late => self.fired_at = Some(ctx.now()),
                }
            }
        }
        let mut sim = Simulator::new(1);
        sim.schedule_at(SimTime::from_millis(5), E2::First);
        let mut w = Clamper { fired_at: None };
        sim.run(&mut w);
        assert_eq!(w.fired_at, Some(SimTime::from_millis(5)));
    }

    #[test]
    fn profiling_counts_events_per_kind() {
        let mut sim = Simulator::new(1);
        sim.enable_profiling(ProfileConfig {
            queue_depth_every: 1,
            events_per_sim_sec: true,
            wall_timer: false,
        });
        sim.schedule_at(SimTime::from_millis(1), Ev::Ping(0));
        let mut w = Echo { seen: vec![] };
        sim.run(&mut w);
        assert_eq!(sim.metrics().counter("engine.events.ping"), 4);
        assert_eq!(sim.metrics().counter("engine.events.stop"), 0);
        let depth = sim
            .metrics()
            .time_series("engine.queue_depth")
            .expect("series");
        assert_eq!(depth.len(), 4);
        let eps = sim
            .metrics()
            .time_series("engine.events_per_sec")
            .expect("series");
        assert!(!eps.is_empty());
        assert!(sim.profile_wall_secs().is_none(), "wall timer is opt-in");
    }

    #[test]
    fn world_trace_events_carry_sim_time() {
        let mut sim = Simulator::new(1);
        sim.set_tracer(Tracer::buffered(TraceLevel::Trace));
        sim.schedule_at(SimTime::from_millis(1), Ev::Ping(0));
        let mut w = Echo { seen: vec![] };
        sim.run(&mut w);
        let tracer = sim.take_tracer();
        let pings: Vec<_> = tracer
            .events()
            .into_iter()
            .filter(|e| e.component == "echo")
            .collect();
        assert_eq!(pings.len(), 4);
        assert_eq!(pings[0].t, SimTime::from_millis(1));
        assert_eq!(pings[3].t, SimTime::from_millis(31));
        // Engine dispatch events interleave at Trace level.
        assert!(tracer
            .events()
            .iter()
            .any(|e| e.component == "engine" && e.kind == "dispatch"));
        // Tracer was swapped out for a disabled one.
        assert!(!sim.tracer().is_active());
    }

    #[test]
    fn provenance_propagates_through_the_event_queue() {
        // A root event opens a span, anchors a cause, and schedules a
        // follow-up; the follow-up's trace events must carry the span and
        // cause through the queue, while a root-scheduled sibling stays
        // provenance-free.
        enum E3 {
            Root,
            Child,
            Fresh,
        }
        struct P;
        impl World<E3> for P {
            fn handle(&mut self, ev: E3, ctx: &mut Ctx<'_, E3>) {
                match ev {
                    E3::Root => {
                        let span = ctx.tracer.alloc_span();
                        ctx.tracer.set_span(Some(span));
                        let anchor = ctx.trace("echo", TraceLevel::Debug, "open", |_| {});
                        ctx.tracer.set_cause(anchor);
                        ctx.schedule_in(SimTime::from_millis(1), E3::Child);
                        ctx.schedule_in_root(SimTime::from_millis(2), E3::Fresh);
                    }
                    E3::Child => {
                        ctx.trace("echo", TraceLevel::Debug, "child", |_| {});
                    }
                    E3::Fresh => {
                        ctx.trace("echo", TraceLevel::Debug, "fresh", |_| {});
                    }
                }
            }
        }
        let mut sim = Simulator::new(1);
        sim.set_tracer(Tracer::buffered(TraceLevel::Debug));
        sim.schedule_at(SimTime::ZERO, E3::Root);
        sim.run(&mut P);
        let tracer = sim.take_tracer();
        let evs = tracer.events();
        assert_eq!(evs.len(), 3);
        let open = evs[0];
        assert_eq!(open.kind, "open");
        assert_eq!(open.span, Some(0));
        let child = evs[1];
        assert_eq!(child.kind, "child");
        assert_eq!(child.span, Some(0), "span rode through the queue");
        assert_eq!(
            child.cause,
            Some(open.seq),
            "cause anchors to the open event"
        );
        let fresh = evs[2];
        assert_eq!(fresh.kind, "fresh");
        assert_eq!(
            (fresh.span, fresh.cause),
            (None, None),
            "root reschedule resets"
        );
    }

    #[test]
    fn identical_seeds_identical_runs() {
        fn trace(seed: u64) -> Vec<(SimTime, u32)> {
            struct R;
            enum E {
                Step(u32),
            }
            impl World<E> for R {
                fn handle(&mut self, E::Step(n): E, ctx: &mut Ctx<'_, E>) {
                    if n < 50 {
                        let d = SimTime::from_micros(ctx.rng.range(1, 1000));
                        ctx.schedule_in(d, E::Step(n + 1));
                        ctx.metrics.record("step", n as f64);
                    }
                }
            }
            let mut sim = Simulator::new(seed);
            sim.schedule_at(SimTime::ZERO, E::Step(0));
            let mut w = R;
            sim.run(&mut w);
            vec![(sim.now(), sim.metrics().counter("x") as u32)]
        }
        assert_eq!(trace(42), trace(42));
        assert_ne!(trace(42), trace(43));
    }
}
