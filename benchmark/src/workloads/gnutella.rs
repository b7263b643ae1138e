//! `gnutella_selection` — Table 1 / Table 2 of the paper.
//!
//! Four neighbour-selection arms run back to back on the event engine.
//! The only workload where `sim` (queue, `Metrics::incr`), `gnutella`
//! flooding and `info::oracle` do most of the work, and where `net.flow`
//! and `net.routing` do almost none.

use super::{build_underlay, latency_probe, routing_probe, NetCounters, Topo};
use crate::digest::Digest;
use crate::harness::{ns_per_call, Checks, Env, IterOut, Ledger, Pass};
use crate::timed::{timer_pair_ns, KindTime, Timed};
use std::collections::BTreeMap;
use uap_gnutella::overlay::FloodResult;
use uap_gnutella::sim::Ev;
use uap_gnutella::{GnutellaConfig, GnutellaReport, GnutellaSim, NeighborSelection};
use uap_info::Oracle;
use uap_net::{FaultKind, FaultPlan, FlowAllocator, HostId, PopulationSpec};
use uap_sim::{ChurnConfig, EventQueue, Metrics, ProfileConfig, SimRng, SimTime, Simulator};

/// Sizing constants.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Underlay shape.
    pub topo: Topo,
    /// Hosts, all Gnutella ultrapeers.
    pub hosts: usize,
    /// Simulated minutes per arm.
    pub sim_minutes: u64,
    /// Mean session length of the exponential churn, seconds.
    pub churn_mean_secs: f64,
    /// Hostcache capacity per node.
    pub hostcache: usize,
    /// Fault window of the fourth arm, simulated minutes `[start, end)`.
    pub fault_window: (u64, u64),
    /// Hosts `0..n` crashed during the window.
    pub crash_hosts: u32,
}

impl Params {
    /// The measured scale.
    pub fn full() -> Params {
        Params {
            topo: Topo::MID,
            hosts: 900,
            sim_minutes: 60,
            churn_mean_secs: 1_200.0,
            hostcache: 1_000,
            fault_window: (20, 40),
            crash_hosts: 90,
        }
    }

    /// Roughly one tenth of the work.
    pub fn smoke() -> Params {
        Params {
            topo: Topo::SMOKE_MID,
            hosts: 400,
            sim_minutes: 24,
            churn_mean_secs: 1_200.0,
            hostcache: 300,
            fault_window: (8, 16),
            crash_hosts: 24,
        }
    }

    /// Seconds in a debug build: for the package's own tests.
    #[cfg(test)]
    pub fn tiny() -> Params {
        Params {
            topo: Topo::SMOKE_MID,
            hosts: 80,
            sim_minutes: 9,
            churn_mean_secs: 300.0,
            hostcache: 40,
            fault_window: (3, 6),
            crash_hosts: 8,
        }
    }

    /// The E16 campaign: transit cut + latency inflation + host crashes
    /// over one window.
    fn fault_plan(&self) -> FaultPlan {
        let start = SimTime::from_mins(self.fault_window.0);
        let end = SimTime::from_mins(self.fault_window.1);
        FaultPlan::new()
            .epoch(
                start,
                end,
                FaultKind::TransitDown {
                    p: 0.7,
                    salt: 0xE16,
                },
            )
            .epoch(start, end, FaultKind::LatencyInflation { factor: 2.0 })
            .epoch(
                start,
                end,
                FaultKind::HostCrash {
                    hosts: (0..self.crash_hosts).map(HostId).collect(),
                },
            )
    }
}

struct Arm {
    span: &'static str,
    selection: NeighborSelection,
    faulted: bool,
}

fn arms() -> [Arm; 4] {
    [
        Arm {
            span: "arm.random",
            selection: NeighborSelection::Random,
            faulted: false,
        },
        Arm {
            span: "arm.oracle1000",
            selection: NeighborSelection::OracleBiased { list_size: 1_000 },
            faulted: false,
        },
        Arm {
            span: "arm.latency",
            selection: NeighborSelection::LatencyBiased,
            faulted: false,
        },
        Arm {
            span: "arm.oracle10_faulted",
            selection: NeighborSelection::OracleBiased { list_size: 10 },
            faulted: true,
        },
    ]
}

/// What one arm hands back to the checks, the digest and the ledger.
struct ArmOut {
    report: GnutellaReport,
    /// Query success before / after the fault window (faulted arm only).
    window_success: Option<(f64, f64)>,
    /// Handler time per event kind (timed pass only).
    by_kind: Option<BTreeMap<&'static str, KindTime>>,
    queue_depth_max: f64,
    /// The finished world and its counter key set, kept for the probes.
    probe_target: Option<(GnutellaSim, Vec<String>)>,
}

fn success_share(log: &[(SimTime, bool)], keep: impl Fn(SimTime) -> bool) -> f64 {
    let (hits, total) = log
        .iter()
        .filter(|&&(t, _)| keep(t))
        .fold((0u64, 0u64), |(h, n), &(_, ok)| (h + u64::from(ok), n + 1));
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// Set-up of one arm: topology, underlay, simulator and bootstrapped
/// world. The tracer moves into the simulator.
fn setup_arm(p: &Params, arm: &Arm, env: &mut Env) -> (GnutellaSim, Simulator<Ev>) {
    let underlay = build_underlay(&mut env.rec, p.topo, env.seed, |_| {
        PopulationSpec::leaf(p.hosts)
    });
    let cfg = GnutellaConfig {
        selection: arm.selection.clone(),
        oracle_at_file_exchange: arm.faulted,
        hostcache_size: p.hostcache,
        // The faulted arm keeps E16's static membership: a `Churn` event
        // for a crashed host whose session is still on reschedules itself
        // at the same instant forever (`GnutellaSim::handle` re-joins, the
        // crash guard refuses, `next_transition` is unchanged), so churn
        // and `HostCrash` epochs cannot share a run until that is fixed.
        churn: if arm.faulted {
            ChurnConfig::none()
        } else {
            ChurnConfig::exponential(p.churn_mean_secs)
        },
        duration: SimTime::from_mins(p.sim_minutes),
        download_retries: 3,
        faults: arm.faulted.then(|| p.fault_plan()),
        ..Default::default()
    };
    let mut sim: Simulator<Ev> = Simulator::new(env.seed ^ 0x6E07);
    sim.set_tracer(std::mem::take(&mut env.tracer));
    if env.pass == Pass::Timed {
        sim.enable_profiling(ProfileConfig {
            queue_depth_every: 64,
            events_per_sim_sec: false,
            wall_timer: false,
        });
    }
    let world = env.rec.setup("gnutella.bootstrap", || {
        GnutellaSim::new(underlay, cfg, &mut sim)
    });
    (world, sim)
}

/// Set-up of every arm, products dropped: an extra `setup_s` sample.
pub fn setup_only(p: &Params, env: &mut Env) {
    for arm in arms() {
        let (_, mut sim) = setup_arm(p, &arm, env);
        env.tracer = sim.take_tracer();
    }
}

fn run_arm(p: &Params, arm: &Arm, env: &mut Env, net: &mut NetCounters) -> ArmOut {
    let arm_span = env.rec.enter(arm.span);
    let (world, mut sim) = setup_arm(p, arm, env);
    let duration = SimTime::from_mins(p.sim_minutes);
    let (world, stats, by_kind) = if env.pass == Pass::Timed {
        let mut timed = Timed::new(world);
        let stats = env
            .rec
            .run("sim.run_until", || sim.run_until(&mut timed, duration));
        (timed.inner, stats, Some(timed.by_kind))
    } else {
        let mut world = world;
        let stats = env
            .rec
            .run("sim.run_until", || sim.run_until(&mut world, duration));
        (world, stats, None)
    };
    let mut tracer = sim.take_tracer();
    let report = env.rec.run("gnutella.report", || {
        world
            .underlay
            .trace_link_totals(stats.end_time, &mut tracer);
        world.report(sim.metrics(), stats.events_processed)
    });
    env.tracer = tracer;
    env.rec.exit(arm_span);
    net.absorb(&world.underlay);

    let start = SimTime::from_mins(p.fault_window.0);
    let end = SimTime::from_mins(p.fault_window.1);
    let window_success = arm.faulted.then(|| {
        (
            success_share(world.query_log(), |t| t < start),
            success_share(world.query_log(), |t| t >= end),
        )
    });
    let queue_depth_max = sim
        .metrics()
        .time_series("engine.queue_depth")
        .map_or(0.0, |s| {
            s.points().iter().map(|&(_, v)| v).fold(0.0, f64::max)
        });
    let probe_target = (env.probes && arm.selection == NeighborSelection::Random).then(|| {
        let keys = sim
            .metrics()
            .counters()
            .map(|(k, _)| k.to_owned())
            .collect();
        (world, keys)
    });
    ArmOut {
        report,
        window_success,
        by_kind,
        queue_depth_max,
        probe_target,
    }
}

/// Runs the four arms.
pub fn iterate(p: &Params, env: &mut Env) -> IterOut {
    let mut net = NetCounters::default();
    let arms = arms();
    let mut outs: Vec<ArmOut> = arms
        .iter()
        .map(|arm| run_arm(p, arm, env, &mut net))
        .collect();

    let mut digest = Digest::new();
    let mut checks = Checks::default();
    let mut units = 0u64;
    for (arm, out) in arms.iter().zip(&outs) {
        let r = &out.report;
        units += r.total_msgs();
        digest
            .label(arm.span)
            .u64(r.ping_msgs)
            .u64(r.pong_msgs)
            .u64(r.query_msgs)
            .u64(r.queryhit_msgs)
            .u64(r.queries_issued)
            .u64(r.queries_successful)
            .u64(r.downloads)
            .u64(r.downloads_intra_as)
            .f64(r.mean_query_delay_ms)
            .f64(r.mean_download_secs)
            .u64(r.oracle_queries)
            .u64(r.probe_messages)
            .u64(r.edges.len() as u64)
            .f64(r.download_locality)
            .u64(r.joins)
            .u64(r.events);
        checks.check(r.pong_msgs > r.ping_msgs, || {
            format!(
                "{}: pong_msgs {} must exceed ping_msgs {}",
                arm.span, r.pong_msgs, r.ping_msgs
            )
        });
        if let Some((pre, post)) = out.window_success {
            digest.f64(pre).f64(post);
            checks.check(post >= 0.9 * pre, || {
                format!(
                    "{}: post-window query success {post:.3} below 0.9 x pre-window {pre:.3}",
                    arm.span
                )
            });
        }
    }
    net.digest(&mut digest);
    let (random, oracle) = (&outs[0].report, &outs[1].report);
    checks.check(oracle.total_msgs() < random.total_msgs(), || {
        format!(
            "oracle total_msgs {} must be below random {}",
            oracle.total_msgs(),
            random.total_msgs()
        )
    });
    checks.check(
        oracle.success_ratio() >= 0.5 * random.success_ratio(),
        || {
            format!(
                "oracle search success {:.3} below half of random {:.3}",
                oracle.success_ratio(),
                random.success_ratio()
            )
        },
    );

    match env.pass {
        // The untraced pass owns the span- and report-derived rows; later
        // passes would fold instrumentation cost into the layer times.
        Pass::Plain => {
            let (rec, ledger) = (&env.rec, &mut env.ledger);
            net.write(rec, ledger);
            let sum = |f: fn(&GnutellaReport) -> u64| -> f64 {
                outs.iter().map(|o| f(&o.report)).sum::<u64>() as f64
            };
            ledger.insert("gnutella.bootstrap_s", rec.secs("gnutella.bootstrap"));
            ledger.insert("gnutella.report_s", rec.secs("gnutella.report"));
            ledger.insert("gnutella.msgs", units as f64);
            ledger.insert(
                "gnutella.ns_per_msg",
                rec.run_s() * 1e9 / units.max(1) as f64,
            );
            ledger.insert("info.oracle.queries", sum(|r| r.oracle_queries));
            ledger.insert("sim.engine.events", sum(|r| r.events));
            ledger.insert("scratch.downloads", sum(|r| r.downloads));
        }
        Pass::Timed => write_timed_ledger(env, &outs),
        Pass::Buffered | Pass::Streaming => {}
    }
    if let Some((world, keys)) = outs[0].probe_target.take() {
        let probe_span = env.rec.enter("probe");
        probes(world, &keys, env.seed, &mut env.ledger);
        env.rec.exit(probe_span);
    }
    IterOut {
        units,
        digest,
        checks,
    }
}

/// Handler time per kind, and what is left of `run_until` once handlers
/// and the wrapper's own timer calls are taken out.
fn write_timed_ledger(env: &mut Env, outs: &[ArmOut]) {
    let mut by_kind: BTreeMap<&'static str, KindTime> = BTreeMap::new();
    let mut depth_max = 0.0f64;
    for out in outs {
        depth_max = depth_max.max(out.queue_depth_max);
        for (kind, k) in out.by_kind.iter().flatten() {
            let slot = by_kind.entry(kind).or_default();
            slot.events += k.events;
            slot.ns += k.ns;
        }
    }
    let ledger = &mut env.ledger;
    for (row, kind) in [
        ("gnutella.handler_s.ping_cycle", "ping_cycle"),
        ("gnutella.handler_s.query_cycle", "query_cycle"),
        ("gnutella.handler_s.churn", "churn"),
        ("gnutella.handler_s.repair", "repair"),
        ("gnutella.handler_s.fault", "fault"),
    ] {
        ledger.insert(row, by_kind.get(kind).map_or(0.0, |k| k.ns as f64 / 1e9));
    }
    let events: u64 = by_kind.values().map(|k| k.events).sum();
    let handler_ns: u64 = by_kind.values().map(|k| k.ns).sum();
    let loop_ns = env.rec.secs("sim.run_until") * 1e9;
    let overhead_ns = (loop_ns - handler_ns as f64 - events as f64 * timer_pair_ns()).max(0.0);
    ledger.insert("scratch.timed_events", events as f64);
    ledger.insert("sim.engine.queue_depth_max", depth_max);
    ledger.insert(
        "sim.engine.overhead_ns_per_event",
        overhead_ns / events.max(1) as f64,
    );
    ledger.insert("sim.engine.overhead_share", overhead_ns / loop_ns.max(1.0));
    // The fault handler is `apply_fault_state` plus the crash diff: the
    // closest outside view of repair cost on an engine-driven overlay.
    let fault = by_kind.get("fault").copied().unwrap_or_default();
    ledger.insert(
        "net.routing.repair_ns_per_epoch",
        fault.ns as f64 / fault.events.max(1) as f64,
    );
}

/// Kernel probes on the random arm's final world, at the operating point
/// the earlier passes measured.
fn probes(mut world: GnutellaSim, counter_keys: &[String], seed: u64, ledger: &mut Ledger) {
    let mut rng = SimRng::new(seed ^ 0x9A0B);
    let n = world.underlay.n_hosts();
    let mut random_host = move || HostId::from_index(rng.index(n));

    // Flooding: query-TTL floods from seeded random online origins.
    let online = world.overlay.online_nodes();
    let origins: Vec<HostId> = (0..256)
        .map(|_| online[random_host().idx() % online.len()])
        .collect();
    let ttl = GnutellaConfig::default().query_ttl;
    let mut flood = FloodResult::default();
    let mut reached = 0u64;
    let sweep_ns = ns_per_call(8, || {
        reached = 0;
        for &o in &origins {
            world.overlay.flood_into(o, ttl, &mut flood);
            reached += flood.reached.len() as u64;
        }
    });
    ledger.insert(
        "gnutella.flood_ns_per_reached",
        sweep_ns / reached.max(1) as f64,
    );

    // Oracle ranking at the Table 1 list size.
    let list_len = 1_000.min(n - 1);
    let candidates: Vec<HostId> = (1..=list_len).map(HostId::from_index).collect();
    let mut oracle = Oracle::new(list_len);
    let mut list = Vec::with_capacity(list_len);
    let rank_ns = ns_per_call(64, || {
        list.clear();
        list.extend_from_slice(&candidates);
        oracle.rank_in_place(&world.underlay, HostId(0), &mut list);
    });
    ledger.insert("info.oracle.rank_ns_per_entry", rank_ns / list_len as f64);

    // A metrics registry holding the run's key set.
    let mut metrics = Metrics::new();
    for k in counter_keys {
        metrics.incr(k, 1);
    }
    let mut i = 0usize;
    let incr_ns = ns_per_call(1 << 20, || {
        metrics.incr(&counter_keys[i % counter_keys.len()], 1);
        i += 1;
    });
    ledger.insert("sim.metrics.incr_ns", incr_ns);
    // `record` keeps every sample, so the burst is bounded.
    let record_ns = ns_per_call(1 << 16, || metrics.record("benchmark.probe", 1.0));
    ledger.insert("sim.metrics.record_ns", record_ns);

    // Event-queue push+pop at the depth the timed pass saw.
    let depth = ledger
        .get("sim.engine.queue_depth_max")
        .map_or(1, |&d| d.max(1.0) as u32);
    let mut queue: EventQueue<Ev> = EventQueue::new();
    let mut t_rng = SimRng::new(seed ^ 0xE7);
    for i in 0..depth {
        queue.push(
            SimTime::from_micros(t_rng.below(3_600_000_000)),
            Ev::Repair(HostId(i)),
        );
    }
    let pushpop_ns = ns_per_call(1 << 20, || {
        if let Some((t, ev)) = queue.pop() {
            queue.push(t + SimTime::from_micros(t_rng.below(60_000_000)), ev);
        }
    });
    ledger.insert("sim.event.pushpop_ns", pushpop_ns);

    // Every download is one single-flow allocator cycle.
    let underlay = &world.underlay;
    let mut alloc = FlowAllocator::new(underlay);
    let pairs: Vec<(HostId, HostId)> = (0..1024).map(|_| (random_host(), random_host())).collect();
    let mut k = 0usize;
    let cycle_ns = ns_per_call(1 << 16, || {
        let (src, dst) = pairs[k % pairs.len()];
        k += 1;
        alloc.begin();
        alloc.add_flow(0, src, dst, underlay);
        alloc.allocate();
    });
    ledger.insert("net.flow.flows_per_round", 1.0);
    ledger.insert("net.flow.cycle_ns_per_flow", cycle_ns);
    let downloads = ledger.get("scratch.downloads").copied().unwrap_or(0.0);
    let run_s = ledger.get("scratch.plain_run_s").copied().unwrap_or(0.0);
    if run_s > 0.0 {
        ledger.insert("net.flow.est_share", cycle_ns * downloads / 1e9 / run_s);
    }

    routing_probe(underlay, ledger);
    ledger.insert(
        "net.underlay.latency_ns_per_query",
        latency_probe(underlay, seed),
    );
}
