//! `swarm_congestion` — biased BitTorrent neighbours keep bytes off
//! transit links (Bindal et al.; cost-aware choking after CAT).
//!
//! Round-based, no event engine, no DHT: per-round cost grows roughly
//! quadratically with swarm size and the `FlowAllocator` set is rebuilt
//! every round, so this is the one workload `net.flow` and `bittorrent`
//! dominate.

use super::{build_underlay, routing_probe, NetCounters, Topo};
use crate::digest::Digest;
use crate::harness::{min_ns_per_call, ns_per_call, Checks, Env, IterOut, Ledger, Pass};
use uap_bittorrent::tracker::Tracker;
use uap_bittorrent::{run_swarm_with, SwarmConfig, SwarmReport, TrackerPolicy};
use uap_net::{FlowAllocator, HostId, PopulationSpec, Underlay};
use uap_sim::{SimRng, Tracer};

/// Sizing constants.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Underlay shape.
    pub topo: Topo,
    /// Leechers, all joined at round 0.
    pub leechers: usize,
    /// Initial seeds.
    pub seeds: usize,
    /// Pieces in the torrent (256 KiB each).
    pub pieces: usize,
}

impl Params {
    /// The measured scale.
    pub fn full() -> Params {
        Params {
            topo: Topo::MID,
            leechers: 1_500,
            seeds: 75,
            pieces: 256,
        }
    }

    /// Roughly one tenth of the work.
    pub fn smoke() -> Params {
        Params {
            topo: Topo::SMOKE_MID,
            leechers: 600,
            seeds: 30,
            pieces: 128,
        }
    }

    /// Seconds in a debug build: for the package's own tests.
    #[cfg(test)]
    pub fn tiny() -> Params {
        Params {
            topo: Topo::SMOKE_MID,
            leechers: 40,
            seeds: 4,
            pieces: 16,
        }
    }

    fn config(&self, tracker: TrackerPolicy) -> SwarmConfig {
        SwarmConfig {
            n_leechers: self.leechers,
            n_seeds: self.seeds,
            n_pieces: self.pieces,
            tracker,
            cost_aware_choking: true,
            ..Default::default()
        }
    }
}

const ARMS: [(&str, TrackerPolicy); 2] = [
    ("arm.random", TrackerPolicy::Random),
    (
        "arm.bns",
        TrackerPolicy::Bns {
            internal: 16,
            external: 4,
        },
    ),
];

/// Set-up of one arm: the swarm builds its own state inside
/// `run_swarm_with`, so only the underlay is set-up here.
fn setup_arm(p: &Params, env: &mut Env) -> Underlay {
    build_underlay(&mut env.rec, p.topo, env.seed, |_| {
        PopulationSpec::leaf(p.leechers + p.seeds)
    })
}

/// Set-up of every arm, products dropped: an extra `setup_s` sample.
pub fn setup_only(p: &Params, env: &mut Env) {
    for _ in ARMS {
        setup_arm(p, env);
    }
}

/// Runs the two arms.
pub fn iterate(p: &Params, env: &mut Env) -> IterOut {
    let mut net = NetCounters::default();
    let mut reports: Vec<SwarmReport> = Vec::new();
    let mut probe_target: Option<Underlay> = None;
    for (span, tracker) in ARMS {
        let arm_span = env.rec.enter(span);
        let underlay = setup_arm(p, env);
        let cfg = p.config(tracker);
        let (report, underlay) = env.rec.run("bittorrent.run_swarm", || {
            run_swarm_with(underlay, cfg, env.seed ^ 0x5A3, &mut env.tracer)
        });
        env.rec.exit(arm_span);
        net.absorb(&underlay);
        reports.push(report);
        if env.probes && tracker == TrackerPolicy::Random {
            probe_target = Some(underlay);
        }
    }

    let piece_bytes = SwarmConfig::default().piece_bytes;
    let mut digest = Digest::new();
    let mut checks = Checks::default();
    for ((span, _), r) in ARMS.iter().zip(&reports) {
        digest
            .label(span)
            .u64(r.completed as u64)
            .u64(u64::from(r.rounds))
            .f64(r.intra_as_fraction)
            .u64(r.payload_bytes)
            .u64(r.announces)
            .u64(r.reannounces)
            .f64(r.completion_secs.iter().sum());
        for &done in &r.completed_by_round {
            digest.u64(done as u64);
        }
        checks.check(r.completed == r.leechers, || {
            format!(
                "{span}: {} of {} leechers completed",
                r.completed, r.leechers
            )
        });
    }
    net.digest(&mut digest);
    let (random, bns) = (&reports[0], &reports[1]);
    checks.check(
        bns.intra_as_fraction >= 10.0 * random.intra_as_fraction,
        || {
            format!(
                "BNS intra-AS share {:.4} below 10 x random {:.4}",
                bns.intra_as_fraction, random.intra_as_fraction
            )
        },
    );
    let units: u64 = reports.iter().map(|r| r.payload_bytes / piece_bytes).sum();
    let rounds: u64 = reports.iter().map(|r| u64::from(r.rounds)).sum();

    match env.pass {
        Pass::Plain => {
            let (rec, ledger) = (&env.rec, &mut env.ledger);
            net.write(rec, ledger);
            let swarm_s = rec.secs("bittorrent.run_swarm");
            let payload: u64 = reports.iter().map(|r| r.payload_bytes).sum();
            let intra: f64 = reports
                .iter()
                .map(|r| r.intra_as_fraction * r.payload_bytes as f64)
                .sum();
            ledger.insert("bittorrent.rounds", rounds as f64);
            ledger.insert(
                "bittorrent.ns_per_round",
                swarm_s * 1e9 / rounds.max(1) as f64,
            );
            ledger.insert(
                "bittorrent.ns_per_piece",
                swarm_s * 1e9 / units.max(1) as f64,
            );
            ledger.insert(
                "bittorrent.reannounces",
                reports.iter().map(|r| r.reannounces).sum::<u64>() as f64,
            );
            ledger.insert("bittorrent.intra_as_share", intra / payload.max(1) as f64);
        }
        Pass::Buffered => {
            let flows = mean_open_flows(&env.tracer);
            env.ledger.insert("net.flow.flows_per_round", flows);
        }
        Pass::Timed | Pass::Streaming => {}
    }
    if let Some(underlay) = probe_target {
        let probe_span = env.rec.enter("probe");
        probes(p, &underlay, rounds, env.seed, &mut env.ledger);
        env.rec.exit(probe_span);
    }
    IterOut {
        units,
        digest,
        checks,
    }
}

/// Mean size of the flow set at the round boundaries, from the buffered
/// trace: `flow.open` minus `flow.close` so far at each `round` event.
fn mean_open_flows(tracer: &Tracer) -> f64 {
    let (mut open, mut rounds, mut sum) = (0i64, 0u64, 0i64);
    for ev in tracer.events() {
        match (ev.component.as_str(), ev.kind.as_str()) {
            ("net", "flow.open") => open += 1,
            ("net", "flow.close") => open -= 1,
            ("bittorrent", "round") => {
                rounds += 1;
                sum += open;
            }
            _ => {}
        }
    }
    sum as f64 / rounds.max(1) as f64
}

/// Kernel probes on the random arm's underlay at the flow-set size the
/// buffered pass counted.
fn probes(p: &Params, underlay: &Underlay, rounds: u64, seed: u64, ledger: &mut Ledger) {
    let members = p.leechers + p.seeds;
    let mut rng = SimRng::new(seed ^ 0xF10);
    let flows = ledger
        .get("net.flow.flows_per_round")
        .map_or(1, |&f| f.round().max(1.0) as usize);
    // Sender/receiver pairs among swarm members, the population the
    // unchoke sets are drawn from.
    let pairs: Vec<(HostId, HostId)> = (0..flows)
        .map(|_| loop {
            let (a, b) = (rng.index(members), rng.index(members));
            if a != b {
                break (HostId::from_index(a), HostId::from_index(b));
            }
        })
        .collect();
    let mut alloc = FlowAllocator::new(underlay);
    // Fastest of 16: one cycle is tens of milliseconds, long enough for a
    // noisy neighbour to land in it and push the share past 1.
    let cycle_ns = min_ns_per_call(16, || {
        alloc.begin();
        for (id, &(src, dst)) in pairs.iter().enumerate() {
            alloc.add_flow(id as u64, src, dst, underlay);
        }
        alloc.allocate();
    });
    ledger.insert("net.flow.cycle_ns_per_flow", cycle_ns / flows as f64);
    let run_s = ledger.get("scratch.plain_run_s").copied().unwrap_or(0.0);
    if run_s > 0.0 {
        ledger.insert("net.flow.est_share", cycle_ns * rounds as f64 / 1e9 / run_s);
    }

    let swarm: Vec<HostId> = (0..members).map(HostId::from_index).collect();
    let want = SwarmConfig::default().max_peers;
    let mut tracker = Tracker::new(TrackerPolicy::Bns {
        internal: 16,
        external: 4,
    });
    let mut out = Vec::new();
    let mut who = 0usize;
    let announce_ns = ns_per_call(2_000, || {
        who = (who + 1) % members;
        tracker.announce_into(
            underlay,
            HostId::from_index(who),
            &swarm,
            want,
            &mut rng,
            &mut out,
        );
    });
    ledger.insert("bittorrent.announce_ns", announce_ns);

    routing_probe(underlay, ledger);
    ledger.insert(
        "net.underlay.latency_ns_per_query",
        super::latency_probe(underlay, seed),
    );
}
