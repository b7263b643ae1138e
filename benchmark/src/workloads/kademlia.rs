//! `kademlia_proximity` — proximity neighbour selection in Kademlia
//! (Kaune et al., the inter-AS RPC cut the survey cites).
//!
//! No event engine and no flows: host time is k-bucket work plus
//! cache-missing `Underlay::latency_us` reads on the large topology's
//! route cache, and set-up (underlay build + DHT bootstrap per arm) is a
//! sizeable part of the iteration — so a shared-underlay or faster-build
//! change shows here and nowhere else.

use super::{build_underlay, latency_probe, routing_probe, NetCounters, Topo};
use crate::digest::Digest;
use crate::harness::{Checks, Env, IterOut, Pass};
use uap_kademlia::{DhtConfig, DhtNetwork, Key, ProximityMode};
use uap_net::host::AttachmentDist;
use uap_net::{HostId, PopulationSpec, Tier};
use uap_sim::SimRng;

/// Sizing constants.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Underlay shape.
    pub topo: Topo,
    /// DHT nodes (one per host).
    pub hosts: usize,
    /// Lookups per arm, from seeded random origins to seeded random keys.
    pub lookups: usize,
    /// Values stored and then retrieved per arm.
    pub stores: usize,
}

impl Params {
    /// The measured scale.
    pub fn full() -> Params {
        Params {
            topo: Topo::LARGE,
            hosts: 4_096,
            lookups: 6_000,
            stores: 200,
        }
    }

    /// Roughly one tenth of the work.
    pub fn smoke() -> Params {
        Params {
            topo: Topo::SMOKE_LARGE,
            hosts: 1_024,
            lookups: 1_200,
            stores: 40,
        }
    }

    /// Seconds in a debug build: for the package's own tests.
    #[cfg(test)]
    pub fn tiny() -> Params {
        Params {
            topo: Topo::SMOKE_MID,
            hosts: 96,
            lookups: 60,
            stores: 8,
        }
    }
}

const ARMS: [(&str, ProximityMode); 3] = [
    ("arm.vanilla", ProximityMode::None),
    ("arm.pns", ProximityMode::Pns),
    ("arm.pns_pr", ProximityMode::PnsPr),
];

/// E9's heavy-tailed AS population: Zipf-like weights over the leaf ASes,
/// so a few big consumer ISPs hold most peers. Uniform AS sizes would cap
/// same-AS contact opportunities at 1-2 % and hide the technique.
fn heavy_tailed(graph: &uap_net::AsGraph, hosts: usize) -> PopulationSpec {
    let weights = graph
        .nodes
        .iter()
        .enumerate()
        .map(|(i, n)| {
            if n.tier == Tier::Tier3 {
                1.0 / (1.0 + (i % 7) as f64).powf(1.2)
            } else {
                0.0
            }
        })
        .collect();
    PopulationSpec {
        n: hosts,
        attachment: AttachmentDist::Weighted(weights),
    }
}

#[derive(Default)]
struct ArmOut {
    lookups: u64,
    rpcs: u64,
    inter_as_rpcs: u64,
    as_hops_sum: u64,
    rounds: u64,
    latency_us: u64,
    retransmits: u64,
    replicas: u64,
    retrieved: u64,
    retrieve_attempts: u64,
    exact: u64,
    table_as_hops: f64,
}

impl ArmOut {
    fn absorb(&mut self, out: &uap_kademlia::LookupOutcome) {
        self.lookups += 1;
        self.rpcs += out.rpcs;
        self.inter_as_rpcs += out.inter_as_rpcs;
        self.as_hops_sum += out.as_hops_sum;
        self.rounds += u64::from(out.rounds);
        self.latency_us += out.latency_us;
        self.retransmits += out.retransmits;
    }

    fn inter_as_share(&self) -> f64 {
        self.inter_as_rpcs as f64 / self.rpcs.max(1) as f64
    }
}

/// Set-up of one arm: topology, underlay and the bootstrapped DHT.
fn setup_arm(p: &Params, mode: ProximityMode, env: &mut Env) -> (DhtNetwork, SimRng) {
    let underlay = build_underlay(&mut env.rec, p.topo, env.seed, |g| heavy_tailed(g, p.hosts));
    let mut rng = SimRng::new(env.seed ^ 0xE9);
    let cfg = DhtConfig {
        proximity: mode,
        ..Default::default()
    };
    let net = env.rec.setup("kademlia.bootstrap", || {
        DhtNetwork::build(underlay, cfg, &mut rng)
    });
    (net, rng)
}

/// Set-up of every arm, products dropped: an extra `setup_s` sample.
pub fn setup_only(p: &Params, env: &mut Env) {
    for (_, mode) in ARMS {
        setup_arm(p, mode, env);
    }
}

fn run_arm(
    p: &Params,
    span: &'static str,
    mode: ProximityMode,
    env: &mut Env,
    net_counters: &mut NetCounters,
) -> ArmOut {
    let arm_span = env.rec.enter(span);
    let (mut net, mut rng) = setup_arm(p, mode, env);
    // Joins stay untraced, as in E9; the tracer sees the lookup phases.
    net.tracer = std::mem::take(&mut env.tracer);
    net.underlay.reset_traffic();
    let n = net.len();

    // Inputs are drawn before the timed phase so key generation is not
    // charged to the DHT.
    let lookups: Vec<(HostId, Key)> = (0..p.lookups)
        .map(|_| (HostId::from_index(rng.index(n)), Key::random(&mut rng)))
        .collect();
    let stores: Vec<(HostId, HostId, Key)> = (0..p.stores)
        .map(|i| {
            (
                HostId::from_index(rng.index(n)),
                HostId::from_index(rng.index(n)),
                Key::hash_of(format!("bench-key-{i}").as_bytes()),
            )
        })
        .collect();

    let mut out = ArmOut::default();
    // Which lookups converged on the true closest node is ground truth
    // the harness computes (a scan over all nodes per lookup), so it runs
    // only when probing and outside the run span.
    let mut heads: Vec<Option<Key>> = Vec::new();
    env.rec.run("kademlia.lookups", || {
        for (from, target) in &lookups {
            let found = net.lookup(*from, target, &mut rng);
            out.absorb(&found);
            if env.probes {
                heads.push(found.closest.first().map(|c| c.key));
            }
        }
    });
    env.rec.run("kademlia.store_retrieve", || {
        for (i, (writer, _, key)) in stores.iter().enumerate() {
            let (found, written) = net.store(*writer, key, i as u64, &mut rng);
            out.absorb(&found);
            out.replicas += written as u64;
        }
        for (i, (_, reader, key)) in stores.iter().enumerate() {
            let (found, value) = net.retrieve(*reader, key, &mut rng);
            out.absorb(&found);
            out.retrieve_attempts += 1;
            out.retrieved += u64::from(value == Some(i as u64));
        }
    });
    out.table_as_hops = env.rec.run("kademlia.report", || net.mean_table_as_hops());
    env.tracer = std::mem::take(&mut net.tracer);
    env.rec.exit(arm_span);
    net_counters.absorb(&net.underlay);

    if env.probes {
        let probe_span = env.rec.enter("probe");
        // `DhtNetwork::true_closest` sorts every key per call; one pass
        // for the minimum gives the same head far cheaper.
        let keys: Vec<Key> = (0..n)
            .map(HostId::from_index)
            .filter(|&h| net.is_online(h))
            .map(|h| net.key_of(h))
            .collect();
        out.exact = lookups
            .iter()
            .zip(&heads)
            .filter(|((_, target), head)| {
                keys.iter()
                    .copied()
                    .min_by(|a, b| target.cmp_distance(a, b))
                    == **head
            })
            .count() as u64;
        if mode == ProximityMode::None {
            routing_probe(&net.underlay, &mut env.ledger);
            env.ledger.insert(
                "net.underlay.latency_ns_per_query",
                latency_probe(&net.underlay, env.seed),
            );
        }
        env.rec.exit(probe_span);
    }
    out
}

/// Runs the three arms.
pub fn iterate(p: &Params, env: &mut Env) -> IterOut {
    let mut net = NetCounters::default();
    let outs: Vec<ArmOut> = ARMS
        .iter()
        .map(|&(span, mode)| run_arm(p, span, mode, env, &mut net))
        .collect();

    let mut digest = Digest::new();
    let mut checks = Checks::default();
    for (&(span, _), o) in ARMS.iter().zip(&outs) {
        digest
            .label(span)
            .u64(o.lookups)
            .u64(o.rpcs)
            .u64(o.inter_as_rpcs)
            .u64(o.as_hops_sum)
            .u64(o.rounds)
            .u64(o.latency_us)
            .u64(o.retransmits)
            .u64(o.replicas)
            .u64(o.retrieved)
            .f64(o.table_as_hops);
        checks.check(o.retrieved == o.retrieve_attempts, || {
            format!(
                "{span}: {} of {} retrieves returned the stored value",
                o.retrieved, o.retrieve_attempts
            )
        });
    }
    net.digest(&mut digest);
    let vanilla = &outs[0];
    for (&(span, _), o) in ARMS.iter().zip(&outs).skip(1) {
        checks.check(o.inter_as_share() < vanilla.inter_as_share(), || {
            format!(
                "{span}: inter-AS RPC share {:.4} must be below vanilla {:.4}",
                o.inter_as_share(),
                vanilla.inter_as_share()
            )
        });
    }
    let units: u64 = outs.iter().map(|o| o.rpcs).sum();

    let sum = |f: fn(&ArmOut) -> u64| outs.iter().map(f).sum::<u64>() as f64;
    if env.pass == Pass::Plain {
        let (rec, ledger) = (&env.rec, &mut env.ledger);
        net.write(rec, ledger);
        let bootstrap_s = rec.secs("kademlia.bootstrap");
        ledger.insert("kademlia.bootstrap_s", bootstrap_s);
        ledger.insert(
            "kademlia.bootstrap_ns_per_host",
            bootstrap_s * 1e9 / (p.hosts * ARMS.len()) as f64,
        );
        let lookup_s = rec.secs("kademlia.lookups") + rec.secs("kademlia.store_retrieve");
        ledger.insert(
            "kademlia.lookup_ns_per_rpc",
            lookup_s * 1e9 / units.max(1) as f64,
        );
        ledger.insert(
            "kademlia.rpcs_per_lookup",
            units as f64 / sum(|o| o.lookups).max(1.0),
        );
        ledger.insert(
            "kademlia.retransmit_share",
            sum(|o| o.retransmits) / units.max(1) as f64,
        );
    }
    if env.probes {
        env.ledger.insert(
            "kademlia.exact_share",
            sum(|o| o.exact) / (p.lookups * ARMS.len()) as f64,
        );
    }
    IterOut {
        units,
        digest,
        checks,
    }
}
