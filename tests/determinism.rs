//! Reproducibility: every experiment harness is a pure function of its
//! parameters and seed. Two invocations must agree to the last digit —
//! this is what makes the EXPERIMENTS.md numbers regenerable.

use std::fmt::Write as _;
use underlay_p2p::bittorrent::{run_swarm, SwarmConfig, TrackerPolicy};
use underlay_p2p::core::experiments::{
    e01_hierarchy, e02_cost, e04_messages, e05_clustering, e09_kademlia,
};
use underlay_p2p::gnutella::{run_experiment, GnutellaConfig, NeighborSelection};
use underlay_p2p::kademlia::{DhtConfig, DhtNetwork, Key, ProximityMode};
use underlay_p2p::net::{HostId, NetParams, Underlay};
use underlay_p2p::sim::{SimRng, SimTime};

#[test]
fn e01_census_is_deterministic() {
    let p = e01_hierarchy::Params::quick(3);
    let a = e01_hierarchy::run(&p);
    let b = e01_hierarchy::run(&p);
    assert_eq!(a.table.render(), b.table.render());
}

#[test]
fn e02_cost_is_deterministic() {
    let a = e02_cost::run(&e02_cost::Params::full());
    let b = e02_cost::run(&e02_cost::Params::full());
    assert_eq!(a.table.to_csv(), b.table.to_csv());
}

#[test]
fn e04_messages_is_deterministic() {
    let mut p = e04_messages::Params::quick(5);
    p.duration = underlay_p2p::sim::SimTime::from_mins(4);
    let a = e04_messages::run(&p);
    let b = e04_messages::run(&p);
    assert_eq!(a.table.to_csv(), b.table.to_csv());
}

#[test]
fn e05_clustering_is_deterministic() {
    let mut p = e05_clustering::Params::quick(6);
    p.duration = underlay_p2p::sim::SimTime::from_mins(3);
    let a = e05_clustering::run(&p);
    let b = e05_clustering::run(&p);
    assert_eq!(a.table.to_csv(), b.table.to_csv());
    assert_eq!(a.snapshots[0].edges, b.snapshots[0].edges);
}

#[test]
fn e09_kademlia_is_deterministic() {
    let mut p = e09_kademlia::Params::quick(7);
    p.lookups = 30;
    let a = e09_kademlia::run(&p);
    let b = e09_kademlia::run(&p);
    assert_eq!(a.table.to_csv(), b.table.to_csv());
}

fn build_underlay(seed: u64, n: usize) -> Underlay {
    NetParams {
        tier1: 2,
        tier2_per_tier1: 2,
        tier3_per_tier2: 3,
        n_hosts: n,
        seed,
    }
    .build()
}

/// Renders a float so the comparison is bit-exact, not display-rounded.
fn f(v: f64) -> String {
    format!("{v:?}/{:016x}", v.to_bits())
}

/// Runs all three overlay substrates from one master seed and serialises
/// every metric they produce — counters verbatim, floats by bit pattern —
/// into one report string. Any nondeterminism anywhere in the stack
/// (iteration order, RNG draw order, float accumulation order) shows up
/// as a byte difference between two renderings.
fn cross_substrate_report(seed: u64) -> String {
    let mut out = String::new();

    // Gnutella: full §4 pipeline on its own underlay.
    let cfg = GnutellaConfig {
        selection: NeighborSelection::OracleBiased { list_size: 1000 },
        oracle_at_file_exchange: true,
        duration: SimTime::from_mins(5),
        ..Default::default()
    };
    let (gr, world) = run_experiment(build_underlay(seed, 120), cfg, seed);
    let _ = writeln!(
        out,
        "gnutella ping={} pong={} query={} hit={} issued={} ok={} dl={} dl_intra={} qdelay={} dsecs={} locality={}",
        gr.ping_msgs,
        gr.pong_msgs,
        gr.query_msgs,
        gr.queryhit_msgs,
        gr.queries_issued,
        gr.queries_successful,
        gr.downloads,
        gr.downloads_intra_as,
        f(gr.mean_query_delay_ms),
        f(gr.mean_download_secs),
        f(world.underlay.traffic.locality_fraction()),
    );

    // Kademlia: a lookup workload over a PNS+PR table.
    let mut rng = SimRng::new(seed ^ 0xD17);
    let mut net = DhtNetwork::build(
        build_underlay(seed ^ 0xD17, 96),
        DhtConfig {
            proximity: ProximityMode::PnsPr,
            ..Default::default()
        },
        &mut rng,
    );
    net.underlay.reset_traffic();
    let (mut rpcs, mut inter, mut hops, mut rounds, mut lat) = (0u64, 0u64, 0u64, 0u32, 0u64);
    for i in 0..25u32 {
        let k = Key::random(&mut rng);
        let o = net.lookup(HostId(i % 96), &k, &mut rng);
        rpcs += o.rpcs;
        inter += o.inter_as_rpcs;
        hops += o.as_hops_sum;
        rounds += o.rounds;
        lat += o.latency_us;
    }
    let (ki, kp, kt) = net.underlay.traffic.totals();
    let _ = writeln!(
        out,
        "kademlia rpcs={rpcs} inter={inter} hops={hops} rounds={rounds} lat_us={lat} bytes={ki}/{kp}/{kt} locality={}",
        f(net.underlay.traffic.locality_fraction()),
    );

    // BitTorrent: a BNS-trackered swarm.
    let cfg = SwarmConfig {
        n_leechers: 40,
        n_seeds: 3,
        n_pieces: 24,
        tracker: TrackerPolicy::Bns {
            internal: 12,
            external: 4,
        },
        ..Default::default()
    };
    let (br, u) = run_swarm(build_underlay(seed ^ 0xB17, 70), cfg, seed ^ 0xB17);
    let (bi, bp, bt) = u.traffic.totals();
    let _ = writeln!(
        out,
        "bittorrent completed={}/{} rounds={} payload={} announces={} intra={} mean={} median={} bytes={bi}/{bp}/{bt} times={}",
        br.completed,
        br.leechers,
        br.rounds,
        br.payload_bytes,
        br.announces,
        f(br.intra_as_fraction),
        f(br.mean_completion_secs()),
        f(br.median_completion_secs()),
        br.completion_secs.iter().map(|&t| f(t)).collect::<Vec<_>>().join(","),
    );
    out
}

/// The tentpole acceptance case: one seed drives all three substrates
/// twice, and the two metric reports must be byte-identical.
#[test]
fn cross_substrate_workloads_are_deterministic() {
    let a = cross_substrate_report(9);
    let b = cross_substrate_report(9);
    assert_eq!(a, b, "cross-substrate reports diverged");
    // And the report actually contains every substrate.
    for sub in ["gnutella", "kademlia", "bittorrent"] {
        assert!(a.contains(sub), "report missing {sub} section:\n{a}");
    }
}

#[test]
fn cross_substrate_report_is_seed_sensitive() {
    assert_ne!(cross_substrate_report(9), cross_substrate_report(10));
}

#[test]
fn different_seeds_give_different_runs() {
    let mut p1 = e04_messages::Params::quick(100);
    let mut p2 = e04_messages::Params::quick(101);
    p1.duration = underlay_p2p::sim::SimTime::from_mins(4);
    p2.duration = underlay_p2p::sim::SimTime::from_mins(4);
    let a = e04_messages::run(&p1);
    let b = e04_messages::run(&p2);
    assert_ne!(a.table.to_csv(), b.table.to_csv());
}
