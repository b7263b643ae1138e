//! Quickstart: build an Internet-like underlay, run unbiased vs
//! oracle-biased Gnutella on it, and see what underlay awareness buys.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use underlay_p2p::core::graphstats::OverlayStats;
use underlay_p2p::gnutella::{run_experiment, GnutellaConfig, NeighborSelection};
use underlay_p2p::net::{NetParams, Underlay};
use underlay_p2p::sim::SimTime;

fn build_underlay(seed: u64) -> Underlay {
    // A small Internet: 2 global carriers, 4 regionals, 16 local ISPs,
    // and 300 residential peers attached to the local ISPs.
    NetParams {
        tier1: 2,
        tier2_per_tier1: 2,
        tier3_per_tier2: 4,
        n_hosts: 300,
        seed,
    }
    .build()
}

fn main() {
    println!("== underlay-p2p quickstart ==\n");
    for (label, selection) in [
        ("unbiased (random neighbors)", NeighborSelection::Random),
        (
            "oracle-biased (ISP ranks the hostcache)",
            NeighborSelection::OracleBiased { list_size: 1000 },
        ),
    ] {
        let cfg = GnutellaConfig {
            selection,
            oracle_at_file_exchange: false,
            duration: SimTime::from_mins(10),
            ..Default::default()
        };
        let (report, world) = run_experiment(build_underlay(7), cfg, 7);
        let stats = OverlayStats::compute(&world.underlay, &report.edges);
        let (intra, peering, transit) = world.underlay.traffic.totals();
        println!("--- {label} ---");
        println!("{report}");
        println!(
            "  overlay: {} edges, {:.1}% intra-AS, modularity {:.2}",
            stats.edges,
            100.0 * stats.intra_fraction(),
            stats.as_modularity
        );
        println!(
            "  download traffic: {:.1} MB intra-AS, {:.1} MB over peering, {:.1} MB over transit\n",
            intra as f64 / 1e6,
            peering as f64 / 1e6,
            transit as f64 / 1e6
        );
    }
    println!("The oracle run should show fewer messages, a clustered overlay,");
    println!("and traffic shifted off the (billed) transit links — the core");
    println!("claims of the surveyed ISP-location techniques.");
}
