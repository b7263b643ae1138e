//! An ISP-friendly BitTorrent swarm: biased neighbor selection at the
//! tracker (Bindal et al.) and what it does to the ISPs' transit bills
//! under the paper's Figure-2 cost model.
//!
//! ```sh
//! cargo run --release --example isp_friendly_swarm
//! ```

use underlay_p2p::bittorrent::{run_swarm_with, SwarmConfig, TrackerPolicy, ROUND};
use underlay_p2p::net::cost::{bill_all, total_transit_usd};
use underlay_p2p::net::{
    CostParams, PopulationSpec, TopologyKind, TopologySpec, Underlay, UnderlayConfig,
};
use underlay_p2p::sim::{SimRng, Tracer};

fn build_underlay(seed: u64) -> Underlay {
    let mut rng = SimRng::new(seed);
    let graph = TopologySpec::new(TopologyKind::Hierarchical {
        tier1: 2,
        tier2_per_tier1: 2,
        tier3_per_tier2: 3,
        tier2_peering_prob: 0.4,
        tier3_peering_prob: 0.4,
    })
    .build(&mut rng);
    Underlay::build(
        graph,
        &PopulationSpec::leaf(160),
        UnderlayConfig::default(),
        &mut rng,
    )
}

fn main() {
    println!("== ISP-friendly swarm ==\n");
    println!(
        "tariffs: ${}/Mbps transit (95th percentile), ${} flat per peering port\n",
        CostParams::TRANSIT_USD_PER_MBPS,
        CostParams::PEERING_FLAT_USD
    );
    for (label, tracker) in [
        ("vanilla tracker (random peers)", TrackerPolicy::Random),
        (
            "BNS tracker (16 internal + 4 external)",
            TrackerPolicy::Bns {
                internal: 16,
                external: 4,
            },
        ),
        ("cost-aware tracker", TrackerPolicy::CostAware),
    ] {
        let cfg = SwarmConfig {
            n_leechers: 120,
            n_seeds: 8,
            n_pieces: 64,
            tracker,
            ..Default::default()
        };
        let (report, underlay) =
            run_swarm_with(build_underlay(11), cfg, 11, &mut Tracer::disabled());
        let horizon = ROUND.mul(report.rounds as u64);
        let bills = bill_all(&underlay.graph, &underlay.traffic, &CostParams, horizon);
        println!("--- {label} ---");
        println!(
            "  completed {}/{} leechers, mean {:.0}s / median {:.0}s",
            report.completed,
            report.leechers,
            report.mean_completion_secs(),
            report.median_completion_secs()
        );
        println!(
            "  payload locality: {:.1}% of bytes stayed inside an AS",
            100.0 * report.intra_as_fraction
        );
        println!(
            "  summed ISP transit bill: ${:.0}/month-equivalent\n",
            total_transit_usd(&bills)
        );
    }
    println!("BNS keeps the swarm almost as fast while most payload bytes");
    println!("never touch a billed transit link — the win-win the paper's");
    println!("§5 'benefits and impacts' section describes.");
}
