//! Resource-aware superpeer selection with a SkyEye.KOM-style information
//! management overlay (§2.3/§3.4): promote the right peers to ultrapeer
//! and watch search performance move.
//!
//! ```sh
//! cargo run --release --example supernode_selection
//! ```

use underlay_p2p::gnutella::{
    run_experiment_with, GnutellaConfig, NeighborSelection, RoleAssignment,
};
use underlay_p2p::info::provider::ResourceDirectory;
use underlay_p2p::info::SkyEyeTree;
use underlay_p2p::net::{NetParams, Underlay};
use underlay_p2p::sim::{SimTime, Tracer};

fn build_underlay(seed: u64) -> Underlay {
    NetParams {
        tier1: 2,
        tier2_per_tier1: 2,
        tier3_per_tier2: 3,
        n_hosts: 240,
        seed,
    }
    .build()
}

fn main() {
    // Part 1: the information management overlay itself.
    let underlay = build_underlay(41);
    let members: Vec<_> = underlay.hosts.ids().collect();
    let mut tree = SkyEyeTree::build(&underlay, members, 4, 16);
    tree.run_round();
    println!("== SkyEye-style resource directory ==");
    println!(
        "aggregated {} peers in one round ({} messages); global stats: mean capacity {:.2}, {:.0} GB shared",
        tree.stats().members,
        tree.overhead_messages(),
        tree.stats().mean_capacity,
        tree.stats().total_storage_gb
    );
    println!("top-5 capacity peers (supernode candidates):");
    for h in tree.top_k(5) {
        let host = underlay.host(h);
        println!(
            "  {h}: {:.0} kbps up, cpu {:.1}, online {:.0}% -> score {:.2}",
            host.up_kbps,
            host.cpu,
            100.0 * host.online_fraction,
            host.capacity_score()
        );
    }

    // Part 2: what role assignment does to the overlay under churn.
    println!("\n== ultrapeer promotion policies under churn ==");
    for (label, roles) in [
        ("every 3rd peer (blind)", RoleAssignment::EveryKth(3)),
        (
            "top 1/3 by capacity (resource-aware)",
            RoleAssignment::CapacityTopFraction(1.0 / 3.0),
        ),
    ] {
        let cfg = GnutellaConfig {
            selection: NeighborSelection::Random,
            roles,
            churn: underlay_p2p::sim::ChurnConfig::exponential(600.0),
            duration: SimTime::from_mins(15),
            ..Default::default()
        };
        let (report, _) = run_experiment_with(build_underlay(41), cfg, 41, &mut Tracer::disabled());
        println!(
            "  {label}: search success {:.1}%, mean first hit {:.0} ms, mean download {:.1}s",
            100.0 * report.success_ratio(),
            report.mean_query_delay_ms,
            report.mean_download_secs
        );
    }
    println!("\nResource-aware promotion puts stable, well-provisioned peers in");
    println!("the backbone — 'different roles in the network are taken by");
    println!("appropriate nodes', as §2.3 puts it.");
}
