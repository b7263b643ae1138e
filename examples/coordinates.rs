//! Network coordinates: the paper's Figure-4 ICS worked example, then
//! Vivaldi and ICS racing on a simulated underlay.
//!
//! ```sh
//! cargo run --release --example coordinates
//! ```

use underlay_p2p::core::experiments::e03_coordinates::example_table;
use underlay_p2p::info::{IcsService, VivaldiService};
use underlay_p2p::net::{
    HostId, PopulationSpec, TopologyKind, TopologySpec, Underlay, UnderlayConfig,
};
use underlay_p2p::sim::SimRng;

fn build_underlay(seed: u64) -> Underlay {
    let mut rng = SimRng::new(seed);
    let graph = TopologySpec::new(TopologyKind::Hierarchical {
        tier1: 2,
        tier2_per_tier1: 3,
        tier3_per_tier2: 3,
        tier2_peering_prob: 0.3,
        tier3_peering_prob: 0.3,
    })
    .build(&mut rng);
    Underlay::build(
        graph,
        &PopulationSpec::leaf(200),
        UnderlayConfig {
            jitter: 0.05,
            ..Default::default()
        },
        &mut rng,
    )
}

fn main() {
    // Part 1: the published worked example, byte for byte.
    println!("{}", example_table().render());

    // Part 2: both predictors on a live underlay.
    let underlay = build_underlay(23);
    let mut rng = SimRng::new(23);

    let ics = IcsService::build(&underlay, 12, 5, &mut rng);
    let q_ics = ics.quality(&underlay, 1_000, &mut rng);

    let mut vivaldi = VivaldiService::new(underlay.n_hosts());
    vivaldi.converge(&underlay, 50, 4, &mut rng);
    let q_viv = vivaldi.quality(&underlay, 1_000, &mut rng);

    println!("== prediction accuracy on a 200-host underlay ==");
    println!(
        "ICS (12 beacons, 5 dims):  median rel. err {:.3}, p90 {:.3}",
        q_ics.median_rel_err, q_ics.p90_rel_err
    );
    println!(
        "Vivaldi (50 gossip rounds): median rel. err {:.3}, p90 {:.3}",
        q_viv.median_rel_err, q_viv.p90_rel_err
    );

    // Part 3: use a prediction: who is closest to host 0?
    let from = HostId(0);
    let mut best = (HostId(1), f64::INFINITY);
    for h in underlay.hosts.ids().skip(1) {
        let p = vivaldi.predict_us(from, h);
        if p < best.1 {
            best = (h, p);
        }
    }
    #[expect(
        clippy::expect_used,
        reason = "an example: both hosts share the underlay"
    )]
    let truth = underlay
        .rtt_us(from, best.0)
        .expect("hosts share the underlay") as f64;
    println!(
        "\nVivaldi says {} is closest to {} (predicted {:.1} ms; true RTT {:.1} ms)",
        best.0,
        from,
        best.1 / 1_000.0,
        truth / 1_000.0
    );
    println!("…and not a single extra ping was sent to find out.");
}
