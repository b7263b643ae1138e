//! End-to-end integration: the full collection → usage pipeline across
//! crates, driven through the public façade.

use underlay_p2p::coords::VivaldiConfig;
use underlay_p2p::core::{AwarenessProfile, CollectionTechnique, InfoType, UsageStrategy};
use underlay_p2p::info::provider::{IspLocator, ProximityEstimator};
use underlay_p2p::info::{Ip2IspService, Oracle, VivaldiService};
use underlay_p2p::net::{HostId, NetParams, Underlay};
use underlay_p2p::sim::SimRng;

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

#[test]
fn isp_location_pipeline_ip_mapping_plus_oracle() {
    // Profile: ISP-location collected via IP-to-ISP mapping, used for
    // biased neighbor selection.
    let profile = AwarenessProfile {
        info: InfoType::IspLocation,
        collection: CollectionTechnique::IpToIspMapping,
        usage: UsageStrategy::BiasedNeighborSelection,
    };
    assert!(profile.validate().is_ok());

    let u = build_underlay(5, 200);
    let mut mapping = Ip2IspService::build(&u, 1.0, SimRng::new(6));
    let mut oracle = Oracle::new(1000);
    let querier = HostId(0);
    let candidates: Vec<HostId> = u.hosts.ids().filter(|&h| h != querier).collect();
    // The mapping service and the oracle must agree on who is local.
    let ranked = oracle.rank(&u, querier, &candidates);
    let my_as = mapping.isp_of(querier);
    let n_local = candidates
        .iter()
        .filter(|&&c| mapping.isp_of(c) == my_as)
        .count();
    assert!(n_local > 0, "fixture needs same-AS candidates");
    for &top in ranked.iter().take(n_local) {
        assert_eq!(mapping.isp_of(top), my_as);
    }
}

#[test]
fn latency_pipeline_vivaldi_vs_ground_truth() {
    // Profile: latency collected via Vivaldi, used for latency-aware
    // overlay construction.
    let profile = AwarenessProfile {
        info: InfoType::Latency,
        collection: CollectionTechnique::VivaldiCoordinates,
        usage: UsageStrategy::LatencyAwareOverlay,
    };
    assert!(profile.validate().is_ok());

    let u = build_underlay(7, 120);
    let mut rng = SimRng::new(8);
    let mut vivaldi = VivaldiService::new(u.n_hosts(), VivaldiConfig::default());
    vivaldi.converge(&u, 40, 4, &mut rng);

    // Neighbor selection through the generic ProximityEstimator interface:
    // the top-8 predicted must have a far lower true RTT than a random 8.
    let from = HostId(0);
    let candidates: Vec<HostId> = (1..120).map(HostId).collect();
    let ranked = vivaldi.rank(from, &candidates, &mut rng);
    let mean_rtt = |hs: &[HostId]| {
        hs.iter()
            .map(|&h| u.rtt_us(from, h).unwrap() as f64)
            .sum::<f64>()
            / hs.len() as f64
    };
    let top = mean_rtt(&ranked[..8]);
    let all = mean_rtt(&candidates);
    assert!(
        top < 0.7 * all,
        "predicted-nearest mean RTT {top} not well below population mean {all}"
    );
}

#[test]
fn invalid_profiles_are_rejected() {
    // GPS cannot collect latency; superpeer selection does not consume
    // geolocation. The framework must refuse both.
    assert!(AwarenessProfile {
        info: InfoType::Latency,
        collection: CollectionTechnique::Gps,
        usage: UsageStrategy::LatencyAwareOverlay,
    }
    .validate()
    .is_err());
    assert!(AwarenessProfile {
        info: InfoType::Geolocation,
        collection: CollectionTechnique::Gps,
        usage: UsageStrategy::SuperpeerSelection,
    }
    .validate()
    .is_err());
}

#[test]
fn degraded_mapping_accuracy_degrades_locality_decisions() {
    let u = build_underlay(9, 150);
    let precision_with = |accuracy: f64| {
        let mut mapping = Ip2IspService::build(&u, accuracy, SimRng::new(10));
        let mut correct = 0usize;
        let mut total = 0usize;
        for h in u.hosts.ids() {
            total += 1;
            if mapping.isp_of(h) == u.hosts.as_of(h) {
                correct += 1;
            }
        }
        correct as f64 / total as f64
    };
    let perfect = precision_with(1.0);
    let sloppy = precision_with(0.6);
    assert_eq!(perfect, 1.0);
    assert!(sloppy < 0.8 && sloppy > 0.4, "sloppy precision {sloppy}");
}
