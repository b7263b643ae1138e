//! The route table against its oracle at benchmark scale.
//!
//! The 1 055-AS hierarchy the `underlay_scale` and `kademlia_proximity`
//! workloads route over (5 tier-1, 10 tier-2 per tier-1, 20 tier-3 per
//! tier-2, peering probability 0.3 at both lower tiers, seed 42), built by
//! the production sweep and by [`ReferenceRouting`]'s heap-ordered
//! Dijkstra, compared pair by pair: once with the generator's latencies
//! and once with every link at the same latency, where the tie-break by
//! state index decides most paths. Release-only (the debug build is
//! about fifty times slower); run it with
//!
//! ```text
//! cargo test --release -p uap-net --test scale_oracle
//! ```

use uap_net::{AsGraph, AsId, ReferenceRouting, Routing, RoutingMode, TopologyKind, TopologySpec};
use uap_sim::SimRng;

fn benchmark_hierarchy() -> AsGraph {
    TopologySpec::new(TopologyKind::Hierarchical {
        tier1: 5,
        tier2_per_tier1: 10,
        tier3_per_tier2: 20,
        tier2_peering_prob: 0.3,
        tier3_peering_prob: 0.3,
    })
    .build(&mut SimRng::new(42))
}

/// Every ordered pair's hops, latency, path and transit count, from the
/// table and from the oracle; returns the number of reachable pairs.
fn assert_matches_reference(g: &AsGraph, mode: RoutingMode) -> usize {
    let table = Routing::compute(g, mode);
    let refr = ReferenceRouting::compute(g, mode, None);
    let mut reachable = 0;
    for a in 0..g.len() {
        for b in 0..g.len() {
            let (a, b) = (AsId::from_index(a), AsId::from_index(b));
            let route = table.route(a, b);
            let got = (
                route.map(|r| r.hops),
                route.map(|r| r.latency_us),
                route.map(|r| r.transit_links),
            );
            let want = (
                refr.as_hops(a, b),
                refr.latency_us(a, b),
                refr.transit_links(g, a, b),
            );
            assert_eq!(got, want, "{mode:?} {a}->{b}");
            assert_eq!(
                table.path_links(a, b).map(<[u32]>::to_vec),
                refr.path_links(a, b),
                "{mode:?} path {a}->{b}"
            );
            reachable += usize::from(route.is_some());
        }
    }
    reachable
}

#[test]
#[cfg_attr(debug_assertions, ignore = "full scale; run with --release")]
fn benchmark_hierarchy_matches_reference_on_every_pair() {
    let mut g = benchmark_hierarchy();
    assert_eq!(g.len(), 1_055);
    for mode in [RoutingMode::ValleyFree, RoutingMode::ShortestPath] {
        let reachable = assert_matches_reference(&g, mode);
        assert_eq!(reachable, g.len() * g.len(), "{mode:?}");
    }
    for link in &mut g.links {
        link.latency_us = 1_000;
    }
    for mode in [RoutingMode::ValleyFree, RoutingMode::ShortestPath] {
        assert_matches_reference(&g, mode);
    }
}
