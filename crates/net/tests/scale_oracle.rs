//! Two optimised paths against their oracles at benchmark scale.
//!
//! The route table: the 1 055-AS hierarchy the `underlay_scale` and
//! `kademlia_proximity` workloads route over (5 tier-1, 10 tier-2 per
//! tier-1, 20 tier-3 per tier-2, peering probability 0.3 at both lower
//! tiers, seed 42), built by the production sweep and by
//! [`ReferenceRouting`]'s heap-ordered Dijkstra, compared pair by pair:
//! once with the generator's latencies and once with every link at the
//! same latency, where the tie-break by state index decides most paths.
//! The hierarchy has fewer than 65 536 links and routes every pair in at
//! most five, so every path sits inline in its 16-byte record.
//!
//! The flow fill: the `swarm_congestion` underlay (4 tier-1, 6 tier-2 per
//! tier-1, 8 tier-3 per tier-2, 1 575 leaf hosts, seed 42) carrying about
//! 4 000 flows, five senders per receiver, filled by
//! [`FlowAllocator::allocate`] and by `reference_max_min`, compared rate
//! by rate: once at the generator's capacities, where no AS link binds,
//! and once with every AS link a thousand times narrower, where some do.
//!
//! The lazy repair index: the same hierarchy under `Underlay::build`
//! holds no index until a link changes; one cut and its heal land on a
//! table built with its index, index included.
//!
//! The traffic ledger: the `underlay_scale` underlay (the 1 055-AS
//! hierarchy with 20 000 leaf hosts, seed 42) accounting 65 536 seeded
//! host pairs four times over, across five billing windows, its totals,
//! transfer count, per-link bytes and every AS's 95th-percentile transit
//! rate compared with [`LedgerSum`], an independent sum over each pair's
//! `path_links`.
//!
//! The route-table, repair-index and ledger tests are release-only (the debug build is
//! about fifty times slower, and checks the ledger's conservation after
//! every transfer); run all three with
//!
//! ```text
//! cargo test --release -p uap-net --test scale_oracle
//! ```
//!
//! The flow test takes about two seconds in a debug build, where every
//! `allocate` also runs the allocator's invariant checkers, so it runs
//! there too.

mod common;

use common::{reference_rates, LedgerSum};
use uap_net::{
    AsGraph, AsId, FaultState, FlowAllocator, HostId, LinkKind, PopulationSpec, ReferenceRouting,
    Routing, RoutingMode, Tier, TopologyKind, TopologySpec, Underlay, UnderlayConfig,
};
use uap_sim::{SimRng, SimTime};

fn benchmark_hierarchy() -> AsGraph {
    benchmark_hierarchy_from(&mut SimRng::new(42))
}

/// The benchmark hierarchy, drawn from `rng`.
fn benchmark_hierarchy_from(rng: &mut SimRng) -> AsGraph {
    TopologySpec::new(TopologyKind::Hierarchical {
        tier1: 5,
        tier2_per_tier1: 10,
        tier3_per_tier2: 20,
        tier2_peering_prob: 0.3,
        tier3_peering_prob: 0.3,
    })
    .build(rng)
}

/// Every ordered pair's hops, latency, path and transit count, from the
/// table and from the oracle; returns the number of reachable pairs and
/// the longest route's hop count.
fn assert_matches_reference(g: &AsGraph, mode: RoutingMode) -> (usize, u32) {
    let table = Routing::compute(g, mode);
    let refr = ReferenceRouting::compute(g, mode, None);
    let (mut reachable, mut longest) = (0, 0);
    for a in 0..g.len() {
        for b in 0..g.len() {
            let (a, b) = (AsId::from_index(a), AsId::from_index(b));
            let route = table.route(a, b);
            let got = (
                route.map(|r| u32::from(r.hops)),
                route.map(|r| u64::from(r.latency_us)),
                route.map(|r| u32::from(r.transit_links)),
            );
            let want = (
                refr.as_hops(a, b),
                refr.latency_us(a, b),
                refr.transit_links(g, a, b),
            );
            assert_eq!(got, want, "{mode:?} {a}->{b}");
            assert_eq!(
                table
                    .path_links(a, b)
                    .map(|p| p.iter().map(|&li| u32::from(li)).collect()),
                refr.path_links(a, b),
                "{mode:?} path {a}->{b}"
            );
            reachable += usize::from(route.is_some());
            longest = longest.max(route.map_or(0, |r| u32::from(r.hops)));
        }
    }
    (reachable, longest)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "full scale; run with --release")]
fn benchmark_hierarchy_matches_reference_on_every_pair() {
    let mut g = benchmark_hierarchy();
    assert_eq!(g.len(), 1_055);
    // Every link id fits a route record's u16 slot, and every path its
    // five slots (the build refuses a longer one; the assert states the
    // bound).
    assert!(g.links.len() < 1 << 16, "{} links", g.links.len());
    for mode in [RoutingMode::ValleyFree, RoutingMode::ShortestPath] {
        let (reachable, longest) = assert_matches_reference(&g, mode);
        assert_eq!(reachable, g.len() * g.len(), "{mode:?}");
        assert!(longest <= 5, "{mode:?}: a {longest}-hop path");
    }
    for link in &mut g.links {
        link.latency_us = 1_000;
    }
    for mode in [RoutingMode::ValleyFree, RoutingMode::ShortestPath] {
        assert_matches_reference(&g, mode);
    }
}

/// `Underlay::build` on the benchmark hierarchy writes route records
/// only; the first rotation link's cut (a peering away from the tier-1
/// core, the first link `underlay_scale` cuts) installs the repair index,
/// and after its heal the table equals a build with its index, index
/// included. Both boundaries repair as a table built with its index does.
#[test]
#[cfg_attr(debug_assertions, ignore = "full scale; run with --release")]
fn benchmark_underlay_installs_its_repair_index_at_the_first_cut() {
    let mut rng = SimRng::new(42);
    let g = benchmark_hierarchy_from(&mut rng);
    let mut u = Underlay::build(
        g,
        &PopulationSpec::leaf(2_000),
        UnderlayConfig::default(),
        &mut rng,
    );
    assert_eq!(u.n_ases(), 1_055);
    assert_eq!(u.routing().repair_index_bytes(), 0);
    let tier = |a: AsId| u.graph.nodes[a.idx()].tier;
    let rotation = u.graph.links.iter().position(|l| {
        l.kind == LinkKind::Peering && tier(l.a) != Tier::Tier1 && tier(l.b) != Tier::Tier1
    });
    let rotation = rotation.expect("a peering away from the tier-1 core");
    let mut cut = FaultState::clear();
    cut.mask = Some((0..u.graph.links.len()).map(|li| li == rotation).collect());
    let mut eager = Routing::compute_indexed(&u.graph, u.config.routing, None);
    for state in [cut, FaultState::clear()] {
        let stats = u.apply_fault_state(&state);
        assert_eq!(stats.changed_links, 1);
        assert_eq!(
            stats,
            eager.repair_with_mask(&u.graph, state.mask.as_deref())
        );
        assert_eq!(u.routing().dirty_sources(), eager.dirty_sources());
    }
    let built = Routing::compute_indexed(&u.graph, u.config.routing, None);
    assert!(*u.routing() == built);
    assert_eq!(u.routing().repair_index_bytes(), built.repair_index_bytes());
}

#[test]
#[cfg_attr(debug_assertions, ignore = "full scale; run with --release")]
fn benchmark_ledger_matches_an_independent_sum() {
    let mut rng = SimRng::new(42);
    let g = benchmark_hierarchy_from(&mut rng);
    let mut u = Underlay::build(
        g,
        &PopulationSpec::leaf(20_000),
        UnderlayConfig::default(),
        &mut rng,
    );
    assert_eq!((u.n_ases(), u.n_hosts()), (1_055, 20_000));
    let mut rng = SimRng::new(42 ^ 0x5CA1E);
    let n = u.n_hosts();
    let pairs: Vec<(HostId, HostId)> = (0..1 << 16)
        .map(|_| {
            let a = HostId::from_index(rng.index(n));
            (a, HostId::from_index(rng.index(n)))
        })
        .collect();
    let mut sum = LedgerSum::new(&u);
    let mut now = SimTime::ZERO;
    for sweep in 0..4u64 {
        for (i, &(a, b)) in (0u64..).zip(&pairs) {
            now += SimTime::from_millis(5);
            // Sizes from zero to 96 KiB.
            let bytes = (i + sweep) % 7 * 16 * 1024;
            u.account_transfer(now, a, b, bytes);
            sum.add(&u, now, a, b, bytes);
        }
    }
    // 262 144 transfers 5 ms apart: windows 0 to 4.
    assert_eq!(now.as_micros().div_ceil(300_000_000), 5);
    let t = &u.traffic;
    assert_eq!(t.totals(), sum.totals);
    assert_eq!(t.transfers(), sum.transfers);
    assert_eq!(t.transfers(), 4 << 16, "every pair is routable");
    assert!(t.per_link_bytes().eq(sum.per_link.iter().copied()));
    let mut billed = 0;
    for asn in (0..u.n_ases()).map(AsId::from_index) {
        let got = t.transit_p95_mbps(asn, now);
        assert_eq!(
            got.to_bits(),
            sum.transit_p95_mbps(asn, now).to_bits(),
            "{asn}"
        );
        billed += usize::from(got > 0.0);
    }
    assert!(billed > 1_000, "only {billed} ASes pay for transit");
}

/// The `swarm_congestion` underlay: the 4/6/8 hierarchy and 1 575 leaf
/// hosts, built from one seed-42 stream as the benchmark builds it.
fn swarm_underlay() -> Underlay {
    let mut rng = SimRng::new(42);
    let g = TopologySpec::new(TopologyKind::Hierarchical {
        tier1: 4,
        tier2_per_tier1: 6,
        tier3_per_tier2: 8,
        tier2_peering_prob: 0.3,
        tier3_peering_prob: 0.3,
    })
    .build(&mut rng);
    Underlay::build(
        g,
        &PopulationSpec::leaf(1_575),
        UnderlayConfig::default(),
        &mut rng,
    )
}

/// Fills `flows` on `u` and checks every rate bit-equal to the
/// reference's; returns the inter-AS resources that saturated.
fn assert_fill_matches_reference(u: &Underlay, flows: &[(u64, HostId, HostId)]) -> u64 {
    let mut a = FlowAllocator::new(u);
    a.begin();
    for &(id, s, d) in flows {
        assert!(a.add_flow(id, s, d, u), "fault-free pairs are routable");
    }
    a.allocate();
    for (id, want) in reference_rates(u, flows) {
        let got = a.rate_of(id);
        assert_eq!(
            got.map(f64::to_bits),
            Some(want.to_bits()),
            "flow {id}: {got:?} != {want}"
        );
    }
    a.inter_as_saturations()
}

#[test]
fn swarm_scale_fill_matches_reference_with_and_without_binding_links() {
    let mut u = swarm_underlay();
    let n = u.n_hosts();
    assert_eq!(n, 1_575);
    let mut rng = SimRng::new(42 ^ 0xF10);
    let mut flows = Vec::new();
    for receiver in 0..800u64 {
        let d = rng.index(n);
        for k in 0..5 {
            let s = (d + 1 + rng.index(n - 1)) % n;
            flows.push((
                receiver * 5 + k,
                HostId::from_index(s),
                HostId::from_index(d),
            ));
        }
    }
    assert_eq!(
        assert_fill_matches_reference(&u, &flows),
        0,
        "no AS link binds at the generator's capacities"
    );
    for link in &mut u.graph.links {
        link.capacity_mbps /= 1_000.0;
    }
    assert!(
        assert_fill_matches_reference(&u, &flows) > 0,
        "some AS link binds a thousand times narrower"
    );
}
