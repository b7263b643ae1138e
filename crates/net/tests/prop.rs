//! Property-based tests for routing, traffic and cost invariants.

mod common;

use common::{reference_rates, LedgerSum};

use proptest::prelude::*;
use uap_net::flow::saturation_eps;
use uap_net::{
    AsId, FlowAllocator, HostId, LinkKind, PopulationSpec, ReferenceRouting, Relationship, Routing,
    RoutingMode, TopologyKind, TopologySpec, Underlay, UnderlayConfig,
};
use uap_sim::{SimRng, SimTime};

fn random_hierarchy(seed: u64, t1: usize, t2: usize, t3: usize) -> uap_net::AsGraph {
    TopologySpec::new(TopologyKind::Hierarchical {
        tier1: t1,
        tier2_per_tier1: t2,
        tier3_per_tier2: t3,
        tier2_peering_prob: 0.4,
        tier3_peering_prob: 0.4,
    })
    .build(&mut SimRng::new(seed))
}

/// A populated underlay plus a random flow set registered with the
/// allocator; returns the accepted flows as `(id, src, dst)`.
fn random_flow_set(
    seed: u64,
    n_hosts: usize,
    n_flows: usize,
) -> (Underlay, FlowAllocator, Vec<(u64, HostId, HostId)>) {
    let g = random_hierarchy(seed, 2, 2, 2);
    let mut rng = SimRng::new(seed ^ 0x5bd1_e995);
    let u = Underlay::build(
        g,
        &PopulationSpec::leaf(n_hosts),
        UnderlayConfig::default(),
        &mut rng,
    );
    let mut a = FlowAllocator::new(&u);
    a.begin();
    let mut flows = Vec::new();
    for id in 0..n_flows as u64 {
        let s = rng.index(n_hosts);
        let mut d = rng.index(n_hosts);
        if d == s {
            d = (d + 1) % n_hosts;
        }
        let (s, d) = (HostId::from_index(s), HostId::from_index(d));
        if a.add_flow(id, s, d, &u) {
            flows.push((id, s, d));
        }
    }
    a.allocate();
    (u, a, flows)
}

/// Externally recomputed per-resource loads `(uplink, downlink, AS link)`
/// — deliberately independent of the allocator's own bookkeeping.
#[expect(clippy::indexing_slicing, reason = "ids index the load vectors")]
fn recompute_loads(
    u: &Underlay,
    a: &FlowAllocator,
    flows: &[(u64, HostId, HostId)],
) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let n = u.n_hosts();
    let mut up = vec![0.0; n];
    let mut down = vec![0.0; n];
    let mut link = vec![0.0; u.graph.links.len()];
    #[expect(
        clippy::expect_used,
        reason = "test oracle: a missing rate or route is itself the failure"
    )]
    for &(id, s, d) in flows {
        let r = a.rate_of(id).expect("every registered flow has a rate");
        up[s.0 as usize] += r;
        down[d.0 as usize] += r;
        let (sa, da) = (u.hosts.as_of(s), u.hosts.as_of(d));
        if sa != da {
            for &li in u
                .routing()
                .path_links(sa, da)
                .expect("fault-free graph is connected")
            {
                link[li as usize] += r;
            }
        }
    }
    (up, down, link)
}

/// `table` answers every ordered pair's hops, latency, path and transit
/// count exactly as the heap-ordered reference does.
fn assert_matches_reference(
    g: &uap_net::AsGraph,
    table: &Routing,
    refr: &ReferenceRouting,
) -> Result<(), String> {
    for a in 0..g.len() {
        for b in 0..g.len() {
            let (a, b) = (AsId::from_index(a), AsId::from_index(b));
            prop_assert_eq!(table.as_hops(a, b), refr.as_hops(a, b), "hops {}->{}", a, b);
            prop_assert_eq!(
                table.latency_us(a, b),
                refr.latency_us(a, b),
                "latency {}->{}",
                a,
                b
            );
            prop_assert_eq!(
                table
                    .path_links(a, b)
                    .map(|p| p.iter().map(|&li| u32::from(li)).collect()),
                refr.path_links(a, b),
                "path {}->{}",
                a,
                b
            );
            prop_assert_eq!(
                table.route(a, b).map(|r| u32::from(r.transit_links)),
                refr.transit_links(g, a, b),
                "transit links {}->{}",
                a,
                b
            );
        }
    }
    Ok(())
}

/// Whether `refr` routes some ordered pair of `g` past five links, more
/// than a route record holds.
fn routes_past_five_links(g: &uap_net::AsGraph, refr: &ReferenceRouting) -> bool {
    let ids = || (0..g.len()).map(AsId::from_index);
    ids().any(|a| ids().any(|b| refr.as_hops(a, b) > Some(5)))
}

/// The message of the panic `f` raises, or `None` when it returns.
fn panic_of<T>(f: impl FnOnce() -> T) -> Option<String> {
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).err()?;
    Some(
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default(),
    )
}

/// A mask under which the reference routes a pair past five links leaves
/// no table: one- and two-worker builds of `g` under it panic with one
/// `route table refused: …` message, and repairing `r` to it (on `r`'s
/// own worker count) with the same message. `r` is not usable after.
fn assert_refused(g: &uap_net::AsGraph, r: &mut Routing, mask: &[bool]) -> Result<(), String> {
    let mode = r.mode();
    let build =
        |threads| panic_of(|| Routing::compute_indexed_threads(g, mode, Some(mask), threads));
    let one = build(1);
    prop_assert!(
        one.as_deref()
            .is_some_and(|m| m.starts_with("route table refused")),
        "build not refused: {:?}",
        one
    );
    prop_assert_eq!(build(2), one.clone(), "two workers name another refusal");
    prop_assert_eq!(
        panic_of(|| r.repair_with_mask(g, Some(mask))),
        one,
        "the repair names another refusal"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every valley-free path is (up)* (peer)? (down)*: after the first
    /// non-up move, no further up or peer moves appear.
    #[test]
    fn valley_free_paths_have_no_valley(seed in any::<u64>(), t1 in 1usize..4, t2 in 1usize..4, t3 in 1usize..4) {
        let g = random_hierarchy(seed, t1, t2, t3);
        let r = Routing::compute(&g, RoutingMode::ValleyFree);
        for a in 0..g.len() {
            for b in 0..g.len() {
                let (a, b) = (AsId::from_index(a), AsId::from_index(b));
                if a == b { continue; }
                if let Some(path) = r.path_ases(&g, a, b) {
                    let mut descending = false;
                    for w in path.windows(2) {
                        let rel = g.relationship(w[0], w[1]).expect("path uses real links");
                        match rel {
                            Relationship::CustomerOf => {
                                // climbing: must still be in the up phase
                                prop_assert!(!descending, "up move after descent in {path:?}");
                            }
                            Relationship::PeerWith => {
                                prop_assert!(!descending, "peer move after descent in {path:?}");
                                descending = true;
                            }
                            Relationship::ProviderOf => {
                                descending = true;
                            }
                        }
                    }
                }
            }
        }
    }

    /// Valley-free never finds a shorter path than unrestricted routing,
    /// and both agree that paths have consistent endpoints.
    #[test]
    fn policy_never_beats_shortest_path(seed in any::<u64>()) {
        let g = random_hierarchy(seed, 2, 2, 2);
        let vf = Routing::compute(&g, RoutingMode::ValleyFree);
        let sp = Routing::compute(&g, RoutingMode::ShortestPath);
        for a in 0..g.len() {
            for b in 0..g.len() {
                let (a, b) = (AsId::from_index(a), AsId::from_index(b));
                let h_sp = sp.as_hops(a, b);
                if let Some(h_vf) = vf.as_hops(a, b) {
                    prop_assert!(h_sp.is_some());
                    prop_assert!(h_vf >= h_sp.unwrap());
                }
            }
        }
    }

    /// AS-hop distance is symmetric under valley-free routing on these
    /// graphs (up*peer?down* reverses into up*peer?down*).
    #[test]
    fn valley_free_hops_are_symmetric(seed in any::<u64>()) {
        let g = random_hierarchy(seed, 2, 3, 2);
        let r = Routing::compute(&g, RoutingMode::ValleyFree);
        for a in 0..g.len() {
            for b in (a + 1)..g.len() {
                let (a, b) = (AsId::from_index(a), AsId::from_index(b));
                prop_assert_eq!(r.as_hops(a, b), r.as_hops(b, a));
            }
        }
    }

    /// Path links are real links forming a chain from src to dst.
    #[test]
    fn paths_are_wellformed_chains(seed in any::<u64>()) {
        let g = random_hierarchy(seed, 2, 2, 3);
        let r = Routing::compute(&g, RoutingMode::ValleyFree);
        for a in 0..g.len() {
            for b in 0..g.len() {
                let (a, b) = (AsId::from_index(a), AsId::from_index(b));
                if let Some(links) = r.path_links(a, b) {
                    let mut cur = a;
                    for &li in links {
                        let link = &g.links[li as usize];
                        let next = link.other(cur);
                        prop_assert!(next.is_some(), "link {li} not incident to {cur}");
                        cur = next.unwrap();
                    }
                    prop_assert_eq!(cur, b);
                }
            }
        }
    }

    /// The build on several threads is byte-identical — table and repair
    /// index — to the build on one, on random hierarchies, for every
    /// thread count and both routing modes: scheduling cannot leak in.
    #[test]
    fn parallel_build_is_byte_identical_to_serial(seed in any::<u64>(), t1 in 1usize..3, t2 in 1usize..4, t3 in 1usize..4) {
        let g = random_hierarchy(seed, t1, t2, t3);
        for mode in [RoutingMode::ShortestPath, RoutingMode::ValleyFree] {
            let serial = Routing::compute_indexed_threads(&g, mode, None, 1);
            for threads in [2usize, 3, 8] {
                let par = Routing::compute_indexed_threads(&g, mode, None, threads);
                prop_assert!(serial == par, "{mode:?} with {threads} threads diverged from one");
            }
        }
    }

    /// The same under failure masks (the build a majority-dirty fault
    /// epoch amounts to).
    #[test]
    fn masked_parallel_build_matches_serial(seed in any::<u64>(), kill in any::<usize>()) {
        let g = random_hierarchy(seed, 2, 2, 2);
        let mut mask = vec![false; g.links.len()];
        if !mask.is_empty() {
            let k = kill % mask.len();
            mask[k] = true;
        }
        let serial = Routing::compute_indexed_threads(&g, RoutingMode::ValleyFree, Some(&mask), 1);
        for threads in [2usize, 5] {
            let par = Routing::compute_indexed_threads(&g, RoutingMode::ValleyFree, Some(&mask), threads);
            prop_assert!(serial == par, "masked build with {threads} threads diverged");
        }
    }

    /// The precomputed route table answers every query — hops, latency,
    /// path, transit count and reachability — identically to the retained
    /// per-query reference implementation (raw Dijkstra-table probing).
    #[test]
    fn table_answers_match_reference(seed in any::<u64>(), t1 in 1usize..3, t2 in 1usize..4, t3 in 1usize..4) {
        let g = random_hierarchy(seed, t1, t2, t3);
        for mode in [RoutingMode::ShortestPath, RoutingMode::ValleyFree] {
            let table = Routing::compute(&g, mode);
            let refr = ReferenceRouting::compute(&g, mode, None);
            assert_matches_reference(&g, &table, &refr)?;
            let ref_reachable = (0..g.len())
                .flat_map(|a| (0..g.len()).map(move |b| (a, b)))
                .filter(|&(a, b)| {
                    a != b && refr.as_hops(AsId::from_index(a), AsId::from_index(b)).is_some()
                })
                .count();
            let n = g.len();
            let expected = if n <= 1 {
                1.0
            } else {
                ref_reachable as f64 / (n * (n - 1)) as f64
            };
            prop_assert_eq!(table.reachable_fraction(), expected, "reachable fraction");
        }
    }

    /// Transit links always connect a provider to a customer of a lower or
    /// equal tier depth in generated hierarchies (no customer above its
    /// provider).
    #[test]
    fn hierarchy_transit_links_point_downward(seed in any::<u64>()) {
        use uap_net::Tier;
        let g = random_hierarchy(seed, 2, 2, 2);
        let rank = |t: Tier| match t {
            Tier::Tier1 => 0,
            Tier::Tier2 => 1,
            Tier::Tier3 => 2,
        };
        for l in &g.links {
            if l.kind == LinkKind::Transit {
                let pa = rank(g.nodes[l.a.idx()].tier);
                let pb = rank(g.nodes[l.b.idx()].tier);
                prop_assert!(pa < pb, "provider {:?} not above customer {:?}", l.a, l.b);
            }
        }
    }

    /// Incremental repair across a random chain of fault masks — links
    /// dropping, coming back, several at once, full heal at the end —
    /// stays byte-identical to a from-scratch masked build, table and
    /// repair index (an index that drifted would only show epochs later,
    /// as a dirty source missed), and agrees with the pre-table reference
    /// implementation on every pair's hops, latency, path and transit
    /// count at every step. In shortest-path mode a mask can detour a
    /// route past five links: that step's repair is refused, and the
    /// chain ends there.
    #[test]
    fn repair_chain_matches_full_rebuild_and_reference(
        seed in any::<u64>(),
        salt in any::<u64>(),
        threads in 1usize..4,
        sp in any::<bool>(),
    ) {
        let g = random_hierarchy(seed, 2, 3, 2);
        let mode = if sp { RoutingMode::ShortestPath } else { RoutingMode::ValleyFree };
        let mut rng = SimRng::new(salt);
        let mut r = Routing::compute_indexed_threads(&g, mode, None, threads);
        for step in 0..5 {
            // Step 4 is a full heal; earlier steps are independent random
            // masks, so links flip both down and up between steps.
            let mask: Vec<bool> = if step == 4 {
                vec![false; g.links.len()]
            } else {
                (0..g.links.len()).map(|_| rng.f64() < 0.15).collect()
            };
            let refr = ReferenceRouting::compute(&g, mode, Some(&mask));
            if routes_past_five_links(&g, &refr) {
                return assert_refused(&g, &mut r, &mask);
            }
            let stats = r.repair_with_mask(&g, Some(&mask));
            prop_assert_eq!(stats.sources_total, g.len());
            let full = Routing::compute_indexed_threads(&g, mode, Some(&mask), threads);
            prop_assert!(r == full, "table or repair index diverged at step {} ({:?})", step, stats);
            assert_matches_reference(&g, &r, &refr)?;
        }
    }

    /// Equal latencies leave the tie-break by state index to decide most
    /// paths, which the generator's distinct latencies hide (a sweep that
    /// visits a level in the wrong order passes every test above). With
    /// every link at one latency, or each at 1 or 2 ms, in both modes: the
    /// full build under a random mask, and repairs through a chain of
    /// random masks back to none, match the heap-ordered reference on
    /// every pair, and each repair matches the rebuild, index included.
    /// A mask that detours a route past five links is refused, and ends
    /// that mode's chain.
    #[test]
    fn tie_heavy_tables_match_reference_and_rebuild(
        seed in any::<u64>(),
        salt in any::<u64>(),
        shape in (1usize..4, 1usize..4, 1usize..5),
        two_latencies in any::<bool>(),
        p in 0.0f64..0.3,
        threads in 1usize..4,
    ) {
        let mut g = random_hierarchy(seed, shape.0, shape.1, shape.2);
        let mut rng = SimRng::new(salt);
        for link in &mut g.links {
            link.latency_us = if two_latencies && rng.f64() < 0.5 { 2_000 } else { 1_000 };
        }
        let masks: Vec<Vec<bool>> = (0..3)
            .map(|step| (0..g.links.len()).map(|_| step < 2 && rng.f64() < p).collect())
            .collect();
        for mode in [RoutingMode::ShortestPath, RoutingMode::ValleyFree] {
            let mut r = Routing::compute_indexed_threads(&g, mode, None, threads);
            for mask in &masks {
                let refr = ReferenceRouting::compute(&g, mode, Some(mask));
                if routes_past_five_links(&g, &refr) {
                    assert_refused(&g, &mut r, mask)?;
                    break;
                }
                let full = Routing::compute_indexed_threads(&g, mode, Some(mask), threads);
                assert_matches_reference(&g, &full, &refr)?;
                let stats = r.repair_with_mask(&g, Some(mask));
                prop_assert!(r == full, "{:?} table or repair index diverged ({:?})", mode, stats);
            }
        }
    }

    /// Healing (unmasking) alone is repaired incrementally: downing one
    /// random link and restoring it round-trips to the pristine table
    /// without a full rebuild on the heal step (a single link can only
    /// dirty a minority of sources on these graphs... unless it is a
    /// cut link whose loss dirties everyone — then the *down* step may
    /// fall back, but the heal step must still restore exactly).
    #[test]
    fn unmask_repair_restores_pristine_table(seed in any::<u64>(), kill in any::<usize>()) {
        let g = random_hierarchy(seed, 2, 2, 3);
        let mut r = Routing::compute_indexed_threads(&g, RoutingMode::ValleyFree, None, 2);
        let pristine = Routing::compute_indexed(&g, RoutingMode::ValleyFree, None);
        let mut mask = vec![false; g.links.len()];
        mask[kill % g.links.len()] = true;
        r.repair_with_mask(&g, Some(&mask));
        let heal = r.repair_with_mask(&g, None);
        prop_assert_eq!(heal.changed_links, 1);
        prop_assert!(r == pristine, "heal did not restore the pristine table");
    }

    /// A table built without its repair index (`Routing::compute`, as
    /// `Underlay::build` builds it) and one built with it, driven through
    /// the same random chain of link cuts, heals and unchanged masks in
    /// both modes, repair alike: at every step the two return the same
    /// stats and dirty sources and the tables are equal, indexes included
    /// once both hold one. The lazy table holds no index allocation until
    /// a step changes a link, then exactly the eager one's. In
    /// shortest-path mode a mask that detours a route past five links
    /// ends that mode's chain.
    #[test]
    fn a_lazy_index_repairs_like_an_eager_one(
        seed in any::<u64>(),
        salt in any::<u64>(),
        threads in 1usize..4,
    ) {
        let g = random_hierarchy(seed, 2, 3, 2);
        let nl = g.links.len();
        let mut rng = SimRng::new(salt);
        for mode in [RoutingMode::ShortestPath, RoutingMode::ValleyFree] {
            let mut lazy = Routing::compute(&g, mode);
            let mut eager = Routing::compute_indexed_threads(&g, mode, None, threads);
            prop_assert_eq!(lazy.repair_index_bytes(), 0);
            prop_assert!(eager.repair_index_bytes() > 0);
            prop_assert!(lazy == eager);
            prop_assert_eq!(lazy.dirty_sources(), eager.dirty_sources());
            let mut mask = vec![false; nl];
            let mut changed = false;
            for step in 0..6 {
                match rng.index(3) {
                    // Cut one to three links.
                    0 => {
                        for _ in 0..=rng.index(3) {
                            mask[rng.index(nl)] = true;
                        }
                    }
                    // Heal each cut link with probability one half.
                    1 => mask.iter_mut().for_each(|down| *down &= rng.f64() < 0.5),
                    // Change no link.
                    _ => {}
                }
                let refr = ReferenceRouting::compute(&g, mode, Some(&mask));
                if routes_past_five_links(&g, &refr) {
                    break;
                }
                let stats = lazy.repair_with_mask(&g, Some(&mask));
                prop_assert_eq!(stats, eager.repair_with_mask(&g, Some(&mask)), "step {}", step);
                prop_assert_eq!(lazy.dirty_sources(), eager.dirty_sources(), "step {}", step);
                prop_assert!(lazy == eager, "{:?} table or repair index diverged at step {}", mode, step);
                changed |= stats.changed_links > 0;
                let want = if changed { eager.repair_index_bytes() } else { 0 };
                prop_assert_eq!(lazy.repair_index_bytes(), want, "step {}", step);
            }
        }
    }

    /// Driving the full underlay through a compiled `FaultPlan` —
    /// LinkDown, TransitDown and LatencyInflation epochs overlapping at
    /// random, with a final all-clear boundary — keeps the repaired
    /// routing table byte-identical to a from-scratch masked build at
    /// every boundary. The route cache is revalidated by the debug
    /// coherence assertion inside `apply_fault_state` itself.
    #[test]
    fn fault_plan_epochs_repair_to_full_rebuild_answers(
        seed in any::<u64>(),
        salt in any::<u64>(),
        p in 0.02f64..0.25,
    ) {
        use uap_net::{FaultKind, FaultPlan, PopulationSpec, Underlay, UnderlayConfig};
        use uap_sim::SimTime;
        let g = random_hierarchy(seed, 2, 2, 2);
        let mut rng = SimRng::new(seed ^ 0x9e37_79b9);
        let mut u = Underlay::build(
            g,
            &PopulationSpec::leaf(40),
            UnderlayConfig::default(),
            &mut rng,
        );
        let s = |secs: u64| SimTime::from_secs(secs);
        let plan = FaultPlan::new()
            .epoch(s(10), s(40), FaultKind::RandomLinkDown { p, salt })
            .epoch(s(20), s(50), FaultKind::TransitDown { p, salt: salt ^ 1 })
            .epoch(s(30), s(45), FaultKind::LatencyInflation { factor: 2.5 })
            .epoch(s(35), s(60), FaultKind::LinkDown { links: vec![0] });
        let compiled = plan.compile(&u.graph, u.n_hosts());
        for &t in compiled.boundaries() {
            let state = compiled.state_at(t);
            u.apply_fault_state(&state);
            let full = Routing::compute_indexed(&u.graph, u.config.routing, state.mask.as_deref());
            prop_assert!(*u.routing() == full, "boundary at {:?} diverged", t);
        }
        // The last boundary is past every epoch end: fully healed.
        let end_state = compiled.state_at(*compiled.boundaries().last().unwrap());
        prop_assert_eq!(end_state.links_down(), 0);
    }

    /// Max-min allocations never overfill any resource: per-host uplink
    /// and downlink sums and per-AS-link sums (all recomputed externally
    /// from `rate_of` + the routing tables) stay within capacity.
    #[test]
    fn flow_allocation_respects_every_capacity(seed in any::<u64>(), n_flows in 1usize..24) {
        let (u, a, flows) = random_flow_set(seed, 30, n_flows);
        let (up, down, link) = recompute_loads(&u, &a, &flows);
        for &(id, _, _) in &flows {
            let r = a.rate_of(id).unwrap();
            prop_assert!(r.is_finite() && r >= 0.0, "flow {id} rate {r}");
        }
        for (i, &l) in up.iter().enumerate() {
            let cap = u.host(HostId::from_index(i)).up_kbps as f64 * 125.0;
            prop_assert!(l <= cap + saturation_eps(cap), "uplink {i}: {l} > {cap}");
        }
        for (i, &l) in down.iter().enumerate() {
            let cap = u.host(HostId::from_index(i)).down_kbps as f64 * 125.0;
            prop_assert!(l <= cap + saturation_eps(cap), "downlink {i}: {l} > {cap}");
        }
        for (li, &l) in link.iter().enumerate() {
            let cap = u.graph.links[li].capacity_mbps * 125_000.0;
            prop_assert!(l <= cap + saturation_eps(cap), "AS link {li}: {l} > {cap}");
        }
    }

    /// The max-min property proper: every accepted flow crosses at least
    /// one saturated resource, so no flow's rate can be raised without
    /// lowering another's.
    #[test]
    fn every_flow_is_bottlenecked_somewhere(seed in any::<u64>(), n_flows in 1usize..24) {
        let (u, a, flows) = random_flow_set(seed, 30, n_flows);
        let (up, down, link) = recompute_loads(&u, &a, &flows);
        for &(id, s, d) in &flows {
            let mut sat = false;
            let ucap = u.host(s).up_kbps as f64 * 125.0;
            sat |= up[s.0 as usize] + saturation_eps(ucap) >= ucap;
            let dcap = u.host(d).down_kbps as f64 * 125.0;
            sat |= down[d.0 as usize] + saturation_eps(dcap) >= dcap;
            let (sa, da) = (u.hosts.as_of(s), u.hosts.as_of(d));
            if sa != da {
                for &li in u.routing().path_links(sa, da).unwrap() {
                    let lcap = u.graph.links[li as usize].capacity_mbps * 125_000.0;
                    sat |= link[li as usize] + saturation_eps(lcap) >= lcap;
                }
            }
            prop_assert!(sat, "flow {} ({:?}->{:?}) crosses no saturated resource", id, s, d);
        }
    }

    /// Same seed ⇒ bit-identical rates, and so does registering the same
    /// flow set in reverse order — the allocation is a pure function of
    /// the flow *set*.
    #[test]
    fn flow_allocation_is_deterministic_and_order_free(seed in any::<u64>(), n_flows in 1usize..24) {
        let (_, a1, flows) = random_flow_set(seed, 30, n_flows);
        let (u2, a2, flows2) = random_flow_set(seed, 30, n_flows);
        prop_assert_eq!(&flows, &flows2);
        for &(id, _, _) in &flows {
            prop_assert_eq!(
                a1.rate_of(id).unwrap().to_bits(),
                a2.rate_of(id).unwrap().to_bits(),
                "same-seed rates diverged for flow {}", id
            );
        }
        let mut rev = FlowAllocator::new(&u2);
        rev.begin();
        for &(id, s, d) in flows.iter().rev() {
            prop_assert!(rev.add_flow(id, s, d, &u2));
        }
        rev.allocate();
        for &(id, _, _) in &flows {
            prop_assert_eq!(
                a1.rate_of(id).unwrap().to_bits(),
                rev.rate_of(id).unwrap().to_bits(),
                "insertion order changed the rate of flow {}", id
            );
        }
    }

    /// The indexed fill is bit-identical to the from-scratch reference over
    /// chains of `begin`/`add_flow`/`allocate` cycles on one allocator.
    /// The sets mix senders drawn from a few hosts (shared uplinks),
    /// zero-capacity uplinks, same-AS pairs and one hot AS pair whose
    /// path links many flows cross; a cycle may be empty. A random third
    /// of the AS links are narrowed ten-thousandfold, so the static bound
    /// both drops AS links and keeps ones that saturate.
    #[test]
    fn indexed_fill_matches_reference_over_cycle_chains(
        seed in any::<u64>(),
        cycles in 1usize..6,
        max_flows in 0usize..48,
    ) {
        let n_hosts = 30;
        let g = random_hierarchy(seed, 2, 2, 2);
        let mut rng = SimRng::new(seed ^ 0x2545_f491);
        let mut u = Underlay::build(
            g,
            &PopulationSpec::leaf(n_hosts),
            UnderlayConfig::default(),
            &mut rng,
        );
        for h in 0..n_hosts {
            if rng.index(6) == 0 {
                u.hosts.hosts[h].up_kbps = 0;
            }
        }
        // A third of the AS links shrink to 0.1–10 Mbit/s, the access
        // links' range: some bind, others still sit below their bound.
        for link in &mut u.graph.links {
            if rng.index(3) == 0 {
                link.capacity_mbps /= 1e4;
            }
        }
        let host = HostId::from_index;
        let near: Vec<Vec<usize>> = (0..n_hosts)
            .map(|s| (0..n_hosts).filter(|&d| d != s && u.same_as(host(s), host(d))).collect())
            .collect();
        let far = (1..n_hosts).find(|&h| !u.same_as(host(0), host(h)));
        let hot_src: Vec<usize> = (0..n_hosts).filter(|&h| u.same_as(host(0), host(h))).collect();
        let hot_dst: Vec<usize> = far
            .map(|f| (0..n_hosts).filter(|&h| u.same_as(host(f), host(h))).collect())
            .unwrap_or_default();
        let mut a = FlowAllocator::new(&u);
        for cycle in 0..cycles {
            a.begin();
            let mut flows = Vec::new();
            for k in 0..rng.index(max_flows + 1) {
                let (s, d) = match rng.index(4) {
                    0 if !hot_dst.is_empty() => {
                        (hot_src[rng.index(hot_src.len())], hot_dst[rng.index(hot_dst.len())])
                    }
                    1 => {
                        let s = rng.index(n_hosts);
                        match near[s].len() {
                            0 => (s, (s + 1) % n_hosts),
                            m => (s, near[s][rng.index(m)]),
                        }
                    }
                    _ => {
                        let s = rng.index(4);
                        let d = rng.index(n_hosts);
                        (s, if d == s { (d + 1) % n_hosts } else { d })
                    }
                };
                let id = ((cycle * 64 + k) as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let (s, d) = (host(s), host(d));
                prop_assert!(a.add_flow(id, s, d, &u), "fault-free pairs are routable");
                flows.push((id, s, d));
            }
            a.allocate();
            for (id, want) in reference_rates(&u, &flows) {
                let got = a.rate_of(id).unwrap();
                prop_assert_eq!(
                    got.to_bits(), want.to_bits(),
                    "cycle {}: flow {} rate {} != reference {}", cycle, id, got, want
                );
            }
        }
    }

    /// `Underlay::account_transfer` against an independent sum over each
    /// pair's `path_links`, with some links cut so some pairs are
    /// unroutable, over forty minutes of billing windows.
    #[test]
    fn account_transfer_matches_an_independent_sum(
        seed in any::<u64>(),
        cut in any::<u64>(),
        transfers in prop::collection::vec(
            (0usize..1 << 16, 0usize..1 << 16, 0u64..2_400_000_000, 0u64..1 << 30),
            1..80,
        ),
    ) {
        let g = random_hierarchy(seed, 2, 2, 3);
        let mut rng = SimRng::new(seed ^ 0x1ed6);
        let mut u = Underlay::build(g, &PopulationSpec::leaf(40), UnderlayConfig::default(), &mut rng);
        let mut state = uap_net::FaultState::clear();
        let n_links = u.graph.links.len();
        state.mask = Some((0..n_links).map(|li| (cut >> (li % 64)) & 7 == 0).collect());
        u.apply_fault_state(&state);
        let mut sum = LedgerSum::new(&u);
        let n = u.n_hosts();
        for (a, b, micros, bytes) in transfers {
            let (a, b) = (HostId::from_index(a % n), HostId::from_index(b % n));
            let now = SimTime::from_micros(micros);
            u.account_transfer(now, a, b, bytes);
            sum.add(&u, now, a, b, bytes);
        }
        let t = &u.traffic;
        prop_assert_eq!(t.totals(), sum.totals);
        prop_assert_eq!(t.transfers(), sum.transfers);
        prop_assert!(t.per_link_bytes().eq(sum.per_link.iter().copied()));
        let horizon = SimTime::from_mins(40);
        for asn in (0..u.n_ases()).map(AsId::from_index) {
            prop_assert_eq!(
                t.transit_p95_mbps(asn, horizon).to_bits(),
                sum.transit_p95_mbps(asn, horizon).to_bits()
            );
        }
    }
}
