//! Property-based tests for flood mechanics and content locality.

use proptest::prelude::*;
use uap_gnutella::content::ContentModel;
use uap_gnutella::overlay::{FloodResult, Overlay, Reached, Role};
use uap_net::{AsId, HostId, PopulationSpec, TopologyKind, TopologySpec, Underlay, UnderlayConfig};
use uap_sim::SimRng;

fn underlay(n: usize, seed: u64) -> Underlay {
    let mut rng = SimRng::new(seed);
    let g = TopologySpec::new(TopologyKind::Mesh {
        n: 6,
        extra_edge_prob: 0.4,
    })
    .build(&mut rng);
    let cfg = UnderlayConfig {
        routing: uap_net::RoutingMode::ShortestPath,
        ..Default::default()
    };
    Underlay::build(g, &PopulationSpec::uniform(n), cfg, &mut rng)
}

fn flood(o: &mut Overlay, origin: HostId, ttl: u32) -> FloodResult {
    let mut r = FloodResult::default();
    o.flood_into(origin, ttl, &mut r);
    r
}

/// Builds a random overlay over `n` nodes with some leaves.
fn random_overlay(
    u: &Underlay,
    n: u32,
    edges: usize,
    leaf_every: u32,
    rng: &mut SimRng,
) -> Overlay {
    let mut o = Overlay::new(n as usize);
    for i in 0..n {
        o.set_online(HostId(i), true);
        if leaf_every > 0 && i % leaf_every == 1 {
            o.set_role(HostId(i), Role::Leaf);
        }
    }
    let mut guard = 0;
    while o.edge_count() < edges && guard < edges * 20 {
        guard += 1;
        let a = HostId::from_index(rng.index(n as usize));
        let b = HostId::from_index(rng.index(n as usize));
        if a != b {
            o.add_edge(u, a, b);
        }
    }
    o
}

/// The flood `Overlay::flood_into` ran before it became its own queue,
/// kept as the reference: a `VecDeque` of forwarding nodes beside
/// `reached`, a branch on `seen` per copy, one message counted per copy.
/// Edge latencies come from the underlay, which is what `add_edge` cached.
#[expect(clippy::indexing_slicing, reason = "one slot per host of the overlay")]
fn reference_flood(o: &Overlay, u: &Underlay, origin: HostId, ttl: u32) -> FloodResult {
    let mut out = FloodResult::default();
    if ttl == 0 || !o.is_online(origin) {
        return out;
    }
    let mut seen = vec![false; o.len()];
    seen[origin.idx()] = true;
    let mut queue = std::collections::VecDeque::from([(origin, 0u32, 0u64)]);
    while let Some((v, hops, lat)) = queue.pop_front() {
        if hops >= ttl {
            continue;
        }
        for &w in o.neighbors(v) {
            out.messages += 1;
            if seen[w.idx()] {
                continue;
            }
            seen[w.idx()] = true;
            let wl = lat.saturating_add(u.latency_us(v, w).unwrap_or(u64::MAX / 4));
            out.reached.push(Reached {
                host: w,
                hops: hops + 1,
                latency_us: wl,
            });
            if o.role(w) == Role::Ultrapeer {
                queue.push_back((w, hops + 1, wl));
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// `flood_into` equals the queue-based BFS it replaced: same message
    /// count, same `reached` sequence (host, hops, latency) element for
    /// element — on overlays with leaves and offline nodes, from every
    /// origin (offline and leaf origins included), reusing one result
    /// buffer so stale entries of an earlier, larger flood would show.
    #[test]
    fn flood_equals_queue_bfs(seed in any::<u64>(), n in 2u32..60, ttl in 0u32..6, leaf_every in 0u32..5) {
        let u = underlay(n as usize, seed);
        let mut rng = SimRng::new(seed ^ 4);
        let mut o = random_overlay(&u, n, n as usize * 2, leaf_every, &mut rng);
        for _ in 0..n / 5 {
            o.set_online(HostId::from_index(rng.index(n as usize)), false);
        }
        let mut got = FloodResult::default();
        for origin in (0..n).map(HostId) {
            let want = reference_flood(&o, &u, origin, ttl);
            o.flood_into(origin, ttl, &mut got);
            prop_assert_eq!(got.messages, want.messages, "messages from {}", origin);
            prop_assert_eq!(&got.reached, &want.reached, "reached from {}", origin);
        }
    }

    /// Flood invariants for any overlay: hop bounds, distinct reached
    /// nodes, message count at least reached count, and latency monotone
    /// in BFS order within each branch.
    #[test]
    fn flood_invariants(seed in any::<u64>(), n in 4u32..60, ttl in 1u32..6) {
        let u = underlay(n as usize, seed);
        let mut rng = SimRng::new(seed ^ 1);
        let mut o = random_overlay(&u, n, (n as usize * 3) / 2, 4, &mut rng);
        let origin = HostId::from_index(rng.index(n as usize));
        let r = flood(&mut o, origin, ttl);
        let mut seen = std::collections::BTreeSet::new();
        for x in &r.reached {
            prop_assert!(x.hops >= 1 && x.hops <= ttl, "hops {} out of (0,{ttl}]", x.hops);
            prop_assert!(x.host != origin);
            prop_assert!(seen.insert(x.host), "duplicate reach");
        }
        prop_assert!(r.messages >= r.reached.len() as u64);
        // Leaves never appear as forwarders: any node at hops == h > 1 must
        // have an ultrapeer neighbor at hops == h - 1.
        for x in &r.reached {
            if x.hops > 1 {
                let has_up_parent = r
                    .reached
                    .iter()
                    .any(|p| {
                        p.hops == x.hops - 1
                            && o.role(p.host) == Role::Ultrapeer
                            && o.has_edge(p.host, x.host)
                    })
                    || (x.hops == 1);
                prop_assert!(has_up_parent, "{:?} reached without ultrapeer parent", x.host);
            }
        }
    }

    /// TTL monotonicity: a larger TTL never reaches fewer nodes.
    #[test]
    fn flood_monotone_in_ttl(seed in any::<u64>(), n in 4u32..50) {
        let u = underlay(n as usize, seed);
        let mut rng = SimRng::new(seed ^ 2);
        let mut o = random_overlay(&u, n, n as usize * 2, 0, &mut rng);
        let origin = HostId(0);
        let mut prev = 0usize;
        for ttl in 1..6 {
            let got = flood(&mut o, origin, ttl).reached.len();
            prop_assert!(got >= prev, "ttl {ttl}: {got} < {prev}");
            prev = got;
        }
    }

    /// Content model: interests always land in the catalogue, and full
    /// locality keeps them in the AS slice.
    #[test]
    fn content_interest_in_range(n_files in 10usize..2_000, n_ases in 1usize..30, seed in any::<u64>()) {
        prop_assume!(n_files >= n_ases);
        let m = ContentModel::new(n_files, n_ases, 0.9, 1.0);
        let mut rng = SimRng::new(seed);
        for a in 0..n_ases {
            let f = m.sample_interest(AsId::from_index(a), &mut rng);
            prop_assert!((f.0 as usize) < n_files);
        }
    }

    /// Edges are symmetric and removal restores degree bookkeeping.
    #[test]
    fn overlay_edge_bookkeeping(seed in any::<u64>(), n in 2u32..40) {
        let u = underlay(n as usize, seed);
        let mut rng = SimRng::new(seed ^ 3);
        let mut o = Overlay::new(n as usize);
        for i in 0..n {
            o.set_online(HostId(i), true);
        }
        let mut inserted = Vec::new();
        for _ in 0..(n * 2) {
            let a = HostId::from_index(rng.index(n as usize));
            let b = HostId::from_index(rng.index(n as usize));
            if a != b && !o.has_edge(a, b) {
                o.add_edge(&u, a, b);
                inserted.push((a, b));
            }
        }
        prop_assert_eq!(o.edge_count(), inserted.len());
        let degree_sum: usize = (0..n).map(|i| o.degree(HostId(i))).sum();
        prop_assert_eq!(degree_sum, 2 * inserted.len());
        for &(a, b) in &inserted {
            prop_assert!(o.has_edge(b, a));
            o.remove_edge(a, b);
        }
        prop_assert_eq!(o.edge_count(), 0);
    }
}
