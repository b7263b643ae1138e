//! P4P — "explicit communications for cooperative control between P2P and
//! network providers" (Xie et al. \[29\]), the second "ISP component in
//! network" of Figure 3.
//!
//! Where the oracle ranks each candidate list on demand, P4P's *iTracker*
//! publishes a static map of **p-distances** between network partitions
//! (here: ASes). Applications fetch the map for their own partition once,
//! cache it, and optimize locally — far fewer provider queries, coarser
//! information, and a staleness exposure the §6 mobility challenge
//! quantifies.
//!
//! The p-distance encodes the provider's *costs*, not latency: an
//! intra-AS hop is free, a settlement-free peering link cheap, a billed
//! transit link expensive.

use crate::provider::ProximityEstimator;
use std::collections::BTreeMap;
use uap_net::{AsId, HostId, LinkKind, Underlay};
use uap_sim::SimRng;

/// Cost of crossing one peering link.
const PEERING_COST: f64 = 1.0;
/// Cost of crossing one transit link (billed — kept high).
const TRANSIT_COST: f64 = 4.0;

/// The provider-side service: a full p-distance matrix plus per-client
/// map distribution with caching.
pub struct P4pService {
    pdistance: Vec<Vec<f64>>,
    n_ases: usize,
    map_fetches: u64,
    cached_maps: BTreeMap<AsId, Vec<f64>>,
}

impl P4pService {
    /// Builds the matrix by weighted shortest path over the AS graph.
    #[expect(clippy::indexing_slicing, reason = "AsIds of g; pdistance is n × n")]
    pub fn build(underlay: &Underlay) -> P4pService {
        let g = &underlay.graph;
        let n = g.len();
        let mut pdistance = vec![vec![f64::INFINITY; n]; n];
        // Dijkstra from every source over the provider's cost weights
        // (plain weighted paths — the provider prices links, policy
        // routing is an overlay concern).
        for src in 0..n {
            let dist = &mut pdistance[src];
            dist[src] = 0.0;
            let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, AsId)>> =
                std::collections::BinaryHeap::new();
            // Fixed-point costs (micro-units) keep the heap ordered without
            // float comparators.
            #[expect(
                clippy::cast_possible_truncation,
                reason = "float → int `as` saturates; an unreachable AS's ∞ maps to u64::MAX"
            )]
            let to_fp = |c: f64| (c * 1e6) as u64;
            heap.push(std::cmp::Reverse((0, AsId::from_index(src))));
            while let Some(std::cmp::Reverse((d, x))) = heap.pop() {
                let xd = to_fp(dist[x.idx()]);
                if d > xd {
                    continue;
                }
                for &li in g.incident(x) {
                    let link = &g.links[li as usize];
                    #[expect(clippy::expect_used, reason = "g.incident(x) lists links at x")]
                    let y = link.other(x).expect("incident").idx();
                    let w = match link.kind {
                        LinkKind::Peering => PEERING_COST,
                        LinkKind::Transit => TRANSIT_COST,
                    };
                    let nd = dist[x.idx()] + w;
                    if nd < dist[y] {
                        dist[y] = nd;
                        heap.push(std::cmp::Reverse((to_fp(nd), AsId::from_index(y))));
                    }
                }
            }
        }
        P4pService {
            pdistance,
            n_ases: n,
            map_fetches: 0,
            cached_maps: BTreeMap::new(),
        }
    }

    /// Number of ASes (partitions).
    pub fn n_ases(&self) -> usize {
        self.n_ases
    }

    /// Provider-side ground truth (for validation/tests).
    pub fn pdistance(&self, a: AsId, b: AsId) -> f64 {
        let row = self.pdistance.get(a.idx());
        row.and_then(|r| r.get(b.idx()))
            .copied()
            .unwrap_or(f64::INFINITY)
    }

    /// The application-side map fetch: the p-distance row for the caller's
    /// partition. First fetch per partition costs one provider round trip;
    /// later calls are served from the application's cache.
    pub fn fetch_map(&mut self, my_as: AsId) -> &[f64] {
        let Self {
            pdistance,
            map_fetches,
            cached_maps,
            ..
        } = self;
        cached_maps.entry(my_as).or_insert_with(|| {
            *map_fetches += 1;
            pdistance.get(my_as.idx()).cloned().unwrap_or_default()
        })
    }

    /// Provider round trips performed so far.
    pub fn map_fetches(&self) -> u64 {
        self.map_fetches
    }
}

/// Application-side estimator: proximity of two hosts is the p-distance
/// between their partitions (using the *cached* map of the first host's
/// partition).
pub struct P4pEstimator<'a> {
    underlay: &'a Underlay,
    service: P4pService,
}

impl<'a> P4pEstimator<'a> {
    /// Wraps a built service.
    pub fn new(underlay: &'a Underlay, service: P4pService) -> Self {
        P4pEstimator { underlay, service }
    }

    /// Mutable access to the underlying service (map-fetch accounting).
    pub fn service(&self) -> &P4pService {
        &self.service
    }
}

impl ProximityEstimator for P4pEstimator<'_> {
    fn proximity(&mut self, a: HostId, b: HostId, _rng: &mut SimRng) -> f64 {
        let a_as = self.underlay.hosts.as_of(a);
        let b_as = self.underlay.hosts.as_of(b);
        let map = self.service.fetch_map(a_as);
        map.get(b_as.idx()).copied().unwrap_or(f64::INFINITY)
    }

    fn overhead_messages(&self) -> u64 {
        // One request + one map reply per distinct partition.
        2 * self.service.map_fetches()
    }

    fn name(&self) -> &'static str {
        "p4p-itracker"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uap_net::NetParams;

    fn underlay() -> Underlay {
        NetParams {
            tier1: 2,
            tier2_per_tier1: 2,
            tier3_per_tier2: 3,
            n_hosts: 150,
            seed: 121,
        }
        .build()
    }

    #[test]
    fn pdistance_metric_properties() {
        let u = underlay();
        let svc = P4pService::build(&u);
        let n = svc.n_ases();
        for a in 0..n {
            assert_eq!(svc.pdistance(AsId::from_index(a), AsId::from_index(a)), 0.0);
            for b in 0..n {
                let (a, b) = (AsId::from_index(a), AsId::from_index(b));
                assert!(svc.pdistance(a, b).is_finite(), "unreachable {a}->{b}");
                assert_eq!(svc.pdistance(a, b), svc.pdistance(b, a));
            }
        }
    }

    #[test]
    fn peering_paths_are_cheaper_than_transit_paths() {
        let u = underlay();
        let svc = P4pService::build(&u);
        // Direct peering neighbors must be cheaper than anything that needs
        // a transit link.
        let g = &u.graph;
        for l in &g.links {
            if l.kind == LinkKind::Peering {
                assert!(svc.pdistance(l.a, l.b) <= 1.0);
            }
        }
        for l in &g.links {
            if l.kind == LinkKind::Transit {
                // A transit crossing costs at least... unless a cheaper
                // peering detour exists, which is the whole point.
                assert!(svc.pdistance(l.a, l.b) <= 4.0);
            }
        }
    }

    #[test]
    fn map_fetches_are_cached_per_partition() {
        let u = underlay();
        let svc = P4pService::build(&u);
        let mut est = P4pEstimator::new(&u, svc);
        let mut rng = SimRng::new(122);
        let a = HostId(0);
        for b in 1..50u32 {
            est.proximity(a, HostId(b), &mut rng);
        }
        // All queries from one host → one partition map → 2 messages.
        assert_eq!(est.overhead_messages(), 2);
        // A querier in another AS fetches its own map.
        let other = u
            .hosts
            .ids()
            .find(|&h| !u.same_as(h, a))
            .expect("another AS");
        est.proximity(other, a, &mut rng);
        assert_eq!(est.overhead_messages(), 4);
    }

    #[test]
    fn p4p_ranking_prefers_cheap_partitions() {
        let u = underlay();
        let svc = P4pService::build(&u);
        let mut est = P4pEstimator::new(&u, svc);
        let mut rng = SimRng::new(123);
        let from = HostId(0);
        let candidates: Vec<HostId> = u.hosts.ids().filter(|&h| h != from).collect();
        let ranked = est.rank(from, &candidates, &mut rng);
        // Same-AS candidates (p-distance 0) must come first.
        let same = candidates.iter().filter(|&&c| u.same_as(from, c)).count();
        for &top in ranked.iter().take(same) {
            assert!(u.same_as(from, top));
        }
        // And ranking is monotone in p-distance.
        let my_as = u.hosts.as_of(from);
        let svc2 = P4pService::build(&u);
        let d = |h: HostId| svc2.pdistance(my_as, u.hosts.as_of(h));
        for w in ranked.windows(2) {
            assert!(d(w[0]) <= d(w[1]) + 1e-12);
        }
    }
}
