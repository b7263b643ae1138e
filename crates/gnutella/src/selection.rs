//! Neighbor selection strategies (§4, "usage of underlay information").
//!
//! The join/repair path hands a candidate list (the node's hostcache) to
//! one of these policies:
//!
//! * [`NeighborSelection::Random`] — unbiased Gnutella;
//! * [`NeighborSelection::OracleBiased`] — biased neighbor selection via
//!   the ISP oracle of Aggarwal et al. \[1\], with the configurable list
//!   size the study sweeps (100 vs 1000);
//! * [`NeighborSelection::LatencyBiased`] — pick the lowest-RTT candidates
//!   (what a Vivaldi/ping-based system does);
//! * [`NeighborSelection::GeoBiased`] — pick geographically closest
//!   (Globase/GeoPeer-style);
//! * [`NeighborSelection::CapacityBiased`] — prefer high-capacity peers
//!   (resource-aware superpeer-style attachment).

use std::cmp::Ordering;
use uap_info::Oracle;
use uap_net::{HostId, Underlay};
use uap_sim::SimRng;

/// The pluggable policy.
#[derive(Clone, Debug, PartialEq)]
pub enum NeighborSelection {
    /// Uniform random choice (the baseline).
    Random,
    /// Hand (up to `list_size` of) the hostcache to the ISP oracle, take
    /// its top-ranked entries.
    OracleBiased {
        /// Maximum candidate-list length sent to the oracle per query.
        list_size: usize,
    },
    /// Rank candidates by measured RTT (2 messages per probe).
    LatencyBiased,
    /// Rank candidates by geographic distance (requires a geolocation
    /// service; exact ISP-provided positions are assumed here).
    GeoBiased,
    /// Rank candidates by descending capacity score.
    CapacityBiased,
}

/// Mutable selection state (oracle counters, probe counters), plus
/// reusable scoring scratch so the per-join ranking path allocates
/// nothing (`tests/alloc_count.rs` counts it).
pub struct Selector {
    /// The policy in force.
    pub policy: NeighborSelection,
    oracle: Oracle,
    probe_messages: u64,
    scored: Vec<(u64, HostId)>,
    scored_cap: Vec<(HostId, f64)>,
}

impl Selector {
    /// Creates a selector for a policy.
    pub fn new(policy: NeighborSelection) -> Selector {
        let list = match policy {
            NeighborSelection::OracleBiased { list_size } => list_size,
            _ => usize::MAX,
        };
        Selector {
            policy,
            oracle: Oracle::new(list),
            probe_messages: 0,
            scored: Vec::new(),
            scored_cap: Vec::new(),
        }
    }

    /// Oracle queries issued (0 for non-oracle policies).
    pub fn oracle_queries(&self) -> u64 {
        self.oracle.queries()
    }

    /// RTT probe messages spent (0 for non-latency policies).
    pub fn probe_messages(&self) -> u64 {
        self.probe_messages
    }

    /// Orders `candidates` best-first for `joiner` under the policy;
    /// clears and fills `out`.
    pub fn rank_into(
        &mut self,
        underlay: &Underlay,
        joiner: HostId,
        candidates: &[HostId],
        rng: &mut SimRng,
        out: &mut Vec<HostId>,
    ) {
        self.select_into(underlay, joiner, candidates, usize::MAX, rng, out);
    }

    /// Picks the (up to) `want` best of `candidates` for `joiner` under
    /// the policy, best first; clears and fills `out` — join/repair hands
    /// in a reused buffer. Every candidate is still shuffled, probed or
    /// scored (the draws and probe counts do not depend on `want`); the
    /// scoring policies then sort only the `want` they keep.
    pub fn select_into(
        &mut self,
        underlay: &Underlay,
        joiner: HostId,
        candidates: &[HostId],
        want: usize,
        rng: &mut SimRng,
        out: &mut Vec<HostId>,
    ) {
        out.clear();
        match self.policy {
            NeighborSelection::Random => {
                out.extend_from_slice(candidates);
                rng.shuffle(out);
            }
            NeighborSelection::OracleBiased { .. } => {
                // The study shuffles the hostcache before the oracle call;
                // the oracle then sorts its prefix.
                out.extend_from_slice(candidates);
                rng.shuffle(out);
                self.oracle.rank_in_place(underlay, joiner, out);
            }
            NeighborSelection::LatencyBiased => {
                let scored = &mut self.scored;
                scored.clear();
                scored.extend(candidates.iter().map(|&c| {
                    self.probe_messages += 2;
                    (
                        underlay.measured_rtt_us(joiner, c, rng).unwrap_or(u64::MAX),
                        c,
                    )
                }));
                best_first(scored, want, Ord::cmp);
                out.extend(scored.iter().map(|&(_, h)| h));
            }
            NeighborSelection::GeoBiased => {
                let scored = &mut self.scored;
                scored.clear();
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "float → int `as` saturates; a geo distance is a few thousand km"
                )]
                scored.extend(candidates.iter().map(|&c| {
                    // Quantize to metres for a stable integer sort key.
                    let km = underlay.geo_distance_km(joiner, c);
                    ((km * 1000.0) as u64, c)
                }));
                best_first(scored, want, Ord::cmp);
                out.extend(scored.iter().map(|&(_, h)| h));
            }
            NeighborSelection::CapacityBiased => {
                let scored = &mut self.scored_cap;
                scored.clear();
                scored.extend(
                    candidates
                        .iter()
                        .map(|&c| (c, underlay.host(c).capacity_score())),
                );
                best_first(scored, want, |a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                out.extend(scored.iter().map(|&(h, _)| h));
            }
        }
        out.truncate(want);
    }
}

/// Reduces `scored` to its `want` smallest entries under `cmp`, sorted:
/// the head of the fully sorted list without sorting its tail (join and
/// repair keep at most a handful of several hundred candidates). `cmp`
/// orders by (score, host), so only equal entries tie and the unstable
/// select and sort leave nothing to chance.
fn best_first<T>(scored: &mut Vec<T>, want: usize, cmp: impl Fn(&T, &T) -> Ordering + Copy) {
    if want < scored.len() {
        scored.select_nth_unstable_by(want, cmp);
        scored.truncate(want);
    }
    scored.sort_unstable_by(cmp);
}

#[cfg(test)]
mod tests {
    use super::*;
    use uap_net::{PopulationSpec, TopologyKind, TopologySpec, Underlay, UnderlayConfig};

    fn underlay() -> Underlay {
        let mut rng = SimRng::new(81);
        let g = TopologySpec::new(TopologyKind::Hierarchical {
            tier1: 2,
            tier2_per_tier1: 2,
            tier3_per_tier2: 3,
            tier2_peering_prob: 0.2,
            tier3_peering_prob: 0.2,
        })
        .build(&mut rng);
        Underlay::build(
            g,
            &PopulationSpec::leaf(200),
            UnderlayConfig::default(),
            &mut rng,
        )
    }

    #[test]
    fn oracle_biased_prefers_same_as() {
        let u = underlay();
        let joiner = HostId(0);
        let my_as = u.hosts.as_of(joiner);
        let mut sel = Selector::new(NeighborSelection::OracleBiased { list_size: 1000 });
        let candidates: Vec<HostId> = u.hosts.ids().filter(|&h| h != joiner).collect();
        let mut rng = SimRng::new(82);
        let mut picked = Vec::new();
        sel.select_into(&u, joiner, &candidates, 4, &mut rng, &mut picked);
        assert_eq!(picked.len(), 4);
        let same_as_available = u.hosts.in_as(my_as).len() - 1;
        let same_as_picked = picked.iter().filter(|&&h| u.same_as(joiner, h)).count();
        assert_eq!(same_as_picked, same_as_available.min(4));
        assert_eq!(sel.oracle_queries(), 1);
    }

    #[test]
    fn list_size_limits_oracle_view() {
        let u = underlay();
        let mut sel = Selector::new(NeighborSelection::OracleBiased { list_size: 5 });
        let candidates: Vec<HostId> = u.hosts.ids().take(100).collect();
        let mut rng = SimRng::new(83);
        let mut ranked = Vec::new();
        sel.rank_into(&u, HostId(150), &candidates, &mut rng, &mut ranked);
        assert_eq!(ranked.len(), 5);
    }

    #[test]
    fn latency_biased_orders_by_rtt() {
        let u = underlay();
        let mut sel = Selector::new(NeighborSelection::LatencyBiased);
        let joiner = HostId(10);
        let candidates: Vec<HostId> = (0..50).map(HostId).filter(|&h| h != joiner).collect();
        let mut rng = SimRng::new(84);
        let mut ranked = Vec::new();
        sel.rank_into(&u, joiner, &candidates, &mut rng, &mut ranked);
        let rtts: Vec<u64> = ranked
            .iter()
            .map(|&h| u.rtt_us(joiner, h).unwrap())
            .collect();
        for w in rtts.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert_eq!(sel.probe_messages(), 49 * 2);
    }

    #[test]
    fn geo_biased_orders_by_distance() {
        let u = underlay();
        let mut sel = Selector::new(NeighborSelection::GeoBiased);
        let joiner = HostId(7);
        let candidates: Vec<HostId> = (0..40).map(HostId).filter(|&h| h != joiner).collect();
        let mut rng = SimRng::new(85);
        let mut ranked = Vec::new();
        sel.rank_into(&u, joiner, &candidates, &mut rng, &mut ranked);
        let dists: Vec<f64> = ranked
            .iter()
            .map(|&h| u.geo_distance_km(joiner, h))
            .collect();
        for w in dists.windows(2) {
            assert!(w[0] <= w[1] + 1e-3);
        }
    }

    #[test]
    fn capacity_biased_orders_descending() {
        let u = underlay();
        let mut sel = Selector::new(NeighborSelection::CapacityBiased);
        let candidates: Vec<HostId> = (0..40).map(HostId).collect();
        let mut rng = SimRng::new(86);
        let mut ranked = Vec::new();
        sel.rank_into(&u, HostId(100), &candidates, &mut rng, &mut ranked);
        let caps: Vec<f64> = ranked.iter().map(|&h| u.host(h).capacity_score()).collect();
        for w in caps.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn random_is_a_permutation() {
        let u = underlay();
        let mut sel = Selector::new(NeighborSelection::Random);
        let candidates: Vec<HostId> = (0..30).map(HostId).collect();
        let mut rng = SimRng::new(87);
        let mut ranked = Vec::new();
        sel.rank_into(&u, HostId(100), &candidates, &mut rng, &mut ranked);
        ranked.sort();
        assert_eq!(ranked, candidates);
        assert_eq!(sel.oracle_queries(), 0);
        assert_eq!(sel.probe_messages(), 0);
    }

    /// Selecting `want` equals ranking everything and keeping the head —
    /// the body `select_into` had before it stopped sorting the tail —
    /// for every policy and every `want` around the edges, with the same
    /// draws taken from the RNG and the same probes counted.
    #[test]
    fn select_equals_head_of_full_ranking() {
        let u = underlay();
        let joiner = HostId(3);
        let candidates: Vec<HostId> = (0..120).map(HostId).filter(|&h| h != joiner).collect();
        for policy in [
            NeighborSelection::Random,
            NeighborSelection::OracleBiased { list_size: 50 },
            NeighborSelection::LatencyBiased,
            NeighborSelection::GeoBiased,
            NeighborSelection::CapacityBiased,
        ] {
            for want in [0, 1, 4, 118, 119, 120, 500] {
                let (mut full, mut head) =
                    (Selector::new(policy.clone()), Selector::new(policy.clone()));
                let (mut rng_full, mut rng_head) = (SimRng::new(89), SimRng::new(89));
                let (mut ranked, mut picked) = (Vec::new(), vec![HostId(7)]);
                full.rank_into(&u, joiner, &candidates, &mut rng_full, &mut ranked);
                head.select_into(&u, joiner, &candidates, want, &mut rng_head, &mut picked);
                ranked.truncate(want);
                assert_eq!(picked, ranked, "{policy:?} want {want}");
                assert_eq!(
                    rng_head.below(1 << 40),
                    rng_full.below(1 << 40),
                    "{policy:?} draws"
                );
                assert_eq!(head.probe_messages(), full.probe_messages());
                assert_eq!(head.oracle_queries(), full.oracle_queries());
            }
        }
    }

    #[test]
    fn select_truncates() {
        let u = underlay();
        let mut sel = Selector::new(NeighborSelection::Random);
        let candidates: Vec<HostId> = (0..30).map(HostId).collect();
        let mut rng = SimRng::new(88);
        let mut picked = Vec::new();
        sel.select_into(&u, HostId(100), &candidates, 3, &mut rng, &mut picked);
        assert_eq!(picked.len(), 3);
        sel.select_into(&u, HostId(100), &candidates, 99, &mut rng, &mut picked);
        assert_eq!(picked.len(), 30);
    }
}
