//! The ISP oracle (§3.1, "ISP component in network"; §4).
//!
//! After Aggarwal, Feldmann and Scheideler \[1\]: "The oracle is queried for
//! locality information about the peers. Mainly, it just considers
//! ISP-location-based ordering of peers to avoid inter-AS traffic. […]
//! When it gets a list of IP addresses from a node, it ranks the list
//! according to AS hops distance. Hence, the Gnutella node joins another
//! node within its AS if such a node is present in its Hostcache, else it
//! joins a node from the nearest AS."
//!
//! The oracle lives at the ISP, so it ranks with *ground-truth* routing
//! tables — that is the whole point of the technique.

use uap_net::{HostId, Underlay};
use uap_sim::{trace::registry, SimTime, Tracer};

/// The ISP-side ranking component.
pub struct Oracle {
    queries: u64,
    ranked_entries: u64,
    /// Maximum candidate-list length the oracle accepts per query; the
    /// reprinted study evaluates "list size 100" and "list size 1000".
    pub max_list: usize,
    /// Reusable scoring scratch so per-query ranking allocates nothing.
    scored: Vec<(u32, usize, HostId)>,
}

impl Oracle {
    /// Creates an oracle accepting candidate lists up to `max_list` long.
    pub fn new(max_list: usize) -> Oracle {
        Oracle {
            queries: 0,
            ranked_entries: 0,
            max_list,
            scored: Vec::new(),
        }
    }

    /// Ranks `candidates` for `querier` by AS-hop distance (same AS first),
    /// truncating the input to `max_list` entries first — exactly the
    /// oracle call of \[1\]. Unreachable candidates sort last. Ties keep the
    /// caller's order (the oracle is not a load balancer).
    pub fn rank(
        &mut self,
        underlay: &Underlay,
        querier: HostId,
        candidates: &[HostId],
    ) -> Vec<HostId> {
        let mut out = candidates.to_vec();
        self.rank_in_place(underlay, querier, &mut out);
        out
    }

    /// Like [`Oracle::rank`], but reorders (and truncates) `list` in
    /// place — the per-join selection path hands the oracle its reused
    /// candidate buffer instead of allocating a response.
    pub fn rank_in_place(&mut self, underlay: &Underlay, querier: HostId, list: &mut Vec<HostId>) {
        self.queries += 1;
        let take = list.len().min(self.max_list);
        self.ranked_entries += take as u64;
        list.truncate(take);
        let scored = &mut self.scored;
        scored.clear();
        scored.extend(list.iter().enumerate().map(|(pos, &c)| {
            let hops = underlay.as_hops(querier, c).unwrap_or(u32::MAX);
            (hops, pos, c)
        }));
        scored.sort_by_key(|&(hops, pos, _)| (hops, pos));
        list.clear();
        list.extend(scored.iter().map(|&(_, _, c)| c));
    }

    /// Like [`Oracle::rank`], but emits one `info`/`oracle.rank` trace
    /// event (Debug level) recording the querier, list length and the
    /// AS-hop distance of the winning candidate — the per-call collection
    /// cost E15 accounts.
    pub fn rank_traced(
        &mut self,
        underlay: &Underlay,
        querier: HostId,
        candidates: &[HostId],
        now: SimTime,
        tracer: &mut Tracer,
    ) -> Vec<HostId> {
        let ranked = self.rank(underlay, querier, candidates);
        if tracer.is_enabled(registry::INFO_ORACLE_RANK.level()) {
            let best_hops = ranked
                .first()
                .and_then(|&b| underlay.as_hops(querier, b))
                .unwrap_or(u32::MAX);
            tracer.emit(now, registry::INFO_ORACLE_RANK, |f| {
                f.u64("querier", querier.0 as u64)
                    .u64("list", candidates.len().min(self.max_list) as u64)
                    .u64("best_as_hops", best_hops as u64);
            });
        }
        ranked
    }

    /// The single best candidate, if any. Equivalent to the head of
    /// [`Oracle::rank`] (same counters, same tie-break) without building
    /// the ranked list — the query hot path only wants the winner.
    pub fn best(
        &mut self,
        underlay: &Underlay,
        querier: HostId,
        candidates: &[HostId],
    ) -> Option<HostId> {
        self.queries += 1;
        let take = candidates.len().min(self.max_list);
        self.ranked_entries += take as u64;
        candidates
            .iter()
            .take(take)
            .enumerate()
            .map(|(pos, &c)| (underlay.as_hops(querier, c).unwrap_or(u32::MAX), pos, c))
            .min_by_key(|&(hops, pos, _)| (hops, pos))
            .map(|(_, _, c)| c)
    }

    /// Number of oracle queries served.
    pub fn queries(&self) -> u64 {
        self.queries
    }

    /// Total candidate entries ranked (the oracle's workload measure).
    pub fn ranked_entries(&self) -> u64 {
        self.ranked_entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uap_net::{NetParams, Underlay};

    fn underlay() -> Underlay {
        NetParams {
            tier1: 2,
            tier2_per_tier1: 2,
            tier3_per_tier2: 3,
            n_hosts: 300,
            seed: 7,
        }
        .build()
    }

    #[test]
    fn same_as_candidates_rank_first() {
        let u = underlay();
        let querier = HostId(0);
        let my_as = u.hosts.as_of(querier);
        // Build a candidate list containing at least one same-AS host.
        let same: Vec<HostId> = u
            .hosts
            .in_as(my_as)
            .iter()
            .copied()
            .filter(|&h| h != querier)
            .take(2)
            .collect();
        assert!(!same.is_empty(), "fixture needs a same-AS peer");
        let mut candidates: Vec<HostId> = u
            .hosts
            .ids()
            .filter(|&h| u.hosts.as_of(h) != my_as)
            .take(20)
            .collect();
        candidates.extend(&same);
        let mut oracle = Oracle::new(1000);
        let ranked = oracle.rank(&u, querier, &candidates);
        assert_eq!(ranked.len(), candidates.len());
        for (i, &h) in ranked.iter().take(same.len()).enumerate() {
            assert!(
                u.same_as(querier, h),
                "rank {i} is {h} from {}",
                u.hosts.as_of(h)
            );
        }
    }

    #[test]
    fn ranking_is_monotone_in_as_hops() {
        let u = underlay();
        let querier = HostId(5);
        let candidates: Vec<HostId> = u.hosts.ids().filter(|&h| h != querier).collect();
        let mut oracle = Oracle::new(usize::MAX);
        let ranked = oracle.rank(&u, querier, &candidates);
        let hops: Vec<u32> = ranked
            .iter()
            .map(|&h| u.as_hops(querier, h).unwrap_or(u32::MAX))
            .collect();
        for w in hops.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn list_size_cap_applies() {
        let u = underlay();
        let candidates: Vec<HostId> = u.hosts.ids().take(250).collect();
        let mut oracle = Oracle::new(100);
        let ranked = oracle.rank(&u, HostId(299), &candidates);
        assert_eq!(ranked.len(), 100);
        assert_eq!(oracle.ranked_entries(), 100);
        assert_eq!(oracle.queries(), 1);
    }

    #[test]
    fn ties_preserve_caller_order() {
        let u = underlay();
        let querier = HostId(0);
        let my_as = u.hosts.as_of(querier);
        let same: Vec<HostId> = u
            .hosts
            .in_as(my_as)
            .iter()
            .copied()
            .filter(|&h| h != querier)
            .collect();
        if same.len() >= 2 {
            let mut oracle = Oracle::new(1000);
            let ranked = oracle.rank(&u, querier, &same);
            assert_eq!(ranked, same);
        }
    }

    #[test]
    fn best_returns_first() {
        let u = underlay();
        let mut oracle = Oracle::new(1000);
        let candidates: Vec<HostId> = u.hosts.ids().take(10).collect();
        let best = oracle.best(&u, HostId(50), &candidates).unwrap();
        let ranked = oracle.rank(&u, HostId(50), &candidates);
        assert_eq!(best, ranked[0]);
        assert!(oracle.best(&u, HostId(50), &[]).is_none());
    }
}
