//! A node's hostcache: the bounded list of hosts it knows about.
//!
//! Join and repair draw neighbor candidates from it in insertion order;
//! every ping cycle appends the hosts whose pongs came back. When the
//! cache is full the **oldest** entry makes room (the newest sits at the
//! back), and a host already cached keeps its place — the order golden
//! traces and the committed result CSVs pin.
//!
//! Membership is one bit per potential host beside the ring, so a refresh
//! costs one word probe per reached node instead of a scan of the cache
//! (in the Table 1 runs the cache holds nearly every host and every probe
//! hits). That is `hosts²/8` bytes over all nodes — 1/32 of what the full
//! caches' own ids take — and no per-refresh pass over the cache, which a
//! shared O(hosts) stamp array would need to mark the members first.

use crate::overlay::Reached;
use std::collections::VecDeque;
use uap_net::HostId;

/// Insertion-ordered, bounded set of known hosts.
pub(crate) struct HostCache {
    /// Cached hosts, oldest first.
    ring: VecDeque<HostId>,
    /// Bit `h` is set iff `h` is in `ring`.
    member: Vec<u64>,
    capacity: usize,
    /// Membership probes made so far: the work guard's counter.
    #[cfg(test)]
    probes: u64,
}

impl HostCache {
    /// A cache of at most `capacity` entries over host ids `0..n_hosts`,
    /// holding the first `capacity` hosts of `initial` (oldest first),
    /// which must not name a host twice — the bootstrap sample is drawn
    /// without replacement. The ring is sized for its bound up front (a
    /// cache never holds its owner or a host twice), so inserts do not
    /// grow it.
    pub(crate) fn new(
        capacity: usize,
        n_hosts: usize,
        initial: impl IntoIterator<Item = HostId>,
    ) -> HostCache {
        let mut hosts = Vec::with_capacity(capacity.min(n_hosts.saturating_sub(1)));
        hosts.extend(initial.into_iter().take(capacity));
        let mut member = vec![0u64; n_hosts.div_ceil(64)];
        for h in &hosts {
            if let Some(word) = member.get_mut(h.idx() / 64) {
                *word |= 1 << (h.idx() % 64);
            }
        }
        debug_assert_eq!(
            member
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum::<usize>(),
            hosts.len(),
            "initial hosts repeat or fall outside 0..{n_hosts}"
        );
        HostCache {
            ring: VecDeque::from(hosts),
            member,
            capacity,
            #[cfg(test)]
            probes: 0,
        }
    }

    /// Cached hosts, oldest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = HostId> + '_ {
        self.ring.iter().copied()
    }

    /// Appends `h` as the newest entry unless it is already cached,
    /// evicting the oldest entry of a full cache. A cache of capacity 0
    /// (and an id outside `0..n_hosts`) drops the insert.
    pub(crate) fn insert(&mut self, h: HostId) {
        #[cfg(test)]
        {
            self.probes += 1;
        }
        let bit = 1u64 << (h.idx() % 64);
        match self.member.get_mut(h.idx() / 64) {
            Some(word) if *word & bit == 0 && self.capacity > 0 => *word |= bit,
            _ => return,
        }
        if self.ring.len() >= self.capacity {
            if let Some(oldest) = self.ring.pop_front() {
                if let Some(word) = self.member.get_mut(oldest.idx() / 64) {
                    *word &= !(1u64 << (oldest.idx() % 64));
                }
            }
        }
        self.ring.push_back(h);
    }

    /// Learns the hosts a ping flood from `owner` reached, in flood order.
    pub(crate) fn refresh(&mut self, owner: HostId, reached: &[Reached]) {
        for r in reached {
            if r.host != owner {
                self.insert(r.host);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn reached(hosts: &[u32]) -> Vec<Reached> {
        let r = |&h| Reached {
            host: HostId(h),
            hops: 1,
            parent: Reached::NO_PARENT,
        };
        hosts.iter().map(r).collect()
    }

    fn contents(c: &HostCache) -> Vec<u32> {
        c.iter().map(|h| h.0).collect()
    }

    /// The refresh `ping_cycle` ran before `HostCache` existed, kept as
    /// the reference: linear `contains`, `remove(0)` on overflow.
    fn reference_refresh(cache: &mut Vec<HostId>, capacity: usize, owner: HostId, hosts: &[u32]) {
        for &x in hosts {
            let x = HostId(x);
            if x != owner && !cache.contains(&x) {
                if cache.len() >= capacity {
                    cache.remove(0);
                }
                cache.push(x);
            }
        }
    }

    #[test]
    fn keeps_insertion_order_and_evicts_oldest() {
        let mut c = HostCache::new(3, 10, []);
        c.refresh(HostId(0), &reached(&[4, 0, 2, 4, 7]));
        assert_eq!(contents(&c), [4, 2, 7], "owner and duplicate skipped");
        c.insert(HostId(9));
        assert_eq!(contents(&c), [2, 7, 9], "oldest entry made room");
        c.insert(HostId(4));
        assert_eq!(contents(&c), [7, 9, 4], "an evicted host may return");
        c.insert(HostId(7));
        assert_eq!(contents(&c), [7, 9, 4], "a cached host keeps its place");
    }

    #[test]
    fn capacity_zero_drops_inserts() {
        // The Vec version ran `remove(0)` on an empty cache here.
        let mut c = HostCache::new(0, 10, []);
        c.refresh(HostId(0), &reached(&[1, 2, 3]));
        assert_eq!(c.iter().count(), 0);
    }

    #[test]
    fn capacity_one_evicts_on_every_insert() {
        let mut c = HostCache::new(1, 10, []);
        for h in [3, 5, 5, 8] {
            c.insert(HostId(h));
            assert_eq!(contents(&c), [h]);
        }
    }

    #[test]
    fn ids_past_the_population_are_dropped() {
        let mut c = HostCache::new(4, 64, []);
        c.insert(HostId(64));
        c.insert(HostId(1_000_000));
        assert_eq!(c.iter().count(), 0);
    }

    /// Work guard: refreshing a full 4 096-entry cache from 4 096 reached
    /// hosts probes membership once per reached host — the scan it
    /// replaces made ~cache × reached comparisons — and never grows the
    /// ring, evictions included.
    #[test]
    fn refresh_probes_once_per_reached_host() {
        let (cap, n) = (4_096u32, 8_192u32);
        let mut c = HostCache::new(cap as usize, n as usize, (0..cap).map(HostId));
        let ring_capacity = c.ring.capacity();
        // The first half is cached already (hits); each host of the second
        // half evicts the then-oldest entry.
        let batch: Vec<u32> = (cap / 2..cap / 2 + cap).collect();
        c.refresh(HostId(n - 1), &reached(&batch));
        assert_eq!(c.probes, u64::from(cap));
        assert_eq!(c.ring.len(), cap as usize);
        assert_eq!(c.ring.capacity(), ring_capacity);
        assert_eq!(c.iter().next(), Some(HostId(cap / 2)));
        assert_eq!(c.iter().last(), Some(HostId(cap / 2 + cap - 1)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// `HostCache` equals the `Vec` refresh after every batch, with
        /// capacities small enough against the population that most
        /// inserts evict (the benchmark's caches never do).
        #[test]
        fn refresh_equals_vec_scan(
            capacity in 1usize..9,
            n in 2u32..61,
            owner in 0u32..60,
            batches in prop::collection::vec(prop::collection::vec(0u32..60, 0..24), 1..12),
        ) {
            let owner = HostId(owner % n);
            let mut new = HostCache::new(capacity, n as usize, []);
            let mut old: Vec<HostId> = Vec::new();
            for batch in &batches {
                let batch: Vec<u32> = batch.iter().map(|h| h % n).collect();
                new.refresh(owner, &reached(&batch));
                reference_refresh(&mut old, capacity, owner, &batch);
                prop_assert_eq!(new.iter().collect::<Vec<_>>(), old.clone());
                for h in 0..n {
                    let bit = new.member[h as usize / 64] >> (h % 64) & 1 == 1;
                    prop_assert_eq!(bit, old.contains(&HostId(h)), "member bit of {}", h);
                }
            }
        }
    }
}
