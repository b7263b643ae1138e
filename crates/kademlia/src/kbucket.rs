//! k-buckets and the routing table.
//!
//! Each node keeps 160 buckets; bucket `i` holds up to `k` contacts whose
//! XOR distance has its highest set bit at position `i`. The underlay-aware
//! twist (Kaune et al. \[17\]) is in the **overflow policy**: vanilla
//! Kademlia keeps the longest-lived contact (LRU), the proximity variant
//! keeps the contact with the smaller AS-hop distance. Both fill the same
//! buckets, so lookup convergence is identical — only *which* of the
//! equally-correct contacts survives changes.

use crate::id::Key;
use uap_net::HostId;

/// A routing-table entry: the overlay key and its underlay attachment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Contact {
    /// DHT key.
    pub key: Key,
    /// The host behind it.
    pub host: HostId,
    /// AS-hop distance from the table owner (cached at insert time).
    pub as_hops: u32,
}

/// Bucket overflow policy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OverflowPolicy {
    /// Drop the newcomer (classic Kademlia behaviour when the oldest
    /// contact is still alive).
    KeepOld,
    /// Keep the underlay-closest: evict the current farthest entry if the
    /// newcomer is closer (proximity neighbor selection).
    PreferNear,
}

/// One node's routing table.
pub struct RoutingTable {
    /// The owner's key.
    pub own: Key,
    k: usize,
    policy: OverflowPolicy,
    buckets: Vec<Vec<Contact>>,
}

impl RoutingTable {
    /// Creates a table for `own` with bucket capacity `k`.
    pub fn new(own: Key, k: usize, policy: OverflowPolicy) -> RoutingTable {
        assert!(k >= 1);
        RoutingTable {
            own,
            k,
            policy,
            buckets: vec![Vec::new(); 160],
        }
    }

    /// Number of contacts across all buckets.
    pub fn len(&self) -> usize {
        self.buckets.iter().map(Vec::len).sum()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(Vec::is_empty)
    }

    /// Observes a contact (on any received message). Returns true if the
    /// contact ended up in the table.
    pub fn observe(&mut self, c: Contact) -> bool {
        let inserted = self.observe_inner(c);
        #[cfg(debug_assertions)]
        if let Err(e) = self.check_invariants() {
            // lint:allow(panic) — debug-only invariant guard
            panic!("routing table corrupted after observe: {e}");
        }
        inserted
    }

    fn observe_inner(&mut self, c: Contact) -> bool {
        let idx = match self.own.bucket_index(&c.key) {
            Some(i) => i,
            None => return false, // self
        };
        let bucket = &mut self.buckets[idx];
        if let Some(pos) = bucket.iter().position(|e| e.key == c.key) {
            // Move to tail (most recently seen).
            let e = bucket.remove(pos);
            bucket.push(e);
            return true;
        }
        if bucket.len() < self.k {
            bucket.push(c);
            return true;
        }
        match self.policy {
            OverflowPolicy::KeepOld => false,
            OverflowPolicy::PreferNear => {
                // Evict the underlay-farthest entry if the newcomer beats it.
                let (far_pos, far) = bucket
                    .iter()
                    .enumerate()
                    .max_by_key(|(i, e)| (e.as_hops, *i))
                    .expect("bucket non-empty"); // lint:allow(expect)
                if c.as_hops < far.as_hops {
                    bucket[far_pos] = c;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Removes a contact (e.g. after a timeout).
    pub fn remove(&mut self, key: &Key) {
        if let Some(idx) = self.own.bucket_index(key) {
            self.buckets[idx].retain(|e| e.key != *key);
        }
        #[cfg(debug_assertions)]
        if let Err(e) = self.check_invariants() {
            // lint:allow(panic) — debug-only invariant guard
            panic!("routing table corrupted after remove: {e}");
        }
    }

    /// Validates the table's structural invariants: every bucket holds at
    /// most `k` contacts, every contact sits in the bucket its XOR distance
    /// dictates, no key appears twice anywhere, and the owner's own key is
    /// never stored. Called under `debug_assertions` from [`Self::observe`]
    /// and [`Self::remove`]; also usable directly from tests.
    // lint:allow(alloc) — diagnostic checker; allocates only error messages
    pub fn check_invariants(&self) -> Result<(), String> {
        for (i, bucket) in self.buckets.iter().enumerate() {
            if bucket.len() > self.k {
                return Err(format!(
                    "bucket {i} holds {} contacts, capacity k = {}",
                    bucket.len(),
                    self.k
                ));
            }
            for c in bucket {
                match self.own.bucket_index(&c.key) {
                    None => {
                        return Err(format!("own key {:?} stored in bucket {i}", c.key));
                    }
                    Some(want) if want != i => {
                        return Err(format!(
                            "contact {:?} in bucket {i}, belongs in bucket {want}",
                            c.key
                        ));
                    }
                    Some(_) => {}
                }
            }
        }
        let mut seen: std::collections::BTreeSet<Key> = std::collections::BTreeSet::new();
        for c in self.buckets.iter().flatten() {
            if !seen.insert(c.key) {
                return Err(format!("key {:?} appears twice in the table", c.key));
            }
        }
        Ok(())
    }

    /// The `count` contacts closest to `target` in XOR distance,
    /// closest-first; clears and fills `out` — the lookup loop reuses one
    /// response buffer across every RPC it makes.
    pub fn closest_into(&self, target: &Key, count: usize, out: &mut Vec<Contact>) {
        out.clear();
        out.extend(self.buckets.iter().flatten().copied());
        out.sort_by(|a, b| target.cmp_distance(&a.key, &b.key));
        out.truncate(count);
    }

    /// Bucket fill counts (for diagnostics/tests).
    pub fn bucket_sizes(&self) -> Vec<usize> {
        self.buckets.iter().map(Vec::len).collect()
    }

    /// Mean AS-hop distance over all contacts (the quantity PNS drives
    /// down).
    pub fn mean_contact_as_hops(&self) -> f64 {
        let n = self.len();
        if n == 0 {
            return 0.0;
        }
        self.buckets
            .iter()
            .flatten()
            .map(|c| c.as_hops as f64)
            .sum::<f64>()
            / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uap_sim::SimRng;

    fn contact(key: Key, hops: u32) -> Contact {
        Contact {
            key,
            host: HostId(0),
            as_hops: hops,
        }
    }

    #[test]
    fn self_is_never_inserted() {
        let own = Key::ZERO;
        let mut t = RoutingTable::new(own, 4, OverflowPolicy::KeepOld);
        assert!(!t.observe(contact(own, 0)));
        assert!(t.is_empty());
    }

    #[test]
    fn buckets_respect_capacity() {
        let mut rng = SimRng::new(1);
        let own = Key::random(&mut rng);
        let mut t = RoutingTable::new(own, 3, OverflowPolicy::KeepOld);
        for _ in 0..500 {
            t.observe(contact(Key::random(&mut rng), 2));
        }
        for (i, &s) in t.bucket_sizes().iter().enumerate() {
            assert!(s <= 3, "bucket {i} overfull: {s}");
        }
        assert!(t.len() > 10);
    }

    #[test]
    fn reobserving_moves_to_tail_not_duplicates() {
        let mut rng = SimRng::new(2);
        let own = Key::random(&mut rng);
        let mut t = RoutingTable::new(own, 4, OverflowPolicy::KeepOld);
        let c = contact(Key::random(&mut rng), 1);
        assert!(t.observe(c));
        assert!(t.observe(c));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn keep_old_rejects_overflow() {
        // Fill bucket 159 (keys with top bit differing from own=0).
        let own = Key::ZERO;
        let mut t = RoutingTable::new(own, 2, OverflowPolicy::KeepOld);
        let mk = |tail: u8| {
            let mut b = [0u8; 20];
            b[0] = 0x80;
            b[19] = tail;
            Key(b)
        };
        assert!(t.observe(contact(mk(1), 5)));
        assert!(t.observe(contact(mk(2), 5)));
        assert!(!t.observe(contact(mk(3), 0)));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn prefer_near_evicts_farthest() {
        let own = Key::ZERO;
        let mut t = RoutingTable::new(own, 2, OverflowPolicy::PreferNear);
        let mk = |tail: u8| {
            let mut b = [0u8; 20];
            b[0] = 0x80;
            b[19] = tail;
            Key(b)
        };
        t.observe(contact(mk(1), 5));
        t.observe(contact(mk(2), 1));
        // Newcomer with 0 hops replaces the 5-hop entry.
        assert!(t.observe(contact(mk(3), 0)));
        let mut c = Vec::new();
        t.closest_into(&own, 10, &mut c);
        assert_eq!(c.len(), 2);
        assert!(c.iter().all(|e| e.as_hops <= 1));
        // A far newcomer is rejected.
        assert!(!t.observe(contact(mk(4), 9)));
        assert!((t.mean_contact_as_hops() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn closest_orders_by_xor() {
        let mut rng = SimRng::new(3);
        let own = Key::random(&mut rng);
        let mut t = RoutingTable::new(own, 8, OverflowPolicy::KeepOld);
        for _ in 0..200 {
            t.observe(contact(Key::random(&mut rng), 2));
        }
        let target = Key::random(&mut rng);
        let mut c = Vec::new();
        t.closest_into(&target, 20, &mut c);
        assert_eq!(c.len(), 20);
        for w in c.windows(2) {
            assert_ne!(
                target.cmp_distance(&w[0].key, &w[1].key),
                std::cmp::Ordering::Greater
            );
        }
    }

    #[test]
    fn invariants_hold_under_churn() {
        let mut rng = SimRng::new(5);
        let own = Key::random(&mut rng);
        let mut t = RoutingTable::new(own, 3, OverflowPolicy::PreferNear);
        let mut keys = Vec::new();
        for i in 0..400 {
            let k = Key::random(&mut rng);
            t.observe(contact(k, (i % 7) as u32));
            keys.push(k);
            if i % 3 == 0 {
                t.remove(&keys[(i * 31) % keys.len()]);
            }
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn invariants_catch_corruption() {
        let own = Key::ZERO;
        let mut t = RoutingTable::new(own, 2, OverflowPolicy::KeepOld);
        let mk = |tail: u8| {
            let mut b = [0u8; 20];
            b[0] = 0x80;
            b[19] = tail;
            Key(b)
        };
        t.observe(contact(mk(1), 1));
        t.observe(contact(mk(2), 1));
        // Over-capacity bucket.
        t.buckets[159].push(contact(mk(3), 1));
        assert!(t.check_invariants().unwrap_err().contains("capacity"));
        t.buckets[159].pop();
        // Misplaced contact: a top-bit key stuffed into bucket 0.
        t.buckets[0].push(contact(mk(4), 1));
        assert!(t.check_invariants().unwrap_err().contains("belongs in"));
        t.buckets[0].pop();
        // Duplicate key smuggled into another slot of the same bucket.
        t.buckets[159][1] = contact(mk(1), 9);
        assert!(t.check_invariants().unwrap_err().contains("twice"));
        t.buckets[159][1] = contact(mk(2), 1);
        // Own key stored.
        t.buckets[0].push(contact(own, 0));
        assert!(t.check_invariants().unwrap_err().contains("own key"));
        t.buckets[0].pop();
        t.check_invariants().unwrap();
    }

    #[test]
    fn remove_deletes() {
        let mut rng = SimRng::new(4);
        let own = Key::random(&mut rng);
        let mut t = RoutingTable::new(own, 4, OverflowPolicy::KeepOld);
        let c = contact(Key::random(&mut rng), 1);
        t.observe(c);
        assert_eq!(t.len(), 1);
        t.remove(&c.key);
        assert!(t.is_empty());
    }
}
