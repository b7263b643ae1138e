//! k-buckets and the routing table.
//!
//! Each node keeps 160 buckets; bucket `i` holds up to `k` contacts whose
//! XOR distance has its highest set bit at position `i`. The underlay-aware
//! twist (Kaune et al. \[17\]) is in the **overflow policy**: vanilla
//! Kademlia keeps the longest-lived contact (LRU), the proximity variant
//! keeps the contact with the smaller AS-hop distance. Both fill the same
//! buckets, so lookup convergence is identical — only *which* of the
//! equally-correct contacts survives changes.
//!
//! # k-closest in bucket order
//!
//! [`RoutingTable::closest_into`] answers every FIND_NODE, so it must not
//! look at the whole table. Let `d = own ⊕ target` and take a contact `c`
//! of bucket `i`: `own ⊕ c` is zero above bit `i` and one at bit `i`, so
//! `target ⊕ c = d ⊕ (own ⊕ c)` agrees with `d` above bit `i` and has
//! `¬d_i` at bit `i`. Against a contact of any lower bucket `j < i`, whose
//! distance to `target` still has `d_i` there, bit `i` decides: if `d_i = 1`
//! all of bucket `i` is closer to `target` than everything below it, if
//! `d_i = 0` all of it is farther. Hence the buckets, taken whole, are
//! already in distance order: those at the one-bits of `d` from the highest
//! index down, then those at the zero-bits from the lowest index up. The
//! walk appends buckets in that order and stops at the one that completes
//! `count`, so at most `count + k − 1` contacts are copied and sorted,
//! whatever the table holds. XOR distances from one target to distinct keys
//! are distinct and a table holds no key twice, so the result is exactly
//! the head of the fully sorted table (the oracle in `tests/prop.rs`).
//!
//! A node at any simulated size fills a dozen or two of its 160 buckets,
//! and for a target near the owner the walk would cross all the empty ones
//! (160 `Vec` headers, 60 cache lines of a table that is cold on every
//! RPC). The table therefore lists the indices of the buckets that ever
//! held a contact, ascending, and the walk visits only those.

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
    /// Indices of the buckets that ever held a contact, ascending.
    used: Vec<usize>,
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
            used: Vec::new(),
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

    /// Every contact, bucket 0 upwards, least recently seen first within a
    /// bucket.
    pub fn contacts(&self) -> impl Iterator<Item = &Contact> {
        self.buckets.iter().flatten()
    }

    /// Observes a contact (on any received message). Returns true if the
    /// contact ended up in the table.
    pub fn observe(&mut self, c: Contact) -> bool {
        let inserted = self.observe_inner(c);
        #[cfg(debug_assertions)]
        #[expect(clippy::panic, reason = "debug-only invariant guard")]
        if let Err(e) = self.check_invariants() {
            panic!("routing table corrupted after observe: {e}");
        }
        inserted
    }

    #[expect(clippy::indexing_slicing, reason = "bucket index < buckets.len()")]
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
            if bucket.is_empty() {
                if let Err(at) = self.used.binary_search(&idx) {
                    self.used.insert(at, idx);
                }
            }
            bucket.push(c);
            return true;
        }
        match self.policy {
            OverflowPolicy::KeepOld => false,
            OverflowPolicy::PreferNear => {
                // Evict the underlay-farthest entry if the newcomer beats it.
                #[expect(clippy::expect_used, reason = "the bucket is full, so non-empty")]
                let (far_pos, far) = bucket
                    .iter()
                    .enumerate()
                    .max_by_key(|(i, e)| (e.as_hops, *i))
                    .expect("bucket non-empty");
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
    #[expect(clippy::indexing_slicing, reason = "bucket index < buckets.len()")]
    pub fn remove(&mut self, key: &Key) {
        if let Some(idx) = self.own.bucket_index(key) {
            self.buckets[idx].retain(|e| e.key != *key);
        }
        #[cfg(debug_assertions)]
        #[expect(clippy::panic, reason = "debug-only invariant guard")]
        if let Err(e) = self.check_invariants() {
            panic!("routing table corrupted after remove: {e}");
        }
    }

    /// Validates the table's structural invariants: every bucket holds at
    /// most `k` contacts, every contact sits in the bucket its XOR distance
    /// dictates, no key appears twice anywhere, the owner's own key is
    /// never stored, and the used-bucket list is ascending and names every
    /// non-empty bucket (or `closest_into` would skip it). Called under
    /// `debug_assertions` from [`Self::observe`] and [`Self::remove`]; also
    /// usable directly from tests.
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
        for c in self.contacts() {
            if !seen.insert(c.key) {
                return Err(format!("key {:?} appears twice in the table", c.key));
            }
        }
        if !self.used.is_sorted_by(|a, b| a < b) {
            return Err(format!("used-bucket list {:?} not ascending", self.used));
        }
        for (i, bucket) in self.buckets.iter().enumerate() {
            if !bucket.is_empty() && self.used.binary_search(&i).is_err() {
                return Err(format!(
                    "bucket {i} holds contacts but is not listed as used"
                ));
            }
        }
        Ok(())
    }

    /// The `count` contacts closest to `target` in XOR distance,
    /// closest-first; clears and fills `out` — the lookup loop reuses one
    /// response buffer across every RPC it makes.
    ///
    /// Buckets are taken whole in XOR order relative to `target` (module
    /// docs) until `count` contacts are held; only those — fewer than
    /// `count + k` — are sorted.
    pub fn closest_into(&self, target: &Key, count: usize, out: &mut Vec<Contact>) {
        out.clear();
        let d = self.own.distance(target);
        let nearer = self.used.iter().rev().filter(|&&i| d.bit(i));
        let farther = self.used.iter().filter(|&&i| !d.bit(i));
        for bucket in nearer.chain(farther).filter_map(|&i| self.buckets.get(i)) {
            if out.len() >= count {
                break;
            }
            out.extend_from_slice(bucket);
        }
        out.sort_unstable_by(|a, b| target.cmp_distance(&a.key, &b.key));
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
        self.contacts().map(|c| c.as_hops as f64).sum::<f64>() / n as f64
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

    /// Deterministic work guard: with every bucket full, a k-closest answer
    /// copies a bucket or two, never the table — whatever the wall clock says.
    #[test]
    fn closest_never_holds_the_whole_table() {
        let own = Key::ZERO;
        let mut t = RoutingTable::new(own, 8, OverflowPolicy::KeepOld);
        for b in 0..160 {
            // Bucket `b` of the zero key: bit `b` set, `j` in the low bits
            // (buckets 0, 1 and 2 only have 1, 2 and 4 keys to offer).
            for j in 0..8u8 {
                let mut key = [0u8; 20];
                key[19] = j;
                key[19 - b / 8] |= 1 << (b % 8);
                if own.bucket_index(&Key(key)) == Some(b) {
                    assert!(t.observe(contact(Key(key), 1)));
                }
            }
        }
        assert_eq!(t.len(), 157 * 8 + 1 + 2 + 4);
        let mut rng = SimRng::new(6);
        let far = Key([0xFF; 20]);
        for target in [own, far, Key::random(&mut rng), Key::random(&mut rng)] {
            let mut buf = Vec::new();
            t.closest_into(&target, 8, &mut buf);
            assert_eq!(buf.len(), 8);
            assert!(buf.capacity() <= 64, "held {} contacts", buf.capacity());
        }
    }

    #[test]
    fn invariants_hold_under_churn() {
        let mut rng = SimRng::new(5);
        let own = Key::random(&mut rng);
        let mut t = RoutingTable::new(own, 3, OverflowPolicy::PreferNear);
        let mut keys = Vec::new();
        for (i, hops) in (0..400).zip((0..7).cycle()) {
            let k = Key::random(&mut rng);
            t.observe(contact(k, hops));
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
        // A non-empty bucket the k-closest walk would never visit.
        let used = std::mem::take(&mut t.used);
        assert!(t.check_invariants().unwrap_err().contains("not listed"));
        t.used = used;
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
