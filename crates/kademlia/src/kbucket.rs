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
//! # One contact array
//!
//! A node at any simulated size fills a dozen or two of its 160 buckets.
//! The table is therefore one contact array, grouped by bucket in
//! ascending order and least recently seen first within a bucket, plus a
//! `(bucket, length)` list of the non-empty buckets: a node's table is
//! two allocations, not 160 mostly empty ones, and the k-closest walk
//! visits only the buckets that hold contacts.

use crate::id::Key;
use uap_net::HostId;

/// A routing-table entry: the overlay key and its underlay attachment
/// (its AS-hop distance from the owner is read when needed, not stored).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Contact {
    /// DHT key.
    pub key: Key,
    /// The host behind it.
    pub host: HostId,
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
    /// Every contact, grouped by bucket in ascending bucket order, least
    /// recently seen first within a bucket.
    contacts: Vec<Contact>,
    /// `(bucket, length)` of every non-empty bucket, ascending by bucket:
    /// the lengths cut `contacts` into its buckets.
    used: Vec<(u8, u8)>,
}

impl RoutingTable {
    /// Creates a table for `own` with bucket capacity `k` (1 to 255).
    pub fn new(own: Key, k: usize, policy: OverflowPolicy) -> RoutingTable {
        assert!(
            (1..=usize::from(u8::MAX)).contains(&k),
            "bucket capacity k = {k} is outside 1..=255"
        );
        RoutingTable {
            own,
            k,
            policy,
            contacts: Vec::new(),
            used: Vec::new(),
        }
    }

    /// Number of contacts across all buckets.
    pub fn len(&self) -> usize {
        self.contacts.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.contacts.is_empty()
    }

    /// Every contact, bucket 0 upwards, least recently seen first within a
    /// bucket.
    pub fn contacts(&self) -> impl Iterator<Item = &Contact> {
        self.contacts.iter()
    }

    /// Every non-empty bucket as `(index, contacts)`, ascending.
    fn buckets(&self) -> impl Iterator<Item = (usize, &[Contact])> {
        let mut rest = self.contacts.as_slice();
        self.used.iter().map(move |&(b, len)| {
            let (bucket, above) = rest.split_at(usize::from(len));
            rest = above;
            (usize::from(b), bucket)
        })
    }

    /// Bucket `idx`'s entry in `used` (for an empty bucket, the position
    /// its entry would take), its first slot in `contacts` and its length.
    fn locate(&self, idx: usize) -> (usize, usize, usize) {
        let mut start = 0;
        for (at, &(b, len)) in self.used.iter().enumerate() {
            if usize::from(b) >= idx {
                let len = if usize::from(b) == idx { len } else { 0 };
                return (at, start, usize::from(len));
            }
            start += usize::from(len);
        }
        (self.used.len(), start, 0)
    }

    /// Observes a contact (on any received message). Returns true if the
    /// contact ended up in the table. `as_hops` is the owner's AS-hop
    /// distance to a host, read only when a `PreferNear` bucket overflows.
    pub fn observe(&mut self, c: Contact, as_hops: impl Fn(HostId) -> u32) -> bool {
        let inserted = self.observe_inner(c, as_hops);
        #[cfg(debug_assertions)]
        #[expect(clippy::panic, reason = "debug-only invariant guard")]
        if let Err(e) = self.check_invariants() {
            panic!("routing table corrupted after observe: {e}");
        }
        inserted
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "`locate` returns a bucket's slots inside contacts and, for a non-empty \
                  bucket, its entry in used"
    )]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "bucket indices are < 160, and a bucket holds at most k <= 255 contacts"
    )]
    fn observe_inner(&mut self, c: Contact, as_hops: impl Fn(HostId) -> u32) -> bool {
        let Some(idx) = self.own.bucket_index(&c.key) else {
            return false; // self
        };
        let (at, start, len) = self.locate(idx);
        let bucket = &mut self.contacts[start..start + len];
        if let Some(pos) = bucket.iter().position(|e| e.key == c.key) {
            // Move to tail (most recently seen).
            bucket[pos..].rotate_left(1);
            return true;
        }
        if len < self.k {
            self.contacts.insert(start + len, c);
            if len == 0 {
                self.used.insert(at, (idx as u8, 1));
            } else {
                self.used[at].1 = (len + 1) as u8;
            }
            return true;
        }
        match self.policy {
            OverflowPolicy::KeepOld => false,
            OverflowPolicy::PreferNear => {
                // Evict the underlay-farthest entry if the newcomer beats it.
                #[expect(clippy::expect_used, reason = "the bucket is full, so non-empty")]
                let (far_hops, far_pos) = bucket
                    .iter()
                    .enumerate()
                    .map(|(i, e)| (as_hops(e.host), i))
                    .max()
                    .expect("bucket non-empty");
                if as_hops(c.host) < far_hops {
                    bucket[far_pos] = c;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Removes a contact (e.g. after a timeout).
    #[expect(
        clippy::indexing_slicing,
        reason = "`locate` returns a bucket's slots inside contacts and, for a non-empty \
                  bucket, its entry in used"
    )]
    pub fn remove(&mut self, key: &Key) {
        if let Some(idx) = self.own.bucket_index(key) {
            let (at, start, len) = self.locate(idx);
            let bucket = &self.contacts[start..start + len];
            if let Some(pos) = bucket.iter().position(|e| e.key == *key) {
                self.contacts.remove(start + pos);
                if len == 1 {
                    self.used.remove(at);
                } else {
                    self.used[at].1 -= 1;
                }
            }
        }
        #[cfg(debug_assertions)]
        #[expect(clippy::panic, reason = "debug-only invariant guard")]
        if let Err(e) = self.check_invariants() {
            panic!("routing table corrupted after remove: {e}");
        }
    }

    /// Validates the table's structural invariants: the used-bucket list
    /// is strictly ascending and its lengths cut the contact array exactly,
    /// every listed bucket holds between 1 and `k` contacts, every contact
    /// sits in the bucket its XOR distance dictates, no key appears twice
    /// anywhere, and the owner's own key is never stored. Called under
    /// `debug_assertions` from [`Self::observe`] and [`Self::remove`]; also
    /// usable directly from tests.
    pub fn check_invariants(&self) -> Result<(), String> {
        if !self.used.is_sorted_by(|a, b| a.0 < b.0) {
            return Err(format!(
                "used-bucket list {:?} not strictly ascending",
                self.used
            ));
        }
        let listed: usize = self.used.iter().map(|&(_, len)| usize::from(len)).sum();
        if listed != self.contacts.len() {
            return Err(format!(
                "used-bucket lengths sum to {listed}, the table holds {} contacts",
                self.contacts.len()
            ));
        }
        for (i, bucket) in self.buckets() {
            if bucket.is_empty() {
                return Err(format!("bucket {i} is listed as used but holds no contact"));
            }
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
        // The buckets at the one-bits of `d`, highest first: the contact
        // array read from its end.
        let mut rest = self.contacts.as_slice();
        for &(b, len) in self.used.iter().rev() {
            if out.len() >= count {
                break;
            }
            let (below, bucket) = rest.split_at(rest.len() - usize::from(len));
            rest = below;
            if d.bit(usize::from(b)) {
                out.extend_from_slice(bucket);
            }
        }
        // Then those at the zero-bits, lowest first.
        for (b, bucket) in self.buckets() {
            if out.len() >= count {
                break;
            }
            if !d.bit(b) {
                out.extend_from_slice(bucket);
            }
        }
        out.sort_unstable_by(|a, b| target.cmp_distance(&a.key, &b.key));
        out.truncate(count);
    }

    /// Bucket fill counts, all 160 buckets (for diagnostics/tests).
    pub fn bucket_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0; 160];
        for (b, bucket) in self.buckets() {
            if let Some(size) = sizes.get_mut(b) {
                *size = bucket.len();
            }
        }
        sizes
    }

    /// Mean AS-hop distance over all contacts (the quantity PNS drives
    /// down), each read through the owner's `as_hops`.
    pub fn mean_contact_as_hops(&self, as_hops: impl Fn(HostId) -> u32) -> f64 {
        let n = self.len();
        if n == 0 {
            return 0.0;
        }
        self.contacts().map(|c| as_hops(c.host) as f64).sum::<f64>() / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uap_sim::SimRng;

    const _: () = assert!(std::mem::size_of::<Contact>() == 24);

    /// A contact whose host sits `hops` AS hops from the owner: the tests'
    /// host → hops table is the host id itself, read through [`hops`].
    fn contact(key: Key, hops: u32) -> Contact {
        Contact {
            key,
            host: HostId(hops),
        }
    }

    /// The owner's AS-hop distance to `h` in these tests.
    fn hops(h: HostId) -> u32 {
        h.0
    }

    #[test]
    fn self_is_never_inserted() {
        let own = Key::ZERO;
        let mut t = RoutingTable::new(own, 4, OverflowPolicy::KeepOld);
        assert!(!t.observe(contact(own, 0), hops));
        assert!(t.is_empty());
    }

    #[test]
    fn buckets_respect_capacity() {
        let mut rng = SimRng::new(1);
        let own = Key::random(&mut rng);
        let mut t = RoutingTable::new(own, 3, OverflowPolicy::KeepOld);
        for _ in 0..500 {
            t.observe(contact(Key::random(&mut rng), 2), hops);
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
        assert!(t.observe(c, hops));
        assert!(t.observe(c, hops));
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
        assert!(t.observe(contact(mk(1), 5), hops));
        assert!(t.observe(contact(mk(2), 5), hops));
        assert!(!t.observe(contact(mk(3), 0), hops));
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
        t.observe(contact(mk(1), 5), hops);
        t.observe(contact(mk(2), 1), hops);
        // Newcomer with 0 hops replaces the 5-hop entry.
        assert!(t.observe(contact(mk(3), 0), hops));
        let mut c = Vec::new();
        t.closest_into(&own, 10, &mut c);
        assert_eq!(c.len(), 2);
        assert!(c.iter().all(|e| hops(e.host) <= 1));
        // A far newcomer is rejected.
        assert!(!t.observe(contact(mk(4), 9), hops));
        assert!((t.mean_contact_as_hops(hops) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn closest_orders_by_xor() {
        let mut rng = SimRng::new(3);
        let own = Key::random(&mut rng);
        let mut t = RoutingTable::new(own, 8, OverflowPolicy::KeepOld);
        for _ in 0..200 {
            t.observe(contact(Key::random(&mut rng), 2), hops);
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
                    assert!(t.observe(contact(Key(key), 1), hops));
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
        for (i, h) in (0..400).zip((0..7).cycle()) {
            let k = Key::random(&mut rng);
            t.observe(contact(k, h), hops);
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
        let mk = |top: u8, tail: u8| {
            let mut b = [0u8; 20];
            b[0] = top;
            b[19] = tail;
            Key(b)
        };
        // Bucket 0 holds one contact, bucket 159 two.
        assert!(t.observe(contact(mk(0, 1), 1), hops));
        assert!(t.observe(contact(mk(0x80, 1), 1), hops));
        assert!(t.observe(contact(mk(0x80, 2), 1), hops));
        assert_eq!(t.used, [(0, 1), (159, 2)]);
        // Over-capacity bucket.
        t.contacts.push(contact(mk(0x80, 3), 1));
        t.used[1].1 = 3;
        assert!(t.check_invariants().unwrap_err().contains("capacity"));
        t.contacts.pop();
        t.used[1].1 = 2;
        // A listed bucket with no contact.
        t.used.insert(1, (5, 0));
        assert!(t
            .check_invariants()
            .unwrap_err()
            .contains("holds no contact"));
        t.used.remove(1);
        // Misplaced contact: a top-bit key in bucket 0's slot.
        t.contacts[0] = contact(mk(0x80, 4), 1);
        assert!(t.check_invariants().unwrap_err().contains("belongs in"));
        t.contacts[0] = contact(mk(0, 1), 1);
        // Duplicate key smuggled into another slot of the same bucket.
        t.contacts[2] = contact(mk(0x80, 1), 9);
        assert!(t.check_invariants().unwrap_err().contains("twice"));
        t.contacts[2] = contact(mk(0x80, 2), 1);
        // Own key stored.
        t.contacts[0] = contact(own, 0);
        assert!(t.check_invariants().unwrap_err().contains("own key"));
        t.contacts[0] = contact(mk(0, 1), 1);
        // A used list out of order, or naming one bucket twice.
        for used in [vec![(159, 2), (0, 1)], vec![(0, 1), (0, 2)]] {
            let kept = std::mem::replace(&mut t.used, used);
            assert!(t
                .check_invariants()
                .unwrap_err()
                .contains("strictly ascending"));
            t.used = kept;
        }
        // Lengths that do not cut the contact array exactly.
        for len in [1, 3] {
            t.used[1].1 = len;
            assert!(t.check_invariants().unwrap_err().contains("sum to"));
        }
        t.used[1].1 = 2;
        t.check_invariants().unwrap();
    }

    #[test]
    fn remove_deletes() {
        let mut rng = SimRng::new(4);
        let own = Key::random(&mut rng);
        let mut t = RoutingTable::new(own, 4, OverflowPolicy::KeepOld);
        let c = contact(Key::random(&mut rng), 1);
        t.observe(c, hops);
        assert_eq!(t.len(), 1);
        t.remove(&c.key);
        assert!(t.is_empty());
        // The emptied bucket leaves the used list too.
        assert!(t.used.is_empty());
    }
}
