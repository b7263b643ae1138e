//! Property-based tests for the XOR metric and k-bucket invariants.

use proptest::prelude::*;
use uap_kademlia::kbucket::{Contact, OverflowPolicy};
use uap_kademlia::{Key, RoutingTable};
use uap_net::HostId;
use uap_sim::SimRng;

fn key_from(bytes: [u8; 20]) -> Key {
    Key(bytes)
}

/// `own` with bit `b` flipped and every lower bit redrawn — a key of
/// `own`'s bucket `b`. Uniform 160-bit keys only ever reach the top dozen
/// buckets; these reach all of them.
fn key_in_bucket(own: &Key, b: usize, rng: &mut SimRng) -> Key {
    let noise = Key::random(rng);
    let (at, low) = (19 - b / 8, (1u8 << (b % 8)) - 1);
    let mut out = own.0;
    out[at] = ((own.0[at] & !low) ^ (low + 1)) | (noise.0[at] & low);
    out[at + 1..].copy_from_slice(&noise.0[at + 1..]);
    Key(out)
}

/// The k-closest answer as it was computed before bucket-order selection:
/// the whole table, stable-sorted on materialised distances, truncated.
fn closest_reference(t: &RoutingTable, target: &Key, count: usize) -> Vec<Contact> {
    let mut all: Vec<Contact> = t.contacts().copied().collect();
    all.sort_by_key(|c| target.distance(&c.key).0);
    all.truncate(count);
    all
}

proptest! {
    /// XOR metric axioms: identity, symmetry, and the XOR "triangle
    /// equality" d(a,c) = d(a,b) ^ d(b,c).
    #[test]
    fn xor_metric_axioms(a in any::<[u8; 20]>(), b in any::<[u8; 20]>(), c in any::<[u8; 20]>()) {
        let (a, b, c) = (key_from(a), key_from(b), key_from(c));
        prop_assert_eq!(a.distance(&a), Key::ZERO);
        prop_assert_eq!(a.distance(&b), b.distance(&a));
        let ab = a.distance(&b);
        let bc = b.distance(&c);
        let mut x = [0u8; 20];
        for (i, slot) in x.iter_mut().enumerate() {
            *slot = ab.0[i] ^ bc.0[i];
        }
        prop_assert_eq!(Key(x), a.distance(&c));
    }

    /// bucket_index is consistent with the metric: all keys in bucket i
    /// are closer than any key in bucket j > i by at least a factor
    /// structure (their distances have the high bit at position i / j).
    #[test]
    fn bucket_index_matches_high_bit(a in any::<[u8; 20]>(), b in any::<[u8; 20]>()) {
        let (a, b) = (key_from(a), key_from(b));
        if let Some(i) = a.bucket_index(&b) {
            let d = a.distance(&b);
            // The highest set bit of d must be at position i (counting
            // from the least significant bit 0 to 159).
            let byte = d.0[19 - i / 8];
            prop_assert!(byte >> (i % 8) & 1 == 1);
            // No higher bit set.
            let mut higher_clear = true;
            for bit in (i + 1)..160 {
                let byte = d.0[19 - bit / 8];
                if byte >> (bit % 8) & 1 == 1 {
                    higher_clear = false;
                }
            }
            prop_assert!(higher_clear);
        } else {
            prop_assert_eq!(a, b);
        }
    }

    /// Routing-table invariants under arbitrary observation sequences:
    /// no bucket exceeds k, no duplicates, self never stored, closest()
    /// is sorted.
    #[test]
    fn routing_table_invariants(seed in any::<u64>(), k in 1usize..8, n_ops in 1usize..300) {
        let mut rng = SimRng::new(seed);
        let own = Key::random(&mut rng);
        for policy in [OverflowPolicy::KeepOld, OverflowPolicy::PreferNear] {
            let mut t = RoutingTable::new(own, k, policy);
            let mut keys = vec![own];
            for i in 0..n_ops {
                // Mix of new keys and re-observations.
                let key = if i % 4 == 0 && keys.len() > 1 {
                    keys[rng.index(keys.len())]
                } else {
                    let fresh = Key::random(&mut rng);
                    keys.push(fresh);
                    fresh
                };
                t.observe(Contact {
                    key,
                    host: HostId(i as u32),
                    as_hops: rng.below(6) as u32,
                });
            }
            for (i, s) in t.bucket_sizes().iter().enumerate() {
                prop_assert!(*s <= k, "bucket {i} holds {s} > k={k}");
            }
            let mut all = Vec::new();
            t.closest_into(&own, usize::MAX, &mut all);
            let mut seen = std::collections::HashSet::new();
            for c in &all {
                prop_assert!(c.key != own, "self stored");
                prop_assert!(seen.insert(c.key), "duplicate contact");
            }
            // closest() ordering.
            let target = Key::random(&mut rng);
            let mut sorted = Vec::new();
            t.closest_into(&target, 16, &mut sorted);
            for w in sorted.windows(2) {
                prop_assert_ne!(
                    target.cmp_distance(&w[0].key, &w[1].key),
                    std::cmp::Ordering::Greater
                );
            }
        }
    }

    /// The single-pass comparison is the order of the two materialised
    /// distances — also when `a` and `b` share a prefix of any length, which
    /// independent random arrays never do.
    #[test]
    fn cmp_distance_matches_materialised_distances(
        own in any::<[u8; 20]>(),
        a in any::<[u8; 20]>(),
        b in any::<[u8; 20]>(),
        shared in 0usize..21,
    ) {
        let mut b_near = b;
        b_near[..shared].copy_from_slice(&a[..shared]);
        let (own, a) = (key_from(own), key_from(a));
        for b in [key_from(b), key_from(b_near)] {
            prop_assert_eq!(
                own.cmp_distance(&a, &b),
                own.distance(&a).0.cmp(&own.distance(&b).0)
            );
        }
    }

    /// Differential oracle for the bucket-order walk: `closest_into` equals
    /// sort-everything-and-truncate element for element, on tables whose
    /// contacts sit in low buckets as well as high ones (so both the
    /// descending and the ascending half of the walk run).
    #[test]
    fn closest_into_equals_full_sort(seed in any::<u64>(), k in 1usize..8, n_ops in 1usize..300) {
        let mut rng = SimRng::new(seed);
        let own = Key::random(&mut rng);
        for policy in [OverflowPolicy::KeepOld, OverflowPolicy::PreferNear] {
            let mut t = RoutingTable::new(own, k, policy);
            let mut stored = own;
            for i in 0..n_ops {
                let key = if i % 3 == 0 {
                    Key::random(&mut rng)
                } else {
                    key_in_bucket(&own, rng.index(160), &mut rng)
                };
                let kept = t.observe(Contact {
                    key,
                    host: HostId(i as u32),
                    as_hops: rng.below(6) as u32,
                });
                if kept {
                    stored = key;
                }
                if i % 7 == 6 {
                    t.remove(&stored);
                }
            }
            let mut low_flip = own;
            low_flip.0[19] ^= 1 << rng.index(8);
            let targets = [
                own,
                t.contacts().next().map_or(stored, |c| c.key),
                Key::random(&mut rng),
                low_flip,
            ];
            let mut got = Vec::new();
            for target in targets {
                for count in [0, 1, k, t.len(), t.len() + 1, usize::MAX] {
                    t.closest_into(&target, count, &mut got);
                    prop_assert_eq!(&got, &closest_reference(&t, &target, count));
                }
            }
        }
    }
}
