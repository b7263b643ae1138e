//! 160-bit keys and the XOR metric.
//!
//! A key is 20 big-endian bytes; the distance between two keys is their
//! XOR read as a 160-bit integer. `x ↦ t ⊕ x` is a bijection, so distinct
//! keys are at distinct distances from any target `t`: ordering contacts
//! by distance is a total order with no ties, which is why a k-closest
//! answer does not depend on how it was computed (see `kbucket`).
//! [`Key::cmp_distance`] is the comparison every sort, search and merge in
//! this crate uses; it decides at the first differing byte and builds
//! neither distance.

use std::cmp::Ordering;
use std::fmt;
use uap_sim::SimRng;

/// A 160-bit Kademlia identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Key(pub [u8; 20]);

impl Key {
    /// The all-zero key.
    pub const ZERO: Key = Key([0; 20]);

    /// Draws a uniformly random key.
    pub fn random(rng: &mut SimRng) -> Key {
        let mut b = [0u8; 20];
        for chunk in b.chunks_mut(8) {
            let v = rng.u64().to_be_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&v[..n]);
        }
        Key(b)
    }

    /// Deterministic key from a name (FNV-1a stretched over 20 bytes) —
    /// stands in for SHA-1 content hashing without a crypto dependency.
    pub fn hash_of(data: &[u8]) -> Key {
        let mut out = [0u8; 20];
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (i, slot) in out.iter_mut().enumerate() {
            for &byte in data {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            h ^= i as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
            *slot = (h >> 24) as u8; // lint:allow(cast) — one byte sliced out of the running hash
        }
        Key(out)
    }

    /// XOR distance to another key.
    #[allow(
        clippy::needless_range_loop,
        reason = "one index walks three arrays in lockstep"
    )]
    pub fn distance(&self, other: &Key) -> Key {
        let mut d = [0u8; 20];
        for i in 0..20 {
            d[i] = self.0[i] ^ other.0[i];
        }
        Key(d)
    }

    /// Bit `i` of the key read as a 160-bit big-endian integer: bit 0 is the
    /// lowest bit of the last byte, bit 159 the highest of the first.
    pub(crate) fn bit(&self, i: usize) -> bool {
        let byte = self.0.iter().rev().nth(i / 8);
        byte.is_some_and(|b| b >> (i % 8) & 1 == 1)
    }

    /// Index of the k-bucket `other` falls into relative to `self`:
    /// `159 − leading_zero_bits(distance)`; `None` for identical keys.
    pub fn bucket_index(&self, other: &Key) -> Option<usize> {
        let d = self.distance(other);
        let mut zeros = 0usize;
        for byte in d.0 {
            if byte == 0 {
                zeros += 8;
            } else {
                zeros += byte.leading_zeros() as usize;
                break;
            }
        }
        if zeros >= 160 {
            None
        } else {
            Some(159 - zeros)
        }
    }

    /// Compares two keys by distance to `self` (closer first): the order
    /// of `self ⊕ a` and `self ⊕ b` as big-endian integers, decided at the
    /// first byte where they differ, so neither distance is built. Two
    /// distinct keys never compare `Equal` — the order is total.
    pub fn cmp_distance(&self, a: &Key, b: &Key) -> Ordering {
        for ((s, x), y) in self.0.iter().zip(&a.0).zip(&b.0) {
            if x != y {
                return (s ^ x).cmp(&(s ^ y));
            }
        }
        Ordering::Equal
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0[..4] {
            write!(f, "{b:02x}")?;
        }
        write!(f, "…")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let mut rng = SimRng::new(1);
        let a = Key::random(&mut rng);
        let b = Key::random(&mut rng);
        assert_eq!(a.distance(&b), b.distance(&a));
        assert_eq!(a.distance(&a), Key::ZERO);
    }

    #[test]
    fn bucket_index_extremes() {
        let zero = Key::ZERO;
        let mut one = [0u8; 20];
        one[19] = 1;
        assert_eq!(zero.bucket_index(&Key(one)), Some(0));
        let mut top = [0u8; 20];
        top[0] = 0x80;
        assert_eq!(zero.bucket_index(&Key(top)), Some(159));
        assert_eq!(zero.bucket_index(&zero), None);
    }

    #[test]
    fn bit_numbering_matches_bucket_index() {
        let mut rng = SimRng::new(4);
        for _ in 0..50 {
            let d = Key::random(&mut rng);
            let top = Key::ZERO.bucket_index(&d).unwrap();
            assert!(d.bit(top));
            assert!((top + 1..200).all(|i| !d.bit(i)));
        }
        let mut one = [0u8; 20];
        one[19] = 1;
        assert!(Key(one).bit(0) && !Key(one).bit(1) && !Key(one).bit(8));
    }

    #[test]
    fn cmp_distance_orders_by_xor() {
        let zero = Key::ZERO;
        let mut near = [0u8; 20];
        near[19] = 2;
        let mut far = [0u8; 20];
        far[0] = 1;
        assert_eq!(zero.cmp_distance(&Key(near), &Key(far)), Ordering::Less);
        assert_eq!(zero.cmp_distance(&Key(far), &Key(near)), Ordering::Greater);
        assert_eq!(zero.cmp_distance(&Key(near), &Key(near)), Ordering::Equal);
    }

    #[test]
    fn random_keys_are_distinct() {
        let mut rng = SimRng::new(2);
        let keys: Vec<Key> = (0..100).map(|_| Key::random(&mut rng)).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 100);
    }

    #[test]
    fn hash_is_deterministic_and_spread() {
        let a = Key::hash_of(b"file-1");
        let b = Key::hash_of(b"file-1");
        let c = Key::hash_of(b"file-2");
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Bytes should not be all identical.
        assert!(a.0.iter().any(|&x| x != a.0[0]));
    }

    #[test]
    fn xor_triangle_equality_holds() {
        // XOR metric: d(a,c) = d(a,b) XOR d(b,c).
        let mut rng = SimRng::new(3);
        for _ in 0..50 {
            let a = Key::random(&mut rng);
            let b = Key::random(&mut rng);
            let c = Key::random(&mut rng);
            let ab = a.distance(&b);
            let bc = b.distance(&c);
            let ac = a.distance(&c);
            let mut x = [0u8; 20];
            for (i, slot) in x.iter_mut().enumerate() {
                *slot = ab.0[i] ^ bc.0[i];
            }
            assert_eq!(Key(x), ac);
        }
    }
}
