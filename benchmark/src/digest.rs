//! The simulated-statistics digest.
//!
//! A pure-speed change must leave every simulated statistic identical.
//! Each workload folds every number its arms return — message counts,
//! RPCs, rounds, shares, ledger totals, repair stats — into one FNV-1a
//! hash, so "unchanged" is one 16-digit comparison.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a accumulator over the statistics of one iteration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(OFFSET)
    }
}

impl Digest {
    /// Starts an empty digest.
    pub fn new() -> Digest {
        Digest::default()
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }

    /// Folds in a label, so statistics cannot swap places unnoticed.
    pub fn label(&mut self, s: &str) -> &mut Self {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
        self
    }

    /// Folds in an integer statistic.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes());
        self
    }

    /// Folds in a floating-point statistic by its exact bit pattern.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// The digest as the 16 hex digits reports print.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_fnv1a_vectors() {
        // Published FNV-1a 64-bit test vectors.
        let mut d = Digest::new();
        assert_eq!(d.0, 0xcbf2_9ce4_8422_2325);
        d.bytes(b"a");
        assert_eq!(d.0, 0xaf63_dc4c_8601_ec8c);
        let mut d = Digest::new();
        d.bytes(b"foobar");
        assert_eq!(d.0, 0x8594_4171_f739_67e8);
    }

    #[test]
    fn one_changed_statistic_changes_the_digest() {
        let fold = |msgs: u64, share: f64| {
            let mut d = Digest::new();
            d.label("msgs").u64(msgs).label("share").f64(share);
            d
        };
        assert_eq!(fold(10, 0.5), fold(10, 0.5));
        assert_ne!(fold(10, 0.5), fold(11, 0.5));
        assert_ne!(fold(10, 0.5), fold(10, 0.5 + f64::EPSILON));
    }

    #[test]
    fn hex_is_sixteen_digits() {
        assert_eq!(Digest::new().hex(), "cbf29ce484222325");
    }
}
