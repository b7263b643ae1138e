//! Piece bookkeeping: a fixed-size bitfield.

/// A bitfield over the torrent's pieces.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PieceSet {
    bits: Vec<u64>,
    n: usize,
    count: usize,
}

impl PieceSet {
    /// An empty set over `n` pieces.
    pub fn empty(n: usize) -> PieceSet {
        PieceSet {
            bits: vec![0; n.div_ceil(64)],
            n,
            count: 0,
        }
    }

    /// A full set over `n` pieces (a seed's bitfield).
    pub fn full(n: usize) -> PieceSet {
        let mut s = PieceSet::empty(n);
        for i in 0..n {
            s.insert(i);
        }
        s
    }

    /// Total pieces in the torrent.
    pub fn capacity(&self) -> usize {
        self.n
    }

    /// Pieces held.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether no piece is held.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Whether every piece is held.
    pub fn is_complete(&self) -> bool {
        self.count == self.n
    }

    /// Whether piece `i` is held. `i` must be below [`capacity`]: a debug
    /// build panics on a larger index; a release build reads it as absent.
    ///
    /// [`capacity`]: PieceSet::capacity
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.n);
        self.bits
            .get(i / 64)
            .is_some_and(|w| w >> (i % 64) & 1 == 1)
    }

    /// Adds piece `i`; returns true if it was new.
    ///
    /// # Panics
    /// If `i` is outside the torrent's piece range.
    pub fn insert(&mut self, i: usize) -> bool {
        #[expect(
            clippy::expect_used,
            reason = "documented panic outside the piece range"
        )]
        let w = self
            .bits
            .get_mut(i / 64)
            .filter(|_| i < self.n)
            .expect("piece index within the torrent's piece range");
        let mask = 1u64 << (i % 64);
        if *w & mask == 0 {
            *w |= mask;
            self.count += 1;
            true
        } else {
            false
        }
    }

    /// Removes every piece, keeping the allocation — the per-receiver
    /// claimed-piece scratch in the swarm round loop resets with this
    /// instead of rebuilding the bitfield.
    pub fn clear(&mut self) {
        for w in &mut self.bits {
            *w = 0;
        }
        self.count = 0;
    }

    /// Iterates over pieces in `other` that this set lacks, ascending.
    pub fn missing_from<'a>(&'a self, other: &'a PieceSet) -> impl Iterator<Item = usize> + 'a {
        debug_assert_eq!(self.n, other.n);
        ones(self.bits.iter().zip(&other.bits).map(|(&a, &b)| b & !a))
    }

    /// Iterates over pieces in `other` that neither this set nor
    /// `claimed` holds, ascending: what a receiver can still claim from
    /// the sender `other` this round.
    pub(crate) fn claimable_from<'a>(
        &'a self,
        other: &'a PieceSet,
        claimed: &'a PieceSet,
    ) -> impl Iterator<Item = usize> + 'a {
        debug_assert!(self.n == other.n && self.n == claimed.n);
        let words = self.bits.iter().zip(&other.bits).zip(&claimed.bits);
        ones(words.map(|((&a, &b), &c)| b & !a & !c))
    }

    /// Whether `other` has at least one piece this set lacks.
    pub fn is_interested_in(&self, other: &PieceSet) -> bool {
        self.bits
            .iter()
            .zip(&other.bits)
            .any(|(a, b)| (!a & b) != 0)
    }
}

/// The positions of the set bits of a bitfield given word by word,
/// ascending. No piece set holds a bit at or past its capacity
/// ([`PieceSet::insert`] refuses one), so every position is a piece.
fn ones(words: impl Iterator<Item = u64>) -> impl Iterator<Item = usize> {
    words.enumerate().flat_map(|(w, mut bits)| {
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                w * 64 + b
            })
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full() {
        let e = PieceSet::empty(100);
        assert_eq!(e.len(), 0);
        assert!(e.is_empty());
        assert!(!e.is_complete());
        let f = PieceSet::full(100);
        assert_eq!(f.len(), 100);
        assert!(f.is_complete());
        assert!(f.contains(0) && f.contains(99));
    }

    #[test]
    fn insert_is_idempotent() {
        let mut s = PieceSet::empty(10);
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert_eq!(s.len(), 1);
        assert!(s.contains(3));
        assert!(!s.contains(2));
    }

    #[test]
    fn missing_and_interest() {
        let mut a = PieceSet::empty(10);
        let mut b = PieceSet::empty(10);
        b.insert(1);
        b.insert(5);
        a.insert(1);
        let missing: Vec<usize> = a.missing_from(&b).collect();
        assert_eq!(missing, vec![5]);
        assert!(a.is_interested_in(&b));
        a.insert(5);
        assert!(!a.is_interested_in(&b));
        assert!(!b.is_interested_in(&a));
    }

    #[test]
    fn clear_resets_without_shrinking_capacity() {
        let mut s = PieceSet::full(70);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.capacity(), 70);
        assert!(!s.contains(0) && !s.contains(69));
        assert!(s.insert(69));
        assert_eq!(s.len(), 1);
    }

    #[test]
    #[should_panic(expected = "piece index within the torrent's piece range")]
    fn insert_past_capacity_panics_inside_the_last_word() {
        // Bit 12 of a 10-piece set's only word would be a piece that
        // `missing_from` lists; the set refuses it in every build.
        PieceSet::empty(10).insert(12);
    }

    #[test]
    fn boundary_at_word_edges() {
        let mut s = PieceSet::empty(129);
        s.insert(63);
        s.insert(64);
        s.insert(128);
        assert!(s.contains(63) && s.contains(64) && s.contains(128));
        assert_eq!(s.len(), 3);
    }
}
