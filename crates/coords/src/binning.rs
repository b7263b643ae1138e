//! Landmark binning (Ratnasamy et al., "Topologically-aware overlay
//! construction and server selection" \[26\]).
//!
//! The cheapest proximity estimator in the paper's latency taxonomy: a node
//! pings the `m` landmarks once, sorts them by RTT, and additionally
//! quantizes each RTT into a coarse level. Nodes with identical or similar
//! bin strings are topologically close. No coordinates, no maintenance —
//! but also only ordinal information.

/// A node's landmark bin: the landmark ordering plus quantized RTT levels.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct LandmarkBins {
    /// Landmark indices sorted by increasing RTT.
    pub order: Vec<u8>,
    /// Quantized RTT level per landmark (indexed by landmark, not rank).
    pub levels: Vec<u8>,
}

/// Default level boundaries in milliseconds (as in the original paper:
/// a small set of coarse classes).
pub const DEFAULT_LEVELS_MS: [f64; 3] = [100.0, 200.0, 400.0];

impl LandmarkBins {
    /// Bins a node from its RTTs (milliseconds) to the landmarks, using
    /// [`DEFAULT_LEVELS_MS`].
    pub fn from_rtts(rtts_ms: &[f64]) -> LandmarkBins {
        Self::from_rtts_with_levels(rtts_ms, &DEFAULT_LEVELS_MS)
    }

    /// Bins a node with custom level boundaries (ascending).
    ///
    /// # Panics
    /// Panics if there are more than 255 landmarks.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a level is at most boundaries.len(), a handful of RTT thresholds"
    )]
    pub fn from_rtts_with_levels(rtts_ms: &[f64], boundaries: &[f64]) -> LandmarkBins {
        assert!(rtts_ms.len() <= 255, "too many landmarks for u8 indices");
        let mut by_rtt: Vec<(f64, u8)> = rtts_ms.iter().copied().zip(0u8..).collect();
        by_rtt.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let order: Vec<u8> = by_rtt.into_iter().map(|(_, i)| i).collect();
        let levels = rtts_ms
            .iter()
            .map(|&r| boundaries.iter().filter(|&&b| r >= b).count() as u8)
            .collect();
        LandmarkBins { order, levels }
    }

    /// Similarity score with another bin in `[0, m + m]`: the length of the
    /// common ordering prefix plus the number of landmarks in the same
    /// level. Higher means (likely) closer.
    pub fn similarity(&self, other: &LandmarkBins) -> usize {
        let prefix = self
            .order
            .iter()
            .zip(&other.order)
            .take_while(|(a, b)| a == b)
            .count();
        let levels = self
            .levels
            .iter()
            .zip(&other.levels)
            .filter(|(a, b)| a == b)
            .count();
        prefix + levels
    }

    /// Whether two nodes share the identical bin (same ordering and all
    /// levels) — the original paper's notion of "same bin".
    pub fn same_bin(&self, other: &LandmarkBins) -> bool {
        self.order == other.order && self.levels == other.levels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_reflects_rtts() {
        let b = LandmarkBins::from_rtts(&[250.0, 30.0, 120.0]);
        assert_eq!(b.order, vec![1, 2, 0]);
        assert_eq!(b.levels, vec![2, 0, 1]);
    }

    #[test]
    fn ties_break_by_index() {
        let b = LandmarkBins::from_rtts(&[50.0, 50.0, 50.0]);
        assert_eq!(b.order, vec![0, 1, 2]);
    }

    #[test]
    fn nearby_nodes_share_bins() {
        let a = LandmarkBins::from_rtts(&[30.0, 150.0, 300.0]);
        let close = LandmarkBins::from_rtts(&[35.0, 160.0, 290.0]);
        let far = LandmarkBins::from_rtts(&[310.0, 40.0, 120.0]);
        assert!(a.same_bin(&close));
        assert!(!a.same_bin(&far));
        assert!(a.similarity(&close) > a.similarity(&far));
    }

    #[test]
    fn similarity_is_symmetric_and_maximal_on_self() {
        let a = LandmarkBins::from_rtts(&[10.0, 90.0, 170.0, 500.0]);
        let b = LandmarkBins::from_rtts(&[500.0, 90.0, 10.0, 170.0]);
        assert_eq!(a.similarity(&b), b.similarity(&a));
        assert_eq!(a.similarity(&a), 4 + 4);
    }

    #[test]
    fn custom_boundaries() {
        let b = LandmarkBins::from_rtts_with_levels(&[5.0, 15.0, 25.0], &[10.0, 20.0]);
        assert_eq!(b.levels, vec![0, 1, 2]);
    }
}
