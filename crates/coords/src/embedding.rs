//! Embedding accuracy metrics.
//!
//! Shared by the Vivaldi and ICS evaluation harnesses (experiment E3): how
//! well do predicted latencies track measured ones?

/// Relative error of one prediction: `|predicted − actual| / actual`.
/// Returns 0 when both are 0, and infinity when only the actual is 0.
pub fn relative_error(predicted: f64, actual: f64) -> f64 {
    if actual == 0.0 {
        if predicted == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (predicted - actual).abs() / actual
    }
}

/// Kruskal stress-1 of a set of `(predicted, actual)` pairs:
/// `sqrt( Σ(p−a)² / Σa² )`. Zero means a perfect embedding.
pub fn stress(pairs: &[(f64, f64)]) -> f64 {
    let num: f64 = pairs.iter().map(|(p, a)| (p - a) * (p - a)).sum();
    let den: f64 = pairs.iter().map(|(_, a)| a * a).sum();
    if den == 0.0 {
        0.0
    } else {
        (num / den).sqrt()
    }
}

/// Summary statistics of an embedding's accuracy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EmbeddingQuality {
    /// Number of evaluated pairs.
    pub n: usize,
    /// Mean relative error.
    pub mean_rel_err: f64,
    /// Median relative error (the headline metric of the Vivaldi paper).
    pub median_rel_err: f64,
    /// 90th-percentile relative error.
    pub p90_rel_err: f64,
    /// Kruskal stress-1.
    pub stress: f64,
}

impl EmbeddingQuality {
    /// Evaluates a set of `(predicted, actual)` latency pairs. Pairs with
    /// `actual == 0` are skipped (self-pairs carry no information).
    #[expect(clippy::indexing_slicing, reason = "rank in 1..=n = errs.len()")]
    pub fn evaluate(pairs: &[(f64, f64)]) -> EmbeddingQuality {
        let valid: Vec<(f64, f64)> = pairs.iter().copied().filter(|&(_, a)| a > 0.0).collect();
        if valid.is_empty() {
            return EmbeddingQuality {
                n: 0,
                mean_rel_err: 0.0,
                median_rel_err: 0.0,
                p90_rel_err: 0.0,
                stress: 0.0,
            };
        }
        let mut errs: Vec<f64> = valid.iter().map(|&(p, a)| relative_error(p, a)).collect();
        errs.sort_by(|a, b| a.total_cmp(b));
        let n = errs.len();
        #[expect(
            clippy::cast_possible_truncation,
            reason = "f ≤ 1, so ceil(f · n) ≤ n, a usize"
        )]
        let q = |f: f64| errs[(((f * n as f64).ceil() as usize).clamp(1, n)) - 1];
        EmbeddingQuality {
            n,
            mean_rel_err: errs.iter().sum::<f64>() / n as f64,
            median_rel_err: q(0.5),
            p90_rel_err: q(0.9),
            stress: stress(&valid),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_error_cases() {
        assert!((relative_error(110.0, 100.0) - 0.1).abs() < 1e-12);
        assert_eq!(relative_error(90.0, 100.0), 0.1);
        assert_eq!(relative_error(0.0, 0.0), 0.0);
        assert_eq!(relative_error(5.0, 0.0), f64::INFINITY);
    }

    #[test]
    fn perfect_embedding_is_zero() {
        let pairs: Vec<(f64, f64)> = (1..10).map(|i| (i as f64, i as f64)).collect();
        let q = EmbeddingQuality::evaluate(&pairs);
        assert_eq!(q.mean_rel_err, 0.0);
        assert_eq!(q.median_rel_err, 0.0);
        assert_eq!(q.stress, 0.0);
        assert_eq!(q.n, 9);
    }

    #[test]
    fn stress_matches_hand_computation() {
        // predictions 1,2 vs actual 2,2: num = 1, den = 8.
        let s = stress(&[(1.0, 2.0), (2.0, 2.0)]);
        assert!((s - (1.0f64 / 8.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn quantiles_ordered() {
        let pairs: Vec<(f64, f64)> = (1..=100).map(|i| (100.0 + i as f64, 100.0)).collect();
        let q = EmbeddingQuality::evaluate(&pairs);
        assert!(q.median_rel_err <= q.p90_rel_err);
        assert!(q.median_rel_err > 0.0);
    }

    #[test]
    fn self_pairs_skipped() {
        let q = EmbeddingQuality::evaluate(&[(0.0, 0.0), (1.0, 1.0)]);
        assert_eq!(q.n, 1);
    }

    #[test]
    fn empty_input() {
        let q = EmbeddingQuality::evaluate(&[]);
        assert_eq!(q.n, 0);
        assert_eq!(q.stress, 0.0);
    }
}
