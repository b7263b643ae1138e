//! Deterministic random number generation.
//!
//! All stochastic choices in the workspace flow through [`SimRng`], a thin
//! convenience layer over a seeded [`rand::rngs::StdRng`]. Besides the usual
//! uniform draws it provides the distributions the experiments need: the
//! exponential session lengths of the churn model, and Zipf content
//! popularity.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A seeded random number generator with simulation-oriented helpers.
pub struct SimRng {
    inner: StdRng,
    seed: u64,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
            seed,
        }
    }

    /// The seed this generator was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Uniform `u64` in `[0, bound)`. Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.inner.gen_range(0..bound)
    }

    /// Uniform `usize` in `[0, bound)`. Panics if `bound == 0`.
    pub fn index(&mut self, bound: usize) -> usize {
        self.inner.gen_range(0..bound)
    }

    /// Uniform `u64` in `[lo, hi)`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        self.inner.gen_range(lo..hi)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn f64_range(&mut self, lo: f64, hi: f64) -> f64 {
        self.inner.gen_range(lo..hi)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.inner.gen_bool(p)
        }
    }

    /// Raw `u64`.
    pub fn u64(&mut self) -> u64 {
        self.inner.gen()
    }

    /// Picks a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    /// If `items` is empty.
    #[expect(clippy::expect_used, reason = "documented panic on an empty slice")]
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        let i = self.index(items.len());
        items.get(i).expect("pick requires a non-empty slice")
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        items.shuffle(&mut self.inner);
    }

    /// Samples `k` distinct indices from `[0, n)` (all of them if `k >= n`),
    /// in random order.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        let k = k.min(n);
        // Partial Fisher–Yates over an index vector: O(n) setup, O(k) draws.
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = self.inner.gen_range(i..n);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }

    /// Exponentially distributed draw with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        let u: f64 = self.inner.gen_range(f64::MIN_POSITIVE..1.0);
        -mean * u.ln()
    }

    /// Standard normal draw (Box–Muller).
    pub fn normal(&mut self, mean: f64, stddev: f64) -> f64 {
        let u1: f64 = self.inner.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = self.inner.gen::<f64>();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + stddev * z
    }
}

/// Precomputed Zipf distribution over ranks `0..n`.
///
/// Rank `r` (0-based) is drawn with probability proportional to
/// `1 / (r + 1)^s`. Content popularity in file-sharing workloads is
/// classically Zipf-like, which is what gives locality-aware source
/// selection something to exploit.
#[derive(Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the distribution for `n` ranks with exponent `s`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over zero ranks");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        #[expect(clippy::expect_used, reason = "n > 0 is asserted above")]
        let total = *cdf.last().expect("cdf has n >= 1 entries");
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the distribution is over zero ranks (never true).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draws a rank in `[0, n)`.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let u = rng.f64();
        match self.cdf.binary_search_by(|p| p.total_cmp(&u)) {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }

    /// Probability mass of rank `r` (0 beyond the last rank).
    pub fn pmf(&self, r: usize) -> f64 {
        let below = r.checked_sub(1).and_then(|p| self.cdf.get(p));
        self.cdf.get(r).map_or(0.0, |c| c - below.unwrap_or(&0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.u64(), b.u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..32).filter(|_| a.u64() == b.u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn sample_indices_distinct_and_bounded() {
        let mut r = SimRng::new(11);
        let s = r.sample_indices(50, 20);
        assert_eq!(s.len(), 20);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 20);
        assert!(sorted.iter().all(|&i| i < 50));
        // Requesting more than available returns everything.
        assert_eq!(r.sample_indices(5, 100).len(), 5);
    }

    #[test]
    fn exp_mean_is_close() {
        let mut r = SimRng::new(5);
        let n = 20_000;
        let mean = (0..n).map(|_| r.exp(10.0)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.5, "mean {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut r = SimRng::new(8);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(5.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn zipf_is_monotone_decreasing() {
        let z = Zipf::new(100, 0.9);
        for r in 1..100 {
            assert!(z.pmf(r) <= z.pmf(r - 1) + 1e-12);
        }
        let total: f64 = (0..100).map(|r| z.pmf(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_sampling_tracks_pmf() {
        let z = Zipf::new(10, 1.0);
        let mut r = SimRng::new(12);
        let mut counts = [0u32; 10];
        let n = 50_000;
        for _ in 0..n {
            counts[z.sample(&mut r)] += 1;
        }
        for (rank, &count) in counts.iter().enumerate() {
            let emp = count as f64 / n as f64;
            assert!(
                (emp - z.pmf(rank)).abs() < 0.01,
                "rank {rank}: emp {emp} pmf {}",
                z.pmf(rank)
            );
        }
    }
}
