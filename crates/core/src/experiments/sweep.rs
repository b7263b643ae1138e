//! Parallel parameter sweeps and seed-sensitivity statistics.
//!
//! Each simulation run is single-threaded and deterministic; sweeps over
//! seeds or parameters are embarrassingly parallel. [`parallel_map`] fans
//! work out over `std::thread::scope` workers, and [`SeedStats`] summarizes a
//! metric across seeds — the error bars behind EXPERIMENTS.md's claim
//! that "no qualitative conclusion changes with the seed".

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Applies `f` to every item using up to `threads` worker threads,
/// preserving input order in the output.
///
/// # Panics
///
/// A panic in `f` propagates to the caller once every worker has been
/// joined (`std::thread::scope` semantics).
#[expect(
    clippy::disallowed_methods,
    reason = "parallel region: workers claim items through an atomic counter and write each \
              result into its input's slot under that slot's lock, so output order is input \
              order whatever the scheduling (oracle: \
              seed_sweep_is_deterministic_regardless_of_threads)"
)]
#[expect(
    clippy::expect_used,
    reason = "each slot is taken once and filled once"
)]
pub fn parallel_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, n);
    // Wrap items in Options so workers can take them out by index.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    // No lock is held while `f` runs, so a slot is valid even if a worker
    // panicked: poison is recovered, not propagated.
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let (Some(slot), Some(result)) = (slots.get(i), results.get(i)) else {
                    break;
                };
                let item = slot
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .take()
                    .expect("each slot taken once");
                let r = f(item);
                *result.lock().unwrap_or_else(PoisonError::into_inner) = Some(r);
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("all slots filled")
        })
        .collect()
}

/// Summary statistics of a metric across seeds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SeedStats {
    /// Number of seeds.
    pub n: usize,
    /// Mean.
    pub mean: f64,
    /// Sample standard deviation (0 for n < 2).
    pub std: f64,
    /// Minimum observed.
    pub min: f64,
    /// Maximum observed.
    pub max: f64,
}

impl SeedStats {
    /// Computes the statistics of a sample.
    pub fn of(values: &[f64]) -> SeedStats {
        let n = values.len();
        if n == 0 {
            return SeedStats {
                n: 0,
                mean: 0.0,
                std: 0.0,
                min: 0.0,
                max: 0.0,
            };
        }
        let mean = values.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        SeedStats {
            n,
            mean,
            std: var.sqrt(),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// `mean ± std` rendered for tables.
    pub fn render(&self) -> String {
        format!("{:.3} ± {:.3}", self.mean, self.std)
    }

    /// Whether every observation is strictly positive — the "qualitative
    /// direction holds for every seed" check.
    pub fn all_positive(&self) -> bool {
        self.n > 0 && self.min > 0.0
    }
}

/// Runs `metric` for each seed in parallel and summarizes.
pub fn seed_sweep<F>(seeds: &[u64], threads: usize, metric: F) -> SeedStats
where
    F: Fn(u64) -> f64 + Sync,
{
    let values = parallel_map(seeds.to_vec(), threads, metric);
    SeedStats::of(&values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..100).collect(), 8, |x: i32| x * x);
        for (i, v) in (0..).zip(&out) {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn parallel_map_runs_every_item_exactly_once() {
        let counter = AtomicU32::new(0);
        let out = parallel_map((0..57).collect(), 4, |_x: u32| {
            counter.fetch_add(1, Ordering::Relaxed)
        });
        assert_eq!(out.len(), 57);
        assert_eq!(counter.load(Ordering::Relaxed), 57);
    }

    #[test]
    fn parallel_map_empty_and_single() {
        let empty: Vec<u32> = parallel_map(Vec::<u32>::new(), 4, |x| x);
        assert!(empty.is_empty());
        assert_eq!(parallel_map(vec![7u32], 16, |x| x + 1), vec![8]);
    }

    #[test]
    #[should_panic]
    fn parallel_map_propagates_worker_panic() {
        parallel_map((0..8).collect(), 4, |x: u32| {
            assert_ne!(x, 5, "worker failure");
            x
        });
    }

    #[test]
    fn stats_are_correct() {
        let s = SeedStats::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.n, 4);
        assert_eq!(s.mean, 2.5);
        assert!((s.std - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!(s.all_positive());
        let neg = SeedStats::of(&[1.0, -0.5]);
        assert!(!neg.all_positive());
        let empty = SeedStats::of(&[]);
        assert_eq!(empty.n, 0);
        assert!(!empty.all_positive());
    }

    #[test]
    fn seed_sweep_is_deterministic_regardless_of_threads() {
        let seeds: Vec<u64> = (0..16).collect();
        let f = |s: u64| (s as f64).sin().abs() + 1.0;
        let a = seed_sweep(&seeds, 1, f);
        let b = seed_sweep(&seeds, 8, f);
        assert_eq!(a, b);
        assert!(a.all_positive());
    }
}
