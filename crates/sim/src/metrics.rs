//! Measurement collection.
//!
//! Experiments account for three kinds of observations:
//!
//! * **Counters** — monotonically increasing event counts (messages sent per
//!   type, bytes per link category, …). These are what Table 1 of the paper
//!   reports.
//! * **Histograms** — distributions of scalar samples (download times, lookup
//!   latencies). Quantiles are computed on demand from the retained samples.
//! * **Time series** — `(time, value)` traces (traffic rate over time), used
//!   for the 95th-percentile transit billing of the cost model.

use crate::time::SimTime;
#[cfg(debug_assertions)]
use crate::trace::registry::MetricKind;
use std::collections::BTreeMap;
use std::fmt;

/// A distribution of `f64` samples with on-demand order statistics.
#[derive(Clone, Default)]
pub struct Histogram {
    samples: Vec<f64>,
    sorted: bool,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: f64) {
        self.samples.push(v);
        self.sorted = false;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean, or `None` if empty.
    ///
    /// Computed with [`Histogram::sum`], so the result depends only on the
    /// multiset of samples — not on the order they were recorded in.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.sum() / self.samples.len() as f64)
        }
    }

    /// Sum of all samples, as a stable sequential sum over the *sorted*
    /// samples.
    ///
    /// Float addition is not associative, so a naive insertion-order sum
    /// makes two logically-equal runs that record in different orders
    /// report different bits — breaking the byte-identical run-report
    /// contract. Sorting first (by `total_cmp`) fixes the evaluation
    /// order as a function of the sample multiset alone.
    pub fn sum(&self) -> f64 {
        let mut acc = 0.0;
        if self.sorted {
            for &v in &self.samples {
                acc += v;
            }
        } else {
            let mut sorted = self.samples.clone();
            sorted.sort_by(f64::total_cmp);
            for v in sorted {
                acc += v;
            }
        }
        acc
    }

    /// Minimum sample, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        self.samples.iter().copied().reduce(f64::min)
    }

    /// Maximum sample, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        self.samples.iter().copied().reduce(f64::max)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) using the nearest-rank method, or
    /// `None` if empty.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        if !self.sorted {
            self.samples.sort_by(|a, b| a.total_cmp(b));
            self.sorted = true;
        }
        let q = q.clamp(0.0, 1.0);
        let n = self.samples.len();
        // Nearest-rank: smallest value with at least ceil(q*n) samples <= it.
        #[expect(
            clippy::cast_possible_truncation,
            reason = "q ≤ 1, so ceil(q · n) ≤ n, a usize"
        )]
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        self.samples.get(rank - 1).copied()
    }

    /// Median (50th percentile).
    pub fn median(&mut self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Immutable view of the raw samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Histogram(n={}, mean={:?})",
            self.samples.len(),
            self.mean()
        )
    }
}

/// A `(time, value)` trace.
#[derive(Clone, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Appends a point; times should be non-decreasing.
    pub fn push(&mut self, t: SimTime, v: f64) {
        self.points.push((t, v));
    }

    /// The recorded points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// The metrics registry handed to every simulation world.
///
/// Counter and histogram names are plain strings; experiments use stable,
/// namespaced names such as `"gnutella.msg.ping"` or `"net.bytes.transit"`.
#[derive(Default)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    series: BTreeMap<String, TimeSeries>,
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Adds `n` to the named counter.
    pub fn incr(&mut self, name: &str, n: u64) {
        #[cfg(debug_assertions)]
        crate::trace::registry::debug_check_metric_key(name, MetricKind::Counter);
        match self.counters.get_mut(name) {
            Some(c) => *c += n,
            None => {
                self.counters.insert(name.to_owned(), n);
            }
        }
    }

    /// Sets the named counter to an absolute value, overwriting any
    /// previous value. Used to export externally-accumulated counters
    /// (e.g. the underlay route-cache hit/miss cells) at end of run.
    pub fn set_counter(&mut self, name: &str, v: u64) {
        #[cfg(debug_assertions)]
        crate::trace::registry::debug_check_metric_key(name, MetricKind::Counter);
        match self.counters.get_mut(name) {
            Some(c) => *c = v,
            None => {
                self.counters.insert(name.to_owned(), v);
            }
        }
    }

    /// Current value of a counter (zero if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Records a sample into the named histogram.
    pub fn record(&mut self, name: &str, v: f64) {
        #[cfg(debug_assertions)]
        crate::trace::registry::debug_check_metric_key(name, MetricKind::Histogram);
        match self.histograms.get_mut(name) {
            Some(h) => h.record(v),
            None => {
                let mut h = Histogram::new();
                h.record(v);
                self.histograms.insert(name.to_owned(), h);
            }
        }
    }

    /// The named histogram, if any sample was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All histograms, sorted by name, with mutable access so summaries
    /// can take quantiles (which sort lazily).
    pub fn histograms_mut(&mut self) -> impl Iterator<Item = (&str, &mut Histogram)> {
        self.histograms.iter_mut().map(|(k, h)| (k.as_str(), h))
    }

    /// Appends a point to the named time series.
    pub fn trace(&mut self, name: &str, t: SimTime, v: f64) {
        #[cfg(debug_assertions)]
        crate::trace::registry::debug_check_metric_key(name, MetricKind::Series);
        match self.series.get_mut(name) {
            Some(s) => s.push(t, v),
            None => {
                let mut s = TimeSeries::new();
                s.push(t, v);
                self.series.insert(name.to_owned(), s);
            }
        }
    }

    /// The named time series, if any point was recorded.
    pub fn time_series(&self, name: &str) -> Option<&TimeSeries> {
        self.series.get(name)
    }

    /// All time series, sorted by name.
    pub fn all_series(&self) -> impl Iterator<Item = (&str, &TimeSeries)> {
        self.series.iter().map(|(k, s)| (k.as_str(), s))
    }

    /// Merges another registry into this one (counters add; samples and
    /// points append). Used when aggregating parallel sweep shards.
    pub fn merge(&mut self, other: &Metrics) {
        for (k, v) in &other.counters {
            self.incr(k, *v);
        }
        for (k, h) in &other.histograms {
            for &s in h.samples() {
                self.record(k, s);
            }
        }
        for (k, s) in &other.series {
            for &(t, v) in s.points() {
                self.trace(k, t, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        m.incr("a", 2);
        m.incr("a", 3);
        assert_eq!(m.counter("a"), 5);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn histogram_stats() {
        let mut h = Histogram::new();
        for v in [4.0, 1.0, 3.0, 2.0, 5.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.mean(), Some(3.0));
        assert_eq!(h.min(), Some(1.0));
        assert_eq!(h.max(), Some(5.0));
        assert_eq!(h.median(), Some(3.0));
        assert_eq!(h.quantile(0.0), Some(1.0));
        assert_eq!(h.quantile(1.0), Some(5.0));
    }

    #[test]
    fn nearest_rank_95th() {
        let mut h = Histogram::new();
        for i in 1..=100 {
            h.record(i as f64);
        }
        assert_eq!(h.quantile(0.95), Some(95.0));
    }

    #[test]
    fn nearest_rank_pins_small_n_edge_cases() {
        // Regression fixture for the nearest-rank method: the smallest
        // value with at least ceil(q*n) samples at or below it. These
        // exact answers are what `RunReport` serializes, so changing the
        // method shows up here before it shows up as trace-diff churn.
        let mut one = Histogram::new();
        one.record(7.0);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(one.quantile(q), Some(7.0), "n=1, q={q}");
        }

        let mut two = Histogram::new();
        two.record(10.0);
        two.record(20.0);
        assert_eq!(two.quantile(0.5), Some(10.0)); // ceil(0.5*2)=1 → 1st
        assert_eq!(two.quantile(0.51), Some(20.0)); // ceil(1.02)=2 → 2nd
        assert_eq!(two.quantile(0.99), Some(20.0));

        let mut ten = Histogram::new();
        for i in 1..=10 {
            ten.record(i as f64);
        }
        assert_eq!(ten.quantile(0.50), Some(5.0));
        assert_eq!(ten.quantile(0.90), Some(9.0));
        assert_eq!(ten.quantile(0.95), Some(10.0)); // ceil(9.5)=10
        assert_eq!(ten.quantile(0.99), Some(10.0));
    }

    #[test]
    fn quantiles_are_insertion_order_independent() {
        let build = |order: &[f64]| {
            let mut h = Histogram::new();
            for &v in order {
                h.record(v);
            }
            [0.5, 0.9, 0.95, 0.99].map(|q| h.quantile(q).unwrap())
        };
        let asc: Vec<f64> = (1..=97).map(f64::from).collect();
        let mut desc = asc.clone();
        desc.reverse();
        // Interleave from both ends for a third shuffle-free permutation.
        let mixed: Vec<f64> = asc
            .iter()
            .zip(desc.iter())
            .flat_map(|(&a, &b)| [a, b])
            .take(asc.len())
            .collect();
        assert_eq!(build(&asc), build(&desc));
        assert_eq!(build(&asc), build(&mixed));
    }

    #[test]
    fn empty_histogram_returns_none() {
        let mut h = Histogram::new();
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile(0.5), None);
        assert!(h.is_empty());
    }

    #[test]
    fn record_after_quantile_resorts() {
        let mut h = Histogram::new();
        h.record(10.0);
        assert_eq!(h.median(), Some(10.0));
        h.record(1.0);
        h.record(2.0);
        assert_eq!(h.median(), Some(2.0));
    }

    #[test]
    fn sum_and_mean_are_insertion_order_independent() {
        // Regression: 1e16 + (-1e16) + 1.0 evaluates to 1.0 in one order
        // and 0.0 in another under naive left-to-right accumulation. The
        // sorted stable sum must give bit-identical results for any
        // recording order of the same multiset.
        let orders: [&[f64]; 3] = [
            &[1e16, -1e16, 1.0],
            &[1e16, 1.0, -1e16],
            &[1.0, 1e16, -1e16],
        ];
        let sums: Vec<u64> = orders
            .iter()
            .map(|o| {
                let mut h = Histogram::new();
                for &v in *o {
                    h.record(v);
                }
                h.sum().to_bits()
            })
            .collect();
        assert_eq!(sums[0], sums[1]);
        assert_eq!(sums[1], sums[2]);
        let means: Vec<u64> = orders
            .iter()
            .map(|o| {
                let mut h = Histogram::new();
                for &v in *o {
                    h.record(v);
                }
                h.mean().map(f64::to_bits).unwrap_or(0)
            })
            .collect();
        assert_eq!(means[0], means[1]);
        assert_eq!(means[1], means[2]);
    }

    #[test]
    fn sum_agrees_whether_sorted_lazily_or_not() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [3.5, -1.25, 7.0, 0.5] {
            a.record(v);
            b.record(v);
        }
        // Force `b` into the sorted state via a quantile query.
        let _ = b.median();
        assert_eq!(a.sum().to_bits(), b.sum().to_bits());
    }

    #[test]
    fn merge_combines_everything() {
        let mut a = Metrics::new();
        a.incr("c", 1);
        a.record("h", 1.0);
        a.trace("t", SimTime::ZERO, 1.0);
        let mut b = Metrics::new();
        b.incr("c", 2);
        b.record("h", 3.0);
        b.trace("t", SimTime::from_secs(1), 2.0);
        a.merge(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.histogram("h").unwrap().count(), 2);
        assert_eq!(a.time_series("t").unwrap().len(), 2);
    }
}
