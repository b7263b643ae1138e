//! Measurement collection.
//!
//! A [`Metrics`] registry holds three kinds of observations under
//! registry-declared keys (`uap_sim::trace::registry::METRICS`):
//!
//! * **Counters** — monotonically increasing event counts (messages sent per
//!   type, joins, downloads, …), read back by name with [`Metrics::counter`].
//! * **Samples** — scalar samples appended per key with [`Metrics::record`].
//!   Nothing in the workspace reads them back; the write path stays because
//!   `benchmark/` times it (`sim.metrics.record_ns`).
//! * **Time series** — `(time, value)` traces (event-queue depth, events per
//!   simulated second), read back with [`Metrics::time_series`].
//!
//! The registry stays inside the process: a run report publishes what an
//! experiment reads out of it through its result values.

use crate::time::SimTime;
#[cfg(debug_assertions)]
use crate::trace::registry::MetricKind;
use std::collections::BTreeMap;

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
/// Keys are plain strings; experiments use stable, namespaced names such
/// as `"gnutella.msg.ping"` or `"engine.queue_depth"`.
#[derive(Default)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    samples: BTreeMap<String, Vec<f64>>,
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

    /// Current value of a counter (zero if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Appends a sample to the named key.
    pub fn record(&mut self, name: &str, v: f64) {
        #[cfg(debug_assertions)]
        crate::trace::registry::debug_check_metric_key(name, MetricKind::Histogram);
        match self.samples.get_mut(name) {
            Some(s) => s.push(v),
            None => {
                self.samples.insert(name.to_owned(), vec![v]);
            }
        }
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
}
