//! Structured end-of-run reports.
//!
//! A [`RunReport`] is the machine-readable companion of an experiment's
//! CSV tables: one JSON document capturing the configuration, the seed,
//! every counter, histogram summaries (count/sum/mean/min/max and the
//! p50/p90/p95/p99 quantiles), and the recorded time series.
//!
//! The serialization is deliberately **one leaf per line** with keys in a
//! fixed order, so that
//!
//! * two same-seed runs produce byte-identical files, and
//! * `exp trace diff a.report.json b.report.json` can localize a
//!   divergence to a single line.
//!
//! The only non-deterministic datum a report may carry is the wall-clock
//! duration stamped by [`crate::trace::WallTimer`]; it serializes under
//! the key `wall_secs`, and the diff tool skips every line whose key
//! starts with `wall` so reports still compare clean across runs.

use crate::metrics::Metrics;
use crate::time::SimTime;
use crate::trace::{escape_into, Value};
use std::io;
use std::path::Path;

/// Deterministic summary of one histogram for the report.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSummary {
    /// Metric name.
    pub name: String,
    /// Sample count.
    pub count: usize,
    /// Stable sorted sum (see [`crate::metrics::Histogram::sum`]).
    pub sum: f64,
    /// Mean.
    pub mean: f64,
    /// Minimum sample.
    pub min: f64,
    /// Maximum sample.
    pub max: f64,
    /// Nearest-rank quantiles at 0.50 / 0.90 / 0.95 / 0.99.
    pub quantiles: [f64; 4],
}

/// A machine-readable end-of-run report. See the module docs.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Experiment identifier (e.g. `exp04_message_counts`).
    pub experiment: String,
    /// The run's root seed.
    pub seed: u64,
    /// Total simulation events (or rounds) processed, if known.
    pub events: u64,
    /// Simulated end time, if known.
    pub end_time: SimTime,
    /// Configuration key/values, in insertion order.
    pub config: Vec<(String, String)>,
    /// Headline result values (table cells etc.), in insertion order.
    pub values: Vec<(String, String)>,
    /// Counter snapshot, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Histogram summaries, sorted by name.
    pub histograms: Vec<HistogramSummary>,
    /// Time series, sorted by name; points are `(micros, value)`.
    pub series: Vec<(String, Vec<(u64, f64)>)>,
    /// Wall-clock duration of the run. Excluded from determinism
    /// comparison — this is the only field allowed to differ between
    /// same-seed runs.
    pub wall_secs: Option<f64>,
}

impl RunReport {
    /// Creates an empty report for `experiment` run with `seed`.
    pub fn new(experiment: impl Into<String>, seed: u64) -> RunReport {
        RunReport {
            experiment: experiment.into(),
            seed,
            ..RunReport::default()
        }
    }

    /// Records one configuration key/value.
    pub fn config(&mut self, key: impl Into<String>, value: impl ToString) -> &mut Self {
        self.config.push((key.into(), value.to_string()));
        self
    }

    /// Records one headline result value.
    pub fn value(&mut self, key: impl Into<String>, value: impl ToString) -> &mut Self {
        self.values.push((key.into(), value.to_string()));
        self
    }

    /// Absorbs a metrics registry: counters, histogram summaries and time
    /// series. Needs `&mut Metrics` because quantiles sort lazily.
    pub fn absorb_metrics(&mut self, metrics: &mut Metrics) -> &mut Self {
        for (name, v) in metrics.counters() {
            self.counters.push((name.to_owned(), v));
        }
        for (name, h) in metrics.histograms_mut() {
            if h.is_empty() {
                continue;
            }
            let quantiles = [0.50, 0.90, 0.95, 0.99].map(|q| h.quantile(q).unwrap_or(f64::NAN));
            self.histograms.push(HistogramSummary {
                name: name.to_owned(),
                count: h.count(),
                sum: h.sum(),
                mean: h.mean().unwrap_or(f64::NAN),
                min: h.min().unwrap_or(f64::NAN),
                max: h.max().unwrap_or(f64::NAN),
                quantiles,
            });
        }
        for (name, s) in metrics.all_series() {
            self.series.push((
                name.to_owned(),
                s.points()
                    .iter()
                    .map(|&(t, v)| (t.as_micros(), v))
                    .collect(),
            ));
        }
        self
    }

    /// Serializes the report as deterministic pretty-printed JSON (one
    /// leaf per line, fixed key order, trailing newline).
    pub fn to_json(&self) -> String {
        let mut o = String::with_capacity(1024);
        o.push_str("{\n");
        o.push_str("  \"experiment\": ");
        push_str_value(&mut o, &self.experiment);
        o.push_str(",\n  \"seed\": ");
        o.push_str(&self.seed.to_string());
        o.push_str(",\n  \"events\": ");
        o.push_str(&self.events.to_string());
        o.push_str(",\n  \"end_time_us\": ");
        o.push_str(&self.end_time.as_micros().to_string());
        o.push_str(",\n  \"config\": {");
        push_string_map(&mut o, &self.config);
        o.push_str("},\n  \"values\": {");
        push_string_map(&mut o, &self.values);
        o.push_str("},\n  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            o.push_str(if i == 0 { "\n" } else { ",\n" });
            o.push_str("    ");
            push_str_value(&mut o, k);
            o.push_str(": ");
            o.push_str(&v.to_string());
        }
        if !self.counters.is_empty() {
            o.push_str("\n  ");
        }
        o.push_str("},\n  \"histograms\": {");
        for (i, h) in self.histograms.iter().enumerate() {
            o.push_str(if i == 0 { "\n" } else { ",\n" });
            o.push_str("    ");
            push_str_value(&mut o, &h.name);
            o.push_str(": {\"count\": ");
            o.push_str(&h.count.to_string());
            for (key, v) in [
                ("sum", h.sum),
                ("mean", h.mean),
                ("min", h.min),
                ("max", h.max),
                ("p50", h.quantiles[0]),
                ("p90", h.quantiles[1]),
                ("p95", h.quantiles[2]),
                ("p99", h.quantiles[3]),
            ] {
                o.push_str(", \"");
                o.push_str(key);
                o.push_str("\": ");
                Value::F64(v).write_json_value(&mut o);
            }
            o.push('}');
        }
        if !self.histograms.is_empty() {
            o.push_str("\n  ");
        }
        o.push_str("},\n  \"series\": {");
        for (i, (name, pts)) in self.series.iter().enumerate() {
            o.push_str(if i == 0 { "\n" } else { ",\n" });
            o.push_str("    ");
            push_str_value(&mut o, name);
            o.push_str(": [");
            for (j, (t, v)) in pts.iter().enumerate() {
                if j > 0 {
                    o.push_str(", ");
                }
                o.push('[');
                o.push_str(&t.to_string());
                o.push_str(", ");
                Value::F64(*v).write_json_value(&mut o);
                o.push(']');
            }
            o.push(']');
        }
        if !self.series.is_empty() {
            o.push_str("\n  ");
        }
        o.push_str("},\n  \"wall_secs\": ");
        match self.wall_secs {
            Some(w) => Value::F64(w).write_json_value(&mut o),
            None => o.push_str("null"),
        }
        o.push_str("\n}\n");
        o
    }

    /// Writes the report JSON to `path`.
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

fn push_str_value(o: &mut String, s: &str) {
    o.push('"');
    escape_into(s, o);
    o.push('"');
}

fn push_string_map(o: &mut String, entries: &[(String, String)]) {
    for (i, (k, v)) in entries.iter().enumerate() {
        o.push_str(if i == 0 { "\n" } else { ",\n" });
        o.push_str("    ");
        push_str_value(o, k);
        o.push_str(": ");
        push_str_value(o, v);
    }
    if !entries.is_empty() {
        o.push_str("\n  ");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report(wall: Option<f64>) -> RunReport {
        let mut m = Metrics::new();
        m.incr("msg.ping", 7);
        m.incr("msg.query", 3);
        m.record("latency_us", 100.0);
        m.record("latency_us", 300.0);
        m.record("latency_us", 200.0);
        m.trace("rate", SimTime::from_secs(1), 2.5);
        m.trace("rate", SimTime::from_secs(2), 3.5);
        let mut r = RunReport::new("exp_test", 42);
        r.events = 10;
        r.end_time = SimTime::from_secs(2);
        r.config("n_hosts", 16).config("mode", "quick");
        r.value("total_msgs", 10);
        r.absorb_metrics(&mut m);
        r.wall_secs = wall;
        r
    }

    #[test]
    fn serialization_is_deterministic() {
        assert_eq!(sample_report(None).to_json(), sample_report(None).to_json());
    }

    #[test]
    fn only_the_wall_line_differs_between_timed_runs() {
        let a = sample_report(Some(1.0)).to_json();
        let b = sample_report(Some(2.0)).to_json();
        let diffs: Vec<(&str, &str)> = a.lines().zip(b.lines()).filter(|(x, y)| x != y).collect();
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].0.trim_start().starts_with("\"wall"));
    }

    #[test]
    fn report_contains_expected_leaves() {
        let j = sample_report(None).to_json();
        assert!(j.contains("\"experiment\": \"exp_test\""));
        assert!(j.contains("\"seed\": 42"));
        assert!(j.contains("\"msg.ping\": 7"));
        assert!(j.contains("\"n_hosts\": \"16\""));
        assert!(j.contains("\"p95\": 300.0"));
        assert!(j.contains("[1000000, 2.5]"));
        assert!(j.contains("\"wall_secs\": null"));
    }

    #[test]
    fn histogram_summary_pins_quantile_leaves() {
        // Regression: the exact nearest-rank p50/p90/p95/p99 leaves for a
        // known 1..=20 dataset, as serialized. ceil(q*20) ranks: 10, 18,
        // 19, 20.
        let mut m = Metrics::new();
        for i in 1..=20 {
            m.record("latency", i as f64);
        }
        let mut r = RunReport::new("q", 1);
        r.absorb_metrics(&mut m);
        let j = r.to_json();
        assert!(j.contains("\"p50\": 10.0"), "{j}");
        assert!(j.contains("\"p90\": 18.0"), "{j}");
        assert!(j.contains("\"p95\": 19.0"), "{j}");
        assert!(j.contains("\"p99\": 20.0"), "{j}");
    }

    #[test]
    fn histogram_summary_is_order_independent() {
        let build = |order: &[f64]| {
            let mut m = Metrics::new();
            for &v in order {
                m.record("h", v);
            }
            let mut r = RunReport::new("x", 1);
            r.absorb_metrics(&mut m);
            r.to_json()
        };
        assert_eq!(build(&[1e16, -1e16, 1.0]), build(&[1.0, 1e16, -1e16]));
    }
}
