//! Structured end-of-run reports.
//!
//! A [`RunReport`] is the machine-readable companion of an experiment's
//! CSV tables: one JSON document capturing the experiment, the seed, the
//! event count, the configuration and the headline result values (the
//! table cells), each in insertion order.
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

use crate::trace::{escape_into, Value};
use std::io;
use std::path::Path;

/// A machine-readable end-of-run report. See the module docs.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Experiment identifier (e.g. `exp04_message_counts`).
    pub experiment: String,
    /// The run's root seed.
    pub seed: u64,
    /// Total simulation events (or rounds) processed, if known.
    pub events: u64,
    /// Configuration key/values, in insertion order.
    pub config: Vec<(String, String)>,
    /// Headline result values (table cells etc.), in insertion order.
    pub values: Vec<(String, String)>,
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
        o.push_str(",\n  \"config\": {");
        push_string_map(&mut o, &self.config);
        o.push_str("},\n  \"values\": {");
        push_string_map(&mut o, &self.values);
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
        let mut r = RunReport::new("exp_test", 42);
        r.events = 10;
        r.config("n_hosts", 16).config("mode", "quick");
        r.value("total_msgs", 10).value("msg.ping", 7);
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
        assert!(j.contains("\"msg.ping\": \"7\""));
        assert!(j.contains("\"n_hosts\": \"16\""));
        assert!(j.contains("\"wall_secs\": null"));
    }
}
