//! `compare a.json b.json`: one row per workload and end-to-end metric,
//! with both medians, the ratio with its base, and a verdict.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END};
use crate::stats::spread;
use std::fmt;

/// What a row concludes about `b` relative to the base `a`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound either way.
    Same,
    /// Worse than the base by more than the bound.
    Regressed,
    /// Better than the base by more than the bound.
    Improved,
    /// Run-to-run spread is wider than the bound, and the two sample sets
    /// overlap: the data cannot tell.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Same => "same",
            Verdict::Regressed => "regressed",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// One side of a row: the median and the samples behind it.
#[derive(Clone, Debug)]
pub struct Side {
    /// Median over the run's iterations.
    pub median: f64,
    /// Per-iteration samples (one for metrics read once per run).
    pub samples: Vec<f64>,
}

/// Judges `b` against the base `a` for a metric with direction `better`
/// and regression bound `bound`.
pub fn verdict(a: &Side, b: &Side, better: Better, bound: f64) -> Verdict {
    // Signed change in the bad direction, as a share of the base.
    let worse_by = match better {
        Better::Lower => (b.median - a.median) / a.median,
        Better::Higher => (a.median - b.median) / a.median,
    };
    let noise = [a, b]
        .iter()
        .filter_map(|s| spread(&s.samples))
        .fold(0.0, f64::max);
    if noise > bound {
        // Wider spread than the bound resolves only when the sample sets
        // do not overlap at all.
        let (a_min, a_max) = min_max(&a.samples);
        let (b_min, b_max) = min_max(&b.samples);
        let (b_all_better, b_all_worse) = match better {
            Better::Lower => (b_max < a_min, b_min > a_max),
            Better::Higher => (b_min > a_max, b_max < a_min),
        };
        return if b_all_better && -worse_by > bound {
            Verdict::Improved
        } else if b_all_worse && worse_by > bound {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Regressed
    } else if -worse_by > bound {
        Verdict::Improved
    } else {
        Verdict::Same
    }
}

fn min_max(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
}

/// One printed row.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Base median.
    pub a: f64,
    /// Compared median.
    pub b: f64,
    /// The verdict.
    pub verdict: Verdict,
}

fn side(workload: &Json, metric: &str) -> Option<Side> {
    let m = workload.get("end_to_end")?.get(metric)?;
    Some(Side {
        median: m.get("median")?.as_f64()?,
        samples: m
            .get("samples")?
            .as_arr()?
            .iter()
            .filter_map(Json::as_f64)
            .collect(),
    })
}

fn workloads(doc: &Json) -> Result<&[Json], String> {
    doc.get("workloads")
        .and_then(Json::as_arr)
        .ok_or_else(|| "not a results file: no \"workloads\" array".to_owned())
}

/// Compares two results documents. Also returns one line per workload
/// whose `sim_digest` differs: simulated statistics moved, so host-time
/// rows no longer compare like with like.
pub fn compare(a: &Json, b: &Json) -> Result<(Vec<Row>, Vec<String>), String> {
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    for wa in workloads(a)? {
        let name = wa
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("workload without a name")?;
        let Some(wb) = workloads(b)?
            .iter()
            .find(|w| w.get("workload").and_then(Json::as_str) == Some(name))
        else {
            notes.push(format!("{name}: missing from the second file"));
            continue;
        };
        let digest = |w: &Json| {
            w.get("sim_digest")
                .and_then(Json::as_str)
                .map(str::to_owned)
        };
        if digest(wa) != digest(wb) {
            notes.push(format!(
                "{name}: sim_digest differs ({} vs {}) — simulated statistics moved",
                digest(wa).unwrap_or_default(),
                digest(wb).unwrap_or_default()
            ));
        }
        for m in END_TO_END {
            let (Some(sa), Some(sb)) = (side(wa, m.name), side(wb, m.name)) else {
                notes.push(format!("{name}: {} missing on one side", m.name));
                continue;
            };
            rows.push(Row {
                workload: name.to_owned(),
                metric: m.name,
                unit: m.unit,
                a: sa.median,
                b: sb.median,
                verdict: verdict(&sa, &sb, m.better, m.bound),
            });
        }
    }
    Ok((rows, notes))
}

/// Prints the table; returns whether every row is `same` or `improved`
/// and no note was raised.
pub fn print(rows: &[Row], notes: &[String]) -> bool {
    println!(
        "{:<20} {:<12} {:>14} {:>14} {:>18}  verdict",
        "workload", "metric", "a (base)", "b", "b/a"
    );
    for r in rows {
        println!(
            "{:<20} {:<12} {:>14.6} {:>14.6} {:>10.4} x {:<5}  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.b / r.a,
            r.unit,
            r.verdict
        );
    }
    for n in notes {
        println!("note: {n}");
    }
    notes.is_empty()
        && rows
            .iter()
            .all(|r| matches!(r.verdict, Verdict::Same | Verdict::Improved))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight(median: f64) -> Side {
        Side {
            median,
            samples: [0.995, 0.998, 1.0, 1.002, 1.005]
                .iter()
                .map(|f| f * median)
                .collect(),
        }
    }

    #[test]
    fn flags_a_twenty_percent_slowdown_and_passes_two_percent() {
        let base = tight(4.0);
        assert_eq!(
            verdict(&base, &tight(4.8), Better::Lower, 0.05),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&base, &tight(4.08), Better::Lower, 0.05),
            Verdict::Same
        );
        assert_eq!(
            verdict(&base, &tight(3.2), Better::Lower, 0.05),
            Verdict::Improved
        );
    }

    #[test]
    fn direction_follows_the_metric() {
        let base = tight(1000.0);
        assert_eq!(
            verdict(&base, &tight(800.0), Better::Higher, 0.05),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&base, &tight(1200.0), Better::Higher, 0.05),
            Verdict::Improved
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_samples_separate() {
        let noisy = |median: f64| Side {
            median,
            samples: [0.8, 0.9, 1.0, 1.1, 1.2]
                .iter()
                .map(|f| f * median)
                .collect(),
        };
        assert_eq!(
            verdict(&noisy(4.0), &noisy(4.4), Better::Lower, 0.05),
            Verdict::Unresolved
        );
        // Every run of b is slower than every run of a: resolved.
        assert_eq!(
            verdict(&noisy(4.0), &noisy(8.0), Better::Lower, 0.05),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&noisy(8.0), &noisy(4.0), Better::Lower, 0.05),
            Verdict::Improved
        );
    }

    #[test]
    fn single_sample_metrics_compare_by_median() {
        let one = |v: f64| Side {
            median: v,
            samples: vec![v],
        };
        assert_eq!(
            verdict(&one(200.0), &one(201.0), Better::Lower, 0.10),
            Verdict::Same
        );
        assert_eq!(
            verdict(&one(200.0), &one(230.0), Better::Lower, 0.10),
            Verdict::Regressed
        );
    }

    #[test]
    fn compares_documents_and_notes_digest_changes() {
        let doc = |run_s: f64, digest: &str| {
            let metric = |v: f64| {
                Json::obj([
                    ("median", Json::from(v)),
                    (
                        "samples",
                        Json::Arr(vec![
                            Json::from(v * 0.999),
                            Json::from(v),
                            Json::from(v * 1.001),
                        ]),
                    ),
                ])
            };
            Json::obj([(
                "workloads",
                Json::Arr(vec![Json::obj([
                    ("workload", Json::from("underlay_scale")),
                    ("sim_digest", Json::from(digest)),
                    (
                        "end_to_end",
                        Json::obj([
                            ("setup_s", metric(0.3)),
                            ("run_s", metric(run_s)),
                            ("units_per_s", metric(1e7 / run_s)),
                            ("peak_rss_mb", metric(200.0)),
                        ]),
                    ),
                ])]),
            )])
        };
        // The registry's own bounds apply here: 1.5 x is past all of them.
        let (rows, notes) = compare(&doc(4.0, "aa"), &doc(6.0, "aa")).expect("compares");
        assert!(notes.is_empty());
        let of = |m: &str| rows.iter().find(|r| r.metric == m).expect("row").verdict;
        assert_eq!(of("run_s"), Verdict::Regressed);
        assert_eq!(of("units_per_s"), Verdict::Regressed);
        assert_eq!(of("setup_s"), Verdict::Same);
        assert_eq!(of("peak_rss_mb"), Verdict::Same);
        let (_, notes) = compare(&doc(4.0, "aa"), &doc(4.0, "bb")).expect("compares");
        assert_eq!(notes.len(), 1);
        assert!(compare(&Json::Null, &doc(4.0, "aa")).is_err());
    }
}
