//! E3 — Figure 4 and Examples 4/5 of the Lim et al. excerpt: the Internet
//! Coordinate System, plus an accuracy comparison with Vivaldi.
//!
//! Two outputs:
//!
//! 1. **The worked example**, with the exact published numbers (α = 0.6,
//!    c̄ = ±[2.1, 1.5], host embeddings [−3, 1.8]/[−12, 0], predicted
//!    distances 0.94 / 3.42 / 10.01);
//! 2. **An accuracy sweep** on a simulated underlay: median relative error
//!    of ICS (by beacon count and dimension) vs Vivaldi (by gossip
//!    rounds) vs the explicit-measurement baseline — with the message
//!    overhead of each, since overhead is the entire argument for
//!    prediction methods (§3.2).

use super::table::{ensure, num, Scale};
use crate::experiments::NetParams;
use crate::report::{f, Table};
use uap_coords::{IcsSystem, Matrix, VivaldiConfig};
use uap_info::{IcsService, VivaldiService};
use uap_sim::{SimRng, Tracer};

/// Accuracy-sweep parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// Underlay shape.
    pub net: NetParams,
    /// Beacon counts to evaluate for ICS.
    pub beacon_counts: Vec<usize>,
    /// Embedding dimensions to evaluate for ICS.
    pub dims: Vec<usize>,
    /// Vivaldi gossip rounds.
    pub vivaldi_rounds: usize,
    /// Random pairs used to score accuracy.
    pub eval_pairs: usize,
}

impl Params {
    /// Small instance.
    pub fn quick(seed: u64) -> Params {
        Params {
            net: NetParams::quick(120, seed),
            beacon_counts: vec![10, 16],
            dims: vec![2, 4],
            vivaldi_rounds: 60,
            eval_pairs: 300,
        }
    }

    /// Paper-scale instance.
    pub fn full(seed: u64) -> Params {
        Params {
            net: NetParams::full(seed),
            beacon_counts: vec![5, 10, 20, 40],
            dims: vec![2, 4, 6, 8],
            vivaldi_rounds: 60,
            eval_pairs: 2_000,
        }
    }
}

/// The worked-example table: every number the excerpt prints.
pub fn example_table() -> Table {
    let d = Matrix::from_rows(
        4,
        4,
        vec![
            0.0, 1.0, 3.0, 3.0, //
            1.0, 0.0, 3.0, 3.0, //
            3.0, 3.0, 0.0, 1.0, //
            3.0, 3.0, 1.0, 0.0,
        ],
    );
    let mut table = Table::new(
        "Figure 4 / Examples 4-5 — ICS worked example (paper value vs computed)",
        &["quantity", "paper", "computed"],
    );
    let ics2 = IcsSystem::build(&d, 2);
    let ics4 = IcsSystem::build(&d, 4);
    let mut push = |k: &str, paper: &str, got: f64| {
        table.row(&[k.to_owned(), paper.to_owned(), format!("{got:.4}")]);
    };
    push("alpha (n=2)", "0.6", ics2.alpha());
    push("|c1| axis 1 (n=2)", "2.1", ics2.beacon_coord(0)[0].abs());
    push("|c1| axis 2 (n=2)", "1.5", ics2.beacon_coord(0)[1].abs());
    push(
        "inter-AS beacon distance (n=2)",
        "3",
        ics2.predict(ics2.beacon_coord(0), ics2.beacon_coord(2)),
    );
    push("alpha (n=4)", "0.5927", ics4.alpha());
    push(
        "intra-AS beacon distance (n=4)",
        "0.8383",
        ics4.predict(ics4.beacon_coord(0), ics4.beacon_coord(1)),
    );
    push(
        "inter-AS beacon distance (n=4)",
        "3.0224",
        ics4.predict(ics4.beacon_coord(0), ics4.beacon_coord(2)),
    );
    let xa = ics2.host_coord(&[1.0, 1.0, 4.0, 4.0]);
    push("host A |x| axis 1", "3", xa[0].abs());
    push("host A |x| axis 2", "1.8", xa[1].abs());
    push(
        "L2(c1, xA)",
        "0.94",
        ics2.predict(&xa, ics2.beacon_coord(0)),
    );
    push(
        "L2(c3, xA)",
        "3.42",
        ics2.predict(&xa, ics2.beacon_coord(2)),
    );
    let xb = ics2.host_coord(&[10.0, 10.0, 10.0, 10.0]);
    push("host B |x| axis 1", "12", xb[0].abs());
    push(
        "L2(ci, xB)",
        "10.01",
        ics2.predict(&xb, ics2.beacon_coord(0)),
    );
    table
}

/// Runs the accuracy sweep.
pub fn run_accuracy(p: &Params) -> Table {
    let underlay = p.net.build();
    let mut table = Table::new(
        "E3 — latency prediction accuracy vs overhead",
        &[
            "technique",
            "config",
            "median_rel_err",
            "p90_rel_err",
            "messages",
        ],
    );
    let mut rng = SimRng::new(p.net.seed ^ 0xE3);
    for &m in &p.beacon_counts {
        for &n in &p.dims {
            if n > m {
                continue;
            }
            let svc = IcsService::build(&underlay, m, n, &mut rng);
            let q = svc.quality(&underlay, p.eval_pairs, &mut rng);
            table.row(&[
                "ics".into(),
                format!("m={m} n={n}"),
                f(q.median_rel_err),
                f(q.p90_rel_err),
                uap_info::provider::ProximityEstimator::overhead_messages(&svc).to_string(),
            ]);
        }
    }
    for rounds in [p.vivaldi_rounds / 4, p.vivaldi_rounds] {
        let mut svc = VivaldiService::new(underlay.n_hosts(), VivaldiConfig::default());
        svc.converge(&underlay, rounds, 4, &mut rng);
        let q = svc.quality(&underlay, p.eval_pairs, &mut rng);
        table.row(&[
            "vivaldi".into(),
            format!("rounds={rounds}"),
            f(q.median_rel_err),
            f(q.p90_rel_err),
            uap_info::provider::ProximityEstimator::overhead_messages(&svc).to_string(),
        ]);
    }
    // Explicit measurement: exact by definition, n(n-1) messages.
    let n = underlay.n_hosts() as u64;
    table.row(&[
        "explicit-ping".into(),
        "all-pairs".into(),
        "0".into(),
        "0".into(),
        (n * (n - 1)).to_string(),
    ]);
    table
}

/// The [`super::TABLE`] row's run.
pub fn experiment(scale: Scale, seed: u64, _: &mut Tracer) -> super::Outcome {
    let p = scale.params(seed, Params::quick, Params::full);
    let (example, accuracy) = (example_table(), run_accuracy(&p));
    let claim = claim(&example, &accuracy);
    super::Outcome::of(vec![example, accuracy], claim)
}

/// The excerpt's worked example reproduces to the printed digit, and the
/// §3.2 promise holds: landmark embedding costs less than an all-pairs
/// census while staying usefully accurate, and so does converged Vivaldi.
/// Both harnesses return only their tables, so the claim reads the cells.
pub fn claim(example: &Table, accuracy: &Table) -> Result<(), String> {
    ensure!(example.len() == 13, "{} example rows", example.len());
    for r in 0..example.len() {
        let (paper, got) = (num(example, r, "paper")?, num(example, r, "computed")?);
        // The paper prints 2 decimals; allow rounding plus 1%.
        ensure!(
            (paper - got).abs() < paper.abs() * 0.01 + 0.01,
            "{}: paper {paper} vs computed {got}",
            example.cell(r, 0)
        );
    }
    let t = accuracy;
    ensure!(t.len() >= 3, "{} accuracy rows", t.len());
    let explicit = t.len() - 1;
    ensure!(
        t.cell(explicit, 0) == "explicit-ping",
        "last row is not the census"
    );
    let census = num(t, explicit, "messages")?;
    for r in 0..explicit {
        let (err, msgs) = (num(t, r, "median_rel_err")?, num(t, r, "messages")?);
        if t.cell(r, 0) == "ics" {
            ensure!(msgs < census, "ics row {r}: {msgs} msgs >= census {census}");
            ensure!(err < 0.6, "ics row {r}: median error {err}");
        }
    }
    // Vivaldi's cost is rounds-bound, not n²-bound, so at test scale it
    // can exceed the census; its converged accuracy must still be useful.
    let converged = num(t, explicit - 1, "median_rel_err")?;
    ensure!(
        converged < 0.6,
        "converged vivaldi median error {converged}"
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_sweep_runs_and_prediction_beats_nothing() {
        let t = run_accuracy(&Params::quick(3));
        assert!(t.len() >= 5);
        let explicit_msgs: u64 = t.cell(t.len() - 1, 4).parse().unwrap();
        for r in 0..t.len() - 1 {
            let technique = t.cell(r, 0).to_owned();
            let msgs: u64 = t.cell(r, 4).parse().unwrap();
            let err: f64 = t.cell(r, 2).parse().unwrap();
            if technique == "ics" {
                // Landmark embedding is always far cheaper than an
                // all-pairs census, and must stay usefully accurate.
                assert!(msgs < explicit_msgs, "row {r}: {msgs} >= {explicit_msgs}");
                assert!(err < 0.6, "row {r} err {err}");
            } else {
                // Vivaldi's message cost is rounds-bound, not n²-bound; at
                // this tiny test scale it can exceed all-pairs (it wins at
                // population scale — see the full run in EXPERIMENTS.md).
                // Accuracy must still be useful once converged.
                assert!(err < 0.6 || msgs < explicit_msgs, "row {r} err {err}");
            }
        }
        let last_vivaldi_err: f64 = t.cell(t.len() - 2, 2).parse().unwrap();
        assert!(
            last_vivaldi_err < 0.6,
            "converged vivaldi err {last_vivaldi_err}"
        );
    }
}
