//! E6 — the §4 intra-AS file-exchange percentages.
//!
//! The reprinted study measures the share of file downloads served from
//! inside the downloader's own AS:
//!
//! * unbiased: **6.5 %**
//! * oracle at bootstrap, list 100: **7.3 %**
//! * oracle at bootstrap, list 1000: **10.02 %**
//! * oracle also at file-exchange time: **40.57 %** — "34 % of file
//!   content, which is otherwise available at a node within the querying
//!   node's AS, was previously downloaded from a node outside".
//!
//! Shape to reproduce: a modest rise from biasing the topology, then a
//! jump when the oracle ranks the QueryHit providers.

use super::table::{ensure, Scale};
use crate::experiments::NetParams;
use crate::report::Table;
use uap_gnutella::{run_experiment_with, GnutellaConfig, NeighborSelection};
use uap_sim::{SimTime, Tracer};

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// Underlay shape.
    pub net: NetParams,
    /// Simulated duration.
    pub duration: SimTime,
}

impl Params {
    /// Small instance.
    pub fn quick(seed: u64) -> Params {
        Params {
            net: NetParams::quick(250, seed),
            duration: SimTime::from_mins(10),
        }
    }

    /// Paper-scale instance.
    pub fn full(seed: u64) -> Params {
        Params {
            net: NetParams::full(seed),
            duration: SimTime::from_mins(45),
        }
    }
}

/// Output: the four percentages.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// `(label, paper %, measured %)` per configuration.
    pub rows: Vec<(String, f64, f64)>,
    /// Rendered table.
    pub table: Table,
    /// Engine events of the four runs.
    pub events: u64,
}

/// Runs the four configurations.
pub fn run(p: &Params) -> Outcome {
    let seed = p.net.seed ^ 0xE6;
    let mk = |selection: NeighborSelection, oracle_exchange: bool| {
        let mut cfg = GnutellaConfig {
            selection,
            oracle_at_file_exchange: oracle_exchange,
            duration: p.duration,
            hostcache_size: 1000.min(p.net.n_hosts),
            ..Default::default()
        };
        // Moderate interest locality: strong enough that local sources
        // exist (the premise of [25][18][24]), weak enough that random
        // source selection rarely finds them — the regime the study's
        // 6.5 % unbiased baseline lives in.
        cfg.content.locality = 0.2;
        cfg
    };
    let configs: Vec<(String, f64, GnutellaConfig)> = vec![
        ("unbiased".into(), 6.5, mk(NeighborSelection::Random, false)),
        (
            "oracle list 100".into(),
            7.3,
            mk(NeighborSelection::OracleBiased { list_size: 100 }, false),
        ),
        (
            "oracle list 1000".into(),
            10.02,
            mk(NeighborSelection::OracleBiased { list_size: 1000 }, false),
        ),
        (
            "oracle also at file exchange".into(),
            40.57,
            mk(NeighborSelection::OracleBiased { list_size: 1000 }, true),
        ),
    ];
    let mut rows = Vec::new();
    let mut events = 0;
    let mut table = Table::new(
        "§4 — intra-AS share of file exchanges",
        &["configuration", "paper", "measured"],
    );
    for (label, paper, cfg) in configs {
        let (report, _) = run_experiment_with(p.net.build(), cfg, seed, &mut Tracer::disabled());
        let measured = report.intra_as_exchange_pct();
        events += report.events;
        table.row(&[
            label.clone(),
            format!("{paper:.2}%"),
            format!("{measured:.2}%"),
        ]);
        rows.push((label, paper, measured));
    }
    Outcome {
        rows,
        table,
        events,
    }
}

/// The [`super::TABLE`] row's run.
pub fn experiment(scale: Scale, seed: u64, _: &mut Tracer) -> super::Outcome {
    let out = run(&scale.params(seed, Params::quick, Params::full));
    let claim = claim(&out);
    super::Outcome {
        events: out.events,
        ..super::Outcome::of(vec![out.table], claim)
    }
}

/// The exchange oracle's jump: its intra-AS share minus list-1000's, in
/// percentage points. NaN unless the run has its four configurations.
pub fn effect(out: &Outcome) -> f64 {
    let [_, _, (_, _, list1000), (_, _, exchange)] = out.rows.as_slice() else {
        return f64::NAN;
    };
    exchange - list1000
}

/// The study's shape: biasing the topology raises the intra-AS share of
/// file exchanges a little; consulting the oracle again when choosing
/// the provider gives the characteristic jump.
pub fn claim(out: &Outcome) -> Result<(), String> {
    let [m0, m1, m2, m3] = out.rows.as_slice() else {
        return Err(format!("{} configurations", out.rows.len()));
    };
    let [m0, m1, m2, m3] = [m0, m1, m2, m3].map(|r| r.2);
    ensure!(m1 > m0, "list-100 {m1} !> unbiased {m0}");
    // The two list sizes are close at quick scale; the gradient needs
    // paper-scale populations.
    ensure!(m2 >= m1 * 0.9, "list-1000 {m2} vs list-100 {m1}");
    ensure!(
        effect(out) >= 0.0,
        "exchange-oracle {m3} below list-1000 {m2}"
    );
    ensure!(m3 > 2.0 * m0, "no jump: {m3} vs unbiased {m0}");
    ensure!(m3 > 10.0, "exchange-oracle share suspiciously low: {m3}");
    Ok(())
}
