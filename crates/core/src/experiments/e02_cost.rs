//! E2 — Figure 2: "Costs relations" (after Norton \[24\]).
//!
//! Two panels in one table: absolute monthly cost and cost-per-Mbps, for
//! transit vs peering, swept over exchanged traffic. The shape to
//! reproduce: transit cost is linear with a flat per-Mbps price; peering
//! cost is constant with a 1/x per-Mbps price; the curves cross at
//! `peering_flat / transit_price`.

use super::table::{ensure, num, Scale};
use crate::report::{f, Table};
use uap_net::CostParams;
use uap_sim::Tracer;

/// Sweep parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// Tariffs.
    pub cost: CostParams,
    /// Traffic levels to evaluate (Mbps).
    pub traffic_mbps: Vec<f64>,
}

impl Params {
    /// A short sweep.
    pub fn quick() -> Params {
        Params {
            cost: CostParams::default(),
            traffic_mbps: vec![1.0, 10.0, 100.0, 1_000.0],
        }
    }

    /// The full logarithmic sweep of the figure.
    pub fn full() -> Params {
        let mut t = Vec::new();
        let mut v: f64 = 1.0;
        while v <= 10_000.0 {
            t.push(v);
            t.push(v * 2.0);
            t.push(v * 5.0);
            v *= 10.0;
        }
        t.truncate(t.len() - 2);
        Params {
            cost: CostParams::default(),
            traffic_mbps: t,
        }
    }
}

/// Sweep output.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The cost table.
    pub table: Table,
    /// The per-Mbps crossover point in Mbps.
    pub crossover_mbps: f64,
}

/// Runs the sweep.
pub fn run(p: &Params) -> Outcome {
    let mut table = Table::new(
        "Figure 2 — cost relations (transit vs peering)",
        &[
            "traffic_mbps",
            "transit_usd",
            "peering_usd",
            "transit_usd_per_mbps",
            "peering_usd_per_mbps",
        ],
    );
    for &t in &p.traffic_mbps {
        table.row(&[
            f(t),
            f(p.cost.transit_cost(t)),
            f(p.cost.peering_cost(1)),
            f(p.cost.transit_cost_per_mbps(t)),
            f(p.cost.peering_cost_per_mbps(t)),
        ]);
    }
    Outcome {
        table,
        crossover_mbps: p.cost.crossover_mbps(),
    }
}

/// The [`super::TABLE`] row's run (the sweep has no random input).
pub fn experiment(scale: Scale, _seed: u64, _: &mut Tracer) -> super::Outcome {
    let out = run(&match scale {
        Scale::Quick => Params::quick(),
        Scale::Full => Params::full(),
    });
    let claim = claim(&out);
    super::Outcome {
        notes: vec![format!(
            "per-Mbps crossover (peering becomes cheaper): {:.1} Mbps",
            out.crossover_mbps
        )],
        values: vec![("crossover_mbps", out.crossover_mbps.to_string())],
        ..super::Outcome::of(vec![out.table], claim)
    }
}

/// Figure 2's shape: transit cost rises with traffic at a flat per-Mbps
/// price, peering cost is constant so its per-Mbps price falls, and the
/// per-Mbps curves cross at `peering_flat / transit_price` = 100 Mbps.
/// The sweep's only result is its table, so the claim reads the cells.
pub fn claim(out: &Outcome) -> Result<(), String> {
    let t = &out.table;
    let crossover = out.crossover_mbps;
    ensure!(crossover == 100.0, "crossover at {crossover} Mbps");
    for r in 0..t.len() {
        let v = |r, col| num(t, r, col);
        let mbps = v(r, "traffic_mbps")?;
        let (transit, peering) = (v(r, "transit_usd_per_mbps")?, v(r, "peering_usd_per_mbps")?);
        ensure!(
            (peering > transit) == (mbps < crossover) && (peering < transit) == (mbps > crossover),
            "at {mbps} Mbps peering {peering} vs transit {transit} $/Mbps"
        );
        if r > 0 {
            ensure!(
                v(r, "transit_usd")? > v(r - 1, "transit_usd")?,
                "transit cost not rising at {mbps}"
            );
            ensure!(
                v(r, "peering_usd")? == v(0, "peering_usd")?,
                "peering cost moved at {mbps}"
            );
            ensure!(
                transit == v(0, "transit_usd_per_mbps")?,
                "transit $/Mbps moved at {mbps}"
            );
            ensure!(
                peering < v(r - 1, "peering_usd_per_mbps")?,
                "peering $/Mbps not falling at {mbps}"
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The quick sweep is four points; the figure's full logarithmic
    /// sweep must have the same shape.
    #[test]
    fn claim_holds_on_the_full_sweep() {
        let out = run(&Params::full());
        assert_eq!(out.table.len(), 13);
        assert_eq!(claim(&out), Ok(()));
    }
}
