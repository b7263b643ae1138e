//! E13 (extension) — seed sensitivity of the headline effects.
//!
//! Not a paper artifact: a robustness study for this reproduction. Each
//! row is one headline effect as its own experiment defines it — the
//! `effect` of E4, E6, E9 and E10, read from that experiment's `run` — and
//! the table spreads it over independent seeds, in parallel, reporting
//! mean ± sample std plus whether the direction held for **every** seed.
//! The rows always run at quick scale, the scale the claim test checks
//! every row at; E13's own scale only picks how many seeds (4 or 10).
//! EXPERIMENTS.md's claim that "no qualitative conclusion changes with the
//! seed" is this table.

use super::sweep::{parallel_map, SeedStats};
use super::table::{ensure, Scale};
use super::{e04_messages, e06_exchange, e09_kademlia, e10_bittorrent};
use crate::report::Table;
use uap_sim::Tracer;

/// Sweep parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// Seeds to evaluate.
    pub seeds: Vec<u64>,
}

impl Params {
    /// Small instance (4 seeds).
    pub fn quick(base_seed: u64) -> Params {
        Params {
            seeds: (0..4).map(|i| base_seed + i).collect(),
        }
    }

    /// Full instance (10 seeds).
    pub fn full(base_seed: u64) -> Params {
        Params {
            seeds: (0..10).map(|i| base_seed + i).collect(),
        }
    }
}

/// A row of the table: its label, and its experiment's quick-scale run at
/// a seed reduced to that experiment's `effect`.
type Row = (&'static str, fn(u64) -> f64);

const ROWS: [Row; 4] = [
    ("E4: oracle message reduction", |seed| {
        let p = e04_messages::Params::quick(seed);
        e04_messages::effect(&e04_messages::run(&p, &mut Tracer::disabled()))
    }),
    ("E6: exchange-oracle locality jump (pp)", |seed| {
        e06_exchange::effect(&e06_exchange::run(&e06_exchange::Params::quick(seed)))
    }),
    ("E9: PNS+PR AS-hop reduction", |seed| {
        let p = e09_kademlia::Params::quick(seed);
        e09_kademlia::effect(&e09_kademlia::run(&p, &mut Tracer::disabled()))
    }),
    ("E10: BNS payload-locality gain (abs)", |seed| {
        let p = e10_bittorrent::Params::quick(seed);
        e10_bittorrent::effect(&e10_bittorrent::run(&p, &mut Tracer::disabled()))
    }),
];

/// One row of the sweep.
#[derive(Clone, Debug)]
pub struct Claim {
    /// Short name.
    pub name: String,
    /// Statistics across seeds.
    pub stats: SeedStats,
}

/// Sweep output.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// All claims.
    pub claims: Vec<Claim>,
    /// Rendered table.
    pub table: Table,
}

/// Runs the sweep: every (row, seed) pair is one job, all in parallel.
pub fn run(p: &Params) -> Outcome {
    let jobs: Vec<_> = ROWS
        .iter()
        .flat_map(|&(_, effect)| p.seeds.iter().map(move |&seed| (effect, seed)))
        .collect();
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get());
    let mut values = parallel_map(jobs, threads, |(effect, seed)| effect(seed)).into_iter();
    let mut table = Table::new(
        "E13 — seed sensitivity of the headline effects",
        &["claim", "mean ± std", "min", "max", "direction holds"],
    );
    let mut claims = Vec::new();
    for (name, _) in ROWS {
        let row: Vec<f64> = values.by_ref().take(p.seeds.len()).collect();
        let stats = SeedStats::of(&row);
        table.row(&[
            name.to_owned(),
            stats.render(),
            format!("{:.3}", stats.min),
            format!("{:.3}", stats.max),
            if stats.all_positive() {
                format!("yes ({}/{} seeds)", stats.n, stats.n)
            } else {
                "NO".to_owned()
            },
        ]);
        claims.push(Claim {
            name: name.to_owned(),
            stats,
        });
    }
    Outcome { claims, table }
}

/// The [`super::TABLE`] row's run; `seed` is the first of the sweep.
pub fn experiment(scale: Scale, seed: u64, _: &mut Tracer) -> super::Outcome {
    let out = run(&scale.params(seed, Params::quick, Params::full));
    let claim = claim(&out);
    super::Outcome::of(vec![out.table], claim)
}

/// No headline effect is a seed artefact: each one's direction holds on
/// every seed of the sweep.
pub fn claim(out: &Outcome) -> Result<(), String> {
    ensure!(out.claims.len() == 4, "{} claims", out.claims.len());
    for c in &out.claims {
        ensure!(
            c.stats.all_positive(),
            "{} reversed on some seed: min {}",
            c.name,
            c.stats.min
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_headline_effect_holds_across_seeds() {
        assert_eq!(claim(&run(&Params::quick(500))), Ok(()));
    }

    /// A cell is its row's own experiment, not a copy of its arms: on one
    /// seed each row's statistics are exactly that experiment's `effect`.
    #[test]
    fn e13_cells_are_the_rows_own_effects() {
        let seed = 42;
        let out = run(&Params { seeds: vec![seed] });
        let want = [
            e04_messages::effect(&e04_messages::run(
                &e04_messages::Params::quick(seed),
                &mut Tracer::disabled(),
            )),
            e06_exchange::effect(&e06_exchange::run(&e06_exchange::Params::quick(seed))),
            e09_kademlia::effect(&e09_kademlia::run(
                &e09_kademlia::Params::quick(seed),
                &mut Tracer::disabled(),
            )),
            e10_bittorrent::effect(&e10_bittorrent::run(
                &e10_bittorrent::Params::quick(seed),
                &mut Tracer::disabled(),
            )),
        ];
        assert_eq!(out.claims.len(), want.len());
        for (c, want) in out.claims.iter().zip(want) {
            assert_eq!(c.stats, SeedStats::of(&[want]), "{}", c.name);
        }
    }
}
