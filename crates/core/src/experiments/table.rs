//! The experiment table: one row per experiment, E1–E18.
//!
//! [`TABLE`] is the only place an experiment's id, artifact name and CSV
//! stems are written. The `exp` binary, the CI scripts (through
//! `exp list`), the claim test below and the EXPERIMENTS.md generator
//! ([`super::doc`]) all read it, so none of them can name an experiment
//! the others do not know.
//!
//! Every row runs through one signature and returns one [`Outcome`].
//! [`Outcome::claim`] is the paper headline EXPERIMENTS.md ticks off: each
//! module's `claim` fn evaluated on that run's typed results — a ✅ there
//! means it was `Ok` on every seed the test below sweeps.

use super::{
    e01_hierarchy, e02_cost, e03_coordinates, e04_messages, e05_clustering, e06_exchange,
    e07_testlab, e09_kademlia, e10_bittorrent, e11_challenges, e12_overhead, e13_variance, e14_gsh,
    e15_collection, e16_resilience, e17_fault_scale, e18_congestion,
};
use crate::impact;
use crate::report::Table;
use uap_sim::Tracer;

/// Which of a row's two parameter sets to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Seconds; what `--quick` and the tests run.
    Quick,
    /// The figures EXPERIMENTS.md and `results/` quote.
    Full,
}

impl Scale {
    /// Picks a harness's `Params::quick(seed)` or `Params::full(seed)`.
    pub fn params<P>(self, seed: u64, quick: fn(u64) -> P, full: fn(u64) -> P) -> P {
        match self {
            Scale::Quick => quick(seed),
            Scale::Full => full(seed),
        }
    }
}

/// What one experiment run hands back, whatever the experiment.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The result tables, one per [`Experiment::csvs`] stem, same order:
    /// printed, written as CSV and folded into the run report.
    pub tables: Vec<Table>,
    /// Raw data series, one per [`Experiment::dumps`] stem: written as
    /// CSV only.
    pub dumps: Vec<Table>,
    /// Run-report config entries beyond `quick`.
    pub config: Vec<(&'static str, String)>,
    /// Run-report values beyond the table cells.
    pub values: Vec<(&'static str, String)>,
    /// Lines printed under the tables.
    pub notes: Vec<String>,
    /// Events (or rounds, RPCs, epochs) processed: the report's `events`.
    pub events: u64,
    /// The paper headline, checked by the module's `claim` on the typed
    /// results this outcome was rendered from; `Err` says what failed.
    pub claim: Result<(), String>,
}

impl Outcome {
    /// An outcome publishing `tables` and the verdict of the row's claim,
    /// nothing else.
    pub fn of(tables: Vec<Table>, claim: Result<(), String>) -> Outcome {
        Outcome {
            tables,
            dumps: Vec::new(),
            config: Vec::new(),
            values: Vec::new(),
            notes: Vec::new(),
            events: 0,
            claim,
        }
    }
}

/// One row of [`TABLE`].
pub struct Experiment {
    /// Short id, the `exp <id>` argument (`exp04`).
    pub id: &'static str,
    /// Artifact name: the stem of `<name>.report.json` and the report's
    /// experiment field (`exp04_message_counts`).
    pub name: &'static str,
    /// One-line description for `exp list`.
    pub title: &'static str,
    /// CSV stems of [`Outcome::tables`].
    pub csvs: &'static [&'static str],
    /// CSV stems of [`Outcome::dumps`] (only E5 has any; see its row).
    pub dumps: &'static [&'static str],
    /// Whether `run` records into the tracer it is handed.
    pub traced: bool,
    /// Runs the experiment at `scale` from `seed`.
    pub run: fn(Scale, u64, &mut Tracer) -> Outcome,
}

/// Every experiment, in E-number order.
pub static TABLE: [Experiment; 18] = [
    Experiment {
        id: "exp01",
        name: "exp01_hierarchy",
        title: "E1 — Figure 1: Internet hierarchy census",
        csvs: &["exp01_hierarchy"],
        dumps: &[],
        traced: false,
        run: e01_hierarchy::experiment,
    },
    Experiment {
        id: "exp02",
        name: "exp02_cost_relations",
        title: "E2 — Figure 2: transit vs peering cost curves",
        csvs: &["exp02_cost_relations"],
        dumps: &[],
        traced: false,
        run: e02_cost::experiment,
    },
    Experiment {
        id: "exp03",
        name: "exp03_ics_coordinates",
        title: "E3 — Figure 4 / Examples 4-5: the ICS coordinate system + accuracy sweep",
        csvs: &["exp03_ics_example", "exp03_accuracy"],
        dumps: &[],
        traced: false,
        run: e03_coordinates::experiment,
    },
    Experiment {
        id: "exp04",
        name: "exp04_message_counts",
        title: "E4 — Table 1: Gnutella message counts, unbiased vs oracle-biased",
        csvs: &["exp04_message_counts"],
        dumps: &[],
        traced: true,
        run: e04_messages::experiment,
    },
    Experiment {
        id: "exp05",
        name: "exp05_overlay_clustering",
        title: "E5 — Figures 5/6: overlay structure under neighbor-selection policies",
        csvs: &["exp05_overlay_clustering"],
        // Edge lists for external plotting (the "visualization" of
        // Fig. 5/6). A list apart from `csvs` because these are thousands
        // of rows of raw data, not results: printing them, folding every
        // edge into the run report or rendering them into EXPERIMENTS.md
        // would bury the table — and the report and stdout must stay what
        // the parent's exp05 wrote.
        dumps: &["exp05_edges_uniform_random", "exp05_edges_oracle_biased"],
        traced: false,
        run: e05_clustering::experiment,
    },
    Experiment {
        id: "exp06",
        name: "exp06_file_exchange_locality",
        title: "E6 — §4: intra-AS share of file exchanges (6.5/7.3/10.02/40.57 %)",
        csvs: &["exp06_file_exchange_locality"],
        dumps: &[],
        traced: false,
        run: e06_exchange::experiment,
    },
    Experiment {
        id: "exp07",
        name: "exp07_testlab",
        title: "E7 — §5 testlab: 45 Gnutella nodes on ring/star/tree/mesh",
        csvs: &["exp07_testlab"],
        dumps: &[],
        traced: false,
        run: e07_testlab::experiment,
    },
    Experiment {
        id: "exp08",
        name: "exp08_impact_matrix",
        title: "E8 — Table 2: the measured impact matrix",
        csvs: &["exp08_impact_matrix"],
        dumps: &[],
        traced: false,
        run: impact::experiment,
    },
    Experiment {
        id: "exp09",
        name: "exp09_kademlia_proximity",
        title: "E9 — proximity neighbor selection in Kademlia (Kaune et al. [17])",
        csvs: &["exp09_kademlia_proximity"],
        dumps: &[],
        traced: true,
        run: e09_kademlia::experiment,
    },
    Experiment {
        id: "exp10",
        name: "exp10_bittorrent_locality",
        title: "E10 — swarm locality and ISP bills (BNS [3], CAT [32])",
        csvs: &["exp10_bittorrent_locality"],
        dumps: &[],
        traced: true,
        run: e10_bittorrent::experiment,
    },
    Experiment {
        id: "exp11",
        name: "exp11_challenges",
        title: "E11 — §6 challenges: asymmetry, long hop, mobility",
        csvs: &["exp11_asymmetry", "exp11_long_hop", "exp11_mobility"],
        dumps: &[],
        traced: false,
        run: e11_challenges::experiment,
    },
    Experiment {
        id: "exp12",
        name: "exp12_overhead_churn",
        title: "E12 — §5.4 open issues: awareness overhead and churn robustness",
        csvs: &["exp12_overhead", "exp12_churn"],
        dumps: &[],
        traced: false,
        run: e12_overhead::experiment,
    },
    Experiment {
        id: "exp13",
        name: "exp13_variance",
        title: "E13 (extension) — seed sensitivity of the headline effects",
        csvs: &["exp13_variance"],
        dumps: &[],
        traced: false,
        run: e13_variance::experiment,
    },
    Experiment {
        id: "exp14",
        name: "exp14_gsh",
        title: "E14 — geographically scoped hashing (Leopard [33]) vs a plain DHT",
        csvs: &["exp14_gsh"],
        dumps: &[],
        traced: false,
        run: e14_gsh::experiment,
    },
    Experiment {
        id: "exp15",
        name: "exp15_collection",
        title: "E15 (extension) — ISP-location collection techniques: quality vs overhead",
        csvs: &["exp15_collection"],
        dumps: &[],
        traced: true,
        run: e15_collection::experiment,
    },
    Experiment {
        id: "exp16",
        name: "exp16_resilience",
        title: "E16 (extension) — fault-campaign resilience: degradation and recovery curves",
        csvs: &[
            "exp16_reachability",
            "exp16_gnutella",
            "exp16_kademlia",
            "exp16_bittorrent",
        ],
        dumps: &[],
        traced: true,
        run: e16_resilience::experiment,
    },
    Experiment {
        id: "exp17",
        name: "exp17_fault_scale",
        title: "E17 (extension) — incremental routing repair at fault epochs",
        csvs: &["exp17_fault_scale"],
        dumps: &[],
        traced: true,
        run: e17_fault_scale::experiment,
    },
    Experiment {
        id: "exp18",
        name: "exp18_congestion",
        title: "E18 (extension) — swarm congestion under max-min fair bandwidth sharing",
        csvs: &["exp18_completion", "exp18_locality"],
        dumps: &[],
        traced: true,
        run: e18_congestion::experiment,
    },
];

/// Looks a row up by its id.
pub fn find(id: &str) -> Option<&'static Experiment> {
    TABLE.iter().find(|e| e.id == id)
}

/// The leading number of row `r`'s cell under the column headed `col`:
/// `40.57%` → 40.57, `300s` → 300. For the claims of the harnesses whose
/// only result is a [`Table`] (E2, E3, E11, E12); every other claim reads
/// its module's typed results.
pub fn num(t: &Table, r: usize, col: &str) -> Result<f64, String> {
    let c = t
        .header()
        .iter()
        .position(|h| h == col)
        .ok_or_else(|| format!("{}: no column {col:?}", t.title))?;
    if r >= t.len() {
        return Err(format!("{}: no row {r}", t.title));
    }
    let cell = t.cell(r, c);
    let end = cell
        .char_indices()
        .find(|&(i, ch)| !(ch.is_ascii_digit() || ch == '.' || (i == 0 && ch == '-')))
        .map_or(cell.len(), |(i, _)| i);
    cell[..end]
        .parse()
        .map_err(|_| format!("{}: {col:?} in row {r} = {cell:?} is not a number", t.title))
}

/// Fails the enclosing claim with a formatted reason unless `cond` holds
/// (so a comparison against NaN fails it).
macro_rules! ensure {
    ($cond:expr, $($arg:tt)+) => {
        if $cond {
        } else {
            return Err(format!($($arg)+));
        }
    };
}
pub(crate) use ensure;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::sweep::parallel_map;
    use uap_sim::TraceLevel;

    /// The seeds every claim is evaluated on: the ones the single-seed
    /// headline tests these claims were lifted from used (E4 7, E5 11,
    /// E6 21, E10 51, E11/E16 61, E8 81, E14 91, E15 97), so each of
    /// those seeds is still covered and every row gains the other seven.
    const SEEDS: [u64; 8] = [7, 11, 21, 51, 61, 81, 91, 97];

    /// Every ✅ in EXPERIMENTS.md: each row's claim holds at quick scale
    /// on every seed. E13 is itself a seed sweep, so it runs once.
    #[test]
    fn every_claim_holds_on_every_seed() {
        let jobs: Vec<(&Experiment, u64)> = TABLE
            .iter()
            .flat_map(|e| {
                let n = if e.id == "exp13" { 1 } else { SEEDS.len() };
                SEEDS[..n].iter().map(move |&s| (e, s))
            })
            .collect();
        let threads = std::thread::available_parallelism().map_or(2, |n| n.get());
        let failures: Vec<String> = parallel_map(jobs, threads, |(e, seed)| {
            // The first seed also checks the row's declared shape: an
            // Info-level tracer sees the phase markers of a traced run
            // without paying for Debug events.
            let mut tracer = if seed == SEEDS[0] {
                Tracer::buffered(TraceLevel::Info)
            } else {
                Tracer::disabled()
            };
            let out = (e.run)(Scale::Quick, seed, &mut tracer);
            if seed == SEEDS[0] {
                assert_eq!(out.tables.len(), e.csvs.len(), "{}: tables", e.id);
                assert_eq!(out.dumps.len(), e.dumps.len(), "{}: dumps", e.id);
                assert_eq!(!tracer.is_empty(), e.traced, "{}: traced", e.id);
            }
            out.claim
                .err()
                .map(|why| format!("{} seed {seed}: {why}", e.id))
        })
        .into_iter()
        .flatten()
        .collect();
        assert!(failures.is_empty(), "{}", failures.join("\n"));
    }

    #[test]
    fn ids_names_and_stems_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for e in &TABLE {
            assert!(e.name.starts_with(e.id), "{}", e.name);
            assert!(seen.insert(e.id) && seen.insert(e.name), "{}", e.id);
            for stem in e.csvs.iter().chain(e.dumps) {
                assert!(stem.starts_with(e.id), "{stem}");
                assert!(*stem == e.name || seen.insert(stem), "{stem}");
            }
        }
        assert_eq!(find("exp04").map(|e| e.name), Some("exp04_message_counts"));
        assert!(find("exp99").is_none());
    }

    #[test]
    fn num_finds_its_column_by_header() {
        let mut t = Table::new("t", &["share", "policy"]);
        t.row(&["40.57%".into(), "static".into()]);
        t.row(&["-1.5 ± 0.2".into(), "300s".into()]);
        assert_eq!(num(&t, 0, "share"), Ok(40.57));
        assert_eq!(num(&t, 1, "share"), Ok(-1.5));
        assert_eq!(num(&t, 1, "policy"), Ok(300.0));
        assert!(num(&t, 0, "policy").is_err());
        assert!(num(&t, 2, "share").is_err());
        assert!(num(&t, 0, "shares").is_err());
    }
}
