//! E7 — the §5 testlab experiments.
//!
//! "Using 5 routers, 6 switches, and 15 computers, we configure four
//! different 5-AS topologies: ring, star, tree and random mesh. Each
//! router is connected to 3 machines, and each machine runs 3 instances of
//! Gnutella software, where one is an ultrapeer and the other two are leaf
//! nodes. Thus, we have a network of 45 Gnutella nodes. […] We experiment
//! with two schemes of file distribution. […] We generate 45 unique search
//! strings, one for each node, and allow each node to flood its search
//! query […] and analyze whether biased neighbor selection leads to any
//! unsuccessful content search which was otherwise successful in unbiased
//! Gnutella."
//!
//! We reproduce the setup: 5 ASes × 9 nodes (1 ultrapeer : 2 leaves per
//! "machine"), 270 files, uniform and variable share schemes, unbiased vs
//! oracle-biased, on all four topologies — reporting Query/QueryHit counts
//! and search success.

use super::table::{ensure, Scale};
use crate::report::Table;
use uap_gnutella::{
    run_experiment, GnutellaConfig, GnutellaReport, NeighborSelection, RoleAssignment, ShareScheme,
};
use uap_net::{gen::testlab_specs, PopulationSpec, RoutingMode, Underlay, UnderlayConfig};
use uap_sim::{SimRng, SimTime, Tracer};

/// Experiment parameters.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Nodes in the network (the testlab ran 45).
    pub n_nodes: usize,
    /// Simulated duration (enough for every node to query several times).
    pub duration: SimTime,
    /// Seed.
    pub seed: u64,
}

impl Params {
    /// The testlab's own scale — it is already small.
    pub fn full(seed: u64) -> Params {
        Params {
            n_nodes: 45,
            duration: SimTime::from_mins(20),
            seed,
        }
    }

    /// Same size, shorter run.
    pub fn quick(seed: u64) -> Params {
        Params {
            n_nodes: 45,
            duration: SimTime::from_mins(8),
            seed,
        }
    }
}

fn testlab_underlay(name: &str, p: &Params) -> Underlay {
    let (_, spec) = testlab_specs()
        .into_iter()
        .find(|(n, _)| *n == name)
        .expect("known testlab topology"); // lint:allow(expect)
    let mut rng = SimRng::new(p.seed);
    let graph = spec.build(&mut rng);
    let cfg = UnderlayConfig {
        routing: RoutingMode::ShortestPath,
        ..Default::default()
    };
    Underlay::build(graph, &PopulationSpec::uniform(p.n_nodes), cfg, &mut rng)
}

fn testlab_config(
    selection: NeighborSelection,
    scheme: ShareScheme,
    duration: SimTime,
) -> GnutellaConfig {
    GnutellaConfig {
        selection,
        roles: RoleAssignment::EveryKth(3), // 1 ultrapeer : 2 leaves
        share_scheme: scheme,
        shared_per_peer: 6, // uniform: 6 each; variable: UP 12 / leaf 6 or 0
        up_degree: 3,
        leaf_degree: 2,
        query_ttl: 3,
        duration,
        hostcache_size: 45,
        content: uap_gnutella::config::ContentParams {
            n_files: 270, // "270 unique files with real content"
            zipf_s: 0.8,
            locality: 0.5,
        },
        ..Default::default()
    }
}

/// One testlab cell.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Topology name.
    pub topology: String,
    /// Share scheme label.
    pub scheme: String,
    /// Unbiased report.
    pub unbiased: GnutellaReport,
    /// Biased report.
    pub biased: GnutellaReport,
}

/// Experiment output.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// All 4 topologies × 2 schemes.
    pub cells: Vec<Cell>,
    /// Rendered table.
    pub table: Table,
}

/// Runs the full grid.
pub fn run(p: &Params) -> Outcome {
    let mut cells = Vec::new();
    let mut table = Table::new(
        "§5 testlab — 45 Gnutella nodes on four 5-AS topologies",
        &[
            "topology",
            "files",
            "policy",
            "Query",
            "QueryHit",
            "success",
            "intra-AS exchange",
        ],
    );
    for topo in ["ring", "star", "tree", "mesh"] {
        for (scheme, scheme_name) in [
            (ShareScheme::Uniform, "uniform"),
            (ShareScheme::Variable, "variable"),
        ] {
            let run_one = |selection: NeighborSelection| {
                let underlay = testlab_underlay(topo, p);
                let cfg = testlab_config(selection, scheme, p.duration);
                run_experiment(underlay, cfg, p.seed ^ 0xE7).0
            };
            let unbiased = run_one(NeighborSelection::Random);
            let biased = run_one(NeighborSelection::OracleBiased { list_size: 45 });
            for (policy, r) in [("unbiased", &unbiased), ("oracle", &biased)] {
                table.row(&[
                    topo.to_owned(),
                    scheme_name.to_owned(),
                    policy.to_owned(),
                    r.query_msgs.to_string(),
                    r.queryhit_msgs.to_string(),
                    format!("{:.1}%", 100.0 * r.success_ratio()),
                    format!("{:.1}%", r.intra_as_exchange_pct()),
                ]);
            }
            cells.push(Cell {
                topology: topo.to_owned(),
                scheme: scheme_name.to_owned(),
                unbiased,
                biased,
            });
        }
    }
    Outcome { cells, table }
}

/// The [`super::TABLE`] row's run.
pub fn experiment(scale: Scale, seed: u64, _: &mut Tracer) -> super::Outcome {
    let out = run(&scale.params(seed, Params::quick, Params::full));
    let claim = claim(&out);
    super::Outcome::of(vec![out.table], claim)
}

/// The study's answer to "whether biased neighbor selection leads to any
/// unsuccessful content search which was otherwise successful": on every
/// topology and share scheme queries flow under both policies and the
/// oracle's search success stays within 25 points of unbiased.
pub fn claim(out: &Outcome) -> Result<(), String> {
    ensure!(
        out.cells.len() == 8,
        "{} cells, want 4 topologies x 2 schemes",
        out.cells.len()
    );
    for c in &out.cells {
        let at = format!("{}/{}", c.topology, c.scheme);
        ensure!(
            c.unbiased.query_msgs > 0 && c.biased.query_msgs > 0,
            "{at}: no Query traffic"
        );
        let (su, sb) = (c.unbiased.success_ratio(), c.biased.success_ratio());
        ensure!(
            sb > su - 0.25,
            "{at}: oracle success {sb} collapsed vs {su}"
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_all_topologies_and_schemes() {
        let out = run(&Params::quick(31));
        assert_eq!(out.cells.len(), 8);
        assert_eq!(out.table.len(), 16);
    }

    #[test]
    fn biased_search_does_not_lose_queries_wholesale() {
        // The study's question: "whether biased neighbor selection leads to
        // any unsuccessful content search which was otherwise successful".
        let out = run(&Params::quick(32));
        for c in &out.cells {
            let su = c.unbiased.success_ratio();
            let sb = c.biased.success_ratio();
            assert!(
                sb > su - 0.25,
                "{} / {}: biased success {sb} collapsed vs {su}",
                c.topology,
                c.scheme
            );
        }
    }

    #[test]
    fn queries_flow_in_every_cell() {
        let out = run(&Params::quick(33));
        for c in &out.cells {
            assert!(c.unbiased.queries_issued > 40, "{}", c.topology);
            assert!(c.biased.queries_issued > 40, "{}", c.topology);
            assert!(c.unbiased.query_msgs > 0);
        }
    }

    #[test]
    fn variable_scheme_still_searchable() {
        // Half the leaves share nothing; ultrapeers share double. Search
        // success should remain meaningful.
        let out = run(&Params::quick(34));
        for c in out.cells.iter().filter(|c| c.scheme == "variable") {
            assert!(
                c.unbiased.success_ratio() > 0.3,
                "{}: {}",
                c.topology,
                c.unbiased.success_ratio()
            );
        }
    }
}
