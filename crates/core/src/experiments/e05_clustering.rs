//! E5 — Figures 5 and 6: overlay topology under uniform-random vs biased
//! neighbor selection.
//!
//! Figure 6 shows "(a) Uniform random neighbor selection and (b) biased
//! neighbor selection" with the biased overlay clustered along AS
//! boundaries and "a minimal number of inter-AS connections necessary to
//! keep the network connected". We report the structural metrics and can
//! export the raw edge lists for plotting.

use super::table::{ensure, Scale};
use crate::experiments::NetParams;
use crate::graphstats::OverlayStats;
use crate::report::{f, pct, Table};
use uap_gnutella::{run_experiment, GnutellaConfig, NeighborSelection};
use uap_net::HostId;
use uap_sim::{SimTime, Tracer};

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// Underlay shape.
    pub net: NetParams,
    /// Run length (the overlay stabilizes quickly; joins dominate).
    pub duration: SimTime,
}

impl Params {
    /// Small instance.
    pub fn quick(seed: u64) -> Params {
        Params {
            net: NetParams::quick(200, seed),
            duration: SimTime::from_mins(5),
        }
    }

    /// Paper-scale instance.
    pub fn full(seed: u64) -> Params {
        Params {
            net: NetParams::full(seed),
            duration: SimTime::from_mins(15),
        }
    }
}

/// Per-policy snapshot.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Policy label.
    pub label: String,
    /// The overlay edges.
    pub edges: Vec<(HostId, HostId)>,
    /// Structure metrics.
    pub stats: OverlayStats,
}

/// Experiment output.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// One snapshot per policy.
    pub snapshots: Vec<Snapshot>,
    /// The comparison table.
    pub table: Table,
}

/// Runs both policies and compares the resulting overlay graphs.
pub fn run(p: &Params) -> Outcome {
    let seed = p.net.seed ^ 0xE5;
    let configs = [
        ("uniform random", NeighborSelection::Random),
        (
            "oracle biased",
            NeighborSelection::OracleBiased { list_size: 1000 },
        ),
    ];
    let mut snapshots = Vec::new();
    let mut table = Table::new(
        "Figure 6 — overlay structure under neighbor-selection policies",
        &[
            "policy",
            "edges",
            "intra-AS edges",
            "intra share",
            "inter-AS edges",
            "components",
            "mean degree",
            "AS modularity",
        ],
    );
    for (label, selection) in configs {
        let cfg = GnutellaConfig {
            selection,
            duration: p.duration,
            // The study hands the whole hostcache to the oracle; a tiny
            // cache would starve it of same-AS candidates.
            hostcache_size: 1000.min(p.net.n_hosts),
            ..Default::default()
        };
        let (report, world) = run_experiment(p.net.build(), cfg, seed);
        let stats = OverlayStats::compute(&world.underlay, &report.edges);
        table.row(&[
            label.to_owned(),
            stats.edges.to_string(),
            stats.intra_as_edges.to_string(),
            pct(stats.intra_fraction()),
            stats.inter_as_edges.to_string(),
            stats.components.to_string(),
            f(stats.mean_degree),
            f(stats.as_modularity),
        ]);
        snapshots.push(Snapshot {
            label: label.to_owned(),
            edges: report.edges,
            stats,
        });
    }
    Outcome { snapshots, table }
}

/// The [`super::TABLE`] row's run; the dumps are the two overlays' edge
/// lists.
pub fn experiment(scale: Scale, seed: u64, _: &mut Tracer) -> super::Outcome {
    let out = run(&scale.params(seed, Params::quick, Params::full));
    let claim = claim(&out);
    let dumps = out
        .snapshots
        .iter()
        .map(|snap| {
            let mut t = Table::new("", &["a", "b"]);
            for &(a, b) in &snap.edges {
                t.row(&[a.0.to_string(), b.0.to_string()]);
            }
            t
        })
        .collect();
    super::Outcome {
        dumps,
        ..super::Outcome::of(vec![out.table], claim)
    }
}

/// Figure 6's contrast: the biased overlay clusters along AS boundaries
/// through "a minimal number of inter-AS connections necessary to keep
/// the network connected" — far fewer inter-AS edges, not a shattered
/// graph.
pub fn claim(out: &Outcome) -> Result<(), String> {
    let random = &out.snapshots[0].stats;
    let biased = &out.snapshots[1].stats;
    ensure!(
        biased.intra_fraction() > 3.0 * random.intra_fraction(),
        "intra-AS share: biased {} vs random {}",
        biased.intra_fraction(),
        random.intra_fraction()
    );
    ensure!(
        biased.as_modularity > random.as_modularity,
        "AS modularity: biased {} !> random {}",
        biased.as_modularity,
        random.as_modularity
    );
    ensure!(
        biased.inter_as_edges < random.inter_as_edges,
        "inter-AS edges: biased {} !< random {}",
        biased.inter_as_edges,
        random.inter_as_edges
    );
    ensure!(
        biased.components <= 3,
        "biased overlay shattered into {}",
        biased.components
    );
    ensure!(random.components == 1, "random overlay is not connected");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_two_rows() {
        let out = run(&Params::quick(12));
        assert_eq!(out.table.len(), 2);
        assert!(!out.snapshots[0].edges.is_empty());
    }
}
