//! E18 (extension) — flow-level congestion: swarm behavior under max-min
//! fair bandwidth sharing.
//!
//! Sweeps seed/leecher ratio × access-link heterogeneity × tracker
//! policy, running the flow-backed BitTorrent swarm on each combination.
//! With the [`uap_net::FlowAllocator`] model every transfer competes for
//! the sender's uplink, the receiver's downlink and the AS links on its
//! path, so seed-starved swarms and uniform (cable-only) populations
//! show their real completion-time cost instead of the old per-flow
//! `downlink/2` approximation.
//!
//! The two summary tables and the trace (`flow.open` / `flow.close`
//! deltas per round; `ci/trace_gate.sh` double-runs these) are
//! deterministic. What the allocator costs in host time is the
//! benchmark's `net.flow.cycle_ns_per_flow` row (`swarm_congestion`).

use super::table::{ensure, Scale};
use crate::report::{f, pct, Table};
use uap_bittorrent::{run_swarm_with, SwarmConfig, SwarmReport, TrackerPolicy};
use uap_net::{PopulationSpec, TopologyKind, TopologySpec, Underlay, UnderlayConfig};
use uap_sim::{SimRng, Tracer};

/// Sweep parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// Topology, population and swarm seed.
    pub seed: u64,
    /// Hosts in every swarm underlay.
    pub hosts: usize,
    /// Leechers in every swarm.
    pub leechers: usize,
    /// Seed counts swept.
    pub seed_counts: Vec<usize>,
}

impl Params {
    /// Starved and balanced seed counts only.
    pub fn quick(seed: u64) -> Params {
        Params {
            seed_counts: vec![2, 8],
            ..Params::full(seed)
        }
    }

    /// Starved, balanced and seed-rich.
    pub fn full(seed: u64) -> Params {
        Params {
            seed,
            hosts: 120,
            leechers: 56,
            seed_counts: vec![2, 8, 24],
        }
    }
}

/// One sweep point's outcome.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Access-link population label (`mixed` / `uniform`).
    pub access: &'static str,
    /// Seeds in the swarm.
    pub seeds: usize,
    /// Tracker policy label.
    pub tracker: &'static str,
    /// The swarm's report.
    pub report: SwarmReport,
}

/// Sweep output.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// One point per access × seed count × tracker.
    pub points: Vec<SweepPoint>,
    /// Completion summary.
    pub completion: Table,
    /// Locality summary.
    pub locality: Table,
}

fn build_underlay(p: &Params, uniform: bool) -> Underlay {
    let mut rng = SimRng::new(p.seed);
    let g = TopologySpec::new(TopologyKind::Hierarchical {
        tier1: 2,
        tier2_per_tier1: 3,
        tier3_per_tier2: 3,
        tier2_peering_prob: 0.3,
        tier3_peering_prob: 0.4,
    })
    .build(&mut rng);
    let mut u = Underlay::build(
        g,
        &PopulationSpec::leaf(p.hosts),
        UnderlayConfig::default(),
        &mut rng,
    );
    if uniform {
        // Heterogeneity off: every host becomes the same mid-tier cable
        // line, so the sweep isolates what access diversity contributes.
        for h in &mut u.hosts.hosts {
            h.down_kbps = 16_000;
            h.up_kbps = 1_500;
        }
    }
    u
}

/// Runs the sweep untraced.
pub fn run(p: &Params) -> Outcome {
    run_traced(p, &mut Tracer::disabled())
}

/// Like [`run`], but threads `tracer` through every swarm run.
pub fn run_traced(p: &Params, tracer: &mut Tracer) -> Outcome {
    let trackers: [(&str, TrackerPolicy); 2] = [
        ("random", TrackerPolicy::Random),
        (
            "bns",
            TrackerPolicy::Bns {
                internal: 16,
                external: 4,
            },
        ),
    ];
    let mut points = Vec::new();
    for (access, uniform) in [("mixed", false), ("uniform", true)] {
        for &seeds in &p.seed_counts {
            for (tname, tracker) in trackers {
                let cfg = SwarmConfig {
                    n_leechers: p.leechers,
                    n_seeds: seeds,
                    n_pieces: 48,
                    piece_bytes: 256 * 1024,
                    tracker,
                    ..Default::default()
                };
                let (report, _) = run_swarm_with(build_underlay(p, uniform), cfg, p.seed, tracer);
                points.push(SweepPoint {
                    access,
                    seeds,
                    tracker: tname,
                    report,
                });
            }
        }
    }

    let mut completion = Table::new(
        "E18 — swarm completion under max-min fair bandwidth sharing",
        &[
            "config",
            "access",
            "seeds",
            "tracker",
            "completed",
            "rounds",
            "mean completion s",
            "payload MB",
        ],
    );
    let mut locality = Table::new(
        "E18 — traffic locality under max-min fair bandwidth sharing",
        &["config", "access", "seeds", "tracker", "intra-AS traffic"],
    );
    for o in &points {
        let name = format!("{}/s{}/{}", o.access, o.seeds, o.tracker);
        completion.row(&[
            name.clone(),
            o.access.to_string(),
            o.seeds.to_string(),
            o.tracker.to_string(),
            format!("{}/{}", o.report.completed, o.report.leechers),
            o.report.rounds.to_string(),
            f(o.report.mean_completion_secs()),
            f(o.report.payload_bytes as f64 / 1e6),
        ]);
        locality.row(&[
            name,
            o.access.to_string(),
            o.seeds.to_string(),
            o.tracker.to_string(),
            pct(o.report.intra_as_fraction),
        ]);
    }
    Outcome {
        points,
        completion,
        locality,
    }
}

/// The [`super::TABLE`] row's run; its event count is swarm rounds.
pub fn experiment(scale: Scale, seed: u64, tracer: &mut Tracer) -> super::Outcome {
    let p = scale.params(seed, Params::quick, Params::full);
    let out = run_traced(&p, tracer);
    let claim = claim(&out);
    super::Outcome {
        config: vec![
            ("hosts", p.hosts.to_string()),
            ("leechers", p.leechers.to_string()),
        ],
        events: out.points.iter().map(|o| o.report.rounds as u64).sum(),
        ..super::Outcome::of(vec![out.completion, out.locality], claim)
    }
}

/// The Bindal headline survives real contention: at every access mix and
/// seed count the BNS tracker keeps more traffic inside the AS than the
/// random tracker and every leecher still finishes. With eight seeds or
/// more BNS completes within a quarter of the random tracker's time; in
/// the two-seed swarms, where completion hangs on whom the seeds happen
/// to unchoke, it can be 1.7x slower (seed 61, uniform access), so those
/// are held to 2x. Seed capacity binds: the seed-starved swarm is the
/// slowest of each access mix. (Access heterogeneity has no stable sign:
/// the cable-only population is slower than the mixed one at `--seed 42`,
/// but on seeds 7, 21 and 91 its two-seed swarms are the faster ones.)
pub fn claim(out: &Outcome) -> Result<(), String> {
    let points = &out.points;
    ensure!(
        points.len() >= 8 && points.len().is_multiple_of(4),
        "{} sweep points",
        points.len()
    );
    let name = |o: &SweepPoint| format!("{}/s{}/{}", o.access, o.seeds, o.tracker);
    let secs = |o: &SweepPoint| o.report.mean_completion_secs();
    for o in points {
        ensure!(
            o.report.completed == o.report.leechers,
            "{}: {}/{}",
            name(o),
            o.report.completed,
            o.report.leechers
        );
    }
    // Points come in (random, bns) pairs of one access mix and seed count.
    for pair in points.chunks(2) {
        let [random, bns] = pair else {
            return Err(format!("{} sweep points", points.len()));
        };
        ensure!(
            (random.tracker, bns.tracker) == ("random", "bns"),
            "{} beside {}",
            name(random),
            name(bns)
        );
        let (lr, lb) = (
            random.report.intra_as_fraction,
            bns.report.intra_as_fraction,
        );
        ensure!(
            lb > 1.5 * lr,
            "{}: BNS intra-AS {lb} vs random {lr}",
            name(random)
        );
        let slack = if random.seeds >= 8 { 1.25 } else { 2.0 };
        ensure!(
            secs(bns) < slack * secs(random),
            "{}: BNS completion {}s vs random {}s",
            name(random),
            secs(bns),
            secs(random)
        );
    }
    for o in points {
        let starved = points
            .iter()
            .filter(|s| (s.access, s.tracker) == (o.access, o.tracker))
            .min_by_key(|s| s.seeds);
        if let Some(s) = starved.filter(|s| s.seeds < o.seeds) {
            ensure!(
                secs(s) > secs(o),
                "{}: {}s !> {} at {}s",
                name(s),
                secs(s),
                name(o),
                secs(o)
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_access_by_seeds_by_tracker() {
        let out = run(&Params::quick(5));
        assert_eq!(out.points.len(), 8);
        assert_eq!(out.completion.len(), 8);
        assert_eq!(out.locality.len(), 8);
        assert_eq!(out.completion.cell(0, 0), "mixed/s2/random");
        assert_eq!(out.completion.cell(7, 0), "uniform/s8/bns");
        assert_eq!(Params::full(5).seed_counts, [2, 8, 24]);
    }
}
