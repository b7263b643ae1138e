//! E12 — the §5.4 open issues: the overhead introduced by underlay
//! awareness, and robustness against churn.
//!
//! "This and a general study about the introduced overhead due to underlay
//! awareness remain open issues." Two harnesses:
//!
//! * [`run_overhead`] — messages spent by each collection technique to
//!   cover the same population, side by side: explicit all-pairs
//!   measurement, Vivaldi, ICS beacons, oracle queries, the CDN trick and
//!   the SkyEye tree;
//! * [`run_churn`] — Gnutella search success and signalling cost (in
//!   messages, as Table 1 counts it) as churn intensifies, unbiased vs
//!   oracle-biased (does awareness survive
//!   turnover? — the §5.4 robustness question).

use super::table::{ensure, num, Scale};
use crate::experiments::NetParams;
use crate::report::{f, pct, Table};
use uap_coords::VivaldiConfig;
use uap_gnutella::{run_experiment_with, GnutellaConfig, NeighborSelection};
use uap_info::provider::{ProximityEstimator, ResourceDirectory};
use uap_info::{IcsService, OnoEstimator, Oracle, SimulatedCdn, SkyEyeTree, VivaldiService};
use uap_net::HostId;
use uap_sim::{ChurnConfig, SimRng, SimTime, Tracer};

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// Underlay shape.
    pub net: NetParams,
    /// Proximity queries to serve in the overhead comparison.
    pub queries: usize,
    /// Churn mean session lengths (seconds) to sweep; `f64::INFINITY`
    /// renders as "static".
    pub churn_sessions: Vec<f64>,
    /// Gnutella run length in the churn sweep.
    pub duration: SimTime,
}

impl Params {
    /// Small instance.
    pub fn quick(seed: u64) -> Params {
        Params {
            net: NetParams::quick(120, seed),
            queries: 200,
            churn_sessions: vec![f64::INFINITY, 300.0],
            duration: SimTime::from_mins(8),
        }
    }

    /// Paper-scale instance.
    pub fn full(seed: u64) -> Params {
        Params {
            net: NetParams::full(seed),
            queries: 2_000,
            churn_sessions: vec![f64::INFINITY, 1_800.0, 600.0, 300.0, 120.0],
            duration: SimTime::from_mins(30),
        }
    }
}

/// Overhead comparison: messages each technique needs to (a) set up and
/// (b) answer `queries` pairwise proximity queries over `n` hosts.
pub fn run_overhead(p: &Params) -> Table {
    let underlay = p.net.build();
    let n = underlay.n_hosts();
    let mut rng = SimRng::new(p.net.seed ^ 0xE12);
    let pairs: Vec<(HostId, HostId)> = (0..p.queries)
        .map(|_| {
            let a = HostId::from_index(rng.index(n));
            let mut b = HostId::from_index(rng.index(n));
            if a == b {
                b = HostId::from_index((b.idx() + 1) % n);
            }
            (a, b)
        })
        .collect();
    let mut table = Table::new(
        "§5.4 — measurement overhead per collection technique",
        &["technique", "messages", "per query", "notes"],
    );
    // Explicit ping with cache.
    {
        let mut pinger = uap_info::ExplicitPinger::new(&underlay, true);
        for &(a, b) in &pairs {
            let _ = pinger.proximity(a, b, &mut rng);
        }
        let msgs = pinger.overhead_messages();
        table.row(&[
            "explicit ping (cached)".into(),
            msgs.to_string(),
            f(msgs as f64 / p.queries as f64),
            "exact; cost grows with query set".into(),
        ]);
    }
    // Vivaldi.
    {
        let mut svc = VivaldiService::new(n, VivaldiConfig::default());
        svc.converge(&underlay, 20, 2, &mut rng);
        for &(a, b) in &pairs {
            let _ = svc.proximity(a, b, &mut rng);
        }
        let msgs = svc.overhead_messages();
        table.row(&[
            "vivaldi (20 rounds x 2)".into(),
            msgs.to_string(),
            f(msgs as f64 / p.queries as f64),
            "queries free after convergence".into(),
        ]);
    }
    // ICS.
    {
        let svc = IcsService::build(&underlay, 8.min(n), 4, &mut rng);
        let msgs = svc.overhead_messages();
        table.row(&[
            "ics (8 beacons)".into(),
            msgs.to_string(),
            f(msgs as f64 / p.queries as f64),
            "one-time embedding, queries free".into(),
        ]);
    }
    // Oracle.
    {
        let mut oracle = Oracle::new(1000);
        for &(a, b) in &pairs {
            let _ = oracle.rank(&underlay, a, &[b]);
        }
        table.row(&[
            "isp oracle".into(),
            (2 * oracle.queries()).to_string(),
            "2".into(),
            "1 request + 1 ranked reply per query".into(),
        ]);
    }
    // CDN / Ono.
    {
        let cdn = SimulatedCdn::deploy(&underlay, 6);
        let mut ono = OnoEstimator::new(&underlay, cdn, 30);
        for &(a, b) in &pairs {
            let _ = ono.proximity(a, b, &mut rng);
        }
        let msgs = ono.overhead_messages();
        table.row(&[
            "cdn/ono (30 samples)".into(),
            msgs.to_string(),
            f(msgs as f64 / p.queries as f64),
            "piggybacks on CDN lookups".into(),
        ]);
    }
    // SkyEye (resource info, for completeness of the taxonomy).
    {
        let members: Vec<HostId> = underlay.hosts.ids().collect();
        let mut tree = SkyEyeTree::build(&underlay, members, 4, 16);
        for _ in 0..10 {
            tree.run_round();
        }
        table.row(&[
            "skyeye (10 rounds)".into(),
            tree.overhead_messages().to_string(),
            "-".into(),
            "n-1 msgs per aggregation round".into(),
        ]);
    }
    table
}

/// Churn sweep: success and signalling, unbiased vs oracle-biased.
pub fn run_churn(p: &Params) -> Table {
    let mut table = Table::new(
        "§5.4 — robustness against churn",
        &[
            "mean session",
            "policy",
            "search success",
            "total msgs",
            "rejoins",
        ],
    );
    for &session in &p.churn_sessions {
        for (label, selection) in [
            ("unbiased", NeighborSelection::Random),
            (
                "oracle",
                NeighborSelection::OracleBiased { list_size: 1000 },
            ),
        ] {
            let cfg = GnutellaConfig {
                selection,
                churn: if session.is_finite() {
                    ChurnConfig::exponential(session)
                } else {
                    ChurnConfig::none()
                },
                duration: p.duration,
                ..Default::default()
            };
            let seed = p.net.seed ^ 0xE12C;
            let (r, _) = run_experiment_with(p.net.build(), cfg, seed, &mut Tracer::disabled());
            let session_label = if session.is_finite() {
                format!("{session:.0}s")
            } else {
                "static".into()
            };
            table.row(&[
                session_label,
                label.to_owned(),
                pct(r.success_ratio()),
                r.total_msgs().to_string(),
                r.joins.to_string(),
            ]);
        }
    }
    table
}

/// The [`super::TABLE`] row's run.
pub fn experiment(scale: Scale, seed: u64, _: &mut Tracer) -> super::Outcome {
    let p = scale.params(seed, Params::quick, Params::full);
    let (cost, churn) = (run_overhead(&p), run_churn(&p));
    let claim = claim(&cost, &churn);
    super::Outcome::of(vec![cost, churn], claim)
}

/// §5.4's two open issues, answered: the oracle costs exactly a request
/// and a reply per query, cached explicit measurement at most that, and
/// a one-time ICS embedding less than Vivaldi's gossip; under churn the
/// oracle-biased overlay keeps searching with fewer messages than the
/// unbiased one, and only churn causes rejoins. Both harnesses return
/// only their tables, so the claim reads the cells.
pub fn claim(cost: &Table, churn: &Table) -> Result<(), String> {
    ensure!(cost.len() == 6, "{} overhead rows", cost.len());
    let explicit = num(cost, 0, "per query")?;
    ensure!(
        explicit <= 2.0,
        "cached explicit ping costs {explicit}/query"
    );
    let oracle = num(cost, 3, "per query")?;
    ensure!(oracle == 2.0, "oracle costs {oracle}/query");
    let (vivaldi, ics) = (num(cost, 1, "messages")?, num(cost, 2, "messages")?);
    ensure!(ics < vivaldi, "ics {ics} msgs !< vivaldi {vivaldi}");

    ensure!(
        churn.len() >= 4 && churn.len().is_multiple_of(2),
        "{} churn rows",
        churn.len()
    );
    for r in (0..churn.len()).step_by(2) {
        let (unbiased, oracle) = (
            num(churn, r, "total msgs")?,
            num(churn, r + 1, "total msgs")?,
        );
        ensure!(
            oracle < unbiased,
            "session {}: oracle {oracle} msgs !< unbiased {unbiased}",
            churn.cell(r, 0)
        );
    }
    let heaviest = churn.len() - 2;
    for policy in 0..2 {
        let at = |r, col| num(churn, r + policy, col);
        let (calm, rough) = (at(0, "search success")?, at(heaviest, "search success")?);
        ensure!(
            rough <= calm + 10.0 && rough > 50.0,
            "{}: success {calm}% static vs {rough}% under churn",
            churn.cell(policy, 1)
        );
        let (joins, rejoins) = (at(0, "rejoins")?, at(heaviest, "rejoins")?);
        ensure!(
            rejoins > joins,
            "{rejoins} joins under churn vs {joins} static"
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prediction_methods_beat_explicit_measurement() {
        let p = Params::quick(71);
        let t = run_overhead(&p);
        assert_eq!(t.len(), 6);
        let msgs = |r: usize| -> u64 { t.cell(r, 1).parse().unwrap() };
        let explicit = msgs(0);
        let vivaldi = msgs(1);
        let ics = msgs(2);
        // Coordinate systems answer *any* pair after a one-time cost far
        // below the n(n-1) an explicit all-pairs census would need.
        let n = 120u64;
        let all_pairs = n * (n - 1);
        assert!(ics < all_pairs / 2, "ics {ics} vs all-pairs {all_pairs}");
        assert!(
            vivaldi < all_pairs,
            "vivaldi {vivaldi} vs all-pairs {all_pairs}"
        );
        // Cached explicit measurement pays two messages per distinct pair.
        assert!(explicit <= 2 * p.queries as u64);
    }

    #[test]
    fn churn_reduces_success_for_both_policies() {
        let p = Params::quick(72);
        let t = run_churn(&p);
        assert_eq!(t.len(), 4);
        let succ = |r: usize| -> f64 { t.cell(r, 2).trim_end_matches('%').parse().unwrap() };
        // Static rows first, churn rows after.
        assert!(
            succ(2) <= succ(0) + 10.0,
            "unbiased: churn {} vs static {}",
            succ(2),
            succ(0)
        );
        assert!(
            succ(3) <= succ(1) + 10.0,
            "oracle: churn {} vs static {}",
            succ(3),
            succ(1)
        );
        // Rejoins only under churn.
        let rejoins: u64 = t.cell(2, 4).parse().unwrap();
        let static_joins: u64 = t.cell(0, 4).parse().unwrap();
        assert!(rejoins > static_joins);
    }
}
