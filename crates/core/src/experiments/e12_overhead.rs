//! E12 — the §5.4 open issues: the overhead introduced by underlay
//! awareness, and robustness against churn.
//!
//! "This and a general study about the introduced overhead due to underlay
//! awareness remain open issues." Two harnesses:
//!
//! * [`run_overhead`] — messages spent by each collection technique to
//!   cover the same population, side by side: explicit measurement,
//!   Vivaldi, ICS beacons, oracle queries and the CDN trick, each built by
//!   [`crate::assemble`] from its [`AwarenessProfile`], then the SkyEye
//!   tree;
//! * [`run_churn`] — Gnutella search success and signalling cost (in
//!   messages, as Table 1 counts it) as churn intensifies, unbiased vs
//!   oracle-biased (does awareness survive
//!   turnover? — the §5.4 robustness question).

use super::table::{ensure, num, Scale};
use crate::assemble::{
    build_proximity_estimator, ICS_BEACONS, ONO_SAMPLES, VIVALDI_ROUNDS, VIVALDI_SAMPLES,
};
use crate::experiments::NetParams;
use crate::framework::{AwarenessProfile, CollectionTechnique, InfoType};
use crate::report::{f, pct, Table};
use uap_gnutella::{run_experiment_with, GnutellaConfig, NeighborSelection};
use uap_info::provider::ResourceDirectory;
use uap_info::SkyEyeTree;
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

/// E12's proximity rows, in table order: the profile the framework's
/// factory builds each row's collector from, the row's label and its note.
fn proximity_rows() -> [(AwarenessProfile, String, &'static str); 5] {
    use CollectionTechnique as C;
    let latency = |c| AwarenessProfile::collecting(InfoType::Latency, c);
    let isp = |c| AwarenessProfile::collecting(InfoType::IspLocation, c);
    [
        (
            latency(C::ExplicitMeasurement),
            "explicit ping (cached)".into(),
            "exact; cost grows with query set",
        ),
        (
            latency(C::VivaldiCoordinates),
            format!("vivaldi ({VIVALDI_ROUNDS} rounds x {VIVALDI_SAMPLES})"),
            "queries free after convergence",
        ),
        (
            latency(C::LandmarkCoordinates),
            format!("ics ({ICS_BEACONS} beacons)"),
            "one-time embedding, queries free",
        ),
        (
            isp(C::IspComponent),
            "isp oracle".into(),
            "1 request + 1 ranked reply per query",
        ),
        (
            isp(C::CdnInference),
            format!("cdn/ono ({ONO_SAMPLES} samples)"),
            "piggybacks on CDN lookups",
        ),
    ]
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
    for (profile, label, notes) in proximity_rows() {
        #[expect(clippy::expect_used, reason = "every row is a valid proximity profile")]
        let mut est =
            build_proximity_estimator(&profile, &underlay, &mut rng).expect("a proximity profile");
        for &(a, b) in &pairs {
            let _ = est.proximity(a, b, &mut rng);
        }
        let msgs = est.overhead_messages();
        // The oracle answers each query with one request and one reply.
        let per_query = if profile.collection == CollectionTechnique::IspComponent {
            "2".into()
        } else {
            f(msgs as f64 / p.queries as f64)
        };
        table.row(&[label, msgs.to_string(), per_query, notes.into()]);
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

/// Churn sweep: success and signalling, unbiased vs oracle-biased, and
/// the engine events of all its runs.
pub fn run_churn(p: &Params) -> (Table, u64) {
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
    let mut events = 0;
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
            events += r.events;
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
    (table, events)
}

/// The [`super::TABLE`] row's run.
pub fn experiment(scale: Scale, seed: u64, _: &mut Tracer) -> super::Outcome {
    let p = scale.params(seed, Params::quick, Params::full);
    let (cost, (churn, events)) = (run_overhead(&p), run_churn(&p));
    let claim = claim(&cost, &churn);
    super::Outcome {
        events,
        ..super::Outcome::of(vec![cost, churn], claim)
    }
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
    use crate::framework::taxonomy;

    #[test]
    fn overhead_rows_follow_the_taxonomy() {
        // The techniques the factory assembles a proximity estimator for,
        // in Figure 3's order.
        let p = Params::quick(73);
        let underlay = p.net.build();
        let mut rng = SimRng::new(74);
        let assembled: Vec<CollectionTechnique> = taxonomy()
            .into_iter()
            .filter(|&(info, c)| {
                let profile = AwarenessProfile::collecting(info, c);
                build_proximity_estimator(&profile, &underlay, &mut rng).is_some()
            })
            .map(|(_, c)| c)
            .collect();
        // E12 has one row for each of them, once, in its committed table's
        // order, and the table's rows are those rows.
        let rows = proximity_rows();
        assert_eq!(rows.len(), assembled.len());
        for technique in &assembled {
            let n = rows
                .iter()
                .filter(|(q, ..)| q.collection == *technique)
                .count();
            assert_eq!(n, 1, "{technique:?} has {n} E12 rows");
        }
        let t = run_overhead(&p);
        for (r, (_, label, _)) in rows.iter().enumerate() {
            assert_eq!(t.cell(r, 0), label.as_str());
        }
    }

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
        let (t, _) = run_churn(&p);
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
