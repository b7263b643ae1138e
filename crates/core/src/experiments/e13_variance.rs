//! E13 (extension) — seed sensitivity of the headline claims.
//!
//! Not a paper artifact: a robustness study for this reproduction. For
//! each headline effect we compute the *relative improvement* of the
//! underlay-aware configuration over its baseline across independent
//! seeds, in parallel, and report mean ± sample std plus whether the
//! direction held for **every** seed. EXPERIMENTS.md's claim that "no
//! qualitative conclusion changes with the seed" is this table.

use super::table::{ensure, Scale};
use crate::experiments::sweep::{seed_sweep, SeedStats};
use crate::experiments::NetParams;
use crate::report::Table;
use uap_bittorrent::{run_swarm, SwarmConfig, TrackerPolicy};
use uap_gnutella::{run_experiment, GnutellaConfig, NeighborSelection};
use uap_kademlia::{DhtConfig, DhtNetwork, Key, ProximityMode};
use uap_net::HostId;
use uap_sim::{SimRng, SimTime, Tracer};

/// Sweep parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// Seeds to evaluate.
    pub seeds: Vec<u64>,
    /// Worker threads.
    pub threads: usize,
    /// Hosts per run.
    pub n_hosts: usize,
    /// Gnutella run length.
    pub duration: SimTime,
}

impl Params {
    /// Small instance (4 seeds).
    pub fn quick(base_seed: u64) -> Params {
        Params {
            seeds: (0..4).map(|i| base_seed + i).collect(),
            threads: 4,
            n_hosts: 150,
            duration: SimTime::from_mins(6),
        }
    }

    /// Full instance (10 seeds).
    pub fn full(base_seed: u64) -> Params {
        Params {
            seeds: (0..10).map(|i| base_seed + i).collect(),
            threads: 8,
            n_hosts: 400,
            duration: SimTime::from_mins(15),
        }
    }
}

fn gnutella_message_reduction(p: &Params, seed: u64) -> f64 {
    let net = NetParams::quick(p.n_hosts, seed);
    let run = |sel: NeighborSelection| {
        let cfg = GnutellaConfig {
            selection: sel,
            duration: p.duration,
            hostcache_size: 1000.min(p.n_hosts),
            ..Default::default()
        };
        run_experiment(net.build(), cfg, seed).0.total_msgs() as f64
    };
    let unbiased = run(NeighborSelection::Random);
    let biased = run(NeighborSelection::OracleBiased { list_size: 1000 });
    (unbiased - biased) / unbiased
}

fn exchange_locality_jump(p: &Params, seed: u64) -> f64 {
    let net = NetParams::quick(p.n_hosts, seed);
    let run = |oracle_x: bool| {
        let mut cfg = GnutellaConfig {
            selection: NeighborSelection::OracleBiased { list_size: 1000 },
            oracle_at_file_exchange: oracle_x,
            duration: p.duration,
            hostcache_size: 1000.min(p.n_hosts),
            ..Default::default()
        };
        cfg.content.locality = 0.2;
        run_experiment(net.build(), cfg, seed)
            .0
            .intra_as_exchange_pct()
    };
    run(true) - run(false)
}

fn kademlia_hops_reduction(p: &Params, seed: u64) -> f64 {
    let net = NetParams::quick(128.min(p.n_hosts), seed);
    let run = |mode: ProximityMode| {
        let mut rng = SimRng::new(seed);
        let cfg = DhtConfig {
            proximity: mode,
            ..Default::default()
        };
        let mut dht = DhtNetwork::build(net.build(), cfg, &mut rng);
        let n = dht.len();
        let mut hops = 0u64;
        let mut rpcs = 0u64;
        for i in 0..60u32 {
            let out = dht.lookup(
                HostId(i % HostId::from_index(n).0),
                &Key::random(&mut rng),
                &mut rng,
            );
            hops += out.as_hops_sum;
            rpcs += out.rpcs;
        }
        hops as f64 / rpcs.max(1) as f64
    };
    let vanilla = run(ProximityMode::None);
    let pns = run(ProximityMode::PnsPr);
    (vanilla - pns) / vanilla
}

fn swarm_locality_gain(p: &Params, seed: u64) -> f64 {
    let net = NetParams::quick(p.n_hosts.min(120), seed);
    let run = |tracker: TrackerPolicy| {
        let cfg = SwarmConfig {
            n_leechers: 80.min(net.n_hosts - 5),
            n_seeds: 5,
            n_pieces: 48,
            tracker,
            ..Default::default()
        };
        run_swarm(net.build(), cfg, seed).0.intra_as_fraction
    };
    let random = run(TrackerPolicy::Random);
    let bns = run(TrackerPolicy::Bns {
        internal: 16,
        external: 4,
    });
    bns - random
}

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

/// Runs the sweep (parallel over seeds per claim).
pub fn run(p: &Params) -> Outcome {
    type Metric<'a> = Box<dyn Fn(u64) -> f64 + Sync + 'a>;
    let rows: Vec<(&str, Metric)> = vec![
        (
            "E4: oracle message reduction",
            Box::new(|s| gnutella_message_reduction(p, s)),
        ),
        (
            "E6: exchange-oracle locality jump (pp)",
            Box::new(|s| exchange_locality_jump(p, s)),
        ),
        (
            "E9: PNS+PR AS-hop reduction",
            Box::new(|s| kademlia_hops_reduction(p, s)),
        ),
        (
            "E10: BNS payload-locality gain (abs)",
            Box::new(|s| swarm_locality_gain(p, s)),
        ),
    ];
    let mut table = Table::new(
        "E13 — seed sensitivity of the headline effects",
        &["claim", "mean ± std", "min", "max", "direction holds"],
    );
    let mut claims = Vec::new();
    for (name, metric) in rows {
        let stats = seed_sweep(&p.seeds, p.threads, metric);
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
}
