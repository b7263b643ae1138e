//! E9 — proximity in Kademlia (§4, Kaune et al. \[17\]).
//!
//! Three configurations — vanilla, PNS, PNS+PR — over the same underlay
//! and lookup workload. Reported per configuration: inter-AS share of
//! lookup RPCs, mean lookup latency, mean RPC count, lookup exactness
//! (did the lookup find the true closest node), and the routing tables'
//! mean AS distance. The shape from \[17\]: a large cut in inter-AS traffic
//! at unchanged hop counts and success.

use super::table::{ensure, Scale};
use crate::experiments::NetParams;
use crate::report::{f, pct, Table};
use uap_kademlia::{DhtConfig, DhtNetwork, Key, ProximityMode};
use uap_net::host::AttachmentDist;
use uap_net::{HostId, PopulationSpec, TopologyKind, TopologySpec, Underlay, UnderlayConfig};
use uap_sim::{SimRng, SimTime, TraceLevel, Tracer};

/// Builds the E9 underlay with a **heavy-tailed AS population** (Zipf-like
/// weights over the leaf ASes): a few big consumer ISPs hold most peers,
/// as in the AS-size distributions of \[17\]'s measurement data. Uniform AS
/// sizes would cap same-AS contact opportunities at 1-2 %, hiding the
/// technique's effect.
fn heavy_tailed_underlay(net: &NetParams) -> Underlay {
    let mut rng = SimRng::new(net.seed);
    let graph = TopologySpec::new(TopologyKind::Hierarchical {
        tier1: net.tier1,
        tier2_per_tier1: net.tier2_per_tier1,
        tier3_per_tier2: net.tier3_per_tier2,
        tier2_peering_prob: 0.3,
        tier3_peering_prob: 0.3,
    })
    .build(&mut rng);
    let weights: Vec<f64> = graph
        .nodes
        .iter()
        .enumerate()
        .map(|(i, n)| {
            if n.tier == uap_net::Tier::Tier3 {
                // Zipf over the leaf ASes by index.
                1.0 / (1.0 + (i % 7) as f64).powf(1.2)
            } else {
                0.0
            }
        })
        .collect();
    Underlay::build(
        graph,
        &PopulationSpec {
            n: net.n_hosts,
            attachment: AttachmentDist::Weighted(weights),
        },
        UnderlayConfig::default(),
        &mut rng,
    )
}

/// Experiment parameters.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Underlay shape.
    pub net: NetParams,
    /// Lookups per configuration.
    pub lookups: usize,
}

impl Params {
    /// Small instance.
    pub fn quick(seed: u64) -> Params {
        Params {
            net: NetParams::quick(128, seed),
            lookups: 100,
        }
    }

    /// Paper-scale instance.
    pub fn full(seed: u64) -> Params {
        Params {
            net: NetParams {
                n_hosts: 1_024,
                ..NetParams::full(seed)
            },
            lookups: 2_000,
        }
    }
}

/// Per-mode measurements.
#[derive(Clone, Copy, Debug)]
pub struct ModeResult {
    /// The mode.
    pub mode: ProximityMode,
    /// Inter-AS share of lookup RPCs.
    pub inter_as_fraction: f64,
    /// Mean AS-hop distance of one RPC.
    pub mean_rpc_as_hops: f64,
    /// Mean lookup latency (ms).
    pub mean_latency_ms: f64,
    /// Mean RPCs per lookup.
    pub mean_rpcs: f64,
    /// Fraction of lookups that found the true closest node.
    pub exactness: f64,
    /// Mean AS-hop distance of routing-table contacts.
    pub table_as_hops: f64,
}

/// Experiment output.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// One result per mode (None, Pns, PnsPr).
    pub modes: Vec<ModeResult>,
    /// Rendered table.
    pub table: Table,
}

/// Runs the comparison.
pub fn run(p: &Params) -> Outcome {
    run_traced(p, &mut Tracer::disabled())
}

/// Like [`run`], but installs `tracer` into each [`DhtNetwork`] so lookup
/// hop traces (`kademlia`/`lookup.*`) are recorded, with one
/// `experiment`/`phase` marker (Info) per proximity mode.
pub fn run_traced(p: &Params, tracer: &mut Tracer) -> Outcome {
    let mut modes = Vec::new();
    let mut table = Table::new(
        "E9 — proximity neighbor selection in Kademlia (after [17])",
        &[
            "mode",
            "inter-AS RPC share",
            "mean AS-hops/RPC",
            "mean latency (ms)",
            "mean RPCs/lookup",
            "lookup exactness",
            "table AS-hops",
        ],
    );
    for (label, mode) in [
        ("vanilla", ProximityMode::None),
        ("PNS", ProximityMode::Pns),
        ("PNS+PR", ProximityMode::PnsPr),
    ] {
        tracer.emit(
            SimTime::ZERO,
            "experiment",
            TraceLevel::Info,
            "phase",
            |f| {
                f.str("name", label);
            },
        );
        let mut rng = SimRng::new(p.net.seed ^ 0xE9);
        let cfg = DhtConfig {
            proximity: mode,
            ..Default::default()
        };
        let mut net = DhtNetwork::build(heavy_tailed_underlay(&p.net), cfg, &mut rng);
        net.tracer = std::mem::take(tracer);
        net.underlay.reset_traffic();
        let n = net.len();
        let mut inter = 0u64;
        let mut total = 0u64;
        let mut hops_sum = 0u64;
        let mut lat = 0.0;
        let mut exact = 0usize;
        for i in 0..p.lookups {
            let target = Key::random(&mut rng);
            let from = HostId::from_index(i * 7 % n);
            let out = net.lookup(from, &target, &mut rng);
            inter += out.inter_as_rpcs;
            total += out.rpcs;
            hops_sum += out.as_hops_sum;
            lat += out.latency_us as f64 / 1_000.0;
            if out.closest.first().map(|c| c.key) == net.true_closest(&target, 1).first().copied() {
                exact += 1;
            }
        }
        *tracer = std::mem::take(&mut net.tracer);
        let result = ModeResult {
            mode,
            inter_as_fraction: inter as f64 / total.max(1) as f64,
            mean_rpc_as_hops: hops_sum as f64 / total.max(1) as f64,
            mean_latency_ms: lat / p.lookups as f64,
            mean_rpcs: total as f64 / p.lookups as f64,
            exactness: exact as f64 / p.lookups as f64,
            table_as_hops: net.mean_table_as_hops(),
        };
        table.row(&[
            label.to_owned(),
            pct(result.inter_as_fraction),
            f(result.mean_rpc_as_hops),
            f(result.mean_latency_ms),
            f(result.mean_rpcs),
            pct(result.exactness),
            f(result.table_as_hops),
        ]);
        modes.push(result);
    }
    Outcome { modes, table }
}

/// The [`super::TABLE`] row's run; its event count is the RPCs issued.
pub fn experiment(scale: Scale, seed: u64, tracer: &mut Tracer) -> super::Outcome {
    let p = scale.params(seed, Params::quick, Params::full);
    let out = run_traced(&p, tracer);
    let claim = claim(&out);
    let rpcs: f64 = out
        .modes
        .iter()
        .map(|m| m.mean_rpcs * p.lookups as f64)
        .sum();
    super::Outcome {
        events: rpcs as u64,
        ..super::Outcome::of(vec![out.table], claim)
    }
}

/// The [17] result in direction (ROADMAP 4a): PNS+PR sends a smaller
/// share of its RPCs across AS boundaries and over fewer AS hops than
/// vanilla Kademlia, and finds the true closest node no less often.
pub fn claim(out: &Outcome) -> Result<(), String> {
    let (vanilla, pnspr) = (&out.modes[0], &out.modes[2]);
    ensure!(
        pnspr.inter_as_fraction < vanilla.inter_as_fraction,
        "inter-AS share {} !< {}",
        pnspr.inter_as_fraction,
        vanilla.inter_as_fraction
    );
    ensure!(
        pnspr.mean_rpc_as_hops < vanilla.mean_rpc_as_hops,
        "AS-hops/RPC {} !< {}",
        pnspr.mean_rpc_as_hops,
        vanilla.mean_rpc_as_hops
    );
    ensure!(
        pnspr.exactness >= vanilla.exactness,
        "exactness {} < {}",
        pnspr.exactness,
        vanilla.exactness
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::sweep::parallel_map;

    #[test]
    fn pns_cuts_inter_as_share_keeps_success() {
        let out = run(&Params::quick(41));
        let vanilla = &out.modes[0];
        let pnspr = &out.modes[2];
        assert!(
            pnspr.inter_as_fraction < vanilla.inter_as_fraction,
            "{} !< {}",
            pnspr.inter_as_fraction,
            vanilla.inter_as_fraction
        );
        assert!(pnspr.exactness > 0.8 * vanilla.exactness);
        assert!(pnspr.table_as_hops < vanilla.table_as_hops);
        assert!(
            pnspr.mean_rpc_as_hops < vanilla.mean_rpc_as_hops,
            "{} !< {}",
            pnspr.mean_rpc_as_hops,
            vanilla.mean_rpc_as_hops
        );
        assert!(
            vanilla.exactness > 0.8,
            "vanilla exactness {}",
            vanilla.exactness
        );
    }

    /// The claim on this module's own eight seeds, beside the eight the
    /// table test sweeps every row over.
    #[test]
    fn proximity_claim_holds_on_every_seed() {
        let seeds: Vec<u64> = (900..908).collect();
        let claims = parallel_map(seeds.clone(), 4, |seed| claim(&run(&Params::quick(seed))));
        for (seed, claim) in seeds.iter().zip(claims) {
            assert_eq!(claim, Ok(()), "seed {seed}");
        }
    }

    #[test]
    fn latency_benefits_from_proximity_routing() {
        let out = run(&Params::quick(42));
        let vanilla = &out.modes[0];
        let pnspr = &out.modes[2];
        // Nearby hops are faster; allow equality but flag regressions.
        assert!(
            pnspr.mean_latency_ms < 1.2 * vanilla.mean_latency_ms,
            "pns+pr latency {} vs vanilla {}",
            pnspr.mean_latency_ms,
            vanilla.mean_latency_ms
        );
    }
}
