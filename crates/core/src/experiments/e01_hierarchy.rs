//! E1 — Figure 1: "Hierarchy in the Internet".
//!
//! The figure shows local and transit ISPs in a hierarchy where "the solid
//! arrows indicate monetary flow, solid lines between ISPs are peer
//! connections and the dashed ones are transit connections". The harness
//! generates that topology and reports the census: per-tier AS counts,
//! link classification, monetary-flow edges (one per transit link, paid by
//! the customer), and routing sanity (valley-freeness and reachability).

use super::table::{ensure, Scale};
use crate::report::Table;
use uap_net::{Routing, RoutingMode, Tier, TopologyKind, TopologySpec};
use uap_sim::{SimRng, Tracer};

/// Parameters for the hierarchy census.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Tier-1 count.
    pub tier1: usize,
    /// Tier-2 per Tier-1.
    pub tier2_per_tier1: usize,
    /// Tier-3 per Tier-2.
    pub tier3_per_tier2: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Params {
    /// Small instance.
    pub fn quick(seed: u64) -> Params {
        Params {
            tier1: 2,
            tier2_per_tier1: 3,
            tier3_per_tier2: 3,
            seed,
        }
    }

    /// Paper-scale instance (4 global carriers, 12 regionals, 64 locals —
    /// the proportions of Figure 1 scaled up).
    pub fn full(seed: u64) -> Params {
        Params {
            tier1: 4,
            tier2_per_tier1: 3,
            tier3_per_tier2: 5,
            seed,
        }
    }
}

/// Census output.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The census table.
    pub table: Table,
    /// Fraction of ordered AS pairs reachable under valley-free routing.
    pub valley_free_reachability: f64,
    /// Number of transit (monetary-flow) links.
    pub transit_links: usize,
    /// Number of peering links.
    pub peering_links: usize,
    /// ISPs per tier: Tier-1, Tier-2, Tier-3.
    pub tier_counts: [usize; 3],
    /// Whether the AS graph is one component.
    pub connected: bool,
    /// Mean AS path length over reachable ordered pairs.
    pub mean_as_hops: f64,
}

/// Runs the census.
pub fn run(p: &Params) -> Outcome {
    let mut rng = SimRng::new(p.seed);
    let graph = TopologySpec::new(TopologyKind::Hierarchical {
        tier1: p.tier1,
        tier2_per_tier1: p.tier2_per_tier1,
        tier3_per_tier2: p.tier3_per_tier2,
        tier2_peering_prob: 0.3,
        tier3_peering_prob: 0.3,
    })
    .build(&mut rng);
    let routing = Routing::compute(&graph, RoutingMode::ValleyFree);
    let count_tier = |t: Tier| graph.nodes.iter().filter(|n| n.tier == t).count();
    let tier_counts = [Tier::Tier1, Tier::Tier2, Tier::Tier3].map(count_tier);
    let connected = graph.is_connected(None);
    let (transit_links, peering_links) = graph.link_counts();
    let mut table = Table::new(
        "Figure 1 — Internet hierarchy census",
        &["quantity", "value"],
    );
    let mut push = |k: &str, v: String| table.row(&[k.to_owned(), v]);
    let [tier1, tier2, tier3] = tier_counts;
    push("Tier-1 (global transit) ISPs", tier1.to_string());
    push("Tier-2 (regional) ISPs", tier2.to_string());
    push("Tier-3 (local) ISPs", tier3.to_string());
    push(
        "transit links (monetary flow edges)",
        transit_links.to_string(),
    );
    push("peering links (settlement-free)", peering_links.to_string());
    push("connected", connected.to_string());
    let reach = routing.reachable_fraction();
    push("valley-free reachability", format!("{:.4}", reach));
    // Mean AS path length as a proxy for the hierarchy's diameter.
    let mut hops_sum = 0u64;
    let mut pairs = 0u64;
    for a in 0..graph.len() {
        for b in 0..graph.len() {
            if a == b {
                continue;
            }
            if let Some(h) =
                routing.as_hops(uap_net::AsId::from_index(a), uap_net::AsId::from_index(b))
            {
                hops_sum += h as u64;
                pairs += 1;
            }
        }
    }
    let mean_hops = if pairs > 0 {
        hops_sum as f64 / pairs as f64
    } else {
        0.0
    };
    push("mean AS path length", format!("{:.2}", mean_hops));
    Outcome {
        table,
        valley_free_reachability: reach,
        transit_links,
        peering_links,
        tier_counts,
        connected,
        mean_as_hops: mean_hops,
    }
}

/// The [`super::TABLE`] row's run.
pub fn experiment(scale: Scale, seed: u64, _: &mut Tracer) -> super::Outcome {
    let out = run(&scale.params(seed, Params::quick, Params::full));
    let claim = claim(&out);
    super::Outcome {
        notes: vec![format!(
            "monetary flow: {} transit links billed customer->provider; {} settlement-free peerings",
            out.transit_links, out.peering_links
        )],
        values: vec![
            ("transit_links", out.transit_links.to_string()),
            ("peering_links", out.peering_links.to_string()),
            (
                "valley_free_reachability",
                out.valley_free_reachability.to_string(),
            ),
        ],
        ..super::Outcome::of(vec![out.table], claim)
    }
}

/// Figure 1's structure: every non-Tier-1 ISP buys transit, the Tier-1
/// core peers in a full mesh, and every AS reaches every other under
/// valley-free export rules over an Internet-like handful of AS hops.
pub fn claim(out: &Outcome) -> Result<(), String> {
    let [tier1, tier2, tier3] = out.tier_counts;
    ensure!(
        out.transit_links >= tier2 + tier3,
        "{} transit links for {} customers",
        out.transit_links,
        tier2 + tier3
    );
    let mesh = tier1 * tier1.saturating_sub(1) / 2;
    ensure!(
        out.peering_links >= mesh,
        "{} peerings, Tier-1 mesh needs {mesh}",
        out.peering_links
    );
    ensure!(out.connected, "graph is not connected");
    ensure!(
        out.valley_free_reachability == 1.0,
        "valley-free reachability {}",
        out.valley_free_reachability
    );
    ensure!(
        (2.0..6.0).contains(&out.mean_as_hops),
        "mean AS path {}",
        out.mean_as_hops
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn census_counts_add_up() {
        let p = Params::quick(5);
        let out = run(&p);
        assert_eq!(out.table.cell(0, 1), "2");
        assert_eq!(out.table.cell(1, 1), "6");
        assert_eq!(out.table.cell(2, 1), "18");
        assert!(out.transit_links >= 6 + 18); // every non-T1 has a provider
        assert!(out.peering_links >= 1); // T1 core mesh
        assert_eq!(out.valley_free_reachability, 1.0);
    }

    #[test]
    fn full_scale_builds() {
        let out = run(&Params::full(1));
        assert_eq!(out.valley_free_reachability, 1.0);
        assert!(out.transit_links > out.peering_links);
    }
}
