//! E17 (extension) — fault-scale routing repair: what a fault epoch
//! costs, across topology sizes.
//!
//! Sweeps AS-graph size × fault-epoch count, driving localized fault
//! epochs (rotating peering-link failures composed with latency
//! inflation windows) through [`uap_net::Underlay::apply_fault_state`].
//!
//! The summary table and the `routing.repair` trace events are
//! deterministic (`ci/trace_gate.sh` double-runs them): the work measure
//! is sources recomputed against the sources a from-scratch build
//! recomputes at every epoch. What a repair costs in host time is the
//! benchmark's `net.routing.repair_ns_per_epoch` row (`underlay_scale`).

use super::table::{ensure, Scale};
use crate::report::Table;
use uap_net::{AsId, FaultState, LinkKind, NetParams, Tier, Underlay};
use uap_sim::{trace::registry, SimTime, Tracer};

/// One topology size of the sweep.
#[derive(Clone, Copy, Debug)]
pub struct SizeSpec {
    /// Size label.
    pub name: &'static str,
    /// Tier-1 count.
    pub tier1: usize,
    /// Tier-2 per Tier-1.
    pub tier2_per_tier1: usize,
    /// Tier-3 per Tier-2.
    pub tier3_per_tier2: usize,
    /// End hosts.
    pub hosts: usize,
}

const SIZES: [SizeSpec; 3] = [
    SizeSpec {
        name: "small",
        tier1: 2,
        tier2_per_tier1: 2,
        tier3_per_tier2: 3,
        hosts: 200,
    },
    SizeSpec {
        name: "medium",
        tier1: 3,
        tier2_per_tier1: 4,
        tier3_per_tier2: 6,
        hosts: 600,
    },
    SizeSpec {
        name: "large",
        tier1: 4,
        tier2_per_tier1: 6,
        tier3_per_tier2: 8,
        hosts: 1_200,
    },
];

/// Sweep parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// Topology/population seed, shared by every size.
    pub seed: u64,
    /// Fault boundaries driven through each size.
    pub epochs: usize,
    /// Topology sizes to sweep.
    pub sizes: Vec<SizeSpec>,
}

impl Params {
    /// Sixteen boundaries on the small and medium topologies.
    pub fn quick(seed: u64) -> Params {
        Params {
            seed,
            epochs: 16,
            sizes: SIZES[..2].to_vec(),
        }
    }

    /// Forty-eight boundaries on all three sizes.
    pub fn full(seed: u64) -> Params {
        Params {
            seed,
            epochs: 48,
            sizes: SIZES.to_vec(),
        }
    }
}

/// Per-size measurements.
#[derive(Clone, Debug)]
pub struct SizeResult {
    /// Size label.
    pub name: &'static str,
    /// ASes in the topology.
    pub ases: usize,
    /// AS links in the topology.
    pub links: usize,
    /// Fault boundaries applied.
    pub epochs: usize,
    /// Links whose state changed, summed over the boundaries.
    pub changed_links: u64,
    /// Routing sources the repairs recomputed.
    pub sources_recomputed: u64,
    /// Routing sources full rebuilds would have recomputed.
    pub sources_total: u64,
    /// Repairs that fell back to a full rebuild.
    pub full_fallbacks: u64,
}

/// Sweep output.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// One result per size.
    pub sizes: Vec<SizeResult>,
    /// The deterministic summary (no wall-clock cells).
    pub table: Table,
}

/// Link indices suitable for localized fault epochs: peering links away
/// from the Tier-1 core (their loss re-routes a subtree, not the
/// backbone). Falls back to any peering, then any link, so every
/// topology yields a non-empty rotation set.
fn localized_links(u: &Underlay) -> Vec<usize> {
    let in_core = |a: AsId| u.graph.nodes.get(a.idx()).map(|n| n.tier) == Some(Tier::Tier1);
    let peerings = |core_too: bool| -> Vec<usize> {
        u.graph
            .links
            .iter()
            .enumerate()
            .filter(|(_, l)| {
                l.kind == LinkKind::Peering && (core_too || !(in_core(l.a) || in_core(l.b)))
            })
            .map(|(i, _)| i)
            .collect()
    };
    let peripheral = peerings(false);
    if !peripheral.is_empty() {
        return peripheral;
    }
    let any_peering = peerings(true);
    if !any_peering.is_empty() {
        return any_peering;
    }
    (0..u.graph.links.len()).collect()
}

/// Drives `epochs` boundaries through one topology size.
fn measure(spec: &SizeSpec, seed: u64, epochs: usize, tracer: &mut Tracer) -> SizeResult {
    let mut u = NetParams {
        tier1: spec.tier1,
        tier2_per_tier1: spec.tier2_per_tier1,
        tier3_per_tier2: spec.tier3_per_tier2,
        n_hosts: spec.hosts,
        seed,
    }
    .build();
    let ases = u.n_ases();
    let links = u.graph.links.len();
    let rotation = localized_links(&u);

    let mut changed_links = 0u64;
    for e in 0..epochs {
        // Localized epochs alternating fault and heal boundaries: even
        // epochs down one rotating peering link (two every fourth
        // rotation step), odd epochs heal everything, and a
        // latency-inflation window opens every eighth epoch — always
        // far under 10% of links changing per boundary.
        let mut state = FaultState::clear();
        state.mask = if e % 2 == 0 {
            let step = e / 2;
            let n_down = if step % 4 == 3 { 2 } else { 1 };
            let mut mask = vec![false; links];
            for &link in rotation
                .iter()
                .cycle()
                .skip(step % rotation.len().max(1))
                .take(n_down)
            {
                if let Some(down) = mask.get_mut(link) {
                    *down = true;
                }
            }
            Some(mask)
        } else {
            None
        };
        if e % 8 >= 4 {
            state.latency_factor = 1.5;
        }
        let stats = u.apply_fault_state(&state);
        changed_links += stats.changed_links as u64;
        tracer.emit(SimTime::ZERO, registry::NET_ROUTING_REPAIR, |f| {
            f.str("size", spec.name).u64("boundary", e as u64);
            stats.trace_fields(f);
        });
    }
    let (sources_recomputed, sources_total, full_fallbacks) = u.repair_totals();
    SizeResult {
        name: spec.name,
        ases,
        links,
        epochs,
        changed_links,
        sources_recomputed,
        sources_total,
        full_fallbacks,
    }
}

/// Runs the sweep untraced.
pub fn run(p: &Params) -> Outcome {
    run_traced(p, &mut Tracer::disabled())
}

/// Like [`run`], but records one `net`/`routing.repair` event (Info) per
/// boundary into `tracer`.
pub fn run_traced(p: &Params, tracer: &mut Tracer) -> Outcome {
    let sizes: Vec<SizeResult> = p
        .sizes
        .iter()
        .map(|spec| measure(spec, p.seed, p.epochs, tracer))
        .collect();
    let mut table = Table::new(
        "E17 — incremental routing repair at fault epochs",
        &[
            "size",
            "ases",
            "links",
            "epochs",
            "changed links",
            "sources recomputed",
            "sources total",
            "full fallbacks",
        ],
    );
    for r in &sizes {
        table.row(&[
            r.name.to_string(),
            r.ases.to_string(),
            r.links.to_string(),
            r.epochs.to_string(),
            r.changed_links.to_string(),
            r.sources_recomputed.to_string(),
            r.sources_total.to_string(),
            r.full_fallbacks.to_string(),
        ]);
    }
    Outcome { sizes, table }
}

/// The [`super::TABLE`] row's run; its event count is boundaries applied.
pub fn experiment(scale: Scale, seed: u64, tracer: &mut Tracer) -> super::Outcome {
    let p = scale.params(seed, Params::quick, Params::full);
    let out = run_traced(&p, tracer);
    let claim = claim(&out);
    super::Outcome {
        config: vec![("epochs", p.epochs.to_string())],
        events: out.sizes.iter().map(|r| r.epochs as u64).sum(),
        ..super::Outcome::of(vec![out.table], claim)
    }
}

/// Repair is the rebuild, for less: where a boundary's one or two links
/// are a small part of the graph (40 links and up) every boundary is
/// handled incrementally — no full-rebuild fallback — touching under a
/// quarter of the sources a rebuild recomputes. On the 18-AS topology two
/// links are a tenth of the graph, the fallback threshold: there, on
/// seeds 11 and 61, two boundaries fall back and up to a third of the
/// sources are recomputed, so it is held only to "under half". That each
/// repaired table equals the rebuilt one is `Routing::repair_with_mask`'s
/// own debug assertion, which the claim test's debug build runs on every
/// boundary.
pub fn claim(out: &Outcome) -> Result<(), String> {
    ensure!(!out.sizes.is_empty(), "no sizes swept");
    for r in &out.sizes {
        let size = r.name;
        ensure!(
            r.changed_links >= r.epochs as u64,
            "{size}: {} link changes in {} boundaries",
            r.changed_links,
            r.epochs
        );
        ensure!(
            r.sources_total == (r.ases * r.epochs) as u64,
            "{size}: {} sources for {} x {}",
            r.sources_total,
            r.ases,
            r.epochs
        );
        let localized = r.links >= 40;
        ensure!(
            r.full_fallbacks == 0 || !localized,
            "{size}: {} full-rebuild fallbacks",
            r.full_fallbacks
        );
        let bound = if localized { 0.25 } else { 0.5 };
        ensure!(
            r.sources_recomputed > 0
                && (r.sources_recomputed as f64) < bound * r.sources_total as f64,
            "{size}: recomputed {} of {} sources",
            r.sources_recomputed,
            r.sources_total
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_deterministic_and_skips_large_when_quick() {
        let a = run(&Params::quick(5));
        let b = run(&Params::quick(5));
        assert_eq!(a.table.to_csv(), b.table.to_csv());
        assert_eq!(a.table.len(), 2);
        assert_eq!(Params::full(5).sizes.len(), 3);
    }
}
