//! Time-scheduled fault-injection campaigns.
//!
//! The simulator's one fault model: failures scheduled **over sim time**
//! (a static pre-run failure mask is a one-epoch plan read back with
//! [`CompiledFaultPlan::state_at`]). A [`FaultPlan`] is a list of
//! [`FaultEpoch`]s — half-open `[start, end)` windows during which a fault
//! is active: link-down sets (explicit, random, or transit-only — the AS
//! partition model of the paper's resilience rows), latency inflation
//! episodes, and host crash windows. Plans are *compiled* against a
//! concrete [`AsGraph`] into per-epoch link masks, after which
//! [`CompiledFaultPlan::state_at`] answers "what is broken at time `t`?"
//! as a single [`FaultState`].
//!
//! Determinism: random masks are sampled at compile time from a dedicated
//! [`SimRng`] seeded by the epoch's own `salt`, so the sampled fault set is
//! a pure function of `(graph, plan)` — independent of the simulation's
//! RNG stream and of *when* the plan is compiled. Application is
//! sim-time-driven: the overlay worlds schedule one event per epoch
//! boundary and call [`crate::Underlay::apply_fault_state`], which
//! incrementally repairs routing under the epoch's mask (only sources
//! whose shortest-path forests touch a changed link recompute) and
//! invalidates the affected rows of the AS-pair route cache (see
//! `docs/DETERMINISM.md` and `docs/PERFORMANCE.md`).

use crate::asgraph::{AsGraph, LinkKind};
use crate::ids::HostId;
use uap_sim::{Fields, SimRng, SimTime};

/// What a fault epoch breaks while it is active.
#[derive(Clone, Debug)]
pub enum FaultKind {
    /// The listed link indices are down.
    LinkDown {
        /// Indices into `graph.links`.
        links: Vec<u32>,
    },
    /// Each link is down independently with probability `p`, sampled at
    /// compile time from a fresh `SimRng::new(salt)`.
    RandomLinkDown {
        /// Per-link failure probability.
        p: f64,
        /// Seed of the dedicated sampling RNG (keeps the mask independent
        /// of the simulation RNG stream).
        salt: u64,
    },
    /// Each *transit* link is down with probability `p` (peering
    /// survives) — provider outages partitioning the AS hierarchy.
    TransitDown {
        /// Per-transit-link failure probability.
        p: f64,
        /// Seed of the dedicated sampling RNG.
        salt: u64,
    },
    /// All inter-AS path metrics are inflated by this factor (congestion
    /// episode). Factors from overlapping epochs multiply.
    LatencyInflation {
        /// Multiplier applied to the combined inter-AS path metric
        /// (must be ≥ 1.0: a fault never speeds a path up).
        factor: f64,
    },
    /// The listed hosts are crashed (offline regardless of churn state);
    /// they restart when the epoch ends.
    HostCrash {
        /// Hosts down for the duration of the epoch.
        hosts: Vec<HostId>,
    },
}

/// One fault window: `kind` is active during `[start, end)`.
#[derive(Clone, Debug)]
pub struct FaultEpoch {
    /// Epoch start (inclusive).
    pub start: SimTime,
    /// Epoch end (exclusive).
    pub end: SimTime,
    /// What breaks.
    pub kind: FaultKind,
}

/// A deterministic, time-scheduled fault campaign.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// The scheduled epochs (may overlap; effects compose).
    pub epochs: Vec<FaultEpoch>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Builder-style: appends an epoch.
    #[must_use]
    pub fn epoch(mut self, start: SimTime, end: SimTime, kind: FaultKind) -> FaultPlan {
        self.epochs.push(FaultEpoch { start, end, kind });
        self
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.epochs.is_empty()
    }

    /// Compiles the plan against a concrete graph: samples the random link
    /// masks (from each epoch's `salt`, never the simulation RNG) and
    /// precomputes the sorted set of epoch boundaries.
    ///
    /// # Panics
    ///
    /// Panics on malformed epochs: `end <= start`, a link index out of
    /// range, or a latency-inflation factor below 1.0.
    // lint:allow(alloc) — campaign compilation; runs once before the sim starts
    pub fn compile(&self, graph: &AsGraph) -> CompiledFaultPlan {
        let n_links = graph.links.len();
        let epochs: Vec<CompiledEpoch> = self
            .epochs
            .iter()
            .map(|e| {
                assert!(
                    e.start < e.end,
                    "fault epoch must have start < end (got {:?} >= {:?})",
                    e.start,
                    e.end
                );
                let mut mask = None;
                let mut latency_factor = 1.0;
                let mut crashed = Vec::new();
                match &e.kind {
                    FaultKind::LinkDown { links } => {
                        let mut m = vec![false; n_links];
                        for &li in links {
                            assert!(
                                (li as usize) < n_links,
                                "fault epoch names link {li} but the graph has {n_links} links"
                            );
                            m[li as usize] = true;
                        }
                        mask = Some(m);
                    }
                    FaultKind::RandomLinkDown { p, salt } => {
                        let mut rng = SimRng::new(*salt);
                        mask = Some((0..n_links).map(|_| rng.chance(*p)).collect());
                    }
                    FaultKind::TransitDown { p, salt } => {
                        let mut rng = SimRng::new(*salt);
                        mask = Some(
                            graph
                                .links
                                .iter()
                                .map(|l| l.kind == LinkKind::Transit && rng.chance(*p))
                                .collect(),
                        );
                    }
                    FaultKind::LatencyInflation { factor } => {
                        assert!(
                            *factor >= 1.0,
                            "latency inflation factor must be >= 1.0 (got {factor})"
                        );
                        latency_factor = *factor;
                    }
                    FaultKind::HostCrash { hosts } => {
                        crashed = hosts.clone();
                        crashed.sort_unstable_by_key(|h| h.0);
                        crashed.dedup();
                    }
                }
                CompiledEpoch {
                    start: e.start,
                    end: e.end,
                    mask,
                    latency_factor,
                    crashed,
                }
            })
            .collect();
        let mut boundaries: Vec<SimTime> = epochs.iter().flat_map(|e| [e.start, e.end]).collect();
        boundaries.sort_unstable();
        boundaries.dedup();
        CompiledFaultPlan {
            epochs,
            boundaries,
            n_links,
        }
    }
}

/// One epoch after compilation: the sampled link mask plus scalar effects.
#[derive(Clone, Debug)]
struct CompiledEpoch {
    start: SimTime,
    end: SimTime,
    mask: Option<Vec<bool>>,
    latency_factor: f64,
    crashed: Vec<HostId>,
}

/// A [`FaultPlan`] compiled against a graph: per-epoch masks materialized,
/// boundaries sorted. Query with [`CompiledFaultPlan::state_at`].
#[derive(Clone, Debug)]
pub struct CompiledFaultPlan {
    epochs: Vec<CompiledEpoch>,
    boundaries: Vec<SimTime>,
    n_links: usize,
}

/// The union of all faults active at one instant.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultState {
    /// OR of the active epochs' link masks; `None` when no link is down.
    pub mask: Option<Vec<bool>>,
    /// Product of the active latency-inflation factors (1.0 = none).
    pub latency_factor: f64,
    /// Sorted, deduplicated set of crashed hosts.
    pub crashed: Vec<HostId>,
    /// Number of epochs active at the queried instant.
    pub active: usize,
}

impl FaultState {
    /// The fault-free state.
    // lint:allow(alloc) — constructs the returned state; per fault epoch, not per event
    pub fn clear() -> FaultState {
        FaultState {
            mask: None,
            latency_factor: 1.0,
            crashed: Vec::new(),
            active: 0,
        }
    }

    /// Number of links down under this state.
    pub fn links_down(&self) -> usize {
        self.mask
            .as_ref()
            .map_or(0, |m| m.iter().filter(|&&d| d).count())
    }

    /// Writes the canonical `net/fault.epoch` anchor fields. Every overlay
    /// that traces a fault boundary goes through this, so the cause-anchor
    /// events recovery chains point at carry one field shape everywhere.
    pub fn trace_fields(&self, f: &mut Fields) {
        f.u64("links_down", self.links_down() as u64)
            .f64("latency_factor", self.latency_factor)
            .u64("crashed", self.crashed.len() as u64);
    }
}

impl CompiledFaultPlan {
    /// The sorted, deduplicated epoch boundary times. The overlay worlds
    /// schedule one fault-application event at each of these.
    pub fn boundaries(&self) -> &[SimTime] {
        &self.boundaries
    }

    /// Whether the compiled plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.epochs.is_empty()
    }

    /// The composed fault state at time `t`: epochs are active over the
    /// half-open window `[start, end)`; link masks OR together, latency
    /// factors multiply, crash sets union.
    // lint:allow(alloc) — composes the returned state; per fault epoch, not per event
    pub fn state_at(&self, t: SimTime) -> FaultState {
        let mut state = FaultState::clear();
        for e in &self.epochs {
            if t < e.start || t >= e.end {
                continue;
            }
            state.active += 1;
            if let Some(em) = &e.mask {
                let m = state.mask.get_or_insert_with(|| vec![false; self.n_links]);
                for (slot, &down) in m.iter_mut().zip(em) {
                    *slot |= down;
                }
            }
            state.latency_factor *= e.latency_factor;
            state.crashed.extend_from_slice(&e.crashed);
        }
        state.crashed.sort_unstable_by_key(|h| h.0);
        state.crashed.dedup();
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{TopologyKind, TopologySpec};

    fn graph() -> AsGraph {
        TopologySpec::new(TopologyKind::Hierarchical {
            tier1: 2,
            tier2_per_tier1: 3,
            tier3_per_tier2: 2,
            tier2_peering_prob: 0.5,
            tier3_peering_prob: 0.5,
        })
        .build(&mut SimRng::new(3))
    }

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn empty_plan_is_always_clear() {
        let g = graph();
        let plan = FaultPlan::new().compile(&g);
        assert!(plan.is_empty());
        assert!(plan.boundaries().is_empty());
        assert_eq!(plan.state_at(secs(10)), FaultState::clear());
    }

    #[test]
    fn epoch_windows_are_half_open() {
        let g = graph();
        let plan = FaultPlan::new()
            .epoch(secs(10), secs(20), FaultKind::LinkDown { links: vec![0] })
            .compile(&g);
        assert_eq!(plan.boundaries(), &[secs(10), secs(20)]);
        assert_eq!(plan.state_at(secs(9)).active, 0);
        assert_eq!(plan.state_at(secs(10)).active, 1);
        assert_eq!(plan.state_at(secs(19)).links_down(), 1);
        assert_eq!(plan.state_at(secs(20)).active, 0);
    }

    #[test]
    fn overlapping_epochs_compose() {
        let g = graph();
        let plan = FaultPlan::new()
            .epoch(secs(0), secs(30), FaultKind::LinkDown { links: vec![0] })
            .epoch(secs(10), secs(20), FaultKind::LinkDown { links: vec![1] })
            .epoch(
                secs(10),
                secs(40),
                FaultKind::LatencyInflation { factor: 2.0 },
            )
            .epoch(
                secs(15),
                secs(40),
                FaultKind::LatencyInflation { factor: 3.0 },
            )
            .epoch(
                secs(0),
                secs(20),
                FaultKind::HostCrash {
                    hosts: vec![HostId(5), HostId(2), HostId(5)],
                },
            )
            .compile(&g);
        let s = plan.state_at(secs(15));
        assert_eq!(s.active, 5);
        assert_eq!(s.links_down(), 2);
        assert!((s.latency_factor - 6.0).abs() < 1e-12);
        assert_eq!(s.crashed, vec![HostId(2), HostId(5)]);
        // After the overlap window: only the long link epoch + inflations.
        let s = plan.state_at(secs(25));
        assert_eq!(s.links_down(), 1);
        assert!((s.latency_factor - 6.0).abs() < 1e-12);
        assert!(s.crashed.is_empty());
        // Past everything: clear.
        assert_eq!(plan.state_at(secs(40)), FaultState::clear());
    }

    #[test]
    fn random_masks_are_salt_deterministic() {
        let g = graph();
        let mk = |salt| {
            FaultPlan::new()
                .epoch(
                    secs(0),
                    secs(10),
                    FaultKind::RandomLinkDown { p: 0.5, salt },
                )
                .compile(&g)
                .state_at(secs(5))
        };
        assert_eq!(mk(7), mk(7), "same salt must sample the same mask");
        assert_ne!(mk(7), mk(8), "different salts should differ");
    }

    #[test]
    fn transit_down_spares_peerings() {
        let g = graph();
        let plan = FaultPlan::new()
            .epoch(
                secs(0),
                secs(10),
                FaultKind::TransitDown { p: 1.0, salt: 1 },
            )
            .compile(&g);
        let s = plan.state_at(secs(0));
        let mask = s.mask.expect("p=1.0 downs every transit link");
        for (i, l) in g.links.iter().enumerate() {
            match l.kind {
                LinkKind::Transit => assert!(mask[i]),
                LinkKind::Peering => assert!(!mask[i]),
            }
        }
    }

    #[test]
    #[should_panic(expected = "start < end")]
    fn rejects_inverted_epoch() {
        let g = graph();
        let _ = FaultPlan::new()
            .epoch(secs(10), secs(10), FaultKind::LinkDown { links: vec![] })
            .compile(&g);
    }

    #[test]
    #[should_panic(expected = "names link")]
    fn rejects_out_of_range_link() {
        let g = graph();
        let _ = FaultPlan::new()
            .epoch(
                secs(0),
                secs(1),
                FaultKind::LinkDown {
                    links: vec![u32::MAX],
                },
            )
            .compile(&g);
    }
}
