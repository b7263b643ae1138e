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
//! RNG stream and of *when* the plan is compiled. Compilation also diffs
//! the crash sets of consecutive boundaries, so the plan hands each
//! boundary's crash changes out ready-made
//! ([`CompiledFaultPlan::crash_flips`]).
//!
//! Application is sim-time-driven: every overlay (Gnutella, the swarm,
//! the Kademlia DHT) has the plan schedule one event per epoch boundary
//! ([`CompiledFaultPlan::schedule`]) and hands it to [`enter_boundary`],
//! the one boundary handler. It calls
//! [`crate::Underlay::apply_fault_state`], whose route table repairs
//! itself under the epoch's mask (only sources whose shortest-path
//! forests touch a changed link recompute) before the underlay
//! invalidates the affected rows of the AS-pair route cache (see
//! `docs/DETERMINISM.md` and `docs/PERFORMANCE.md`), and traces the
//! boundary; each overlay then takes its hosts down or back up, in host
//! order, as the boundary's crash flips say.

use crate::asgraph::{AsGraph, LinkKind};
use crate::ids::HostId;
use crate::underlay::Underlay;
use uap_sim::{trace::registry, Ctx, Fields, SimRng, SimTime, Simulator};

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

    /// Compiles the plan against a concrete graph and a population of
    /// `hosts` hosts: samples the random link masks (from each epoch's
    /// `salt`, never the simulation RNG), precomputes the sorted set of
    /// epoch boundaries and each boundary's crash flips.
    ///
    /// # Panics
    ///
    /// Panics on malformed epochs: `end <= start`, a link index or a
    /// crashed host out of range, or a latency-inflation factor below 1.0.
    #[expect(clippy::indexing_slicing, reason = "link ids asserted < n_links above")]
    pub fn compile(&self, graph: &AsGraph, hosts: usize) -> CompiledFaultPlan {
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
                    FaultKind::HostCrash { hosts: ids } => {
                        for h in ids {
                            assert!(
                                h.idx() < hosts,
                                "fault epoch names host {h} but the population has {hosts} hosts"
                            );
                        }
                        crashed = ids.clone();
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
        let mut plan = CompiledFaultPlan {
            epochs,
            boundaries,
            n_links,
            flips: Vec::new(),
        };
        // Before the first boundary no epoch is active: nothing crashed.
        let mut before: Vec<HostId> = Vec::new();
        for &t in &plan.boundaries {
            let after = plan.state_at(t).crashed;
            let went_down = after.iter().filter(|h| before.binary_search(h).is_err());
            let came_back = before.iter().filter(|h| after.binary_search(h).is_err());
            let mut flips: Vec<(HostId, bool)> = went_down
                .map(|&h| (h, true))
                .chain(came_back.map(|&h| (h, false)))
                .collect();
            flips.sort_unstable_by_key(|&(h, _)| h.0);
            plan.flips.push(flips);
            before = after;
        }
        plan
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
/// boundaries sorted, each boundary's crash flips diffed. Query with
/// [`CompiledFaultPlan::state_at`].
#[derive(Clone, Debug)]
pub struct CompiledFaultPlan {
    epochs: Vec<CompiledEpoch>,
    boundaries: Vec<SimTime>,
    n_links: usize,
    /// Per boundary, the hosts whose crash state flips there (see
    /// [`CompiledFaultPlan::crash_flips`]).
    flips: Vec<Vec<(HostId, bool)>>,
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
    /// The sorted, deduplicated epoch boundary times.
    pub fn boundaries(&self) -> &[SimTime] {
        &self.boundaries
    }

    /// Schedules `event(i)` on `sim` at boundary `i`'s time, for every
    /// boundary in order: the overlay's one fault-application event per
    /// boundary, handed to [`enter_boundary`] when it fires.
    pub fn schedule<E>(&self, sim: &mut Simulator<E>, event: impl Fn(u32) -> E) {
        for (i, &t) in self.boundaries.iter().enumerate() {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "boundary index; a plan has two per epoch"
            )]
            sim.schedule_at(t, event(i as u32));
        }
    }

    /// The hosts whose crash state flips at boundary `i`, in host order,
    /// each with whether it is crashed from there on: the difference of
    /// the crash sets of `state_at` boundary `i − 1` (none before the
    /// first) and boundary `i`. Empty past the last boundary.
    pub fn crash_flips(&self, i: usize) -> &[(HostId, bool)] {
        self.flips.get(i).map_or(&[], Vec::as_slice)
    }

    /// The composed fault state at time `t`: epochs are active over the
    /// half-open window `[start, end)`; link masks OR together, latency
    /// factors multiply, crash sets union.
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

/// Enters boundary `i` of `plan` (an index into
/// [`CompiledFaultPlan::boundaries`]) at that boundary's time: applies
/// `state_at` to `net` and traces `fault.epoch` as a causal root
/// followed by the `routing.repair` it caused. The epoch's `seq` stays
/// the ambient cause, so the leaves and joins the caller makes from the
/// boundary's [`CompiledFaultPlan::crash_flips`] point back at it too.
/// Returns the applied state and that `seq` (`None` when the tracer
/// filters it).
///
/// # Panics
///
/// Panics if `i` is not a boundary index of `plan`.
pub fn enter_boundary<E>(
    net: &mut Underlay,
    plan: &CompiledFaultPlan,
    i: usize,
    ctx: &mut Ctx<'_, E>,
) -> (FaultState, Option<u64>) {
    #[expect(
        clippy::expect_used,
        reason = "Fault(i) is scheduled by CompiledFaultPlan::schedule"
    )]
    let &t = plan
        .boundaries()
        .get(i)
        .expect("a fault event only carries a scheduled boundary index");
    debug_assert_eq!(t, ctx.now());
    let state = plan.state_at(t);
    let repair = net.apply_fault_state(&state);
    ctx.tracer.clear_provenance();
    let fault_seq = ctx.trace(registry::NET_FAULT_EPOCH, |f| {
        f.u64("boundary", i as u64);
        state.trace_fields(f);
    });
    ctx.tracer.set_cause(fault_seq);
    ctx.trace(registry::NET_ROUTING_REPAIR, |f| {
        f.u64("boundary", i as u64);
        repair.trace_fields(f);
    });
    (state, fault_seq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{TopologyKind, TopologySpec};
    use uap_sim::TraceLevel;

    /// The population the test plans are compiled for.
    const HOSTS: usize = 20;

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
        let plan = FaultPlan::new().compile(&g, HOSTS);
        assert!(plan.boundaries().is_empty());
        assert_eq!(plan.state_at(secs(10)), FaultState::clear());
    }

    #[test]
    fn epoch_windows_are_half_open() {
        let g = graph();
        let plan = FaultPlan::new()
            .epoch(secs(10), secs(20), FaultKind::LinkDown { links: vec![0] })
            .compile(&g, HOSTS);
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
            .compile(&g, HOSTS);
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
                .compile(&g, HOSTS)
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
            .compile(&g, HOSTS);
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
    fn enter_boundary_applies_counts_and_anchors_the_repair() {
        use crate::host::PopulationSpec;
        use crate::underlay::UnderlayConfig;
        use uap_sim::{Simulator, TraceEvent, Tracer, Value, World};

        struct W {
            net: Underlay,
            plan: CompiledFaultPlan,
            applied: Vec<(FaultState, Option<u64>)>,
        }
        impl World<usize> for W {
            fn handle(&mut self, i: usize, ctx: &mut Ctx<'_, usize>) {
                let applied = enter_boundary(&mut self.net, &self.plan, i, ctx);
                self.applied.push(applied);
            }
        }
        let boundary = |e: &TraceEvent| match e.fields.first() {
            Some((k, Value::U64(i))) if k == "boundary" => usize::try_from(*i).unwrap(),
            other => panic!("{}: leads with {other:?}", e.kind),
        };

        let mut rng = SimRng::new(1);
        let net = Underlay::build(
            graph(),
            &PopulationSpec::leaf(20),
            UnderlayConfig::default(),
            &mut rng,
        );
        let plan = FaultPlan::new()
            .epoch(secs(10), secs(20), FaultKind::LinkDown { links: vec![0] })
            .compile(&net.graph, net.n_hosts());
        let mut sim = Simulator::new(1);
        sim.set_tracer(Tracer::buffered(TraceLevel::Debug));
        plan.schedule(&mut sim, |i| i as usize);
        let mut w = W {
            net,
            plan,
            applied: Vec::new(),
        };
        sim.run(&mut w);
        assert_eq!(w.applied[0].0.links_down(), 1);

        let tracer = sim.take_tracer();
        let evs = tracer.events();
        let epochs: Vec<_> = evs.iter().filter(|e| e.kind == "fault.epoch").collect();
        let repairs: Vec<_> = evs.iter().filter(|e| e.kind == "routing.repair").collect();
        assert_eq!((epochs.len(), repairs.len()), (2, 2));
        for (i, (epoch, repair)) in epochs.iter().zip(&repairs).enumerate() {
            let t = w.plan.boundaries()[i];
            assert_eq!(epoch.t, t);
            assert_eq!(w.applied[i], (w.plan.state_at(t), Some(epoch.seq)));
            assert_eq!((boundary(epoch), boundary(repair)), (i, i));
            assert_eq!((epoch.span, epoch.cause), (None, None), "a causal root");
            assert_eq!(repair.cause, Some(epoch.seq));
        }
    }

    /// Each boundary's crash flips are the difference of the crash sets
    /// at it and at the boundary before, in host order: over two
    /// overlapping crash epochs that share a host, and a link epoch whose
    /// boundaries change only links.
    #[test]
    fn crash_flips_are_the_difference_of_consecutive_crash_sets() {
        use std::collections::BTreeSet;
        let g = graph();
        let crash = |hosts: &[u32]| FaultKind::HostCrash {
            hosts: hosts.iter().map(|&h| HostId(h)).collect(),
        };
        let plan = FaultPlan::new()
            .epoch(secs(20), secs(40), crash(&[5, 3]))
            .epoch(secs(10), secs(30), crash(&[3, 1]))
            .epoch(secs(25), secs(35), FaultKind::LinkDown { links: vec![0] })
            .compile(&g, HOSTS);
        let b = plan.boundaries();
        assert_eq!(b, &[10, 20, 25, 30, 35, 40].map(secs));
        let mut before = BTreeSet::new();
        for (i, &t) in b.iter().enumerate() {
            let after: BTreeSet<HostId> = plan.state_at(t).crashed.into_iter().collect();
            let mut want: Vec<(HostId, bool)> = after
                .symmetric_difference(&before)
                .map(|&h| (h, after.contains(&h)))
                .collect();
            want.sort_by_key(|&(h, _)| h.0);
            assert_eq!(plan.crash_flips(i), want, "boundary {i} at {t:?}");
            before = after;
        }
        let flips: Vec<&[(HostId, bool)]> = (0..=b.len()).map(|i| plan.crash_flips(i)).collect();
        let (down, up) = (|h| (HostId(h), true), |h| (HostId(h), false));
        assert_eq!(
            flips,
            [
                &[down(1), down(3)][..],
                &[down(5)],
                &[],
                &[up(1)],
                &[],
                &[up(3), up(5)],
                &[],
            ]
        );
    }

    #[test]
    #[should_panic(expected = "start < end")]
    fn rejects_inverted_epoch() {
        let g = graph();
        let _ = FaultPlan::new()
            .epoch(secs(10), secs(10), FaultKind::LinkDown { links: vec![] })
            .compile(&g, HOSTS);
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
            .compile(&g, HOSTS);
    }

    #[test]
    #[should_panic(expected = "names host")]
    fn rejects_out_of_range_host() {
        let g = graph();
        let _ = FaultPlan::new()
            .epoch(
                secs(0),
                secs(1),
                FaultKind::HostCrash {
                    hosts: vec![HostId(3), HostId::from_index(HOSTS)],
                },
            )
            .compile(&g, HOSTS);
    }
}
