//! The four workloads and what they share: topology presets, the timed
//! underlay build, and the `net` counters every arm hands back.

pub mod gnutella;
pub mod kademlia;
pub mod swarm;
pub mod underlay;

use crate::harness::{min_ns_per_call, ns_per_call, Env, IterOut, Ledger, Pass, Recorder};
use uap_net::{
    AsGraph, HostId, PopulationSpec, Routing, TopologyKind, TopologySpec, Underlay, UnderlayConfig,
};
use uap_sim::SimRng;

/// A hierarchical Internet shape (Figure 1 of the paper), 0.3 peering
/// probability on both lower tiers like every experiment in the repo.
#[derive(Clone, Copy, Debug)]
pub struct Topo {
    /// Tier-1 ISPs.
    pub tier1: usize,
    /// Tier-2 ISPs per Tier-1.
    pub tier2_per_tier1: usize,
    /// Tier-3 ISPs per Tier-2.
    pub tier3_per_tier2: usize,
}

impl Topo {
    /// 4 + 24 + 192 = 220 ASes.
    pub const MID: Topo = Topo::new(4, 6, 8);
    /// 5 + 50 + 1 000 = 1 055 ASes.
    pub const LARGE: Topo = Topo::new(5, 10, 20);
    /// Smoke stand-in for `MID`: 3 + 9 + 36 = 48 ASes.
    pub const SMOKE_MID: Topo = Topo::new(3, 3, 4);
    /// Smoke stand-in for `LARGE`: 4 + 24 + 192 = 220 ASes.
    pub const SMOKE_LARGE: Topo = Topo::MID;

    const fn new(tier1: usize, tier2_per_tier1: usize, tier3_per_tier2: usize) -> Topo {
        Topo {
            tier1,
            tier2_per_tier1,
            tier3_per_tier2,
        }
    }

    fn spec(&self) -> TopologySpec {
        TopologySpec::new(TopologyKind::Hierarchical {
            tier1: self.tier1,
            tier2_per_tier1: self.tier2_per_tier1,
            tier3_per_tier2: self.tier3_per_tier2,
            tier2_peering_prob: 0.3,
            tier3_peering_prob: 0.3,
        })
    }
}

/// Generates the AS graph and assembles the underlay under two set-up
/// spans (`net.gen`, `net.underlay.build`). `population` sees the graph
/// so a workload can weight ASes.
pub fn build_underlay(
    rec: &mut Recorder,
    topo: Topo,
    seed: u64,
    population: impl FnOnce(&AsGraph) -> PopulationSpec,
) -> Underlay {
    let mut rng = SimRng::new(seed);
    let graph = rec.setup("net.gen", || topo.spec().build(&mut rng));
    let pop = population(&graph);
    rec.setup("net.underlay.build", || {
        Underlay::build(graph, &pop, UnderlayConfig::default(), &mut rng)
    })
}

/// `net`-layer counters summed over an iteration's arms.
#[derive(Clone, Copy, Debug, Default)]
pub struct NetCounters {
    links: u64,
    builds: u64,
    hits: u64,
    misses: u64,
    refills: u64,
    invalidations: u64,
    sources_recomputed: u64,
    sources_total: u64,
    full_fallbacks: u64,
}

impl NetCounters {
    /// Adds the counters of one arm's finished underlay.
    pub fn absorb(&mut self, u: &Underlay) {
        let (hits, misses) = u.route_cache_stats();
        let (recomputed, total, fallbacks) = u.repair_totals();
        self.links += u.graph.links.len() as u64;
        self.builds += 1;
        self.hits += hits;
        self.misses += misses;
        self.refills += u.route_cache_refills();
        self.invalidations += u.route_cache_invalidations();
        self.sources_recomputed += recomputed;
        self.sources_total += total;
        self.full_fallbacks += fallbacks;
    }

    /// Folds the counters into a digest: they are simulated statistics.
    pub fn digest(&self, d: &mut crate::digest::Digest) {
        d.label("net")
            .u64(self.links)
            .u64(self.hits)
            .u64(self.misses)
            .u64(self.refills)
            .u64(self.invalidations)
            .u64(self.sources_recomputed)
            .u64(self.sources_total)
            .u64(self.full_fallbacks);
    }

    /// Writes the `net.*` ledger rows that come from spans and counters.
    /// `net.underlay.build_s` is written as the whole span here;
    /// [`routing_probe`] later subtracts the routing build to leave self
    /// time.
    pub fn write(&self, rec: &Recorder, ledger: &mut Ledger) {
        let share = |part: u64, whole: u64| {
            if whole == 0 {
                0.0
            } else {
                part as f64 / whole as f64
            }
        };
        ledger.insert(
            "net.gen.ns_per_link",
            rec.secs("net.gen") * 1e9 / self.links.max(1) as f64,
        );
        ledger.insert("net.underlay.build_s", rec.secs("net.underlay.build"));
        ledger.insert("scratch.underlay_builds", self.builds as f64);
        ledger.insert(
            "net.underlay.route_cache_hit_share",
            share(self.hits, self.hits + self.misses),
        );
        ledger.insert("net.underlay.route_cache_refills", self.refills as f64);
        ledger.insert(
            "net.underlay.route_cache_invalidations",
            self.invalidations as f64,
        );
        // Every fault epoch applied invalidates the route cache once.
        ledger.insert("net.routing.repair_epochs", self.invalidations as f64);
        ledger.insert(
            "net.routing.repair_recomputed_share",
            share(self.sources_recomputed, self.sources_total),
        );
        ledger.insert(
            "net.routing.repair_full_fallbacks",
            self.full_fallbacks as f64,
        );
    }
}

/// Kernel probe: the all-pairs routing build `Underlay::build` performs
/// (`Routing::compute_indexed`), replayed on one arm's graph and scaled
/// by the number of underlays the iteration built. Turns the
/// `net.underlay.build_s` span into self time.
pub fn routing_probe(u: &Underlay, ledger: &mut Ledger) {
    let builds = ledger
        .get("scratch.underlay_builds")
        .copied()
        .unwrap_or(1.0);
    // The fastest of a few builds: the span this is subtracted from is a
    // single build too, and a slow probe would push self time below zero.
    let reps = if u.n_ases() > 500 { 3 } else { 20 };
    let ns = min_ns_per_call(reps, || {
        std::hint::black_box(Routing::compute_indexed(&u.graph, u.config.routing, None));
    });
    let n = u.n_ases() as f64;
    let build_s = ns / 1e9 * builds;
    ledger.insert("net.routing.build_s", build_s);
    ledger.insert("net.routing.build_ns_per_pair", ns / (n * n));
    let span = ledger.get("net.underlay.build_s").copied().unwrap_or(0.0);
    ledger.insert("net.underlay.build_s", (span - build_s).max(0.0));
}

/// Kernel probe: `Underlay::latency_us` over seeded random host pairs —
/// the access pattern an overlay produces (no locality between queries).
pub fn latency_probe(u: &Underlay, seed: u64) -> f64 {
    let mut rng = SimRng::new(seed ^ 0x1A7);
    let n = u.n_hosts();
    let pairs: Vec<(HostId, HostId)> = (0..1 << 16)
        .map(|_| {
            (
                HostId::from_index(rng.index(n)),
                HostId::from_index(rng.index(n)),
            )
        })
        .collect();
    let mut acc = 0u64;
    let per_sweep = ns_per_call(16, || {
        for &(a, b) in &pairs {
            acc = acc.wrapping_add(u.latency_us(a, b).unwrap_or(0));
        }
    });
    std::hint::black_box(acc);
    per_sweep / pairs.len() as f64
}

/// Workload names, in the order `all` runs them.
pub const NAMES: [&str; 4] = [
    "gnutella_selection",
    "kademlia_proximity",
    "swarm_congestion",
    "underlay_scale",
];

/// A workload at a chosen scale.
pub enum Workload {
    /// Table 1 / Table 2: four neighbour-selection arms on the engine.
    Gnutella(gnutella::Params),
    /// Kaune et al.: three proximity modes, no engine, no flows.
    Kademlia(kademlia::Params),
    /// Bindal et al. / CAT: two tracker policies on the flow allocator.
    Swarm(swarm::Params),
    /// The `net` layer alone, read-mostly then write-beside-read.
    Underlay(underlay::Params),
}

impl Workload {
    /// Looks a workload up by name; `smoke` selects the one-tenth scale.
    pub fn by_name(name: &str, smoke: bool) -> Option<Workload> {
        Some(match name {
            "gnutella_selection" => Workload::Gnutella(if smoke {
                gnutella::Params::smoke()
            } else {
                gnutella::Params::full()
            }),
            "kademlia_proximity" => Workload::Kademlia(if smoke {
                kademlia::Params::smoke()
            } else {
                kademlia::Params::full()
            }),
            "swarm_congestion" => Workload::Swarm(if smoke {
                swarm::Params::smoke()
            } else {
                swarm::Params::full()
            }),
            "underlay_scale" => Workload::Underlay(if smoke {
                underlay::Params::smoke()
            } else {
                underlay::Params::full()
            }),
            _ => return None,
        })
    }

    /// The unit `units_per_s` counts.
    pub fn unit(&self) -> &'static str {
        match self {
            Workload::Gnutella(_) => "overlay messages",
            Workload::Kademlia(_) => "lookup RPCs",
            Workload::Swarm(_) => "pieces delivered",
            Workload::Underlay(_) => "underlay calls",
        }
    }

    /// The instrumentation passes of a traced run, in order. The first is
    /// always the untraced baseline; kernel probes run in the last.
    pub fn passes(&self) -> &'static [Pass] {
        match self {
            Workload::Gnutella(_) => &[Pass::Plain, Pass::Timed, Pass::Buffered, Pass::Streaming],
            Workload::Kademlia(_) | Workload::Swarm(_) => {
                &[Pass::Plain, Pass::Buffered, Pass::Streaming]
            }
            // Nothing in this workload emits trace events.
            Workload::Underlay(_) => &[Pass::Plain],
        }
    }

    /// Performs the set-up of every arm under the usual spans and drops
    /// what it built — one more `setup_s` sample without a run.
    pub fn setup_only(&self, env: &mut Env) {
        match self {
            Workload::Gnutella(p) => gnutella::setup_only(p, env),
            Workload::Kademlia(p) => kademlia::setup_only(p, env),
            Workload::Swarm(p) => swarm::setup_only(p, env),
            Workload::Underlay(p) => underlay::setup_only(p, env),
        }
    }

    /// Runs one iteration: every arm, set-up and run under spans.
    pub fn iterate(&self, env: &mut Env) -> IterOut {
        match self {
            Workload::Gnutella(p) => gnutella::iterate(p, env),
            Workload::Kademlia(p) => kademlia::iterate(p, env),
            Workload::Swarm(p) => swarm::iterate(p, env),
            Workload::Underlay(p) => underlay::iterate(p, env),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Ledger;
    use uap_sim::Tracer;

    fn tiny() -> [Workload; 4] {
        [
            Workload::Gnutella(gnutella::Params::tiny()),
            Workload::Kademlia(kademlia::Params::tiny()),
            Workload::Swarm(swarm::Params::tiny()),
            Workload::Underlay(underlay::Params::tiny()),
        ]
    }

    fn iterate(w: &Workload, seed: u64, pass: Pass, probes: bool) -> (IterOut, Env) {
        let mut env = Env {
            seed,
            pass,
            probes,
            rec: Recorder::new(),
            tracer: match pass {
                Pass::Buffered => Tracer::buffered(uap_sim::TraceLevel::Debug),
                _ => Tracer::disabled(),
            },
            ledger: Ledger::new(),
        };
        env.rec.begin_iteration(false);
        let out = w.iterate(&mut env);
        (out, env)
    }

    #[test]
    fn digest_repeats_in_process_and_moves_with_the_seed() {
        for w in tiny() {
            let (a, env) = iterate(&w, 7, Pass::Plain, false);
            let (b, _) = iterate(&w, 7, Pass::Plain, false);
            let (c, _) = iterate(&w, 8, Pass::Plain, false);
            assert_eq!(a.digest, b.digest, "{} digest must repeat", w.unit());
            assert_eq!(a.units, b.units);
            assert_ne!(
                a.digest,
                c.digest,
                "{} digest must follow the seed",
                w.unit()
            );
            assert!(a.units > 0 && a.checks.attempted > 0);
            assert!(env.rec.run_s() > 0.0 && env.rec.setup_s() > 0.0);
        }
    }

    #[test]
    fn instrumented_passes_leave_the_simulation_untouched() {
        for w in tiny() {
            let (plain, _) = iterate(&w, 11, Pass::Plain, false);
            for &pass in w.passes() {
                let (out, env) = iterate(&w, 11, pass, false);
                assert_eq!(
                    out.digest,
                    plain.digest,
                    "{} pass moved the digest",
                    pass.name()
                );
                assert_eq!(out.units, plain.units);
                if pass == Pass::Buffered {
                    assert!(env.tracer.emitted() > 0, "buffered pass recorded nothing");
                }
            }
        }
    }

    /// The `Timed` wrapper sees every engine event the bare run processes.
    #[test]
    fn timed_pass_accounts_for_every_engine_event() {
        let w = Workload::Gnutella(gnutella::Params::tiny());
        let (_, plain) = iterate(&w, 5, Pass::Plain, false);
        let (_, timed) = iterate(&w, 5, Pass::Timed, false);
        let events = plain.ledger["sim.engine.events"];
        assert!(events > 0.0);
        let handled: f64 = [
            "gnutella.handler_s.ping_cycle",
            "gnutella.handler_s.query_cycle",
            "gnutella.handler_s.churn",
            "gnutella.handler_s.repair",
            "gnutella.handler_s.fault",
        ]
        .iter()
        .map(|k| timed.ledger[k])
        .sum();
        assert!(handled > 0.0 && handled <= timed.rec.secs("sim.run_until"));
        assert_eq!(timed.ledger["scratch.timed_events"], events);
        assert!(timed.ledger["sim.engine.queue_depth_max"] > 0.0);
    }

    /// Every ledger row a probing pass writes is a registered name (or
    /// scratch), so nothing measured is silently dropped from the output.
    #[test]
    fn probes_write_only_registered_rows() {
        let known: Vec<&str> = crate::metrics::PER_LAYER.iter().map(|m| m.0).collect();
        for w in tiny() {
            let last = *w.passes().last().expect("a pass");
            let (_, env) = iterate(&w, 3, last, true);
            for (name, value) in &env.ledger {
                assert!(
                    known.contains(name) || name.starts_with("scratch."),
                    "unregistered ledger row {name}"
                );
                assert!(value.is_finite(), "{name} = {value}");
            }
        }
    }
}
