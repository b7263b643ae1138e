//! The underlay façade.
//!
//! [`Underlay`] bundles the AS graph, its routing tables and the host
//! population into the single object overlays query: host-to-host latency,
//! AS-hop distance, path lookup and traffic accounting. It is the
//! "substrate on which the overlay resides".
//!
//! At a fault boundary ([`Underlay::apply_fault_state`]) the route table
//! repairs itself — it keeps its own repair index, link mask, worker
//! count and repair totals — and the underlay invalidates the route-cache
//! rows of the sources it recomputed. Host crashes are the overlays'
//! business: the compiled fault plan hands each one its crash flips.

use crate::asgraph::AsGraph;
use crate::gen::{TopologyKind, TopologySpec};
use crate::geo::propagation_delay_us;
use crate::host::{Host, HostPopulation, PopulationSpec};
use crate::ids::{AsId, HostId};
use crate::routing::{RepairStats, Routing, RoutingMode};
use crate::traffic::{TrafficAccounting, TrafficCategory};
use std::cell::Cell;
use uap_sim::{trace::registry, SimRng, SimTime, Tracer};

/// Tunables for the latency model.
#[derive(Clone, Copy, Debug)]
pub struct UnderlayConfig {
    /// Routing policy.
    pub routing: RoutingMode,
    /// Multiplier applied to the reverse direction of each ordered host
    /// pair (1.0 = symmetric). Models the asymmetric-path problem of §6.
    pub asymmetry: f64,
    /// Relative jitter amplitude on measured RTTs (0.0 = noiseless).
    pub jitter: f64,
}

impl Default for UnderlayConfig {
    fn default() -> Self {
        UnderlayConfig {
            routing: RoutingMode::ValleyFree,
            asymmetry: 1.0,
            jitter: 0.0,
        }
    }
}

/// Extra per-AS traversal delay (router queueing) in microseconds.
const PER_AS_HOP_US: u64 = 300;

/// Deterministic AS-pair route-metric cache: the combined
/// `path_latency + as_hops × PER_AS_HOP_US` term of the host-latency
/// decomposition, materialized per ordered AS pair at build time so
/// [`Underlay::latency_us`] (and therefore `rtt_us`) does one indexed
/// read instead of probing the routing table twice per direction.
///
/// The cache is derived from the routing table and the active
/// latency-inflation factor. Host migration cannot stale it
/// (migration changes which AS a host maps to, not any AS-pair metric),
/// but **swapping the routing table can** — which is why `routing` is a
/// private field and [`Underlay::apply_fault_state`] is the only writer:
/// it repairs the table and invalidates the affected cache rows in one
/// step. [`Underlay::assert_route_cache_coherent`] verifies the
/// invariant in debug builds after every epoch.
///
/// One 4-byte slot per ordered pair holds the combined term, or one of
/// two sentinels: [`UNREACHABLE_SLOT`] for an unroutable pair, and
/// [`STALE_SLOT`] for a slot that must be read from the route record.
/// Invalidation is **per source row**: incremental fault-epoch repairs
/// ([`Underlay::apply_fault_state`]) write `STALE_SLOT` across the rows
/// of the sources whose routing changed, and a changed inflation factor
/// writes it everywhere; untouched rows keep serving their slots with no
/// refill cost. A stale slot refills from the route record on its next
/// lookup (counted in `refills`). A combined term that does not fit
/// below `STALE_SLOT` is served from the record on every lookup, each
/// counted as a refill, and its slot stays stale: the answer is exact at
/// any inflation factor.
///
/// Hit/miss counters use `Cell` so read-only latency queries (`&self`)
/// can record them; a "miss" is an intra-AS query answered by the
/// geographic model instead of the cache.
#[derive(Debug)]
struct RouteCache {
    n: usize,
    /// `n × n` slots, row-major by source AS. `Cell` so stale slots can
    /// refill during read-only lookups.
    slots: Vec<Slot>,
    hits: Cell<u64>,
    misses: Cell<u64>,
    /// Stale slots read on lookup since construction.
    refills: Cell<u64>,
}

/// One AS pair's cached term or sentinel.
type Slot = Cell<u32>;

/// The slot of an unroutable pair.
const UNREACHABLE_SLOT: u32 = u32::MAX;
/// The slot of a pair whose term must be read from the route record.
const STALE_SLOT: u32 = u32::MAX - 1;

impl RouteCache {
    /// Eagerly fills every slot, so coherence checks and first lookups
    /// never observe an unfilled cache; later invalidations are lazy.
    fn build(routing: &Routing, n: usize, latency_factor: f64) -> RouteCache {
        let mut slots = Vec::with_capacity(n * n);
        for s in (0..n).map(AsId::from_index) {
            for d in (0..n).map(AsId::from_index) {
                let entry = Self::entry(routing, s, d, latency_factor);
                slots.push(Cell::new(Self::slot(entry)));
            }
        }
        RouteCache {
            n,
            slots,
            hits: Cell::new(0),
            misses: Cell::new(0),
            refills: Cell::new(0),
        }
    }

    /// Invalidates every source row (a change to the latency factor
    /// folded into the slots).
    fn invalidate_all_rows(&mut self) {
        self.slots.fill(Cell::new(STALE_SLOT));
    }

    /// Invalidates one source row: its slots refill lazily on lookup.
    #[expect(
        clippy::indexing_slicing,
        reason = "src < n: the row is inside the n × n slots"
    )]
    fn invalidate_row(&mut self, src: usize) {
        self.slots[src * self.n..(src + 1) * self.n].fill(Cell::new(STALE_SLOT));
    }

    /// The combined term for one ordered AS pair, straight from the
    /// routing table (`None` when unroutable) — the ground truth the
    /// cache materializes and the coherence assertion recomputes.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "float → int `as` saturates; a route latency is far under 2^53 µs"
    )]
    fn entry(routing: &Routing, src: AsId, dst: AsId, latency_factor: f64) -> Option<u64> {
        let r = routing.route(src, dst)?;
        let combined = u64::from(r.latency_us) + u64::from(r.hops) * PER_AS_HOP_US;
        if (latency_factor - 1.0).abs() > f64::EPSILON {
            return Some((combined as f64 * latency_factor) as u64);
        }
        Some(combined)
    }

    /// The slot that caches `entry`: stale when the term does not fit
    /// below the sentinels.
    fn slot(entry: Option<u64>) -> u32 {
        entry.map_or(UNREACHABLE_SLOT, |e| {
            u32::try_from(e).map_or(STALE_SLOT, |e| e.min(STALE_SLOT))
        })
    }

    /// Reads the term for an ordered AS pair, counting a hit. A stale
    /// slot refills from the routing table first.
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "src, dst < n: i < n × n slots")]
    fn lookup(&self, src: AsId, dst: AsId, routing: &Routing, latency_factor: f64) -> Option<u64> {
        self.hits.set(self.hits.get() + 1);
        let slot = &self.slots[src.idx() * self.n + dst.idx()];
        match slot.get() {
            STALE_SLOT => {
                let entry = Self::entry(routing, src, dst, latency_factor);
                slot.set(Self::slot(entry));
                self.refills.set(self.refills.get() + 1);
                entry
            }
            UNREACHABLE_SLOT => None,
            combined => Some(u64::from(combined)),
        }
    }

    #[inline]
    fn note_miss(&self) {
        self.misses.set(self.misses.get() + 1);
    }
}

/// The assembled underlay: topology + routing + hosts.
pub struct Underlay {
    /// The AS graph.
    pub graph: AsGraph,
    /// All-pairs routing. Private so the route cache cannot be staled by
    /// a direct write; read through [`Underlay::routing`], change through
    /// [`Underlay::apply_fault_state`].
    routing: Routing,
    /// The attached hosts.
    pub hosts: HostPopulation,
    /// Configuration.
    pub config: UnderlayConfig,
    /// Traffic ledger for this run.
    pub traffic: TrafficAccounting,
    /// AS-pair route-metric cache (see [`RouteCache`]).
    route_cache: RouteCache,
    /// Latency-inflation factor from the active fault state (1.0 = none),
    /// folded into the cache entries at (re)fill time.
    latency_factor: f64,
    /// How many fault epochs have invalidated route-cache rows.
    invalidations: u64,
}

impl Underlay {
    /// Assembles an underlay from a generated graph and a population spec.
    pub fn build(
        graph: AsGraph,
        pop: &PopulationSpec,
        config: UnderlayConfig,
        rng: &mut SimRng,
    ) -> Underlay {
        let routing = Routing::compute(&graph, config.routing);
        let hosts = HostPopulation::build(&graph, pop, rng);
        let traffic = TrafficAccounting::new(&graph);
        let route_cache = RouteCache::build(&routing, graph.len(), 1.0);
        Underlay {
            graph,
            routing,
            hosts,
            config,
            traffic,
            route_cache,
            latency_factor: 1.0,
            invalidations: 0,
        }
    }

    /// The all-pairs routing table (read-only: fault epochs are the one
    /// way to change it, see [`Underlay::apply_fault_state`]).
    #[inline]
    pub fn routing(&self) -> &Routing {
        &self.routing
    }

    /// Applies one composed fault state: the link mask drives an
    /// **incremental routing repair** (only sources whose shortest-path
    /// trees the changed links touch are recomputed — see
    /// [`Routing::repair_with_mask`]), and only those sources' route-cache
    /// rows are invalidated; a changed latency-inflation factor
    /// invalidates every row since it is folded into each entry. Host
    /// crashes are overlay-level (the worlds take peers offline); the
    /// underlay only carries the path effects.
    ///
    /// Returns the repair stats for telemetry (`routing.repair` trace
    /// events at fault boundaries); [`Underlay::repair_totals`] keeps the
    /// running sums.
    pub fn apply_fault_state(&mut self, state: &crate::fault::FaultState) -> RepairStats {
        let factor_changed = (state.latency_factor - self.latency_factor).abs() > f64::EPSILON;
        self.latency_factor = state.latency_factor;
        let stats = self
            .routing
            .repair_with_mask(&self.graph, state.mask.as_deref());
        if factor_changed {
            self.route_cache.invalidate_all_rows();
        } else {
            for &s in self.routing.dirty_sources() {
                self.route_cache.invalidate_row(s as usize);
            }
        }
        self.invalidations += 1;
        #[cfg(debug_assertions)]
        self.assert_route_cache_coherent();
        stats
    }

    /// Verifies every filled cache slot against a fresh routing-table
    /// computation — the debug-mode coherence assertion guarding fault
    /// epoch switches. Stale slots are skipped: they are read from the
    /// live table on their next lookup, so they cannot serve wrong
    /// answers. O(n²) route loads; debug builds only (called after every
    /// fault epoch) plus tests.
    ///
    /// # Panics
    ///
    /// Panics when any filled slot disagrees with the routing table.
    #[expect(clippy::indexing_slicing, reason = "s, d < n, the cache dimension")]
    pub fn assert_route_cache_coherent(&self) {
        let n = self.graph.len();
        for s in 0..n {
            for d in 0..n {
                let got = self.route_cache.slots[s * self.route_cache.n + d].get();
                if got == STALE_SLOT {
                    continue; // lazily invalidated; refills on next lookup
                }
                let (src, dst) = (AsId::from_index(s), AsId::from_index(d));
                let want = RouteCache::slot(RouteCache::entry(
                    &self.routing,
                    src,
                    dst,
                    self.latency_factor,
                ));
                assert_eq!(
                    got, want,
                    "route cache stale for AS pair ({s}, {d}): \
                     cached {got:#x}, routing table says {want:#x} — \
                     was `routing` written outside apply_fault_state()?"
                );
            }
        }
    }

    /// Number of route-cache invalidations (fault epochs applied) so far.
    pub fn route_cache_invalidations(&self) -> u64 {
        self.invalidations
    }

    /// Number of hosts.
    pub fn n_hosts(&self) -> usize {
        self.hosts.len()
    }

    /// Number of ASes.
    pub fn n_ases(&self) -> usize {
        self.graph.len()
    }

    /// The host record.
    pub fn host(&self, h: HostId) -> &Host {
        self.hosts.host(h)
    }

    /// Whether two hosts attach through the same ISP.
    #[inline]
    pub fn same_as(&self, a: HostId, b: HostId) -> bool {
        self.hosts.as_of(a) == self.hosts.as_of(b)
    }

    /// AS-hop distance between two hosts (0 if same AS).
    #[inline]
    pub fn as_hops(&self, a: HostId, b: HostId) -> Option<u32> {
        self.routing
            .as_hops(self.hosts.as_of(a), self.hosts.as_of(b))
    }

    /// One-way latency from `a` to `b` in microseconds: both access links,
    /// the inter-AS path, per-AS-hop queueing, and intra-AS propagation
    /// between geographic positions. The inter-AS term
    /// (`path latency + hops × PER_AS_HOP_US`) is served by the AS-pair
    /// route cache in a single indexed read.
    #[inline]
    pub fn latency_us(&self, a: HostId, b: HostId) -> Option<u64> {
        if a == b {
            return Some(0);
        }
        let ha = self.hosts.host(a);
        let hb = self.hosts.host(b);
        let base = ha.access_latency_us + hb.access_latency_us;
        if ha.asn == hb.asn {
            // Intra-AS: propagation across the ISP's metro network — the
            // cache does not apply.
            self.route_cache.note_miss();
            return Some(base + propagation_delay_us(ha.geo.distance_km(&hb.geo)));
        }
        let combined =
            self.route_cache
                .lookup(ha.asn, hb.asn, &self.routing, self.latency_factor)?;
        Some(base + combined)
    }

    /// Hit/miss counters of the AS-pair route cache: `(hits, misses)`.
    /// A hit is an inter-AS latency query served from the cache; a miss
    /// is an intra-AS query answered by the geographic model.
    pub fn route_cache_stats(&self) -> (u64, u64) {
        (self.route_cache.hits.get(), self.route_cache.misses.get())
    }

    /// Stale route-cache slots read on lookup so far (grows only after
    /// lazy invalidations, i.e. incremental fault-epoch repairs).
    pub fn route_cache_refills(&self) -> u64 {
        self.route_cache.refills.get()
    }

    /// Running `(sources_recomputed, sources_total, full_fallbacks)`
    /// totals across all fault epochs applied so far (kept by the route
    /// table, [`Routing::repair_totals`]).
    pub fn repair_totals(&self) -> (u64, u64, u64) {
        self.routing.repair_totals()
    }

    /// Directional latency including the asymmetry factor: the `a -> b`
    /// direction is the base latency, `b -> a` is scaled. Asymmetry is
    /// keyed on host-id order so it is consistent across calls.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "float → int `as` saturates; a latency is far under 2^53 µs"
    )]
    pub fn latency_directional_us(&self, from: HostId, to: HostId) -> Option<u64> {
        let base = self.latency_us(from, to)?;
        if (self.config.asymmetry - 1.0).abs() < f64::EPSILON {
            return Some(base);
        }
        // The "high" direction is from the larger id to the smaller.
        if from.0 > to.0 {
            Some((base as f64 * self.config.asymmetry) as u64)
        } else {
            Some(base)
        }
    }

    /// Round-trip time in microseconds: the sum of both directional
    /// latencies, forward first (so the route cache counts the forward
    /// lookup before the reverse one).
    #[inline]
    pub fn rtt_us(&self, a: HostId, b: HostId) -> Option<u64> {
        Some(self.latency_directional_us(a, b)? + self.latency_directional_us(b, a)?)
    }

    /// An RTT *measurement*: the true RTT plus multiplicative jitter. This
    /// is what a ping observes; coordinate systems embed these noisy values.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "float → int `as` saturates; an RTT is far under 2^53 µs"
    )]
    pub fn measured_rtt_us(&self, a: HostId, b: HostId, rng: &mut SimRng) -> Option<u64> {
        let rtt = self.rtt_us(a, b)?;
        if self.config.jitter <= 0.0 {
            return Some(rtt);
        }
        let f = 1.0 + rng.f64_range(0.0, self.config.jitter);
        Some((rtt as f64 * f) as u64)
    }

    /// Records a transfer in the traffic ledger and returns its category.
    pub fn account_transfer(
        &mut self,
        now: SimTime,
        from: HostId,
        to: HostId,
        bytes: u64,
    ) -> TrafficCategory {
        let (src_as, dst_as) = (self.hosts.as_of(from), self.hosts.as_of(to));
        self.account(now, src_as, dst_as, bytes).0
    }

    /// Like [`Underlay::account_transfer`], but also emits a `net`/`transfer`
    /// trace event (Debug level) recording the routing decision: endpoint
    /// hosts and ASes, byte count, traffic category, and the number of
    /// links / transit links the valley-free path crossed. The category
    /// and both counts come from the one read of the pair's route record
    /// that the accounting makes.
    pub fn account_transfer_traced(
        &mut self,
        now: SimTime,
        from: HostId,
        to: HostId,
        bytes: u64,
        tracer: &mut Tracer,
    ) -> TrafficCategory {
        let (src_as, dst_as) = (self.hosts.as_of(from), self.hosts.as_of(to));
        let (cat, links, transit) = self.account(now, src_as, dst_as, bytes);
        tracer.emit(now, registry::NET_TRANSFER, |f| {
            f.u64("from", from.0 as u64)
                .u64("to", to.0 as u64)
                .u64("src_as", src_as.idx() as u64)
                .u64("dst_as", dst_as.idx() as u64)
                .u64("bytes", bytes)
                .str("cat", cat.name())
                .u64("links", u64::from(links))
                .u64("transit", u64::from(transit));
        });
        cat
    }

    /// Records a transfer between two ASes from one read of their route
    /// record: its category, and the links and transit links its path
    /// crossed (none intra-AS or unroutable).
    fn account(
        &mut self,
        now: SimTime,
        src_as: AsId,
        dst_as: AsId,
        bytes: u64,
    ) -> (TrafficCategory, u8, u8) {
        if src_as == dst_as {
            return (self.traffic.record(now, src_as, &[], bytes), 0, 0);
        }
        let Some((route, path)) = self.routing.route_path(src_as, dst_as) else {
            // Unroutable pair (disconnected graph, or valley-free policy
            // with no compliant path): the transfer cannot happen, so no
            // link carries the bytes — but it must NOT be mistaken for
            // local traffic.
            return (TrafficCategory::InterAsTransit, 0, 0);
        };
        let cat = self.traffic.record(now, src_as, path, bytes);
        #[cfg(debug_assertions)]
        #[expect(clippy::panic, reason = "debug-only invariant guard")]
        if let Err(e) = crate::invariants::check_traffic_conservation(&self.graph, &self.traffic) {
            panic!("traffic ledger corrupted: {e}");
        }
        (cat, route.hops, route.transit_links)
    }

    /// Emits one `net`/`link.total` trace event (Debug level) per link
    /// that carried traffic, capturing the per-link byte distribution at
    /// the moment of the call (typically end of run).
    pub fn trace_link_totals(&self, now: SimTime, tracer: &mut Tracer) {
        if !tracer.is_enabled(registry::NET_LINK_TOTAL.level()) {
            return;
        }
        let per_link = self.traffic.per_link_bytes();
        for (li, (link, bytes)) in self.graph.links.iter().zip(per_link).enumerate() {
            if bytes == 0 {
                continue;
            }
            tracer.emit(now, registry::NET_LINK_TOTAL, |f| {
                f.u64("link", li as u64)
                    .str(
                        "kind",
                        match link.kind {
                            crate::asgraph::LinkKind::Peering => "peering",
                            crate::asgraph::LinkKind::Transit => "transit",
                        },
                    )
                    .u64("a", link.a.idx() as u64)
                    .u64("b", link.b.idx() as u64)
                    .u64("bytes", bytes);
            });
        }
    }

    /// Geographic distance between two hosts in kilometres.
    pub fn geo_distance_km(&self, a: HostId, b: HostId) -> f64 {
        self.hosts.host(a).geo.distance_km(&self.hosts.host(b).geo)
    }

    /// Resets the traffic ledger (e.g. between experiment phases).
    pub fn reset_traffic(&mut self) {
        self.traffic = TrafficAccounting::new(&self.graph);
    }

    /// Moves a host to another AS (mobility, §6 challenge). Cached
    /// underlay information held by services built earlier becomes stale —
    /// which is precisely what experiment E11c measures.
    pub fn migrate_host(&mut self, h: HostId, new_as: crate::ids::AsId, rng: &mut SimRng) {
        self.hosts.migrate(&self.graph, h, new_as, rng);
    }
}

/// The standard underlay shape shared by the overlay experiments, tests
/// and examples: a hierarchical local/transit-ISP Internet (Figure 1's
/// structure) with 0.3 peering probability on both lower tiers, hosts on
/// the leaf ASes and the default [`UnderlayConfig`].
#[derive(Clone, Copy, Debug)]
pub struct NetParams {
    /// Tier-1 (global transit) count.
    pub tier1: usize,
    /// Tier-2 per Tier-1.
    pub tier2_per_tier1: usize,
    /// Tier-3 per Tier-2.
    pub tier3_per_tier2: usize,
    /// End hosts attached to Tier-3 ISPs.
    pub n_hosts: usize,
    /// Topology/population seed.
    pub seed: u64,
}

impl NetParams {
    /// A small network for tests and benches (~150 hosts, 20 leaf ASes).
    pub fn quick(n_hosts: usize, seed: u64) -> NetParams {
        NetParams {
            tier1: 2,
            tier2_per_tier1: 2,
            tier3_per_tier2: 4,
            n_hosts,
            seed,
        }
    }

    /// The paper-scale network (~1 000 hosts over ~40 leaf ASes).
    pub fn full(seed: u64) -> NetParams {
        NetParams {
            tier1: 3,
            tier2_per_tier1: 3,
            tier3_per_tier2: 4,
            n_hosts: 1_000,
            seed,
        }
    }

    /// Builds the underlay: topology and population drawn from one
    /// [`SimRng`] seeded with `seed`, in that order.
    pub fn build(&self) -> Underlay {
        let mut rng = SimRng::new(self.seed);
        let graph = TopologySpec::new(TopologyKind::Hierarchical {
            tier1: self.tier1,
            tier2_per_tier1: self.tier2_per_tier1,
            tier3_per_tier2: self.tier3_per_tier2,
            tier2_peering_prob: 0.3,
            tier3_peering_prob: 0.3,
        })
        .build(&mut rng);
        Underlay::build(
            graph,
            &PopulationSpec::leaf(self.n_hosts),
            UnderlayConfig::default(),
            &mut rng,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn underlay(asym: f64) -> Underlay {
        let mut rng = SimRng::new(42);
        let spec = TopologySpec::new(TopologyKind::Hierarchical {
            tier1: 2,
            tier2_per_tier1: 2,
            tier3_per_tier2: 3,
            tier2_peering_prob: 0.3,
            tier3_peering_prob: 0.3,
        });
        let graph = spec.build(&mut rng);
        Underlay::build(
            graph,
            &PopulationSpec::leaf(200),
            UnderlayConfig {
                asymmetry: asym,
                ..Default::default()
            },
            &mut rng,
        )
    }

    #[test]
    fn quick_and_full_build() {
        let q = NetParams::quick(100, 1).build();
        assert_eq!(q.n_hosts(), 100);
        assert_eq!(q.n_ases(), 2 + 4 + 16);
        let f = NetParams::full(1);
        assert_eq!(f.n_hosts, 1_000);
    }

    #[test]
    fn self_latency_is_zero() {
        let u = underlay(1.0);
        assert_eq!(u.latency_us(HostId(0), HostId(0)), Some(0));
    }

    #[test]
    fn latency_is_symmetric_by_default() {
        let u = underlay(1.0);
        for i in 0..10u32 {
            let (a, b) = (HostId(i), HostId(i + 50));
            assert_eq!(u.latency_us(a, b), u.latency_us(b, a));
            assert_eq!(u.rtt_us(a, b).unwrap(), 2 * u.latency_us(a, b).unwrap());
        }
    }

    #[test]
    fn same_as_pairs_are_much_closer() {
        let u = underlay(1.0);
        // Find an intra-AS pair and an inter-AS pair with the same access
        // profiles would be ideal; statistically intra < inter on average.
        let mut intra = Vec::new();
        let mut inter = Vec::new();
        for a in 0..50u32 {
            for b in (a + 1)..50u32 {
                let (a, b) = (HostId(a), HostId(b));
                let l = u.latency_us(a, b).unwrap() as f64;
                if u.same_as(a, b) {
                    intra.push(l);
                } else {
                    inter.push(l);
                }
            }
        }
        assert!(!intra.is_empty() && !inter.is_empty());
        let mi = intra.iter().sum::<f64>() / intra.len() as f64;
        let me = inter.iter().sum::<f64>() / inter.len() as f64;
        assert!(mi < me, "intra {mi} not < inter {me}");
    }

    #[test]
    fn asymmetry_skews_directions() {
        let u = underlay(1.5);
        let (a, b) = (HostId(3), HostId(120));
        let ab = u.latency_directional_us(a, b).unwrap();
        let ba = u.latency_directional_us(b, a).unwrap();
        assert!(ba > ab);
        assert!((ba as f64 / ab as f64 - 1.5).abs() < 0.01);
    }

    #[test]
    fn measured_rtt_jitter_bounds() {
        let mut rng = SimRng::new(9);
        let mut u = underlay(1.0);
        u.config.jitter = 0.2;
        let (a, b) = (HostId(1), HostId(2));
        let truth = u.rtt_us(a, b).unwrap();
        for _ in 0..100 {
            let m = u.measured_rtt_us(a, b, &mut rng).unwrap();
            assert!(m >= truth && m as f64 <= truth as f64 * 1.2 + 1.0);
        }
    }

    #[test]
    fn unroutable_transfer_is_not_counted_as_local() {
        // Peering-only ring under valley-free policy: hosts more than one
        // peering hop apart are mutually unreachable. Their (impossible)
        // transfer must not inflate the intra-AS locality figure.
        let mut rng = SimRng::new(77);
        let graph =
            crate::gen::TopologySpec::new(crate::gen::TopologyKind::Ring { n: 5 }).build(&mut rng);
        let mut u = Underlay::build(
            graph,
            &crate::host::PopulationSpec::uniform(10),
            UnderlayConfig {
                routing: crate::routing::RoutingMode::ValleyFree,
                ..Default::default()
            },
            &mut rng,
        );
        let far = u
            .hosts
            .ids()
            .find(|&h| u.as_hops(HostId(0), h).is_none())
            .expect("ring has unreachable pairs under valley-free policy");
        let cat = u.account_transfer(SimTime::ZERO, HostId(0), far, 1_000);
        assert_eq!(cat, TrafficCategory::InterAsTransit);
        let (intra, _, _) = u.traffic.totals();
        assert_eq!(intra, 0);
    }

    #[test]
    fn traced_transfer_records_routing_decision() {
        let mut u = underlay(1.0);
        let mut tracer = uap_sim::Tracer::buffered(uap_sim::TraceLevel::Debug);
        // Find an inter-AS pair.
        let (a, b) = (0..200u32)
            .flat_map(|a| ((a + 1)..200u32).map(move |b| (HostId(a), HostId(b))))
            .find(|&(a, b)| !u.same_as(a, b))
            .unwrap();
        let cat = u.account_transfer_traced(SimTime::ZERO, a, b, 5_000, &mut tracer);
        u.trace_link_totals(SimTime::ZERO, &mut tracer);
        let events = tracer.events();
        let transfer = events.iter().find(|e| e.kind == "transfer").unwrap();
        assert_eq!(transfer.component, "net");
        assert!(transfer
            .fields
            .iter()
            .any(|(k, v)| k == "cat" && *v == uap_sim::trace::Value::Str(cat.name().into())));
        assert!(
            events.iter().any(|e| e.kind == "link.total"),
            "an inter-AS transfer must leave per-link totals"
        );
        // A disabled tracer records nothing and costs no path inspection.
        let mut off = uap_sim::Tracer::disabled();
        u.account_transfer_traced(SimTime::ZERO, a, b, 5_000, &mut off);
        assert_eq!(off.emitted(), 0);
    }

    /// First inter-AS host pair of the fixture (the route cache applies
    /// only to inter-AS queries).
    fn inter_as_pair(u: &Underlay) -> (HostId, HostId) {
        (0..200u32)
            .flat_map(|a| ((a + 1)..200u32).map(move |b| (HostId(a), HostId(b))))
            .find(|&(a, b)| !u.same_as(a, b))
            .expect("hierarchical fixture has inter-AS pairs")
    }

    #[test]
    #[should_panic(expected = "route cache stale")]
    fn coherence_assertion_catches_direct_routing_swap() {
        let mut u = underlay(1.0);
        let all_down = vec![true; u.graph.links.len()];
        u.routing = Routing::compute_indexed(&u.graph, u.config.routing, Some(&all_down));
        u.assert_route_cache_coherent();
    }

    #[test]
    fn fault_state_latency_inflation_scales_inter_as_paths() {
        let mut u = underlay(1.0);
        let (a, b) = inter_as_pair(&u);
        let lat0 = u.latency_us(a, b).unwrap();
        let mut state = crate::fault::FaultState::clear();
        state.latency_factor = 3.0;
        u.apply_fault_state(&state);
        let lat1 = u.latency_us(a, b).unwrap();
        assert!(
            lat1 > lat0,
            "inflation must slow inter-AS paths ({lat1} vs {lat0})"
        );
        // Clearing the fault restores the exact pre-fault metric.
        u.apply_fault_state(&crate::fault::FaultState::clear());
        assert_eq!(u.latency_us(a, b), Some(lat0));
        assert_eq!(u.route_cache_invalidations(), 2);
    }

    /// A deeper hierarchy than `underlay()` so localized faults dirty a
    /// small fraction of sources, plus a tier3–tier3 peering link to down.
    fn deep_underlay() -> (Underlay, usize) {
        let mut rng = SimRng::new(7);
        let spec = TopologySpec::new(TopologyKind::Hierarchical {
            tier1: 3,
            tier2_per_tier1: 4,
            tier3_per_tier2: 4,
            tier2_peering_prob: 0.4,
            tier3_peering_prob: 0.4,
        });
        let graph = spec.build(&mut rng);
        let li = graph
            .links
            .iter()
            .position(|l| {
                l.kind == crate::asgraph::LinkKind::Peering
                    && graph.nodes[l.a.idx()].tier == crate::asgraph::Tier::Tier3
                    && graph.nodes[l.b.idx()].tier == crate::asgraph::Tier::Tier3
            })
            .expect("fixture seed yields a tier3 peering link");
        let u = Underlay::build(
            graph,
            &PopulationSpec::leaf(300),
            UnderlayConfig::default(),
            &mut rng,
        );
        (u, li)
    }

    #[test]
    fn fault_epoch_on_leaf_peering_repairs_subset_of_sources() {
        // A tier3–tier3 peering link can only sit on its two endpoints'
        // shortest-path trees (any other source crossing it would form a
        // valley), so downing it must dirty exactly those two sources —
        // far under the 25% bound the incremental path is judged by.
        let (mut u, li) = deep_underlay();
        let n = u.n_ases();
        let mut state = crate::fault::FaultState::clear();
        let mut mask = vec![false; u.graph.links.len()];
        mask[li] = true;
        state.mask = Some(mask);
        let stats = u.apply_fault_state(&state);
        assert_eq!(stats.changed_links, 1);
        assert!(!stats.full_rebuild);
        assert_eq!(stats.sources_total, n);
        assert_eq!(stats.dirty_sources, 2, "leaf peering trees span 2 sources");
        assert!(stats.dirty_sources * 4 <= n);
        assert_eq!(u.repair_totals(), (2, n as u64, 0));
        // Healing is incremental too and restores the pristine table.
        let heal = u.apply_fault_state(&crate::fault::FaultState::clear());
        assert_eq!(heal.changed_links, 1);
        assert!(!heal.full_rebuild);
        assert!(heal.dirty_sources >= 2 && heal.dirty_sources * 2 <= n);
        let pristine = Routing::compute_indexed(&u.graph, u.config.routing, None);
        assert!(u.routing == pristine);
        assert_eq!(u.route_cache_invalidations(), 2);
    }

    #[test]
    fn delta_invalidation_refills_only_dirty_rows() {
        let (mut u, li) = deep_underlay();
        let n = u.n_ases();
        // Warm every entry via the eager initial build, then repair.
        let mut state = crate::fault::FaultState::clear();
        let mut mask = vec![false; u.graph.links.len()];
        mask[li] = true;
        state.mask = Some(mask);
        let stats = u.apply_fault_state(&state);
        assert!(!stats.full_rebuild);
        let stale = |s: usize| {
            let row = &u.route_cache.slots[s * n..(s + 1) * n];
            row.iter().all(|slot| slot.get() == STALE_SLOT)
        };
        let dirty: Vec<usize> = (0..n).filter(|&s| stale(s)).collect();
        assert_eq!(dirty.len(), stats.dirty_sources);
        assert!(dirty
            .iter()
            .copied()
            .eq(u.routing.dirty_sources().iter().map(|&s| s as usize)));
        // Scanning the whole AS-pair space refills exactly the dirty rows.
        assert_eq!(u.route_cache_refills(), 0);
        for s in 0..n {
            for d in 0..n {
                u.route_cache.lookup(
                    AsId::from_index(s),
                    AsId::from_index(d),
                    &u.routing,
                    u.latency_factor,
                );
            }
        }
        assert_eq!(u.route_cache_refills(), (dirty.len() * n) as u64);
        // A second scan is fully warm.
        for s in 0..n {
            for d in 0..n {
                u.route_cache.lookup(
                    AsId::from_index(s),
                    AsId::from_index(d),
                    &u.routing,
                    u.latency_factor,
                );
            }
        }
        assert_eq!(u.route_cache_refills(), (dirty.len() * n) as u64);
    }

    #[test]
    fn latency_only_epoch_invalidates_all_rows_lazily() {
        let (mut u, _) = deep_underlay();
        let (a, b) = inter_as_pair(&u);
        let lat0 = u.latency_us(a, b).unwrap();
        let mut state = crate::fault::FaultState::clear();
        state.latency_factor = 2.0;
        let stats = u.apply_fault_state(&state);
        // No link changed: zero sources recomputed, but the factor is
        // folded into the slots, so every slot must be stale.
        assert_eq!((stats.changed_links, stats.dirty_sources), (0, 0));
        let slots = &u.route_cache.slots;
        assert!(slots.iter().all(|slot| slot.get() == STALE_SLOT));
        let refills0 = u.route_cache_refills();
        let lat1 = u.latency_us(a, b).unwrap();
        assert!(lat1 > lat0);
        assert_eq!(u.route_cache_refills(), refills0 + 1, "must refill lazily");
        assert_eq!(u.latency_us(a, b), Some(lat1));
        assert_eq!(u.route_cache_refills(), refills0 + 1, "refills once");
    }

    /// A two-AS underlay whose one link is just under `u32::MAX` µs: its
    /// combined term fits a slot, and twice the term does not. Under a 2×
    /// factor the pair is read from its route record on every lookup,
    /// exactly, and each read counts a refill.
    #[test]
    fn a_term_past_the_slot_width_is_read_from_the_record_each_time() {
        let mut graph = AsGraph::new();
        for x in [0.0, 1.0] {
            let at = crate::geo::GeoPoint::new(x, 0.0);
            graph.add_as(crate::asgraph::Tier::Tier3, at, 10.0);
        }
        let link_us = u64::from(u32::MAX) - 1_000;
        graph.add_transit(AsId(0), AsId(1), link_us, 1_000.0);
        let mut rng = SimRng::new(3);
        let pop = PopulationSpec::uniform(200);
        let mut u = Underlay::build(graph, &pop, UnderlayConfig::default(), &mut rng);
        let (a, b) = inter_as_pair(&u);
        let access = u.host(a).access_latency_us + u.host(b).access_latency_us;
        let combined = link_us + PER_AS_HOP_US;
        assert_eq!(u.latency_us(a, b), Some(access + combined));
        assert_eq!(u.route_cache_refills(), 0);
        let mut state = crate::fault::FaultState::clear();
        state.latency_factor = 2.0;
        u.apply_fault_state(&state);
        for read in 1..=3 {
            assert_eq!(u.latency_us(a, b), Some(access + 2 * combined));
            assert_eq!(u.route_cache_refills(), read);
        }
        // Cleared, the term fits again: one refill, then cached.
        u.apply_fault_state(&crate::fault::FaultState::clear());
        for _ in 0..2 {
            assert_eq!(u.latency_us(a, b), Some(access + combined));
            assert_eq!(u.route_cache_refills(), 4);
        }
    }

    // One 4-byte route-cache slot per AS pair.
    const _: () = assert!(size_of::<Slot>() == 4);

    #[test]
    fn repair_totals_are_running_totals() {
        let (mut u, li) = deep_underlay();
        let mut state = crate::fault::FaultState::clear();
        let mut mask = vec![false; u.graph.links.len()];
        mask[li] = true;
        state.mask = Some(mask);
        u.apply_fault_state(&state);
        u.apply_fault_state(&crate::fault::FaultState::clear());
        let (recomputed, total, fallbacks) = u.repair_totals();
        assert_eq!(fallbacks, 0);
        assert!(
            recomputed < total / 4,
            "localized faults must stay incremental"
        );
    }

    /// The layer's degenerate inputs: a topology of one AS, and every link
    /// down and then cleared. The cache stays coherent at each step, the
    /// repaired table and index equal a fresh build, and a transfer that
    /// cannot be routed leaves the ledger as it was.
    #[test]
    fn one_as_and_all_links_down_stay_coherent() {
        let mut graph = crate::asgraph::AsGraph::new();
        graph.add_as(
            crate::asgraph::Tier::Tier3,
            crate::geo::GeoPoint::new(0.0, 0.0),
            10.0,
        );
        let mut rng = SimRng::new(5);
        let pop = PopulationSpec::uniform(8);
        let one = Underlay::build(graph, &pop, UnderlayConfig::default(), &mut rng);
        for mut u in [one, underlay(1.0)] {
            u.assert_route_cache_coherent();
            let (n, n_links) = (u.n_ases(), u.graph.links.len());
            let mut down = crate::fault::FaultState::clear();
            down.mask = Some(vec![true; n_links]);
            u.apply_fault_state(&down);
            u.assert_route_cache_coherent();
            let built = Routing::compute_indexed(&u.graph, u.config.routing, down.mask.as_deref());
            assert!(u.routing == built);
            let ledger = |u: &Underlay| {
                let t = &u.traffic;
                (
                    t.totals(),
                    t.transfers(),
                    t.per_link_bytes().collect::<Vec<_>>(),
                )
            };
            let before = ledger(&u);
            if n == 1 {
                let cat = u.account_transfer(SimTime::ZERO, HostId(0), HostId(1), 1_000);
                assert_eq!(cat, TrafficCategory::IntraAs);
            } else {
                let (from, to) = inter_as_pair(&u);
                let cat = u.account_transfer(SimTime::ZERO, from, to, 1_000);
                assert_eq!(cat, TrafficCategory::InterAsTransit);
                assert_eq!(ledger(&u), before);
            }
            u.apply_fault_state(&crate::fault::FaultState::clear());
            u.assert_route_cache_coherent();
            let built = Routing::compute_indexed(&u.graph, u.config.routing, None);
            assert!(u.routing == built);
            assert_eq!(u.routing.reachable_fraction(), 1.0);
        }
    }

    #[test]
    fn accounting_classifies_intra_vs_inter() {
        let mut u = underlay(1.0);
        // Find an intra-AS pair.
        let mut intra_pair = None;
        let mut inter_pair = None;
        for a in 0..200u32 {
            for b in (a + 1)..200u32 {
                let (a, b) = (HostId(a), HostId(b));
                if u.same_as(a, b) && intra_pair.is_none() {
                    intra_pair = Some((a, b));
                }
                if !u.same_as(a, b) && inter_pair.is_none() {
                    inter_pair = Some((a, b));
                }
            }
        }
        let (ia, ib) = intra_pair.unwrap();
        let (ea, eb) = inter_pair.unwrap();
        assert_eq!(
            u.account_transfer(SimTime::ZERO, ia, ib, 1_000),
            TrafficCategory::IntraAs
        );
        let cat = u.account_transfer(SimTime::ZERO, ea, eb, 1_000);
        assert_ne!(cat, TrafficCategory::IntraAs);
        assert!(u.traffic.locality_fraction() > 0.0);
        u.reset_traffic();
        assert_eq!(u.traffic.transfers(), 0);
    }
}
