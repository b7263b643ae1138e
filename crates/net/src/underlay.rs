//! The underlay façade.
//!
//! [`Underlay`] bundles the AS graph, its routing tables and the host
//! population into the single object overlays query: host-to-host latency,
//! AS-hop distance, path lookup and traffic accounting. It is the
//! "substrate on which the overlay resides".

use crate::asgraph::AsGraph;
use crate::gen::{TopologyKind, TopologySpec};
use crate::geo::propagation_delay_us;
use crate::host::{Host, HostPopulation, PopulationSpec};
use crate::ids::{AsId, HostId};
use crate::routing::{workers, RepairIndex, RepairStats, Routing, RoutingMode};
use crate::traffic::{TrafficAccounting, TrafficCategory};
use std::cell::Cell;
use uap_sim::{Metrics, SimRng, SimTime, TraceLevel, Tracer};

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
/// `u64::MAX` marks unreachable pairs.
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
/// Invalidation is **generation-stamped and per source row**: every
/// entry carries the generation of its `src` row at fill time and is
/// valid only while the two match, so bumping a row's generation lazily
/// invalidates its `n` entries in O(1). Incremental fault-epoch repairs
/// ([`Underlay::apply_fault_state`]) bump only the rows of sources whose
/// routing actually changed; untouched rows keep serving their filled
/// entries with no refill cost. Stale entries refill from the routing
/// table on next lookup (counted in `refills`).
///
/// Hit/miss counters use `Cell` so read-only latency queries (`&self`)
/// can record them; a "miss" is an intra-AS query answered by the
/// geographic model instead of the cache.
#[derive(Debug)]
struct RouteCache {
    n: usize,
    /// `n × n` entries, row-major by source AS: `combined_us`, or
    /// [`UNREACHABLE_ENTRY`]. `Cell` so stale entries can refill during
    /// read-only lookups.
    entries: Vec<Cell<u64>>,
    /// Fill generation per entry; valid iff it matches `row_gen[src]`.
    entry_gen: Vec<Cell<u32>>,
    /// Current generation per source row; bumping it invalidates the row.
    row_gen: Vec<u32>,
    hits: Cell<u64>,
    misses: Cell<u64>,
    /// Stale entries refilled on lookup since construction.
    refills: Cell<u64>,
}

/// Unreachable-pair sentinel (no path metric comes near `u64::MAX` µs).
const UNREACHABLE_ENTRY: u64 = u64::MAX;

impl RouteCache {
    /// Eagerly fills every entry (all generations valid at 0). The
    /// initial build is eager so coherence checks and first lookups never
    /// observe an unfilled cache; later invalidations are lazy.
    // lint:allow(alloc) — cache construction; runs once per full routing rebuild
    fn build(routing: &Routing, n: usize, latency_factor: f64) -> RouteCache {
        let mut entries = Vec::with_capacity(n * n);
        for s in 0..n {
            for d in 0..n {
                entries.push(Cell::new(Self::entry(
                    routing,
                    AsId::from_index(s),
                    AsId::from_index(d),
                    latency_factor,
                )));
            }
        }
        RouteCache {
            n,
            entries,
            entry_gen: vec![Cell::new(0); n * n],
            row_gen: vec![0; n],
            hits: Cell::new(0),
            misses: Cell::new(0),
            refills: Cell::new(0),
        }
    }

    /// Invalidates every source row (a change to the latency factor
    /// folded into the entries).
    fn invalidate_all_rows(&mut self) {
        for g in &mut self.row_gen {
            *g = g.wrapping_add(1);
        }
    }

    /// Invalidates one source row: its entries refill lazily on lookup.
    fn invalidate_row(&mut self, src: usize) {
        self.row_gen[src] = self.row_gen[src].wrapping_add(1);
    }

    /// The entry for one ordered AS pair, straight from the routing
    /// table — the ground truth the cache materializes and the coherence
    /// assertion recomputes.
    fn entry(routing: &Routing, src: AsId, dst: AsId, latency_factor: f64) -> u64 {
        match routing.route(src, dst) {
            None => UNREACHABLE_ENTRY,
            Some(r) => {
                let mut combined = r.latency_us + r.hops as u64 * PER_AS_HOP_US;
                if (latency_factor - 1.0).abs() > f64::EPSILON {
                    combined = (combined as f64 * latency_factor) as u64;
                }
                debug_assert!(combined < UNREACHABLE_ENTRY);
                combined
            }
        }
    }

    /// Reads the entry for an ordered AS pair, counting a hit.
    /// A generation-stale entry refills from the routing table first.
    #[inline]
    fn lookup(&self, src: AsId, dst: AsId, routing: &Routing, latency_factor: f64) -> u64 {
        self.hits.set(self.hits.get() + 1);
        let i = src.idx() * self.n + dst.idx();
        let gen = self.row_gen[src.idx()];
        if self.entry_gen[i].get() == gen {
            return self.entries[i].get();
        }
        let entry = Self::entry(routing, src, dst, latency_factor);
        self.entries[i].set(entry);
        self.entry_gen[i].set(gen);
        self.refills.set(self.refills.get() + 1);
        entry
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
    /// Repair bookkeeping for incremental fault-epoch routing updates
    /// (see [`RepairIndex`]).
    repair_index: RepairIndex,
    /// The link-failure mask the current routing table was built under
    /// (all-false = no faults), diffed against the next fault state's
    /// mask to find changed links.
    active_mask: Vec<bool>,
    /// Latency-inflation factor from the active fault state (1.0 = none),
    /// folded into the cache entries at (re)fill time.
    latency_factor: f64,
    /// How many fault epochs have invalidated route-cache rows.
    invalidations: u64,
    /// Running totals across fault epochs: sources recomputed vs the
    /// sources a full rebuild would have recomputed, and how often the
    /// majority-dirty heuristic forced a full rebuild.
    repair_sources_recomputed: u64,
    repair_sources_total: u64,
    repair_full_fallbacks: u64,
}

impl Underlay {
    /// Assembles an underlay from a generated graph and a population spec.
    pub fn build(
        graph: AsGraph,
        pop: &PopulationSpec,
        config: UnderlayConfig,
        rng: &mut SimRng,
    ) -> Underlay {
        let (routing, repair_index) = Routing::compute_indexed(&graph, config.routing, None);
        let hosts = HostPopulation::build(&graph, pop, rng);
        let traffic = TrafficAccounting::new(&graph);
        let route_cache = RouteCache::build(&routing, graph.len(), 1.0);
        let n_links = graph.links.len();
        Underlay {
            graph,
            routing,
            hosts,
            config,
            traffic,
            route_cache,
            repair_index,
            active_mask: vec![false; n_links],
            latency_factor: 1.0,
            invalidations: 0,
            repair_sources_recomputed: 0,
            repair_sources_total: 0,
            repair_full_fallbacks: 0,
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
    /// Returns the repair stats for telemetry
    /// (`net.routing.sources_recomputed` et al. via
    /// [`Underlay::export_repair_metrics`], `routing.repair` trace
    /// events at fault boundaries).
    pub fn apply_fault_state(&mut self, state: &crate::fault::FaultState) -> RepairStats {
        let factor_changed = (state.latency_factor - self.latency_factor).abs() > f64::EPSILON;
        self.latency_factor = state.latency_factor;
        let stats = self.routing.repair_with_mask(
            &mut self.repair_index,
            &self.graph,
            Some(&self.active_mask),
            state.mask.as_deref(),
            workers(),
        );
        match state.mask.as_deref() {
            Some(m) => self.active_mask.copy_from_slice(m),
            None => self.active_mask.fill(false),
        }
        if factor_changed {
            self.route_cache.invalidate_all_rows();
        } else {
            for &s in self.repair_index.dirty_sources() {
                self.route_cache.invalidate_row(s as usize);
            }
        }
        self.invalidations += 1;
        self.repair_sources_recomputed += stats.dirty_sources as u64;
        self.repair_sources_total += stats.sources_total as u64;
        if stats.full_rebuild {
            self.repair_full_fallbacks += 1;
        }
        #[cfg(debug_assertions)]
        self.assert_route_cache_coherent();
        stats
    }

    /// Verifies every *generation-valid* cache entry against a
    /// fresh routing-table computation — the debug-mode coherence
    /// assertion guarding fault epoch switches. Generation-stale entries
    /// are skipped: they refill from the live table on next lookup, so
    /// they cannot serve wrong answers. O(n²) route loads; debug builds
    /// only (called after every fault epoch) plus tests.
    ///
    /// # Panics
    ///
    /// Panics when any valid cached entry disagrees with the routing
    /// table.
    pub fn assert_route_cache_coherent(&self) {
        let n = self.graph.len();
        for s in 0..n {
            for d in 0..n {
                let i = s * self.route_cache.n + d;
                if self.route_cache.entry_gen[i].get() != self.route_cache.row_gen[s] {
                    continue; // lazily invalidated; refills on next lookup
                }
                let (src, dst) = (AsId::from_index(s), AsId::from_index(d));
                let want = RouteCache::entry(&self.routing, src, dst, self.latency_factor);
                let got = self.route_cache.entries[i].get();
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
        match self
            .route_cache
            .lookup(ha.asn, hb.asn, &self.routing, self.latency_factor)
        {
            UNREACHABLE_ENTRY => None,
            entry => Some(base + entry),
        }
    }

    /// Hit/miss counters of the AS-pair route cache: `(hits, misses)`.
    /// A hit is an inter-AS latency query served from the cache; a miss
    /// is an intra-AS query answered by the geographic model.
    pub fn route_cache_stats(&self) -> (u64, u64) {
        (self.route_cache.hits.get(), self.route_cache.misses.get())
    }

    /// Stale route-cache entries refilled on lookup so far (grows only
    /// after lazy invalidations, i.e. incremental fault-epoch repairs).
    pub fn route_cache_refills(&self) -> u64 {
        self.route_cache.refills.get()
    }

    /// Running `(sources_recomputed, sources_total, full_fallbacks)`
    /// totals across all fault epochs applied so far.
    pub fn repair_totals(&self) -> (u64, u64, u64) {
        (
            self.repair_sources_recomputed,
            self.repair_sources_total,
            self.repair_full_fallbacks,
        )
    }

    /// Exports the route-cache counters into `metrics` as
    /// `net.route_cache.hit` / `net.route_cache.miss` /
    /// `net.route_cache.invalidations` absolute values.
    /// Opt-in (call at end of run) so existing experiment reports keep
    /// their byte-identical metric sets unless they ask for these.
    pub fn export_route_cache_metrics(&self, metrics: &mut Metrics) {
        let (hits, misses) = self.route_cache_stats();
        metrics.set_counter("net.route_cache.hit", hits);
        metrics.set_counter("net.route_cache.miss", misses);
        metrics.set_counter("net.route_cache.invalidations", self.invalidations);
    }

    /// Exports the incremental-repair counters into `metrics` as
    /// `net.routing.sources_recomputed` / `net.routing.sources_total` /
    /// `net.routing.repair_full_fallbacks` absolute values. Opt-in, like
    /// [`Underlay::export_route_cache_metrics`]; the recomputed/total
    /// ratio is the fraction of per-source Dijkstra work fault epochs
    /// actually paid versus full rebuilds.
    pub fn export_repair_metrics(&self, metrics: &mut Metrics) {
        metrics.set_counter(
            "net.routing.sources_recomputed",
            self.repair_sources_recomputed,
        );
        metrics.set_counter("net.routing.sources_total", self.repair_sources_total);
        metrics.set_counter(
            "net.routing.repair_full_fallbacks",
            self.repair_full_fallbacks,
        );
    }

    /// Directional latency including the asymmetry factor: the `a -> b`
    /// direction is the base latency, `b -> a` is scaled. Asymmetry is
    /// keyed on host-id order so it is consistent across calls.
    #[inline]
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

    /// Round-trip time in microseconds (sum of both directions): one
    /// host fetch per endpoint and both directional latencies from the
    /// already-loaded records.
    ///
    /// Byte-for-byte equivalent to
    /// `latency_directional_us(a, b)? + latency_directional_us(b, a)?`,
    /// including hit/miss counter effects and their ordering.
    #[inline]
    pub fn rtt_us(&self, a: HostId, b: HostId) -> Option<u64> {
        if a == b {
            return Some(0);
        }
        let ha = self.hosts.host(a);
        let hb = self.hosts.host(b);
        let base = ha.access_latency_us + hb.access_latency_us;
        let (lat_ab, lat_ba) = if ha.asn == hb.asn {
            self.route_cache.note_miss();
            self.route_cache.note_miss();
            // Geographic distance is symmetric, so both directions share
            // the same base latency.
            let l = base + propagation_delay_us(ha.geo.distance_km(&hb.geo));
            (l, l)
        } else {
            let fwd = self
                .route_cache
                .lookup(ha.asn, hb.asn, &self.routing, self.latency_factor);
            if fwd == UNREACHABLE_ENTRY {
                return None;
            }
            let rev = self
                .route_cache
                .lookup(hb.asn, ha.asn, &self.routing, self.latency_factor);
            if rev == UNREACHABLE_ENTRY {
                return None;
            }
            (base + fwd, base + rev)
        };
        if (self.config.asymmetry - 1.0).abs() < f64::EPSILON {
            return Some(lat_ab + lat_ba);
        }
        // Replicate latency_directional_us exactly: the larger-id →
        // smaller-id direction is scaled.
        let dir_ab = if a.0 > b.0 {
            (lat_ab as f64 * self.config.asymmetry) as u64
        } else {
            lat_ab
        };
        let dir_ba = if b.0 > a.0 {
            (lat_ba as f64 * self.config.asymmetry) as u64
        } else {
            lat_ba
        };
        Some(dir_ab + dir_ba)
    }

    /// An RTT *measurement*: the true RTT plus multiplicative jitter. This
    /// is what a ping observes; coordinate systems embed these noisy values.
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
        let src_as = self.hosts.as_of(from);
        let dst_as = self.hosts.as_of(to);
        if src_as == dst_as {
            return self.traffic.record(&self.graph, now, src_as, &[], bytes);
        }
        match self.routing.path_links(src_as, dst_as) {
            Some(path) => self.traffic.record(&self.graph, now, src_as, path, bytes),
            // Unroutable pair (disconnected graph, or valley-free policy
            // with no compliant path): the transfer cannot happen, so no
            // link carries the bytes — but it must NOT be mistaken for
            // local traffic.
            None => TrafficCategory::InterAsTransit,
        }
    }

    /// Like [`Underlay::account_transfer`], but also emits a `net`/`transfer`
    /// trace event (Debug level) recording the routing decision: endpoint
    /// hosts and ASes, byte count, traffic category, and the number of
    /// links / transit links the valley-free path crossed. The route is
    /// resolved twice when the tracer is enabled — once by the accounting,
    /// once more for the trace fields, an indexed read of the pair's
    /// precomputed summary rather than a second path walk.
    pub fn account_transfer_traced(
        &mut self,
        now: SimTime,
        from: HostId,
        to: HostId,
        bytes: u64,
        tracer: &mut Tracer,
    ) -> TrafficCategory {
        let cat = self.account_transfer(now, from, to, bytes);
        if tracer.is_enabled(TraceLevel::Debug) {
            let src_as = self.hosts.as_of(from);
            let dst_as = self.hosts.as_of(to);
            let (links, transit) = if src_as == dst_as {
                (0, 0)
            } else {
                match self.routing.route(src_as, dst_as) {
                    Some(r) => (r.hops, r.transit_links),
                    None => (0, 0),
                }
            };
            tracer.emit(now, "net", TraceLevel::Debug, "transfer", |f| {
                f.u64("from", from.0 as u64)
                    .u64("to", to.0 as u64)
                    .u64("src_as", src_as.idx() as u64)
                    .u64("dst_as", dst_as.idx() as u64)
                    .u64("bytes", bytes)
                    .str("cat", cat.name())
                    .u64("links", links as u64)
                    .u64("transit", transit as u64);
            });
        }
        cat
    }

    /// Emits one `net`/`link.total` trace event (Debug level) per link
    /// that carried traffic, capturing the per-link byte distribution at
    /// the moment of the call (typically end of run).
    pub fn trace_link_totals(&self, now: SimTime, tracer: &mut Tracer) {
        if !tracer.is_enabled(TraceLevel::Debug) {
            return;
        }
        let per_link = self.traffic.per_link_bytes();
        for (li, (link, &bytes)) in self.graph.links.iter().zip(per_link).enumerate() {
            if bytes == 0 {
                continue;
            }
            tracer.emit(now, "net", TraceLevel::Debug, "link.total", |f| {
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
        assert_eq!(off.len(), 0);
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
        u.routing = Routing::compute_indexed(&u.graph, u.config.routing, Some(&all_down)).0;
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
        let pristine = Routing::compute(&u.graph, u.config.routing);
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
        let dirty: Vec<usize> = (0..n).filter(|&s| u.route_cache.row_gen[s] != 0).collect();
        assert_eq!(dirty.len(), stats.dirty_sources);
        // Scanning the whole AS-pair space refills exactly the dirty rows.
        assert_eq!(u.route_cache_refills(), 0);
        for s in 0..n {
            for d in 0..n {
                u.route_cache
                    .lookup(AsId(s as u16), AsId(d as u16), &u.routing, u.latency_factor);
            }
        }
        assert_eq!(u.route_cache_refills(), (dirty.len() * n) as u64);
        // A second scan is fully warm.
        for s in 0..n {
            for d in 0..n {
                u.route_cache
                    .lookup(AsId(s as u16), AsId(d as u16), &u.routing, u.latency_factor);
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
        // folded into entries, so every row must be invalidated.
        assert_eq!((stats.changed_links, stats.dirty_sources), (0, 0));
        let refills0 = u.route_cache_refills();
        let lat1 = u.latency_us(a, b).unwrap();
        assert!(lat1 > lat0);
        assert!(u.route_cache_refills() > refills0, "must refill lazily");
    }

    #[test]
    fn export_repair_metrics_reports_running_totals() {
        let (mut u, li) = deep_underlay();
        let mut state = crate::fault::FaultState::clear();
        let mut mask = vec![false; u.graph.links.len()];
        mask[li] = true;
        state.mask = Some(mask);
        u.apply_fault_state(&state);
        u.apply_fault_state(&crate::fault::FaultState::clear());
        let mut metrics = Metrics::new();
        u.export_repair_metrics(&mut metrics);
        let (recomputed, total, fallbacks) = u.repair_totals();
        assert_eq!(
            metrics.counter("net.routing.sources_recomputed"),
            recomputed
        );
        assert_eq!(metrics.counter("net.routing.sources_total"), total);
        assert_eq!(
            metrics.counter("net.routing.repair_full_fallbacks"),
            fallbacks
        );
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
            assert!((&u.routing, &u.repair_index) == (&built.0, &built.1));
            let ledger = |u: &Underlay| {
                let t = &u.traffic;
                (t.totals(), t.transfers(), t.per_link_bytes().to_vec())
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
            assert!((&u.routing, &u.repair_index) == (&built.0, &built.1));
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
