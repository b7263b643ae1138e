//! The event-driven Gnutella simulation.
//!
//! Joins, leaves (churn), periodic ping cycles, user queries and the
//! file-exchange stage are events on the `uap-sim` engine; the flood
//! mechanics themselves run synchronously inside an event (per-message
//! events would multiply the event count by orders of magnitude without
//! changing any reported quantity — a QueryHit's delay is read from the
//! underlay along the flood's BFS tree instead).

use crate::config::{GnutellaConfig, RoleAssignment, ShareScheme};
use crate::content::{ContentModel, FileId, Holders};
use crate::hostcache::HostCache;
use crate::overlay::{push_if, Overlay, Role};
use crate::report::GnutellaReport;
use crate::selection::Selector;
use uap_info::Oracle;
use uap_net::{CompiledFaultPlan, FlowAllocator, HostId, TrafficCategory, Underlay};
use uap_sim::{trace::registry, ChurnModel, Ctx, SimTime, Simulator, Tracer, World};

/// Pong records returned per answered ping (pong caching serves several
/// known hosts per reply; Gnutella 0.6 uses up to 10).
const PONGS_PER_REPLY: u64 = 10;
/// Leaf→ultrapeer attachment count.
const LEAF_DEGREE: usize = 2;
/// TTL of discovery ping floods.
const PING_TTL: u32 = 2;
/// Interval between a node's ping cycles.
const PING_INTERVAL: SimTime = SimTime::from_secs(60);
/// Mean inter-query time per node (exponential).
const QUERY_INTERVAL: SimTime = SimTime::from_secs(120);
/// Size of an exchanged file in bytes: 4 MiB, a 2008-era MP3/clip.
const FILE_SIZE_BYTES: u64 = 4 << 20;
/// TCP receive window in bytes; caps a download at `window / RTT`, which
/// is what makes nearby sources *faster*, not just cheaper.
const TCP_WINDOW_BYTES: u64 = 256 * 1024;

/// Simulation events.
#[derive(Debug, Clone, Copy)]
pub enum Ev {
    /// Churn transition for a host (join if offline, leave if online).
    Churn(HostId),
    /// Periodic discovery ping. The second field is the session epoch the
    /// cycle belongs to; cycles from ended sessions are dropped.
    PingCycle(HostId, u32),
    /// User issues a query (with session epoch).
    QueryCycle(HostId, u32),
    /// Neighbor-set repair after losing connections.
    Repair(HostId),
    /// Fault-plan epoch boundary (index into the compiled plan's sorted
    /// boundary list): rebuild routing, invalidate the route cache, and
    /// crash/restart the affected hosts.
    Fault(u32),
}

/// The simulation world.
pub struct GnutellaSim {
    /// The underlay (owned; its traffic ledger accumulates the run).
    pub underlay: Underlay,
    /// The overlay graph.
    pub overlay: Overlay,
    cfg: GnutellaConfig,
    content: ContentModel,
    selector: Selector,
    exchange_oracle: Oracle,
    /// Files each host shares (sorted); fixed for the run.
    shared: Vec<Vec<FileId>>,
    /// `shared` indexed by file: the QueryHit test.
    holders: Holders,
    hostcache: Vec<HostCache>,
    churn: Vec<ChurnModel>,
    epoch: Vec<u32>,
    /// Summed first-hit times of the timed queries, and their count.
    query_delay_sum_ms: f64,
    timed_queries: u64,
    download_secs_sum: f64,
    /// Compiled fault campaign (None = fault-free run).
    faults: Option<CompiledFaultPlan>,
    /// Hosts currently down because of a `HostCrash` fault epoch — a
    /// crashed host stays off the overlay regardless of its churn state.
    crashed: Vec<bool>,
    /// Per-query outcome log `(time, found a provider)` — the raw series
    /// the resilience experiment buckets into recovery curves.
    query_log: Vec<(SimTime, bool)>,
    /// Per-download outcome log `(time, completed)`, including re-sourced
    /// and abandoned downloads.
    download_log: Vec<(SimTime, bool)>,
    /// `seq` of the most recent `fault.epoch` trace event — the cause
    /// anchor for recovery events (download retries point at the epoch
    /// that made their source unreachable).
    last_fault_seq: Option<u64>,
    /// Max-min bandwidth allocator: each download is modeled as a single
    /// flow so its rate respects both access links and the AS links on
    /// its path (see docs/BANDWIDTH.md).
    flows: FlowAllocator,
    next_flow_id: u64,
    /// Hot-path scratch buffers, reused across events (taken with
    /// `std::mem::take` around calls that need `&mut self`) so the
    /// per-event bodies stay allocation-free (`tests/alloc_count.rs`
    /// counts them).
    scratch_flood: crate::overlay::FloodResult,
    scratch_providers: Vec<HostId>,
    scratch_candidates: Vec<HostId>,
    scratch_picked: Vec<HostId>,
    scratch_neighbors: Vec<HostId>,
    scratch_tried: Vec<HostId>,
}

impl GnutellaSim {
    /// Builds the world and schedules the bootstrap events.
    pub fn new(underlay: Underlay, cfg: GnutellaConfig, sim: &mut Simulator<Ev>) -> GnutellaSim {
        let n = underlay.n_hosts();
        let content = ContentModel::new(
            cfg.content.n_files,
            underlay.n_ases(),
            cfg.content.zipf_s,
            cfg.content.locality,
        );
        let mut overlay = Overlay::new(n);
        // Role assignment.
        match &cfg.roles {
            RoleAssignment::AllUltrapeers => {}
            RoleAssignment::EveryKth(k) => {
                let k = (*k).max(1);
                for i in 0..n {
                    if i % k != 0 {
                        overlay.set_role(HostId::from_index(i), Role::Leaf);
                    }
                }
            }
            RoleAssignment::CapacityTopFraction(frac) => {
                let mut by_cap: Vec<HostId> = underlay.hosts.ids().collect();
                by_cap.sort_by(|&a, &b| {
                    underlay
                        .host(b)
                        .capacity_score()
                        .total_cmp(&underlay.host(a).capacity_score())
                        .then(a.cmp(&b))
                });
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "float → int `as` saturates, and the clamp keeps it in 1..=n"
                )]
                let n_up = ((n as f64 * frac).ceil() as usize).clamp(1, n);
                for &h in by_cap.iter().skip(n_up) {
                    overlay.set_role(h, Role::Leaf);
                }
            }
        }
        let rng = sim.rng();
        // Content seeding: each peer shares what its region fetches.
        let shared: Vec<Vec<FileId>> = (0..n)
            .map(|i| {
                let h = HostId::from_index(i);
                let asn = underlay.hosts.as_of(h);
                let count = match cfg.share_scheme {
                    ShareScheme::Uniform => cfg.shared_per_peer,
                    ShareScheme::Variable => match overlay.role(h) {
                        Role::Ultrapeer => cfg.shared_per_peer * 2,
                        Role::Leaf if i % 2 == 0 => cfg.shared_per_peer,
                        Role::Leaf => 0,
                    },
                };
                content.seed_shares(asn, count, rng)
            })
            .collect();
        // Static bootstrap hostcaches: a random membership sample, "filled
        // with a random subset of the network nodes' IP addresses" as in
        // the testlab study.
        let hostcache: Vec<HostCache> = (0..n)
            .map(|i| {
                let me = HostId::from_index(i);
                let sample = rng.sample_indices(n, cfg.hostcache_size + 1);
                // Not `from_index`: a cache as large as the membership makes
                // this hosts² conversions, and checking each one measured
                // +20 % on `gnutella_selection`'s set-up.
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "x < n, the size of a population indexed by u32 ids"
                )]
                let others = sample
                    .into_iter()
                    .map(|x| HostId(x as u32))
                    .filter(|&h| h != me);
                HostCache::new(cfg.hostcache_size, n, others)
            })
            .collect();
        let holders = Holders::new(content.n_files(), &shared);
        let churn: Vec<ChurnModel> = (0..n).map(|_| ChurnModel::start(&cfg.churn, rng)).collect();
        let selector = Selector::new(cfg.selection.clone());
        let exchange_oracle = Oracle::new(usize::MAX);

        // Role census: how the promotion policy split the population
        // (CapacityTopFraction is the capacity-ranked ultrapeer promotion).
        let ultrapeers = (0..n)
            .filter(|&i| overlay.role(HostId::from_index(i)) == Role::Ultrapeer)
            .count();
        sim.tracer_mut()
            .emit(SimTime::ZERO, registry::GNUTELLA_ROLES, |f| {
                f.u64("hosts", n as u64)
                    .u64("ultrapeers", ultrapeers as u64)
                    .u64("leaves", (n - ultrapeers) as u64);
            });

        let faults = cfg.faults.as_ref().map(|p| p.compile(&underlay.graph, n));
        let flows = FlowAllocator::new(&underlay);
        let mut world = GnutellaSim {
            underlay,
            overlay,
            cfg,
            content,
            selector,
            exchange_oracle,
            shared,
            holders,
            hostcache,
            churn,
            epoch: vec![0; n],
            query_delay_sum_ms: 0.0,
            timed_queries: 0,
            download_secs_sum: 0.0,
            faults,
            crashed: vec![false; n],
            query_log: Vec::new(),
            download_log: Vec::new(),
            last_fault_seq: None,
            flows,
            next_flow_id: 0,
            scratch_flood: crate::overlay::FloodResult::default(),
            scratch_providers: Vec::new(),
            scratch_candidates: Vec::new(),
            scratch_picked: Vec::new(),
            scratch_neighbors: Vec::new(),
            scratch_tried: Vec::new(),
        };
        world.bootstrap(sim);
        world
    }

    #[expect(clippy::indexing_slicing, reason = "i < n_hosts = churn.len()")]
    fn bootstrap(&mut self, sim: &mut Simulator<Ev>) {
        let n = self.underlay.n_hosts();
        for i in 0..n {
            let h = HostId::from_index(i);
            if self.churn[i].is_online() {
                // Stagger initial joins over the first minute so early
                // joiners have someone to connect to and later ones see a
                // grown network.
                let t = SimTime::from_micros(sim.rng().below(60_000_000));
                sim.schedule_at(t, Ev::Churn(h));
            } else {
                let t = self.churn[i].next_transition();
                if t != SimTime::MAX {
                    sim.schedule_at(t, Ev::Churn(h));
                }
            }
        }
        if let Some(plan) = &self.faults {
            plan.schedule(sim, Ev::Fault);
        }
    }

    /// Enters one epoch boundary ([`uap_net::fault::enter_boundary`]:
    /// routing repair, route-cache invalidation, the `fault.epoch` and
    /// `routing.repair` events), then applies the boundary's crash flips
    /// in host order (newly crashed hosts drop off the overlay, restored
    /// hosts rejoin if their churn state allows).
    #[expect(
        clippy::indexing_slicing,
        reason = "the plan was compiled for this population: h < n_hosts"
    )]
    fn fault_boundary(&mut self, idx: usize, ctx: &mut Ctx<'_, Ev>) {
        // Out of `self` while `leave` and `join` borrow it mutably.
        let Some(plan) = self.faults.take() else {
            return;
        };
        let (_, fault_seq) = uap_net::fault::enter_boundary(&mut self.underlay, &plan, idx, ctx);
        // The epoch is the cause anchor: everything this boundary
        // triggers — leaves, crash restores, the Repair events they
        // schedule, and later download retries — points back at it.
        self.last_fault_seq = fault_seq.or(self.last_fault_seq);
        for &(h, crashed) in plan.crash_flips(idx) {
            self.crashed[h.idx()] = crashed;
            if crashed {
                self.leave(h, ctx);
            } else if self.churn[h.idx()].is_online() {
                self.join(h, ctx);
            }
        }
        self.faults = Some(plan);
    }

    #[expect(clippy::indexing_slicing, reason = "one slot per host of the underlay")]
    fn join(&mut self, h: HostId, ctx: &mut Ctx<'_, Ev>) {
        if self.overlay.is_online(h) || self.crashed[h.idx()] {
            return;
        }
        self.overlay.set_online(h, true);
        self.epoch[h.idx()] += 1;
        let ep = self.epoch[h.idx()];
        ctx.metrics.incr("gnutella.joins", 1);
        ctx.trace(registry::GNUTELLA_JOIN, |f| {
            f.u64("host", h.0 as u64).u64("epoch", ep as u64);
        });
        self.connect(h, ctx);
        // Kick off this node's periodic cycles with a random phase.
        let ping_phase = SimTime::from_micros(ctx.rng.below(PING_INTERVAL.as_micros()));
        ctx.schedule_in(ping_phase, Ev::PingCycle(h, ep));
        let q = SimTime::from_secs_f64(ctx.rng.exp(QUERY_INTERVAL.as_secs_f64()));
        ctx.schedule_in(q, Ev::QueryCycle(h, ep));
    }

    /// (Re)fills a node's neighbor set from its hostcache using the
    /// configured selection policy.
    #[expect(clippy::indexing_slicing, reason = "one slot per host of the underlay")]
    fn connect(&mut self, h: HostId, ctx: &mut Ctx<'_, Ev>) {
        let target = match self.overlay.role(h) {
            Role::Ultrapeer => self.cfg.up_degree,
            Role::Leaf => LEAF_DEGREE,
        };
        let have = self.overlay.degree(h);
        if have >= target {
            return;
        }
        // Candidates: online ultrapeers from the hostcache (both roles
        // attach to ultrapeers only), not already neighbors. Under churn
        // about half the cache is offline, in no learnable pattern.
        let mut candidates = std::mem::take(&mut self.scratch_candidates);
        candidates.clear();
        let neighbors = self.overlay.neighbors(h);
        for c in self.hostcache[h.idx()].iter() {
            let eligible = (c != h)
                & self.overlay.is_online(c)
                & (self.overlay.role(c) == Role::Ultrapeer)
                & !neighbors.contains(&c);
            push_if(&mut candidates, c, eligible);
        }
        if candidates.is_empty() {
            self.scratch_candidates = candidates;
            return;
        }
        let mut picked = std::mem::take(&mut self.scratch_picked);
        self.selector.select_into(
            &self.underlay,
            h,
            &candidates,
            target - have,
            ctx.rng,
            &mut picked,
        );
        for &p in &picked {
            self.overlay.add_edge(h, p);
        }
        self.scratch_candidates = candidates;
        self.scratch_picked = picked;
    }

    fn leave(&mut self, h: HostId, ctx: &mut Ctx<'_, Ev>) {
        if !self.overlay.is_online(h) {
            return;
        }
        let mut neighbors = std::mem::take(&mut self.scratch_neighbors);
        neighbors.clear();
        neighbors.extend_from_slice(self.overlay.neighbors(h));
        self.overlay.set_online(h, false);
        ctx.trace(registry::GNUTELLA_LEAVE, |f| {
            f.u64("host", h.0 as u64)
                .u64("neighbors", neighbors.len() as u64);
        });
        // Neighbors notice the dead connection after a detection delay and
        // repair their degree.
        for &nb in &neighbors {
            ctx.schedule_in(SimTime::from_secs(5), Ev::Repair(nb));
        }
        self.scratch_neighbors = neighbors;
    }

    #[expect(clippy::indexing_slicing, reason = "one slot per host of the underlay")]
    fn ping_cycle(&mut self, h: HostId, ep: u32, ctx: &mut Ctx<'_, Ev>) {
        if !self.overlay.is_online(h) || self.epoch[h.idx()] != ep {
            return;
        }
        let mut flood = std::mem::take(&mut self.scratch_flood);
        self.overlay.flood_into(h, PING_TTL, &mut flood);
        ctx.metrics.incr("gnutella.msg.ping", flood.messages);
        let mut pongs = 0u64;
        for r in &flood.reached {
            // Each reached node answers with pong-cache records (several
            // pong messages) routed back over `hops` overlay links.
            pongs += r.hops as u64 * PONGS_PER_REPLY;
        }
        ctx.metrics.incr("gnutella.msg.pong", pongs);
        ctx.trace(registry::GNUTELLA_FLOOD_PING, |f| {
            f.u64("host", h.0 as u64)
                .u64("msgs", flood.messages)
                .u64("reached", flood.reached.len() as u64)
                .u64("pongs", pongs);
        });
        // Refresh the hostcache from the pongs: unknown hosts are appended
        // in flood order, the oldest entries of a full cache make room.
        self.hostcache[h.idx()].refresh(h, &flood.reached);
        self.scratch_flood = flood;
        // Periodic self-reschedule with root provenance: each cycle is a
        // fresh causal root, not a descendant of every cycle before it.
        ctx.schedule_in_root(PING_INTERVAL, Ev::PingCycle(h, ep));
    }

    #[expect(clippy::indexing_slicing, reason = "one slot per host of the underlay")]
    fn query_cycle(&mut self, h: HostId, ep: u32, ctx: &mut Ctx<'_, Ev>) {
        if !self.overlay.is_online(h) || self.epoch[h.idx()] != ep {
            return;
        }
        // Exactly one pending QueryCycle per online session: reschedule
        // here, success or not (root provenance — see ping_cycle).
        let next = SimTime::from_secs_f64(ctx.rng.exp(QUERY_INTERVAL.as_secs_f64()));
        ctx.schedule_in_root(next, Ev::QueryCycle(h, ep));
        let asn = self.underlay.hosts.as_of(h);
        let file = self.content.sample_interest(asn, ctx.rng);
        ctx.metrics.incr("gnutella.queries", 1);
        // Open the query span: it covers the flood, QueryHit routing,
        // source selection and the download (including retries). The id
        // comes from the tracer's deterministic counter, so allocating it
        // unconditionally keeps traces byte-identical per seed.
        let span = ctx.tracer.alloc_span();
        let prev_prov = ctx.tracer.provenance();
        ctx.tracer.set_span(Some(span));
        ctx.trace(registry::GNUTELLA_SPAN_OPEN, |f| {
            f.str("span_kind", "query")
                .u64("host", h.0 as u64)
                .u64("file", file.0 as u64);
        });
        let mut flood = std::mem::take(&mut self.scratch_flood);
        self.overlay.flood_into(h, self.cfg.query_ttl, &mut flood);
        ctx.metrics.incr("gnutella.msg.query", flood.messages);
        // Hits: reached nodes sharing the file reply with a QueryHit routed
        // back over their hop distance; they are the download's providers.
        // A hit's delay is read from the underlay now (none if a hop is cut).
        let mut providers = std::mem::take(&mut self.scratch_providers);
        providers.clear();
        let mut hit_msgs = 0u64;
        let mut nearest_hit_us: Option<u64> = None;
        let holders = self.holders.of_file(file);
        for (i, r) in flood.reached.iter().enumerate() {
            let hit = holders.contains(r.host);
            debug_assert_eq!(
                hit,
                self.shared[r.host.idx()].binary_search(&file).is_ok(),
                "holder index disagrees with {}'s share list on {file:?}",
                r.host
            );
            if hit {
                providers.push(r.host);
                hit_msgs += r.hops as u64;
                if let Some(us) = flood.path_latency_us(&self.underlay, h, i) {
                    nearest_hit_us = Some(nearest_hit_us.map_or(us, |best| best.min(us)));
                }
            }
        }
        ctx.metrics.incr("gnutella.msg.queryhit", hit_msgs);
        ctx.trace(registry::GNUTELLA_FLOOD_QUERY, |f| {
            f.u64("host", h.0 as u64)
                .u64("file", file.0 as u64)
                .u64("msgs", flood.messages)
                .u64("reached", flood.reached.len() as u64)
                .u64("hits", providers.len() as u64);
        });
        self.scratch_flood = flood;
        self.query_log.push((ctx.now(), !providers.is_empty()));
        if providers.is_empty() {
            self.scratch_providers = providers;
            ctx.trace(registry::GNUTELLA_SPAN_CLOSE, |f| {
                f.str("span_kind", "query")
                    .bool("hit", false)
                    .u64("dur_us", 0);
            });
            ctx.tracer.set_provenance(prev_prov);
            return;
        }
        ctx.metrics.incr("gnutella.queries.success", 1);
        // Time to first hit: query out + hit back over the same tree path.
        let first_hit_us = nearest_hit_us.map(|us| 2 * us);
        if let Some(us) = first_hit_us {
            self.query_delay_sum_ms += us as f64 / 1_000.0;
            self.timed_queries += 1;
        }
        // File-exchange stage: choose the provider.
        #[expect(
            clippy::expect_used,
            reason = "only queries with hits reach this stage"
        )]
        let provider = if self.cfg.oracle_at_file_exchange {
            self.exchange_oracle
                .best(&self.underlay, h, &providers)
                .expect("non-empty providers")
        } else if self.cfg.bandwidth_aware_source {
            *providers
                .iter()
                .max_by_key(|&&p| (self.underlay.host(p).up_kbps, p))
                .expect("non-empty providers")
        } else {
            *ctx.rng.pick(&providers)
        };
        let secs_before = self.download_secs_sum;
        self.download(h, provider, &providers, ctx);
        self.scratch_providers = providers;
        // Modeled end-to-end duration: time to the first QueryHit (none
        // for an untimed query) plus the transfer time of the (possibly
        // re-sourced) download. Spans in this overlay are synchronous
        // within one event, so the close carries the modeled latency
        // explicitly rather than a sim-time delta (`exp trace spans`
        // prefers `dur_us` when present).
        #[expect(
            clippy::cast_possible_truncation,
            reason = "float → int `as` saturates; a download lasts far under 2^64 µs"
        )]
        let dur_us =
            first_hit_us.unwrap_or(0) + ((self.download_secs_sum - secs_before) * 1e6) as u64;
        ctx.trace(registry::GNUTELLA_SPAN_CLOSE, |f| {
            f.str("span_kind", "query")
                .bool("hit", true)
                .u64("dur_us", dur_us);
        });
        ctx.tracer.set_provenance(prev_prov);
    }

    /// File exchange with re-sourcing: tries the policy-chosen provider
    /// first and, on transfer failure (source unreachable under the active
    /// fault mask), falls back to the remaining QueryHit sources in
    /// underlay-aware order (fewest AS hops first), up to
    /// `cfg.download_retries` alternates before abandoning the download.
    fn download(
        &mut self,
        downloader: HostId,
        provider: HostId,
        providers: &[HostId],
        ctx: &mut Ctx<'_, Ev>,
    ) {
        let bytes = FILE_SIZE_BYTES;
        let mut tried = std::mem::take(&mut self.scratch_tried);
        tried.clear();
        tried.push(provider);
        let mut current = provider;
        loop {
            let secs = self.flow_secs(current, downloader, bytes, ctx);
            if let Some(s) = secs {
                let cat = self.underlay.account_transfer_traced(
                    ctx.now(),
                    current,
                    downloader,
                    bytes,
                    ctx.tracer,
                );
                ctx.metrics.incr("gnutella.downloads", 1);
                if cat == TrafficCategory::IntraAs {
                    ctx.metrics.incr("gnutella.downloads.intra_as", 1);
                }
                self.download_secs_sum += s;
                ctx.trace(registry::GNUTELLA_DOWNLOAD, |f| {
                    f.u64("downloader", downloader.0 as u64)
                        .u64("provider", current.0 as u64)
                        .u64("bytes", bytes)
                        .str("cat", cat.name())
                        .f64("secs", s);
                });
                self.download_log.push((ctx.now(), true));
                break;
            }
            // Transfer failure. Pick the closest untried QueryHit source
            // (AS hops, then host id — deterministic, no extra RNG draws).
            let next = if tried.len() > self.cfg.download_retries {
                None
            } else {
                providers
                    .iter()
                    .copied()
                    .filter(|p| !tried.contains(p))
                    .min_by_key(|&p| {
                        (
                            self.underlay.as_hops(downloader, p).unwrap_or(u32::MAX),
                            p.0,
                        )
                    })
            };
            match next {
                None => {
                    self.download_log.push((ctx.now(), false));
                    break;
                }
                Some(p) => {
                    // The retry is caused by the fault epoch that took the
                    // source down; whatever follows it (the re-sourced
                    // download, or the next retry) is caused by the retry.
                    ctx.tracer.set_cause(self.last_fault_seq);
                    let retry_seq = ctx.trace(registry::GNUTELLA_DOWNLOAD_RETRY, |f| {
                        f.u64("downloader", downloader.0 as u64)
                            .u64("failed", current.0 as u64)
                            .u64("alternate", p.0 as u64)
                            .u64("attempt", tried.len() as u64);
                    });
                    ctx.tracer.set_cause(retry_seq.or(self.last_fault_seq));
                    tried.push(p);
                    current = p;
                }
            }
        }
        self.scratch_tried = tried;
    }

    /// Models one download as a single flow through the max-min
    /// allocator: one RTT of handshake, then the file at the flow's
    /// allocated rate, further capped by the TCP window/RTT throughput
    /// limit — the cap is what keeps nearby (low-RTT) sources genuinely
    /// faster, not just cheaper for the ISP. Returns `None` when the
    /// pair is unroutable under the active fault mask or the allocated
    /// rate rounds to zero (dead uplink), which sends the caller down
    /// the re-sourcing path.
    fn flow_secs(
        &mut self,
        src: HostId,
        dst: HostId,
        bytes: u64,
        ctx: &mut Ctx<'_, Ev>,
    ) -> Option<f64> {
        let rtt_secs = self.underlay.rtt_us(src, dst)? as f64 / 1e6;
        let id = self.next_flow_id;
        self.flows.begin();
        if !self.flows.add_flow(id, src, dst, &self.underlay) {
            return None;
        }
        self.flows.allocate();
        self.next_flow_id += 1;
        let mut rate = self.flows.rate_of(id)?;
        if rtt_secs > 0.0 {
            rate = rate.min(TCP_WINDOW_BYTES as f64 / rtt_secs);
        }
        if rate < 1.0 {
            return None;
        }
        ctx.trace(registry::NET_FLOW_OPEN, |f| {
            f.u64("flow", id)
                .u64("src", src.0 as u64)
                .u64("dst", dst.0 as u64);
        });
        ctx.trace(registry::NET_FLOW_CLOSE, |f| {
            f.u64("flow", id).u64("bytes", bytes);
        });
        Some(rtt_secs + bytes as f64 / rate)
    }

    /// The raw per-query outcome series `(time, found a provider)`.
    pub fn query_log(&self) -> &[(SimTime, bool)] {
        &self.query_log
    }

    /// The raw per-download outcome series `(time, completed)`.
    pub fn download_log(&self) -> &[(SimTime, bool)] {
        &self.download_log
    }

    /// Extracts the report after the run.
    pub fn report(&self, metrics: &uap_sim::Metrics, events: u64) -> GnutellaReport {
        let queries = metrics.counter("gnutella.queries");
        let succ = metrics.counter("gnutella.queries.success");
        let downloads = metrics.counter("gnutella.downloads");
        let downloads_intra_as = metrics.counter("gnutella.downloads.intra_as");
        GnutellaReport {
            ping_msgs: metrics.counter("gnutella.msg.ping"),
            pong_msgs: metrics.counter("gnutella.msg.pong"),
            query_msgs: metrics.counter("gnutella.msg.query"),
            queryhit_msgs: metrics.counter("gnutella.msg.queryhit"),
            queries_issued: queries,
            queries_successful: succ,
            downloads,
            downloads_intra_as,
            mean_query_delay_ms: if self.timed_queries > 0 {
                self.query_delay_sum_ms / self.timed_queries as f64
            } else {
                0.0
            },
            mean_download_secs: if downloads > 0 {
                self.download_secs_sum / downloads as f64
            } else {
                0.0
            },
            oracle_queries: self.selector.oracle_queries() + self.exchange_oracle.queries(),
            probe_messages: self.selector.probe_messages(),
            edges: self.overlay.edges(),
            // Every download moves `FILE_SIZE_BYTES`, so the byte share is
            // the count share.
            download_locality: if downloads > 0 {
                downloads_intra_as as f64 / downloads as f64
            } else {
                0.0
            },
            joins: metrics.counter("gnutella.joins"),
            events,
        }
    }
}

impl World<Ev> for GnutellaSim {
    #[expect(clippy::indexing_slicing, reason = "one slot per host of the underlay")]
    fn handle(&mut self, ev: Ev, ctx: &mut Ctx<'_, Ev>) {
        match ev {
            Ev::Churn(h) => {
                let i = h.idx();
                let state = self.churn[i];
                // A host held off the overlay by a crash epoch stays
                // churn-online and `join` refuses it; once its session
                // end is due the transition below must apply, or this
                // event would re-arm at the same instant forever.
                let held_off = self.crashed[i] && ctx.now() >= state.next_transition();
                if state.is_online() && !self.overlay.is_online(h) && !held_off {
                    // Initial (or re-) join.
                    self.join(h, ctx);
                    let t = state.next_transition();
                    if t != SimTime::MAX {
                        ctx.schedule_at(t, Ev::Churn(h));
                    }
                } else {
                    // A transition is due.
                    let cfg = self.cfg.churn;
                    self.churn[i].transition(&cfg, ctx.rng);
                    if self.churn[i].is_online() {
                        self.join(h, ctx);
                    } else {
                        self.leave(h, ctx);
                    }
                    let t = self.churn[i].next_transition();
                    if t != SimTime::MAX {
                        ctx.schedule_at(t, Ev::Churn(h));
                    }
                }
            }
            Ev::PingCycle(h, ep) => self.ping_cycle(h, ep, ctx),
            Ev::QueryCycle(h, ep) => self.query_cycle(h, ep, ctx),
            Ev::Repair(h) => {
                if self.overlay.is_online(h) {
                    self.connect(h, ctx);
                }
            }
            Ev::Fault(idx) => self.fault_boundary(idx as usize, ctx),
        }
    }

    fn kind_of(&self, ev: &Ev) -> &'static str {
        match ev {
            Ev::Churn(_) => "churn",
            Ev::PingCycle(..) => "ping_cycle",
            Ev::QueryCycle(..) => "query_cycle",
            Ev::Repair(_) => "repair",
            Ev::Fault(_) => "fault",
        }
    }
}

/// Runs one configured experiment and returns the report plus the world
/// (whose underlay ledger holds the traffic classification). Records into
/// `tracer` (moved into the engine for the run and restored afterwards);
/// at end of run this emits the per-link traffic totals and one
/// `gnutella`/`run.end` summary event.
pub fn run_experiment_with(
    underlay: Underlay,
    cfg: GnutellaConfig,
    seed: u64,
    tracer: &mut Tracer,
) -> (GnutellaReport, GnutellaSim) {
    let duration = cfg.duration;
    let mut sim = Simulator::new(seed);
    sim.set_tracer(std::mem::take(tracer));
    let mut world = GnutellaSim::new(underlay, cfg, &mut sim);
    let stats = sim.run_until(&mut world, duration);
    let report = world.report(sim.metrics(), stats.events_processed);
    let mut t = sim.take_tracer();
    world.underlay.trace_link_totals(stats.end_time, &mut t);
    t.emit(stats.end_time, registry::GNUTELLA_RUN_END, |f| {
        f.u64("events", stats.events_processed)
            .u64("queries", report.queries_issued)
            .u64("downloads", report.downloads)
            .u64("msgs", report.total_msgs());
    });
    *tracer = t;
    (report, world)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection::NeighborSelection;
    use uap_net::NetParams;

    fn underlay(n_hosts: usize, seed: u64) -> Underlay {
        NetParams {
            tier1: 2,
            tier2_per_tier1: 2,
            tier3_per_tier2: 3,
            n_hosts,
            seed,
        }
        .build()
    }

    fn quick_cfg(selection: NeighborSelection) -> GnutellaConfig {
        GnutellaConfig {
            selection,
            duration: SimTime::from_mins(10),
            ..Default::default()
        }
    }

    #[test]
    fn baseline_run_produces_traffic_and_searches() {
        let (report, world) = run_experiment_with(
            underlay(150, 1),
            quick_cfg(NeighborSelection::Random),
            42,
            &mut Tracer::disabled(),
        );
        assert!(report.joins >= 150);
        assert!(report.ping_msgs > 0);
        assert!(report.pong_msgs > 0);
        assert!(report.query_msgs > 0);
        assert!(report.queries_issued > 50);
        assert!(
            report.success_ratio() > 0.3,
            "success {}",
            report.success_ratio()
        );
        assert!(!report.edges.is_empty());
        assert!(world.underlay.traffic.transfers() > 0);
    }

    #[test]
    fn oracle_biased_increases_intra_as_edges() {
        let (unbiased, _) = run_experiment_with(
            underlay(200, 2),
            quick_cfg(NeighborSelection::Random),
            7,
            &mut Tracer::disabled(),
        );
        let (biased, world) = run_experiment_with(
            underlay(200, 2),
            quick_cfg(NeighborSelection::OracleBiased { list_size: 1000 }),
            7,
            &mut Tracer::disabled(),
        );
        let intra_frac = |edges: &[(HostId, HostId)], u: &Underlay| {
            if edges.is_empty() {
                return 0.0;
            }
            edges.iter().filter(|&&(a, b)| u.same_as(a, b)).count() as f64 / edges.len() as f64
        };
        let fu = intra_frac(&unbiased.edges, &world.underlay);
        let fb = intra_frac(&biased.edges, &world.underlay);
        assert!(fb > 2.0 * fu, "biased intra {fb} vs unbiased {fu}");
        assert!(biased.oracle_queries > 0);
    }

    #[test]
    fn oracle_biased_reduces_message_counts() {
        let n = 300;
        let (unbiased, _) = run_experiment_with(
            underlay(n, 3),
            quick_cfg(NeighborSelection::Random),
            9,
            &mut Tracer::disabled(),
        );
        let (biased, _) = run_experiment_with(
            underlay(n, 3),
            quick_cfg(NeighborSelection::OracleBiased { list_size: 1000 }),
            9,
            &mut Tracer::disabled(),
        );
        assert!(
            biased.total_msgs() < unbiased.total_msgs(),
            "biased {} !< unbiased {}",
            biased.total_msgs(),
            unbiased.total_msgs()
        );
        // Search must not collapse (the §6 "challenge" bound: allow some
        // degradation but not a broken network).
        assert!(biased.success_ratio() > 0.5 * unbiased.success_ratio());
    }

    #[test]
    fn oracle_at_file_exchange_lifts_locality() {
        let n = 250;
        let mut cfg = quick_cfg(NeighborSelection::OracleBiased { list_size: 1000 });
        let (plain, _) =
            run_experiment_with(underlay(n, 4), cfg.clone(), 11, &mut Tracer::disabled());
        cfg.oracle_at_file_exchange = true;
        let (oracle_x, _) = run_experiment_with(underlay(n, 4), cfg, 11, &mut Tracer::disabled());
        assert!(
            oracle_x.intra_as_exchange_pct() > plain.intra_as_exchange_pct(),
            "{} !> {}",
            oracle_x.intra_as_exchange_pct(),
            plain.intra_as_exchange_pct()
        );
    }

    #[test]
    fn churn_run_stays_alive() {
        let mut cfg = quick_cfg(NeighborSelection::Random);
        cfg.churn = uap_sim::ChurnConfig::exponential(300.0);
        cfg.duration = SimTime::from_mins(15);
        let (report, world) =
            run_experiment_with(underlay(120, 5), cfg, 13, &mut Tracer::disabled());
        assert!(report.joins > 120, "rejoins should occur: {}", report.joins);
        assert!(report.queries_issued > 0);
        // Some nodes online at the end.
        assert!(!world.overlay.online_nodes().is_empty());
    }

    #[test]
    fn leaf_roles_limit_flooding() {
        let mut cfg = quick_cfg(NeighborSelection::Random);
        cfg.roles = RoleAssignment::EveryKth(3);
        let (report, world) =
            run_experiment_with(underlay(90, 6), cfg, 17, &mut Tracer::disabled());
        // Leaves exist and are attached.
        let leaves = (0..90)
            .map(HostId)
            .filter(|&h| world.overlay.role(h) == Role::Leaf)
            .count();
        assert_eq!(leaves, 60);
        assert!(report.queries_issued > 0);
        assert!(report.success_ratio() > 0.2);
    }

    #[test]
    fn fault_campaign_degrades_and_recovers() {
        use uap_net::{FaultKind, FaultPlan};
        let mut cfg = quick_cfg(NeighborSelection::Random);
        cfg.duration = SimTime::from_mins(24);
        cfg.download_retries = 3;
        cfg.faults = Some(
            FaultPlan::new()
                .epoch(
                    SimTime::from_mins(8),
                    SimTime::from_mins(16),
                    FaultKind::TransitDown { p: 0.8, salt: 99 },
                )
                .epoch(
                    SimTime::from_mins(8),
                    SimTime::from_mins(16),
                    FaultKind::LatencyInflation { factor: 2.0 },
                ),
        );
        let (report, world) =
            run_experiment_with(underlay(150, 9), cfg, 31, &mut Tracer::disabled());
        // Both epoch boundaries applied (entry + exit share the two times).
        assert_eq!(world.underlay.route_cache_invalidations(), 2);
        // The partition must have made some chosen source unreachable.
        let failed_during = world
            .download_log()
            .iter()
            .filter(|&&(t, ok)| !ok && t >= SimTime::from_mins(8) && t < SimTime::from_mins(16))
            .count();
        assert!(
            failed_during > 0,
            "an 80% transit outage should defeat some downloads"
        );
        // After the last epoch clears, downloads complete again.
        let after: Vec<bool> = world
            .download_log()
            .iter()
            .filter(|&&(t, _)| t >= SimTime::from_mins(16))
            .map(|&(_, ok)| ok)
            .collect();
        assert!(!after.is_empty());
        assert!(
            after.iter().all(|&ok| ok),
            "post-fault downloads must all complete"
        );
        assert!(report.downloads > 0);
    }

    /// A partition cuts every AS link for the whole run. The flood and
    /// its hits do not see the underlay, so every query succeeds or fails
    /// exactly as without the fault; a success whose every hit path
    /// crosses a cut hop is untimed, and the mean delay is over the timed
    /// ones only.
    #[test]
    fn a_cut_hit_path_leaves_a_successful_query_untimed() {
        use uap_net::{FaultKind, FaultPlan};
        let cfg = quick_cfg(NeighborSelection::Random);
        let (clear, clear_world) =
            run_experiment_with(underlay(60, 18), cfg.clone(), 8, &mut Tracer::disabled());
        let mut cut_cfg = cfg;
        cut_cfg.faults = Some(FaultPlan::new().epoch(
            SimTime::ZERO,
            cut_cfg.duration + SimTime::from_secs(1),
            FaultKind::RandomLinkDown { p: 1.0, salt: 5 },
        ));
        let (cut, cut_world) =
            run_experiment_with(underlay(60, 18), cut_cfg, 8, &mut Tracer::disabled());
        assert_eq!(clear_world.query_log(), cut_world.query_log());
        assert_eq!(clear_world.timed_queries, clear.queries_successful);
        assert!(clear.queries_successful > 0);
        assert!(
            cut_world.timed_queries < cut.queries_successful,
            "{} of {} successful queries timed under the cut",
            cut_world.timed_queries,
            cut.queries_successful
        );
        assert_eq!(
            cut.mean_query_delay_ms,
            cut_world.query_delay_sum_ms / cut_world.timed_queries as f64
        );
    }

    #[test]
    fn host_crash_epochs_drop_and_restore_peers() {
        use uap_net::{FaultKind, FaultPlan};
        let mut cfg = quick_cfg(NeighborSelection::Random);
        cfg.duration = SimTime::from_mins(15);
        let crashed: Vec<HostId> = (0..30u32).map(HostId).collect();
        cfg.faults = Some(FaultPlan::new().epoch(
            SimTime::from_mins(5),
            SimTime::from_mins(10),
            FaultKind::HostCrash {
                hosts: crashed.clone(),
            },
        ));
        let (report, world) =
            run_experiment_with(underlay(120, 10), cfg, 33, &mut Tracer::disabled());
        // Static churn: every crashed host restarts when the epoch ends.
        for h in crashed {
            assert!(
                world.overlay.is_online(h),
                "host {h:?} should be back after the crash window"
            );
        }
        // 120 initial joins + 30 restarts.
        assert!(report.joins >= 150, "joins {}", report.joins);
    }

    #[test]
    fn churn_and_host_crash_epoch_share_a_run() {
        // Regression: a crashed host whose churn session ended inside the
        // crash window re-armed its Churn event at the same instant until
        // the engine's event limit fired.
        use uap_net::{FaultKind, FaultPlan};
        let mut cfg = quick_cfg(NeighborSelection::Random);
        cfg.churn = uap_sim::ChurnConfig::exponential(300.0);
        cfg.duration = SimTime::from_mins(20);
        let crashed: Vec<HostId> = (0..30u32).map(HostId).collect();
        cfg.faults = Some(FaultPlan::new().epoch(
            SimTime::from_mins(5),
            SimTime::from_mins(10),
            FaultKind::HostCrash {
                hosts: crashed.clone(),
            },
        ));
        let (report, world) =
            run_experiment_with(underlay(120, 10), cfg, 33, &mut Tracer::disabled());
        assert!(report.joins > 120, "rejoins should occur: {}", report.joins);
        // Ten minutes of 300 s sessions after the window: crashed hosts
        // are back on the overlay in churn proportion, not stuck off it.
        let back = crashed
            .iter()
            .filter(|&&h| world.overlay.is_online(h))
            .count();
        assert!(back >= 10, "only {back} of 30 crashed hosts rejoined");
    }

    // Degenerate inputs (ROADMAP 6b): each must terminate with a sane
    // report — never hang, never panic.

    /// A report with nothing in it that traffic would have put there.
    fn assert_silent(r: &GnutellaReport) {
        assert_eq!(r.total_msgs(), 0);
        assert_eq!((r.queries_successful, r.downloads), (0, 0));
        assert!(r.edges.is_empty());
        assert_eq!(r.success_ratio(), 0.0);
        assert_eq!((r.mean_query_delay_ms, r.mean_download_secs), (0.0, 0.0));
    }

    #[test]
    fn zero_hosts_run_to_an_empty_report() {
        let (report, world) = run_experiment_with(
            underlay(0, 11),
            quick_cfg(NeighborSelection::Random),
            1,
            &mut Tracer::disabled(),
        );
        assert_silent(&report);
        assert_eq!((report.joins, report.events), (0, 0));
        assert!(world.overlay.is_empty());
    }

    #[test]
    fn one_host_queries_into_the_void() {
        for selection in [
            NeighborSelection::Random,
            NeighborSelection::OracleBiased { list_size: 1000 },
            NeighborSelection::LatencyBiased,
        ] {
            let (report, world) = run_experiment_with(
                underlay(1, 12),
                quick_cfg(selection),
                2,
                &mut Tracer::disabled(),
            );
            assert_silent(&report);
            assert_eq!(report.joins, 1);
            assert!(report.queries_issued > 0);
            assert!(world.overlay.is_online(HostId(0)));
        }
    }

    #[test]
    fn two_hosts_find_each_other() {
        let mut cfg = quick_cfg(NeighborSelection::Random);
        // Both share the whole catalogue (one file per AS of the fixture,
        // the smallest the content model takes), so every query hits.
        cfg.content = crate::config::ContentParams {
            n_files: 18,
            zipf_s: 0.9,
            locality: 0.0,
        };
        cfg.shared_per_peer = 18;
        let (report, _) = run_experiment_with(underlay(2, 13), cfg, 3, &mut Tracer::disabled());
        assert_eq!(report.edges, [(HostId(0), HostId(1))]);
        assert!(report.queries_issued > 0);
        assert_eq!(report.queries_successful, report.queries_issued);
        assert_eq!(report.downloads, report.queries_issued);
        // One neighbor: a flood reaches one node, and costs the query plus
        // the copy that node sends back (counted, then dropped as seen).
        assert_eq!(report.query_msgs, 2 * report.queries_issued);
        assert_eq!(report.queryhit_msgs, report.queries_issued);
    }

    #[test]
    fn hostcache_of_one_evicts_on_every_insert() {
        let mut cfg = quick_cfg(NeighborSelection::Random);
        cfg.hostcache_size = 1;
        cfg.churn = uap_sim::ChurnConfig::exponential(200.0);
        let (report, world) =
            run_experiment_with(underlay(60, 14), cfg, 4, &mut Tracer::disabled());
        assert!(report.joins > 60, "churn should rejoin: {}", report.joins);
        assert!(report.ping_msgs > 0 && report.queries_issued > 0);
        // Each node knows one host: whoever the latest pong named anew.
        assert!(!report.edges.is_empty());
        for cache in &world.hostcache {
            assert!(cache.iter().count() <= 1);
        }
    }

    #[test]
    fn hostcache_of_zero_leaves_everyone_alone() {
        // The Vec hostcache would have run `remove(0)` on an empty cache at
        // the first pong; unreachable then as now, since empty caches mean
        // no edges and no pongs — the run itself is the check.
        let mut cfg = quick_cfg(NeighborSelection::Random);
        cfg.hostcache_size = 0;
        let (report, _) = run_experiment_with(underlay(20, 15), cfg, 5, &mut Tracer::disabled());
        assert_silent(&report);
        assert_eq!(report.joins, 20);
    }

    #[test]
    fn zero_query_ttl_sends_no_query() {
        let mut cfg = quick_cfg(NeighborSelection::Random);
        cfg.query_ttl = 0;
        let (report, _) = run_experiment_with(underlay(60, 16), cfg, 6, &mut Tracer::disabled());
        assert_eq!((report.query_msgs, report.queryhit_msgs), (0, 0));
        assert!(!report.edges.is_empty(), "joins still connect");
        assert!(report.queries_issued > 0);
        assert_eq!((report.queries_successful, report.downloads), (0, 0));
    }

    #[test]
    fn every_host_crashed_for_the_whole_run() {
        use uap_net::{FaultKind, FaultPlan};
        let mut cfg = quick_cfg(NeighborSelection::OracleBiased { list_size: 1000 });
        cfg.churn = uap_sim::ChurnConfig::exponential(120.0);
        cfg.faults = Some(FaultPlan::new().epoch(
            SimTime::ZERO,
            cfg.duration + SimTime::from_secs(1),
            FaultKind::HostCrash {
                hosts: (0..40u32).map(HostId).collect(),
            },
        ));
        let (report, world) =
            run_experiment_with(underlay(40, 17), cfg, 7, &mut Tracer::disabled());
        assert_silent(&report);
        assert_eq!((report.joins, report.queries_issued), (0, 0));
        assert!(world.overlay.online_nodes().is_empty());
        assert!(world.query_log().is_empty() && world.download_log().is_empty());
    }

    #[test]
    fn fault_runs_are_deterministic() {
        use uap_net::{FaultKind, FaultPlan};
        let mut cfg = quick_cfg(NeighborSelection::Random);
        cfg.duration = SimTime::from_mins(20);
        cfg.faults = Some(
            FaultPlan::new()
                .epoch(
                    SimTime::from_mins(5),
                    SimTime::from_mins(12),
                    FaultKind::RandomLinkDown { p: 0.5, salt: 7 },
                )
                .epoch(
                    SimTime::from_mins(6),
                    SimTime::from_mins(10),
                    FaultKind::HostCrash {
                        hosts: (0..20u32).map(HostId).collect(),
                    },
                ),
        );
        let (a, wa) =
            run_experiment_with(underlay(100, 8), cfg.clone(), 21, &mut Tracer::disabled());
        let (b, wb) = run_experiment_with(underlay(100, 8), cfg, 21, &mut Tracer::disabled());
        assert_eq!(a.total_msgs(), b.total_msgs());
        assert_eq!(a.queries_issued, b.queries_issued);
        assert_eq!(a.downloads, b.downloads);
        assert_eq!(wa.query_log(), wb.query_log());
        assert_eq!(wa.download_log(), wb.download_log());
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = quick_cfg(NeighborSelection::OracleBiased { list_size: 100 });
        let (a, _) =
            run_experiment_with(underlay(100, 8), cfg.clone(), 21, &mut Tracer::disabled());
        let (b, _) = run_experiment_with(underlay(100, 8), cfg, 21, &mut Tracer::disabled());
        assert_eq!(a.total_msgs(), b.total_msgs());
        assert_eq!(a.queries_issued, b.queries_issued);
        assert_eq!(a.downloads_intra_as, b.downloads_intra_as);
        assert_eq!(a.edges, b.edges);
    }
}
