//! The DHT network: joins, iterative lookups, store/retrieve, and the
//! per-lookup underlay accounting experiment E9 consumes.
//!
//! A lookup runs synchronously (each RPC's latency and AS path are taken
//! from the underlay and accumulated) — the protocol is interactive
//! request/response, so one call measures exactly what an event-per-message
//! driver would, at a fraction of the cost. [`run_dht_with`] makes those
//! calls on the event engine at their sim times; a direct call runs at t = 0.

use crate::id::Key;
use crate::kbucket::{Contact, OverflowPolicy, RoutingTable};
use std::collections::BTreeMap;
use uap_net::fault::{enter_boundary, CompiledFaultPlan};
use uap_net::{FaultPlan, HostId, TrafficCategory, Underlay};
use uap_sim::{trace::registry, Ctx, SimRng, SimTime, Simulator, Tracer, World};

/// Underlay-awareness switches (Kaune et al. \[17\]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProximityMode {
    /// Vanilla Kademlia: LRU buckets, XOR-ordered querying.
    None,
    /// Proximity neighbor selection only (bucket overflow prefers near).
    Pns,
    /// PNS plus proximity routing (query near candidates first).
    PnsPr,
}

/// Average bytes of one RPC message (request or response).
const RPC_BYTES: u64 = 100;

/// Base RPC timeout (µs): retransmit `i` waits `RPC_TIMEOUT_US << (i - 1)`.
const RPC_TIMEOUT_US: u64 = 500_000;

/// Bucket capacity k (classic k = 20; smaller for small sims).
const K: usize = 8;

/// Lookup parallelism α.
const ALPHA: usize = 3;

/// DHT parameters.
#[derive(Clone, Copy, Debug)]
pub struct DhtConfig {
    /// Underlay-awareness mode.
    pub proximity: ProximityMode,
    /// Retransmit attempts after an RPC timeout before the contact is
    /// declared dead (0 = classic immediate prune, the pre-recovery
    /// behavior and the default).
    pub rpc_retries: u32,
}

impl Default for DhtConfig {
    fn default() -> Self {
        DhtConfig {
            proximity: ProximityMode::None,
            rpc_retries: 0,
        }
    }
}

/// What one lookup cost and returned.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LookupOutcome {
    /// Closest contacts found (k of them), closest first.
    pub closest: Vec<Contact>,
    /// RPC round trips issued.
    pub rpcs: u64,
    /// RPCs whose underlay path crossed AS boundaries.
    pub inter_as_rpcs: u64,
    /// Sum of AS-hop distances over all RPCs (mean = `as_hops_sum / rpcs`).
    pub as_hops_sum: u64,
    /// Iterative rounds until convergence.
    pub rounds: u32,
    /// Total time: the per-round maximum RTT, summed.
    pub latency_us: u64,
    /// Retransmit attempts issued after timeouts (0 unless
    /// `rpc_retries > 0` and some contact failed to answer).
    pub retransmits: u64,
    /// Total backoff time spent waiting on timed-out RPCs, in µs.
    pub timeout_wait_us: u64,
}

struct NodeState {
    key: Key,
    table: RoutingTable,
    storage: BTreeMap<Key, u64>,
}

/// A whole DHT over an underlay.
pub struct DhtNetwork {
    /// The underlay (owned; transfers are charged to its ledger).
    pub underlay: Underlay,
    /// Trace collector for direct calls (disabled by default); a
    /// [`run_dht_with`] run traces into its own.
    pub tracer: Tracer,
    /// Timestamp of every ledger entry and trace event: each op's instant
    /// during a [`run_dht_with`], t = 0 before and after one.
    now: SimTime,
    cfg: DhtConfig,
    nodes: Vec<NodeState>,
    /// Liveness per node, dense beside `nodes`: a lookup reads it for
    /// every contact it learns.
    online: Vec<bool>,
    /// Lookup scratch (taken with `std::mem::take` for the duration of a
    /// lookup) so the iterative FIND_NODE loop allocates nothing per
    /// round (`tests/alloc_count.rs` counts it). `lk_queried` and
    /// `lk_dead` are sorted key sets.
    lk_candidates: Vec<Contact>,
    lk_learned: Vec<Contact>,
    lk_resp: Vec<Contact>,
    lk_queried: Vec<Key>,
    lk_dead: Vec<Key>,
}

impl DhtNetwork {
    /// Creates the network: one DHT node per underlay host (random keys),
    /// then joins them all in host order (each bootstraps off host 0 and
    /// performs a self-lookup, the standard join).
    pub fn build(underlay: Underlay, cfg: DhtConfig, rng: &mut SimRng) -> DhtNetwork {
        Self::build_with_keys(underlay, cfg, rng, |_, k| k)
    }

    /// Like [`DhtNetwork::build`], but every node's random key is passed
    /// through `key_map(host_index, key)` first — the hook geographically
    /// scoped hashing uses to stamp zone prefixes onto node identifiers.
    #[expect(clippy::indexing_slicing, reason = "i < n = nodes.len()")]
    pub fn build_with_keys<F>(
        underlay: Underlay,
        cfg: DhtConfig,
        rng: &mut SimRng,
        key_map: F,
    ) -> DhtNetwork
    where
        F: Fn(usize, Key) -> Key,
    {
        let n = underlay.n_hosts();
        assert!(n >= 2, "a DHT needs at least two nodes");
        let policy = match cfg.proximity {
            ProximityMode::None => OverflowPolicy::KeepOld,
            ProximityMode::Pns | ProximityMode::PnsPr => OverflowPolicy::PreferNear,
        };
        let mut nodes = Vec::with_capacity(n);
        for i in 0..n {
            let key = key_map(i, Key::random(rng));
            nodes.push(NodeState {
                key,
                table: RoutingTable::new(key, K, policy),
                storage: BTreeMap::new(),
            });
        }
        let mut net = DhtNetwork {
            underlay,
            tracer: Tracer::disabled(),
            now: SimTime::ZERO,
            cfg,
            nodes,
            online: vec![true; n],
            lk_candidates: Vec::new(),
            lk_learned: Vec::new(),
            lk_resp: Vec::new(),
            lk_queried: Vec::new(),
            lk_dead: Vec::new(),
        };
        // Joins: node i learns node 0 (or a random earlier node) and
        // self-looks-up to populate its table; earlier nodes learn the
        // newcomer from the RPCs they answer.
        for i in 1..n {
            let bootstrap = HostId::from_index(rng.index(i));
            let me = HostId::from_index(i);
            net.observe(me, net.contact_of(bootstrap));
            let own = net.nodes[i].key;
            net.lookup(me, &own, rng);
        }
        net
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the DHT is empty (never true after build).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node's DHT key.
    pub fn key_of(&self, h: HostId) -> Key {
        self.node(h).key
    }

    /// Whether a node is online.
    #[expect(clippy::expect_used, reason = "the DHT has one node per underlay host")]
    pub fn is_online(&self, h: HostId) -> bool {
        *self
            .online
            .get(h.idx())
            .expect("DHT has one node per underlay host")
    }

    /// Takes a node offline (churn).
    #[expect(clippy::expect_used, reason = "the DHT has one node per underlay host")]
    pub fn set_online(&mut self, h: HostId, online: bool) {
        *self
            .online
            .get_mut(h.idx())
            .expect("DHT has one node per underlay host") = online;
    }

    #[expect(clippy::expect_used, reason = "the DHT has one node per underlay host")]
    fn node(&self, h: HostId) -> &NodeState {
        self.nodes
            .get(h.idx())
            .expect("DHT has one node per underlay host")
    }

    /// Mean AS-hop distance of all routing-table contacts — the table-
    /// composition effect of PNS — read from the underlay as it routes now.
    pub fn mean_table_as_hops(&self) -> f64 {
        let sum: f64 = (0..self.len())
            .map(HostId::from_index)
            .zip(&self.nodes)
            .map(|(owner, n)| n.table.mean_contact_as_hops(as_hops(&self.underlay, owner)))
            .sum();
        sum / self.nodes.len() as f64
    }

    /// Contacts held across every node's routing table.
    pub fn table_contacts(&self) -> usize {
        self.nodes.iter().map(|n| n.table.len()).sum()
    }

    fn contact_of(&self, h: HostId) -> Contact {
        Contact {
            key: self.node(h).key,
            host: h,
        }
    }

    /// `owner`'s table observes `c`, reading distances from its route row.
    #[expect(clippy::indexing_slicing, reason = "the DHT has one node per host")]
    fn observe(&mut self, owner: HostId, c: Contact) {
        self.nodes[owner.idx()]
            .table
            .observe(c, as_hops(&self.underlay, owner));
    }

    /// One RPC round trip from `from` to `to`; returns the RTT and charges
    /// the ledger. `None` means timeout: the target is offline, or the
    /// underlay has no route between the pair (a fault-epoch partition).
    /// With `rpc_retries > 0`, a timeout first runs a deterministic
    /// exponential-backoff retransmit loop — each attempt re-sends the
    /// request (charged to the ledger) and doubles the wait — before the
    /// caller's prune path sees the `None`.
    fn rpc(&mut self, from: HostId, to: HostId, out: &mut LookupOutcome) -> Option<u64> {
        let now = self.now;
        out.rpcs += 1;
        let cat = self.underlay.account_transfer(now, from, to, RPC_BYTES);
        if cat != TrafficCategory::IntraAs {
            out.inter_as_rpcs += 1;
        }
        out.as_hops_sum += self.underlay.as_hops(from, to).unwrap_or(0) as u64;
        let rtt = if self.is_online(to) {
            self.underlay.account_transfer(now, to, from, RPC_BYTES);
            // The responder learns the caller (standard Kademlia liveness).
            self.observe(to, self.contact_of(from));
            self.underlay.rtt_us(from, to)
        } else {
            None // request lost; timeout
        };
        if rtt.is_none() && self.cfg.rpc_retries > 0 {
            let mut wait = RPC_TIMEOUT_US;
            for attempt in 1..=self.cfg.rpc_retries {
                out.retransmits += 1;
                out.timeout_wait_us = out.timeout_wait_us.saturating_add(wait);
                self.tracer.emit(now, registry::KADEMLIA_RPC_RETRY, {
                    move |f| {
                        f.u64("from", from.0 as u64)
                            .u64("to", to.0 as u64)
                            .u64("attempt", attempt as u64)
                            .u64("wait_us", wait);
                    }
                });
                // Retransmitting costs another request on the wire (the
                // target never answers, so no response bytes).
                self.underlay.account_transfer(now, from, to, RPC_BYTES);
                wait = wait.saturating_mul(2);
            }
            // The last retransmit's own timeout elapses before giving up.
            out.timeout_wait_us = out.timeout_wait_us.saturating_add(wait);
        }
        rtt
    }

    /// First 8 bytes of a key as an integer — a stable, compact label for
    /// trace events (full 160-bit keys would bloat every line).
    fn key_prefix(k: &Key) -> u64 {
        u64::from_be_bytes([
            k.0[0], k.0[1], k.0[2], k.0[3], k.0[4], k.0[5], k.0[6], k.0[7],
        ])
    }

    /// Iterative FIND_NODE lookup from `from` towards `target`.
    #[expect(clippy::indexing_slicing, reason = "contacts are nodes; pool ≤ len")]
    pub fn lookup(&mut self, from: HostId, target: &Key, _rng: &mut SimRng) -> LookupOutcome {
        let mut out = LookupOutcome::default();
        // Every event the lookup emits — start, hops, retransmits, done —
        // carries this span id; the driver's ambient provenance is restored
        // when the lookup returns.
        let span = self.tracer.alloc_span();
        let prev_prov = self.tracer.provenance();
        self.tracer.set_span(Some(span));
        self.tracer.emit(self.now, registry::KADEMLIA_SPAN_OPEN, {
            let target_pfx = Self::key_prefix(target);
            move |f| {
                f.str("span_kind", "lookup")
                    .u64("from", from.0 as u64)
                    .u64("target", target_pfx);
            }
        });
        self.tracer
            .emit(self.now, registry::KADEMLIA_LOOKUP_START, {
                let target_pfx = Self::key_prefix(target);
                move |f| {
                    f.u64("from", from.0 as u64).u64("target", target_pfx);
                }
            });
        let me = self.nodes[from.idx()].key;
        // The shortlist is the outcome's `closest` list, moved in at the
        // end. It holds at most k contacts plus α responses of k each, so
        // it is allocated once, at that capacity.
        let mut shortlist = Vec::with_capacity(K * (1 + ALPHA));
        self.nodes[from.idx()]
            .table
            .closest_into(target, K, &mut shortlist);
        // Per-lookup scratch, reused across lookups (taken so the RPC loop
        // below can still borrow `self` mutably).
        let mut queried = std::mem::take(&mut self.lk_queried);
        let mut dead = std::mem::take(&mut self.lk_dead);
        let mut candidates = std::mem::take(&mut self.lk_candidates);
        let mut learned = std::mem::take(&mut self.lk_learned);
        let mut resp = std::mem::take(&mut self.lk_resp);
        queried.clear();
        dead.clear();
        queried.push(me);
        loop {
            out.rounds += 1;
            // Candidates this round: unqueried entries of the shortlist.
            candidates.clear();
            candidates.extend(
                shortlist
                    .iter()
                    .filter(|c| queried.binary_search(&c.key).is_err())
                    .copied(),
            );
            if candidates.is_empty() {
                break;
            }
            if self.cfg.proximity == ProximityMode::PnsPr {
                // Proximity routing: among the top 2α XOR-candidates, call
                // the underlay-closest first. The pool stays XOR-bounded so
                // convergence is unaffected.
                let pool = candidates.len().min(2 * ALPHA);
                let near = as_hops(&self.underlay, from);
                candidates[..pool].sort_by_key(|c| (near(c.host), c.key.0));
            }
            candidates.truncate(ALPHA);
            let asked = candidates.len();
            let mut round_rtt = 0u64;
            learned.clear();
            for &c in &candidates {
                insert_sorted(&mut queried, c.key);
                let wait_before = out.timeout_wait_us;
                match self.rpc(from, c.host, &mut out) {
                    Some(rtt) => {
                        round_rtt = round_rtt.max(rtt);
                        // The responder returns its k closest to target.
                        self.nodes[c.host.idx()]
                            .table
                            .closest_into(target, K, &mut resp);
                        learned.extend(resp.iter().filter(|r| r.key != me));
                    }
                    None => {
                        // Timeout: drop the dead contact and remember it so
                        // other nodes' stale tables can't re-suggest it. Any
                        // backoff the retransmit loop spent waiting bounds
                        // this round's duration like a slow RTT would.
                        round_rtt = round_rtt.max(out.timeout_wait_us - wait_before);
                        insert_sorted(&mut dead, c.key);
                        self.nodes[from.idx()].table.remove(&c.key);
                        shortlist.retain(|e| e.key != c.key);
                    }
                }
            }
            out.latency_us += round_rtt;
            self.tracer.emit(self.now, registry::KADEMLIA_LOOKUP_HOP, {
                let round = out.rounds;
                let rpcs = out.rpcs;
                move |f| {
                    f.u64("from", from.0 as u64)
                        .u64("round", round as u64)
                        .u64("asked", asked as u64)
                        .u64("rpcs", rpcs)
                        .u64("round_rtt_us", round_rtt);
                }
            });
            let before_best = shortlist.first().map(|c| c.key);
            for &l in &learned {
                if dead.binary_search(&l.key).is_ok() {
                    continue;
                }
                if self.online[l.host.idx()] {
                    self.observe(from, l);
                }
                // The shortlist stays sorted by distance to `target`; a
                // search hit is a contact it already holds.
                if let Err(pos) =
                    shortlist.binary_search_by(|e| target.cmp_distance(&e.key, &l.key))
                {
                    shortlist.insert(pos, l);
                }
            }
            shortlist.truncate(K);
            let after_best = shortlist.first().map(|c| c.key);
            // Terminate when the k-closest set is fully queried or the best
            // stopped improving and everything in range was asked.
            let all_queried = shortlist
                .iter()
                .all(|c| queried.binary_search(&c.key).is_ok());
            if all_queried || (before_best == after_best && out.rounds > 20) {
                break;
            }
        }
        self.lk_queried = queried;
        self.lk_dead = dead;
        self.lk_candidates = candidates;
        self.lk_learned = learned;
        self.lk_resp = resp;
        self.tracer.emit(self.now, registry::KADEMLIA_LOOKUP_DONE, {
            let best = shortlist
                .first()
                .map(|c| Self::key_prefix(&c.key))
                .unwrap_or(0);
            let (rounds, rpcs, inter, lat) =
                (out.rounds, out.rpcs, out.inter_as_rpcs, out.latency_us);
            move |f| {
                f.u64("from", from.0 as u64)
                    .u64("rounds", rounds as u64)
                    .u64("rpcs", rpcs)
                    .u64("inter_as_rpcs", inter)
                    .u64("latency_us", lat)
                    .u64("best", best);
            }
        });
        // The lookup is synchronous (every event carries the instant it
        // started at), so the close carries the modeled latency explicitly.
        self.tracer.emit(self.now, registry::KADEMLIA_SPAN_CLOSE, {
            let (found, dur) = (!shortlist.is_empty(), out.latency_us);
            move |f| {
                f.str("span_kind", "lookup")
                    .bool("found", found)
                    .u64("dur_us", dur);
            }
        });
        self.tracer.set_provenance(prev_prov);
        out.closest = shortlist;
        out
    }

    /// Stores `value` under `key` on the k closest nodes. Returns the
    /// lookup outcome plus the number of replicas written.
    #[expect(clippy::indexing_slicing, reason = "closest hosts are network nodes")]
    pub fn store(
        &mut self,
        from: HostId,
        key: &Key,
        value: u64,
        rng: &mut SimRng,
    ) -> (LookupOutcome, usize) {
        let mut out = self.lookup(from, key, rng);
        let targets: Vec<HostId> = out.closest.iter().map(|c| c.host).collect();
        let mut written = 0;
        for t in targets {
            if self.rpc(from, t, &mut out).is_some() {
                self.nodes[t.idx()].storage.insert(*key, value);
                written += 1;
            }
        }
        (out, written)
    }

    /// Retrieves a value: lookup, then ask the closest nodes. Returns the
    /// value if any replica answered.
    #[expect(clippy::indexing_slicing, reason = "closest hosts are network nodes")]
    pub fn retrieve(
        &mut self,
        from: HostId,
        key: &Key,
        rng: &mut SimRng,
    ) -> (LookupOutcome, Option<u64>) {
        let mut out = self.lookup(from, key, rng);
        let targets: Vec<HostId> = out.closest.iter().map(|c| c.host).collect();
        for t in targets {
            if self.rpc(from, t, &mut out).is_some() {
                if let Some(&v) = self.nodes[t.idx()].storage.get(key) {
                    return (out, Some(v));
                }
            }
        }
        (out, None)
    }

    /// Ground truth: the `count` online node keys closest to `target`.
    pub fn true_closest(&self, target: &Key, count: usize) -> Vec<Key> {
        let mut keys: Vec<Key> = self
            .nodes
            .iter()
            .zip(&self.online)
            .filter(|(_, &online)| online)
            .map(|(n, _)| n.key)
            .collect();
        keys.sort_by(|a, b| target.cmp_distance(a, b));
        keys.truncate(count);
        keys
    }
}

/// One operation [`run_dht_with`] runs at its scheduled instant.
#[derive(Clone, Copy, Debug)]
pub enum DhtOp {
    /// [`DhtNetwork::lookup`] from a host towards a key.
    Lookup(HostId, Key),
    /// [`DhtNetwork::store`] of a value under a key, from a host.
    Store(HostId, Key, u64),
    /// [`DhtNetwork::retrieve`] of a key, from a host.
    Retrieve(HostId, Key),
}

/// Runs each `(t, op)` of `ops` (in time order, or this panics) on the
/// event engine at sim time `t` while `faults` plays out on the same clock,
/// tracing into `tracer`. Returns, per op, its lookup and the value a
/// `Retrieve` got. A plan boundary is entered ([`enter_boundary`]) before
/// the ops at its instant; its crash flips take hosts offline or back
/// online, and an op inside an active epoch has that `fault.epoch` as its
/// cause.
pub fn run_dht_with(
    net: &mut DhtNetwork,
    ops: &[(SimTime, DhtOp)],
    faults: &FaultPlan,
    tracer: &mut Tracer,
) -> Vec<(LookupOutcome, Option<u64>)> {
    assert!(ops.is_sorted_by_key(|&(t, _)| t), "ops out of time order");
    let mut sim = Simulator::new(0); // DHT ops draw no randomness.
    sim.set_tracer(std::mem::take(tracer));
    let plan = faults.compile(&net.underlay.graph, net.len());
    plan.schedule(&mut sim, DhtEv::Fault);
    for &(t, op) in ops {
        sim.schedule_at(t, DhtEv::Op(op));
    }
    let mut world = DhtWorld {
        net,
        plan,
        cause: None,
        results: Vec::with_capacity(ops.len()),
    };
    sim.run(&mut world);
    world.net.now = SimTime::ZERO;
    *tracer = sim.take_tracer();
    world.results
}

/// [`run_dht_with`]'s engine events: an op, or plan boundary `i`.
enum DhtEv {
    Op(DhtOp),
    Fault(u32),
}

/// A DHT on the engine for the length of one [`run_dht_with`].
struct DhtWorld<'a> {
    net: &'a mut DhtNetwork,
    plan: CompiledFaultPlan,
    /// The active epoch's `fault.epoch` seq (`None` between epochs).
    cause: Option<u64>,
    results: Vec<(LookupOutcome, Option<u64>)>,
}

impl World<DhtEv> for DhtWorld<'_> {
    fn handle(&mut self, ev: DhtEv, ctx: &mut Ctx<'_, DhtEv>) {
        let net = &mut *self.net;
        let op = match ev {
            DhtEv::Op(op) => op,
            DhtEv::Fault(i) => {
                let i = i as usize;
                let (state, seq) = enter_boundary(&mut net.underlay, &self.plan, i, ctx);
                for &(h, crashed) in self.plan.crash_flips(i) {
                    net.set_online(h, !crashed);
                }
                self.cause = seq.filter(|_| state.active > 0);
                return;
            }
        };
        net.now = ctx.now();
        ctx.tracer.set_cause(self.cause);
        std::mem::swap(&mut net.tracer, ctx.tracer);
        let result = match op {
            DhtOp::Lookup(h, target) => (net.lookup(h, &target, ctx.rng), None),
            DhtOp::Store(h, key, v) => (net.store(h, &key, v, ctx.rng).0, None),
            DhtOp::Retrieve(h, key) => net.retrieve(h, &key, ctx.rng),
        };
        std::mem::swap(&mut net.tracer, ctx.tracer);
        self.results.push(result);
    }
}

/// `owner`'s AS-hop distance to a host as the underlay routes now; an
/// unroutable pair reads `u32::MAX`, the farthest.
fn as_hops(underlay: &Underlay, owner: HostId) -> impl Fn(HostId) -> u32 + '_ {
    move |h| underlay.as_hops(owner, h).unwrap_or(u32::MAX)
}

/// Adds `key` to the sorted set `keys` unless it is already there.
fn insert_sorted(keys: &mut Vec<Key>, key: Key) {
    if let Err(pos) = keys.binary_search(&key) {
        keys.insert(pos, key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uap_net::{FaultKind, FaultState, NetParams};
    use uap_sim::TraceLevel;

    fn underlay(n: usize, seed: u64) -> Underlay {
        NetParams {
            tier1: 2,
            tier2_per_tier1: 2,
            tier3_per_tier2: 3,
            n_hosts: n,
            seed,
        }
        .build()
    }

    fn network(n: usize, mode: ProximityMode, seed: u64) -> (DhtNetwork, SimRng) {
        let mut rng = SimRng::new(seed);
        let cfg = DhtConfig {
            proximity: mode,
            ..Default::default()
        };
        let net = DhtNetwork::build(underlay(n, seed), cfg, &mut rng);
        (net, rng)
    }

    #[test]
    fn lookups_find_the_true_closest_node() {
        let (mut net, mut rng) = network(128, ProximityMode::None, 1);
        let mut exact = 0;
        for i in 0..40 {
            let target = Key::random(&mut rng);
            let from = HostId((i * 3) % 128);
            let out = net.lookup(from, &target, &mut rng);
            assert!(!out.closest.is_empty());
            let truth = net.true_closest(&target, 1)[0];
            if out.closest[0].key == truth {
                exact += 1;
            }
        }
        assert!(
            exact >= 36,
            "only {exact}/40 lookups found the closest node"
        );
    }

    #[test]
    fn store_and_retrieve_round_trip() {
        let (mut net, mut rng) = network(64, ProximityMode::None, 2);
        let key = Key::hash_of(b"the-file");
        let (_, written) = net.store(HostId(5), &key, 777, &mut rng);
        assert!(written >= net_cfg_k_min(&net), "only {written} replicas");
        let (_, got) = net.retrieve(HostId(40), &key, &mut rng);
        assert_eq!(got, Some(777));
    }

    fn net_cfg_k_min(_net: &DhtNetwork) -> usize {
        4 // at least half the default k of 8
    }

    #[test]
    fn retrieve_missing_key_is_none() {
        let (mut net, mut rng) = network(32, ProximityMode::None, 3);
        let (_, got) = net.retrieve(HostId(1), &Key::hash_of(b"never-stored"), &mut rng);
        assert_eq!(got, None);
    }

    #[test]
    fn pns_reduces_table_as_distance() {
        let (vanilla, _) = network(128, ProximityMode::None, 4);
        let (pns, _) = network(128, ProximityMode::Pns, 4);
        assert!(
            pns.mean_table_as_hops() < vanilla.mean_table_as_hops(),
            "pns {} !< vanilla {}",
            pns.mean_table_as_hops(),
            vanilla.mean_table_as_hops()
        );
    }

    #[test]
    fn pns_reduces_inter_as_lookup_traffic_without_hurting_success() {
        let run = |mode| {
            let (mut net, mut rng) = network(128, mode, 5);
            net.underlay.reset_traffic();
            let mut inter = 0u64;
            let mut total = 0u64;
            let mut exact = 0;
            for i in 0..60u32 {
                let target = Key::random(&mut rng);
                let from = HostId((i * 2) % 128);
                let out = net.lookup(from, &target, &mut rng);
                inter += out.inter_as_rpcs;
                total += out.rpcs;
                if out.closest.first().map(|c| c.key)
                    == net.true_closest(&target, 1).first().copied()
                {
                    exact += 1;
                }
            }
            (inter as f64 / total as f64, exact)
        };
        let (frac_vanilla, succ_vanilla) = run(ProximityMode::None);
        let (frac_pnspr, succ_pnspr) = run(ProximityMode::PnsPr);
        assert!(
            frac_pnspr < frac_vanilla,
            "inter-AS fraction {frac_pnspr} !< {frac_vanilla}"
        );
        assert!(succ_pnspr as f64 >= 0.9 * succ_vanilla as f64);
    }

    #[test]
    fn lookups_survive_churn() {
        let (mut net, mut rng) = network(96, ProximityMode::None, 6);
        // Kill 25% of nodes.
        for i in 0..24u32 {
            net.set_online(HostId(i * 4 + 1), false);
        }
        let key = Key::hash_of(b"stored-before-churn");
        // Store after churn so replicas land on online nodes.
        let (_, written) = net.store(HostId(0), &key, 42, &mut rng);
        assert!(written > 0);
        let (out, got) = net.retrieve(HostId(50), &key, &mut rng);
        assert_eq!(got, Some(42));
        assert!(out.rpcs > 0);
    }

    #[test]
    fn offline_target_counts_as_timeout_and_is_pruned() {
        let (mut net, mut rng) = network(32, ProximityMode::None, 7);
        net.set_online(HostId(3), false);
        // Lookups that would touch node 3 should still converge.
        for _ in 0..10 {
            let t = Key::random(&mut rng);
            let out = net.lookup(HostId(0), &t, &mut rng);
            assert!(!out.closest.iter().any(|c| c.host == HostId(3)));
        }
    }

    #[test]
    fn default_config_never_retransmits() {
        let (mut net, mut rng) = network(32, ProximityMode::None, 7);
        net.set_online(HostId(3), false);
        for _ in 0..10 {
            let t = Key::random(&mut rng);
            let out = net.lookup(HostId(0), &t, &mut rng);
            assert_eq!(out.retransmits, 0);
            assert_eq!(out.timeout_wait_us, 0);
        }
    }

    #[test]
    fn retransmits_back_off_then_prune_the_dead_contact() {
        let build = || {
            let mut rng = SimRng::new(7);
            let cfg = DhtConfig {
                rpc_retries: 2,
                ..Default::default()
            };
            let net = DhtNetwork::build(underlay(32, 7), cfg, &mut rng);
            (net, rng)
        };
        let run = |(mut net, mut rng): (DhtNetwork, SimRng)| {
            net.tracer = Tracer::buffered(TraceLevel::Debug);
            net.set_online(HostId(3), false);
            let mut total_retransmits = 0u64;
            let mut total_wait = 0u64;
            let mut outs = Vec::new();
            for _ in 0..10 {
                let t = Key::random(&mut rng);
                let out = net.lookup(HostId(0), &t, &mut rng);
                // Retransmits never resurrect a dead contact — the prune
                // path still runs after the backoff loop gives up.
                assert!(!out.closest.iter().any(|c| c.host == HostId(3)));
                total_retransmits += out.retransmits;
                total_wait += out.timeout_wait_us;
                outs.push((
                    out.rpcs,
                    out.retransmits,
                    out.timeout_wait_us,
                    out.latency_us,
                ));
            }
            (total_retransmits, total_wait, outs, net.tracer.to_jsonl())
        };
        let (retransmits, wait, outs, trace) = run(build());
        assert!(
            retransmits > 0,
            "lookups near an offline node must retransmit before pruning"
        );
        // Each timed-out RPC waits 500ms + 1s (two retransmits) plus the
        // final 2s timeout = 3.5s of backoff per dead contact hit.
        assert_eq!(wait, (retransmits / 2) * 3_500_000);
        assert!(trace.contains("\"k\":\"rpc.retry\""));
        assert!(trace.contains("\"wait_us\":500000"));
        assert!(trace.contains("\"wait_us\":1000000"));
        // Backoff waits bound the round like a slow RTT: every lookup that
        // retransmitted must report at least the full backoff as latency.
        for (_, r, w, lat) in &outs {
            if *r > 0 {
                assert!(lat >= w, "latency {lat} must cover backoff wait {w}");
            }
        }
        let (retransmits2, wait2, outs2, trace2) = run(build());
        assert_eq!((retransmits, wait, outs), (retransmits2, wait2, outs2));
        assert_eq!(trace, trace2, "retransmit runs must be byte-identical");
    }

    #[test]
    fn lookup_hops_are_traced_deterministically() {
        let trace = || {
            let (mut net, mut rng) = network(64, ProximityMode::PnsPr, 11);
            net.tracer = Tracer::buffered(TraceLevel::Debug);
            for i in 0..5u32 {
                let t = Key::random(&mut rng);
                net.lookup(HostId(i), &t, &mut rng);
            }
            net.tracer.to_jsonl()
        };
        let a = trace();
        assert!(a.contains("\"k\":\"lookup.start\""));
        assert!(a.contains("\"k\":\"lookup.hop\""));
        assert!(a.contains("\"k\":\"lookup.done\""));
        assert_eq!(a, trace(), "same-seed lookup traces must be byte-identical");
    }

    #[test]
    fn build_is_deterministic() {
        let (a, _) = network(64, ProximityMode::Pns, 8);
        let (b, _) = network(64, ProximityMode::Pns, 8);
        for i in 0..64 {
            assert_eq!(a.key_of(HostId(i)), b.key_of(HostId(i)));
        }
        assert_eq!(a.mean_table_as_hops(), b.mean_table_as_hops());
    }

    /// Every contact's AS-hop distance from its table's owner, as the
    /// underlay routes now, node by node.
    fn contact_hops(net: &DhtNetwork) -> Vec<Vec<Option<u32>>> {
        net.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| {
                let owner = HostId::from_index(i);
                let contacts = n.table.contacts();
                contacts
                    .map(|c| net.underlay.as_hops(owner, c.host))
                    .collect()
            })
            .collect()
    }

    /// The table mean computed apart from the tables' own reader.
    fn independent_mean(net: &DhtNetwork) -> f64 {
        let per_node = contact_hops(net).into_iter().map(|hops| {
            let sum: f64 = hops.iter().map(|h| h.unwrap_or(u32::MAX) as f64).sum();
            if hops.is_empty() {
                0.0
            } else {
                sum / hops.len() as f64
            }
        });
        per_node.sum::<f64>() / net.len() as f64
    }

    /// A fault boundary reaches the PNS table metric: no contact keeps the
    /// distance it was learned at.
    #[test]
    fn table_as_hops_follow_a_fault_boundary_and_its_heal() {
        let (mut net, _) = network(64, ProximityMode::Pns, 17);
        let before = contact_hops(&net);
        assert_eq!(net.mean_table_as_hops(), independent_mean(&net));
        let plan = FaultPlan::new().epoch(
            SimTime::ZERO,
            SimTime::from_secs(10),
            FaultKind::TransitDown { p: 0.5, salt: 3 },
        );
        let state = plan
            .compile(&net.underlay.graph, net.len())
            .state_at(SimTime::ZERO);
        net.underlay.apply_fault_state(&state);
        assert_ne!(contact_hops(&net), before, "the cut moves some contact");
        assert_eq!(net.mean_table_as_hops(), independent_mean(&net));
        net.underlay.apply_fault_state(&FaultState::clear());
        assert_eq!(contact_hops(&net), before);
        assert_eq!(net.mean_table_as_hops(), independent_mean(&net));
    }

    #[test]
    fn lookup_latency_and_rounds_reported() {
        let (mut net, mut rng) = network(64, ProximityMode::None, 9);
        let out = net.lookup(HostId(0), &Key::random(&mut rng), &mut rng);
        assert!(out.rounds >= 1);
        assert!(out.rpcs >= 1);
        assert!(out.latency_us > 0);
    }

    // Degenerate inputs (ROADMAP 4c): each must terminate with a sane
    // outcome — never hang, never panic.

    #[test]
    fn with_every_other_node_offline_operations_come_back_empty() {
        let (mut net, mut rng) = network(48, ProximityMode::None, 13);
        let me = HostId(5);
        for h in (0..48).map(HostId).filter(|&h| h != me) {
            net.set_online(h, false);
        }
        let key = Key::hash_of(b"nobody-home");
        let known = |net: &DhtNetwork| net.node(me).table.len() as u64;

        let before = known(&net);
        assert!(before > 0);
        let out = net.lookup(me, &key, &mut rng);
        assert!(out.closest.is_empty());
        assert!(out.rpcs > 0 && out.rpcs <= before, "{} RPCs", out.rpcs);

        let before = known(&net);
        let (out, written) = net.store(me, &key, 1, &mut rng);
        assert_eq!(written, 0);
        assert!(out.rpcs <= before, "{} RPCs", out.rpcs);

        let before = known(&net);
        let (out, got) = net.retrieve(me, &key, &mut rng);
        assert_eq!(got, None);
        assert!(out.rpcs <= before, "{} RPCs", out.rpcs);
    }

    #[test]
    fn lookup_from_an_empty_table_returns_immediately() {
        let (mut net, mut rng) = network(32, ProximityMode::Pns, 14);
        let me = HostId(9);
        let own = net.key_of(me);
        net.nodes[me.idx()].table = RoutingTable::new(own, 8, OverflowPolicy::PreferNear);
        let out = net.lookup(me, &Key::random(&mut rng), &mut rng);
        assert!(out.closest.is_empty());
        assert_eq!((out.rpcs, out.rounds, out.latency_us), (0, 1, 0));
    }

    #[test]
    fn a_driven_crash_window_takes_its_hosts_offline_until_it_closes() {
        let (mut net, mut rng) = network(48, ProximityMode::None, 15);
        let crashed: Vec<HostId> = (0..12).map(HostId).collect();
        let (start, end) = (SimTime::from_secs(10), SimTime::from_secs(20));
        let hosts = crashed.clone();
        let plan = FaultPlan::new().epoch(start, end, FaultKind::HostCrash { hosts });
        let ops: Vec<(SimTime, DhtOp)> = [0, 15, 30]
            .map(|s| {
                (
                    SimTime::from_secs(s),
                    DhtOp::Lookup(HostId(40), Key::random(&mut rng)),
                )
            })
            .into();
        let out = run_dht_with(&mut net, &ops, &plan, &mut Tracer::disabled());
        assert_eq!(out.len(), 3);
        let (inside, _) = &out[1];
        assert!(!inside.closest.iter().any(|c| crashed.contains(&c.host)));
        assert!(
            crashed.iter().all(|&h| net.is_online(h)),
            "the window closed"
        );
        assert_eq!(
            net.now,
            SimTime::ZERO,
            "direct calls after a run are at t = 0"
        );
    }

    #[test]
    #[should_panic(expected = "ops out of time order")]
    fn driven_ops_must_come_in_time_order() {
        let (mut net, _) = network(16, ProximityMode::None, 16);
        let op = DhtOp::Lookup(HostId(1), Key::hash_of(b"k"));
        let ops = [(SimTime::from_secs(2), op), (SimTime::from_secs(1), op)];
        run_dht_with(&mut net, &ops, &FaultPlan::new(), &mut Tracer::disabled());
    }

    #[test]
    fn lookups_hit_the_route_cache() {
        let (mut net, mut rng) = network(64, ProximityMode::None, 10);
        for i in 0..5u32 {
            let t = Key::random(&mut rng);
            net.lookup(HostId(i), &t, &mut rng);
        }
        // Every inter-AS RPC answers its RTT from the precomputed AS-pair
        // cache, so a handful of lookups must register hits.
        let (hits, _) = net.underlay.route_cache_stats();
        assert!(hits > 0, "inter-AS RPCs should hit the route cache");
    }
}
