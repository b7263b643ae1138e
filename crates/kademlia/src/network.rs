//! The DHT network: joins, iterative lookups, store/retrieve, and the
//! per-lookup underlay accounting experiment E9 consumes.
//!
//! Lookups are executed synchronously (each RPC's latency and AS path are
//! taken from the underlay and accumulated) — the protocol is interactive
//! request/response, so a synchronous driver measures exactly what an
//! event-per-message driver would, at a fraction of the cost.

use crate::id::Key;
use crate::kbucket::{Contact, OverflowPolicy, RoutingTable};
use std::collections::{BTreeMap, BTreeSet};
use uap_net::{HostId, TrafficCategory, Underlay};
use uap_sim::{SimRng, SimTime, TraceLevel, Tracer};

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

/// DHT parameters.
#[derive(Clone, Copy, Debug)]
pub struct DhtConfig {
    /// Bucket capacity (classic k = 20; smaller for small sims).
    pub k: usize,
    /// Lookup parallelism α.
    pub alpha: usize,
    /// Underlay-awareness mode.
    pub proximity: ProximityMode,
    /// Retransmit attempts after an RPC timeout before the contact is
    /// declared dead (0 = classic immediate prune, the pre-recovery
    /// behavior and the default).
    pub rpc_retries: u32,
    /// Base RPC timeout in microseconds; retransmit attempt `i` waits
    /// `rpc_timeout_us << i` (deterministic exponential backoff).
    pub rpc_timeout_us: u64,
}

impl Default for DhtConfig {
    fn default() -> Self {
        DhtConfig {
            k: 8,
            alpha: 3,
            proximity: ProximityMode::None,
            rpc_retries: 0,
            rpc_timeout_us: 500_000,
        }
    }
}

/// What one lookup cost and returned.
#[derive(Clone, Debug, Default)]
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
    online: bool,
}

/// The timestamp of every ledger entry and trace event: the DHT is driven
/// synchronously, outside the event engine, so its clock never advances.
const NOW: SimTime = SimTime::ZERO;

/// A whole DHT over an underlay.
pub struct DhtNetwork {
    /// The underlay (owned; transfers are charged to its ledger).
    pub underlay: Underlay,
    /// Structured trace collector (disabled by default; swap one in with
    /// [`std::mem::take`]-style replacement to record `kademlia` lookup
    /// hop traces, all timestamped zero — the DHT runs outside the event
    /// engine).
    pub tracer: Tracer,
    cfg: DhtConfig,
    nodes: Vec<NodeState>,
    /// Lookup scratch (taken with `std::mem::take` for the duration of a
    /// lookup) so the iterative FIND_NODE loop allocates nothing per
    /// round — the alloc pass in `xtask analyze` ratchets this.
    lk_candidates: Vec<Contact>,
    lk_learned: Vec<Contact>,
    lk_resp: Vec<Contact>,
    lk_queried: BTreeSet<Key>,
    lk_dead: BTreeSet<Key>,
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
                table: RoutingTable::new(key, cfg.k, policy),
                storage: BTreeMap::new(),
                online: true,
            });
        }
        let mut net = DhtNetwork {
            underlay,
            tracer: Tracer::disabled(),
            cfg,
            nodes,
            lk_candidates: Vec::new(),
            lk_learned: Vec::new(),
            lk_resp: Vec::new(),
            lk_queried: BTreeSet::new(),
            lk_dead: BTreeSet::new(),
        };
        // Joins: node i learns node 0 (or a random earlier node) and
        // self-looks-up to populate its table; earlier nodes learn the
        // newcomer from the RPCs they answer.
        for i in 1..n {
            let bootstrap = HostId::from_index(rng.index(i));
            let me = HostId::from_index(i);
            let c = net.contact_of(bootstrap, me);
            net.nodes[i].table.observe(c);
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
    pub fn is_online(&self, h: HostId) -> bool {
        self.node(h).online
    }

    /// Takes a node offline (churn).
    pub fn set_online(&mut self, h: HostId, online: bool) {
        self.node_mut(h).online = online;
    }

    fn node(&self, h: HostId) -> &NodeState {
        self.nodes
            .get(h.idx())
            .expect("DHT has one node per underlay host") // lint:allow(expect)
    }

    fn node_mut(&mut self, h: HostId) -> &mut NodeState {
        self.nodes
            .get_mut(h.idx())
            .expect("DHT has one node per underlay host") // lint:allow(expect)
    }

    /// Mean AS-hop distance of all routing-table contacts — the table-
    /// composition effect of PNS.
    pub fn mean_table_as_hops(&self) -> f64 {
        let sum: f64 = self
            .nodes
            .iter()
            .map(|n| n.table.mean_contact_as_hops())
            .sum();
        sum / self.nodes.len() as f64
    }

    fn contact_of(&self, h: HostId, relative_to: HostId) -> Contact {
        Contact {
            key: self.node(h).key,
            host: h,
            as_hops: self.underlay.as_hops(relative_to, h).unwrap_or(u32::MAX),
        }
    }

    /// One RPC round trip from `from` to `to`; returns the RTT and charges
    /// the ledger. `None` means timeout: the target is offline, or the
    /// underlay has no route between the pair (a fault-epoch partition).
    /// With `rpc_retries > 0`, a timeout first runs a deterministic
    /// exponential-backoff retransmit loop — each attempt re-sends the
    /// request (charged to the ledger) and doubles the wait — before the
    /// caller's prune path sees the `None`.
    fn rpc(&mut self, from: HostId, to: HostId, out: &mut LookupOutcome) -> Option<u64> {
        out.rpcs += 1;
        let cat = self.underlay.account_transfer(NOW, from, to, RPC_BYTES);
        if cat != TrafficCategory::IntraAs {
            out.inter_as_rpcs += 1;
        }
        out.as_hops_sum += self.underlay.as_hops(from, to).unwrap_or(0) as u64;
        let rtt = if self.node(to).online {
            self.underlay.account_transfer(NOW, to, from, RPC_BYTES);
            // The responder learns the caller (standard Kademlia liveness).
            let caller = self.contact_of(from, to);
            self.node_mut(to).table.observe(caller);
            self.underlay.rtt_us(from, to)
        } else {
            None // request lost; timeout
        };
        if rtt.is_none() && self.cfg.rpc_retries > 0 {
            let mut wait = self.cfg.rpc_timeout_us;
            for attempt in 1..=self.cfg.rpc_retries {
                out.retransmits += 1;
                out.timeout_wait_us = out.timeout_wait_us.saturating_add(wait);
                self.tracer
                    .emit(NOW, "kademlia", TraceLevel::Debug, "rpc.retry", {
                        move |f| {
                            f.u64("from", from.0 as u64)
                                .u64("to", to.0 as u64)
                                .u64("attempt", attempt as u64)
                                .u64("wait_us", wait);
                        }
                    });
                // Retransmitting costs another request on the wire (the
                // target never answers, so no response bytes).
                self.underlay.account_transfer(NOW, from, to, RPC_BYTES);
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
    pub fn lookup(&mut self, from: HostId, target: &Key, _rng: &mut SimRng) -> LookupOutcome {
        let mut out = LookupOutcome::default();
        // Every event the lookup emits — start, hops, retransmits, done —
        // carries this span id; the driver's ambient provenance is restored
        // when the lookup returns.
        let span = self.tracer.alloc_span();
        let prev_prov = self.tracer.provenance();
        self.tracer.set_span(Some(span));
        self.tracer
            .emit(NOW, "kademlia", TraceLevel::Debug, "span.open", {
                let target_pfx = Self::key_prefix(target);
                move |f| {
                    f.str("span_kind", "lookup")
                        .u64("from", from.0 as u64)
                        .u64("target", target_pfx);
                }
            });
        self.tracer
            .emit(NOW, "kademlia", TraceLevel::Debug, "lookup.start", {
                let target_pfx = Self::key_prefix(target);
                move |f| {
                    f.u64("from", from.0 as u64).u64("target", target_pfx);
                }
            });
        let me = self.nodes[from.idx()].key;
        // The shortlist is the outcome's `closest` list, moved back at the end.
        let mut shortlist = std::mem::take(&mut out.closest);
        self.nodes[from.idx()]
            .table
            .closest_into(target, self.cfg.k, &mut shortlist);
        // Per-lookup scratch, reused across lookups (taken so the RPC loop
        // below can still borrow `self` mutably).
        let mut queried = std::mem::take(&mut self.lk_queried);
        let mut dead = std::mem::take(&mut self.lk_dead);
        let mut candidates = std::mem::take(&mut self.lk_candidates);
        let mut learned = std::mem::take(&mut self.lk_learned);
        let mut resp = std::mem::take(&mut self.lk_resp);
        queried.clear();
        dead.clear();
        queried.insert(me);
        loop {
            out.rounds += 1;
            // Candidates this round: unqueried entries of the shortlist.
            candidates.clear();
            candidates.extend(
                shortlist
                    .iter()
                    .filter(|c| !queried.contains(&c.key))
                    .copied(),
            );
            if candidates.is_empty() {
                break;
            }
            if self.cfg.proximity == ProximityMode::PnsPr {
                // Proximity routing: among the top 2α XOR-candidates, call
                // the underlay-closest first. The pool stays XOR-bounded so
                // convergence is unaffected.
                let pool = candidates.len().min(2 * self.cfg.alpha);
                candidates[..pool].sort_by_key(|c| (c.as_hops, c.key.0));
            }
            candidates.truncate(self.cfg.alpha);
            let asked = candidates.len();
            let mut round_rtt = 0u64;
            learned.clear();
            for &c in &candidates {
                queried.insert(c.key);
                let wait_before = out.timeout_wait_us;
                match self.rpc(from, c.host, &mut out) {
                    Some(rtt) => {
                        round_rtt = round_rtt.max(rtt);
                        // The responder returns its k closest to target.
                        self.nodes[c.host.idx()]
                            .table
                            .closest_into(target, self.cfg.k, &mut resp);
                        for &(mut r) in &resp {
                            if r.key == me {
                                continue;
                            }
                            // Re-base the cached AS distance on the caller.
                            r.as_hops = self.underlay.as_hops(from, r.host).unwrap_or(u32::MAX);
                            learned.push(r);
                        }
                    }
                    None => {
                        // Timeout: drop the dead contact and remember it so
                        // other nodes' stale tables can't re-suggest it. Any
                        // backoff the retransmit loop spent waiting bounds
                        // this round's duration like a slow RTT would.
                        round_rtt = round_rtt.max(out.timeout_wait_us - wait_before);
                        dead.insert(c.key);
                        self.nodes[from.idx()].table.remove(&c.key);
                        shortlist.retain(|e| e.key != c.key);
                    }
                }
            }
            out.latency_us += round_rtt;
            self.tracer
                .emit(NOW, "kademlia", TraceLevel::Debug, "lookup.hop", {
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
                if dead.contains(&l.key) {
                    continue;
                }
                if self.nodes[l.host.idx()].online {
                    self.nodes[from.idx()].table.observe(l);
                }
                // The shortlist stays sorted by distance to `target`; a
                // search hit is a contact it already holds.
                if let Err(pos) =
                    shortlist.binary_search_by(|e| target.cmp_distance(&e.key, &l.key))
                {
                    shortlist.insert(pos, l);
                }
            }
            shortlist.truncate(self.cfg.k);
            let after_best = shortlist.first().map(|c| c.key);
            // Terminate when the k-closest set is fully queried or the best
            // stopped improving and everything in range was asked.
            let all_queried = shortlist.iter().all(|c| queried.contains(&c.key));
            if all_queried || (before_best == after_best && out.rounds > 20) {
                break;
            }
        }
        self.lk_queried = queried;
        self.lk_dead = dead;
        self.lk_candidates = candidates;
        self.lk_learned = learned;
        self.lk_resp = resp;
        self.tracer
            .emit(NOW, "kademlia", TraceLevel::Debug, "lookup.done", {
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
        // The lookup is synchronous (the ledger clock does not advance), so
        // the close carries the modeled latency explicitly.
        self.tracer
            .emit(NOW, "kademlia", TraceLevel::Debug, "span.close", {
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
            .filter(|n| n.online)
            .map(|n| n.key)
            .collect();
        keys.sort_by(|a, b| target.cmp_distance(a, b));
        keys.truncate(count);
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uap_net::NetParams;

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
                rpc_timeout_us: 250_000,
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
        // Each timed-out RPC waits 250ms + 500ms (two retransmits) plus the
        // final 1s timeout = 1.75s of backoff per dead contact hit.
        assert_eq!(wait, (retransmits / 2) * 1_750_000);
        assert!(trace.contains("\"k\":\"rpc.retry\""));
        assert!(trace.contains("\"wait_us\":250000"));
        assert!(trace.contains("\"wait_us\":500000"));
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
    fn alpha_zero_stops_at_the_round_cap_with_no_rpcs() {
        let mut rng = SimRng::new(12);
        let cfg = DhtConfig {
            alpha: 0,
            ..Default::default()
        };
        // Bootstrap itself is 31 such lookups.
        let mut net = DhtNetwork::build(underlay(32, 12), cfg, &mut rng);
        let out = net.lookup(HostId(1), &Key::random(&mut rng), &mut rng);
        assert_eq!((out.rpcs, out.rounds), (0, 21));
        // Nothing was asked, so the shortlist is still the caller's own
        // bootstrap contact.
        assert_eq!(out.closest.len(), 1);
    }

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
        net.node_mut(me).table = RoutingTable::new(own, 8, OverflowPolicy::PreferNear);
        let out = net.lookup(me, &Key::random(&mut rng), &mut rng);
        assert!(out.closest.is_empty());
        assert_eq!((out.rpcs, out.rounds, out.latency_us), (0, 1, 0));
    }

    #[test]
    fn lookups_hit_route_cache_and_export_metrics() {
        let (mut net, mut rng) = network(64, ProximityMode::None, 10);
        for i in 0..5u32 {
            let t = Key::random(&mut rng);
            net.lookup(HostId(i), &t, &mut rng);
        }
        // Every inter-AS RPC answers its RTT from the precomputed AS-pair
        // cache, so a handful of lookups must register hits.
        let (hits, misses) = net.underlay.route_cache_stats();
        assert!(hits > 0, "inter-AS RPCs should hit the route cache");
        let mut m = uap_sim::Metrics::new();
        net.underlay.export_route_cache_metrics(&mut m);
        assert_eq!(m.counter("net.route_cache.hit"), hits);
        assert_eq!(m.counter("net.route_cache.miss"), misses);
    }
}
