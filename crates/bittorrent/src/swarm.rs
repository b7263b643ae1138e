//! The round-based swarm simulation.
//!
//! Flow-backed fluid model: in every round of [`ROUND`], each peer
//! unchokes its best reciprocators (tit-for-tat) plus one optimistic
//! slot; the unchoke pairs form the round's **flow set**, a max-min fair
//! allocation over sender uplinks, receiver downlinks and the shared
//! inter-AS links ([`uap_net::flow::FlowAllocator`]) prices each flow,
//! and the receivers turn the accumulated bytes into rarest-first piece
//! completions. Flows are charged to
//! the underlay ledger, so experiment E10 can bill each tracker policy.
//!
//! The swarm runs on the `uap-sim` engine like Gnutella and the DHT: each
//! round is a `Round` event at `k × ROUND`, and each fault-plan boundary is
//! a `Fault(i)` event entered through [`uap_net::fault::enter_boundary`],
//! the boundary handler all three overlays share.

use crate::pieces::PieceSet;
use crate::tracker::{Tracker, TrackerPolicy};
use uap_net::{FlowAllocator, HostId, Underlay};
use uap_sim::{trace::registry, Ctx, SimTime, Simulator, Tracer, World};

/// Regular (tit-for-tat) unchoke slots per peer and round.
const UNCHOKE_SLOTS: usize = 3;
/// Optimistic unchoke slots per peer and round.
const OPTIMISTIC_SLOTS: usize = 1;
/// Round length.
pub const ROUND: SimTime = SimTime::from_secs(10);

/// Swarm parameters.
#[derive(Clone, Debug)]
pub struct SwarmConfig {
    /// Number of leechers (joined at round 0).
    pub n_leechers: usize,
    /// Number of initial seeds.
    pub n_seeds: usize,
    /// Pieces in the torrent.
    pub n_pieces: usize,
    /// Bytes per piece.
    pub piece_bytes: u64,
    /// Peer-set size requested from the tracker.
    pub max_peers: usize,
    /// Stop after this many rounds even if leechers remain.
    pub max_rounds: u32,
    /// Tracker policy (the experiment's independent variable).
    pub tracker: TrackerPolicy,
    /// CAT-style cost-aware choking: the unchoke ranking discounts bytes
    /// received over inter-AS paths, so same-AS reciprocators win ties
    /// (Yamazaki et al. \[32\]).
    pub cost_aware_choking: bool,
    /// Time-scheduled underlay fault campaign (`None` = fault-free run).
    /// Crashed swarm members pause (no flows, no announces, pieces kept);
    /// partitioned pairs stall their flows until routing recovers.
    pub faults: Option<uap_net::FaultPlan>,
}

impl Default for SwarmConfig {
    fn default() -> Self {
        SwarmConfig {
            n_leechers: 100,
            n_seeds: 5,
            n_pieces: 64,
            piece_bytes: 256 * 1024,
            max_peers: 20,
            max_rounds: 2_000,
            tracker: TrackerPolicy::Random,
            cost_aware_choking: false,
            faults: None,
        }
    }
}

/// Results of one swarm run.
#[derive(Clone, Debug)]
pub struct SwarmReport {
    /// Completion time (seconds) per finished leecher.
    pub completion_secs: Vec<f64>,
    /// Leechers that finished before `max_rounds`.
    pub completed: usize,
    /// Leechers total.
    pub leechers: usize,
    /// Rounds simulated.
    pub rounds: u32,
    /// Fraction of payload bytes that stayed intra-AS.
    pub intra_as_fraction: f64,
    /// Total payload bytes moved.
    pub payload_bytes: u64,
    /// Tracker announces served.
    pub announces: u64,
    /// Cumulative finished-leecher count after each round — the progress
    /// curve the resilience experiment plots across fault epochs.
    pub completed_by_round: Vec<usize>,
    /// Re-announces triggered by dead-neighbor loss or crash recovery
    /// (0 in fault-free runs; periodic refreshes are not counted).
    pub reannounces: u64,
    /// Inter-AS links that saturated, summed over every round's fill
    /// ([`FlowAllocator::inter_as_saturations`]).
    pub inter_as_saturations: u64,
}

impl SwarmReport {
    /// Mean completion time in seconds (0 if nobody finished).
    pub fn mean_completion_secs(&self) -> f64 {
        if self.completion_secs.is_empty() {
            0.0
        } else {
            self.completion_secs.iter().sum::<f64>() / self.completion_secs.len() as f64
        }
    }

    /// Median completion time in seconds.
    pub fn median_completion_secs(&self) -> f64 {
        let mut v = self.completion_secs.clone();
        v.sort_by(|a, b| a.total_cmp(b));
        v.get(v.len() / 2).copied().unwrap_or(0.0)
    }
}

struct Peer {
    host: HostId,
    pieces: PieceSet,
    neighbors: Vec<HostId>,
    /// Byte credit toward the next piece, per sender, sorted by sender.
    /// Partial-piece credit is retained across rounds (capped at one
    /// piece) and pruned when the sender crashes.
    credit: Vec<(HostId, u64)>,
    done_at: Option<u32>,
    is_seed: bool,
}

/// Converts a receiver's byte `credit` toward one sender into claimed
/// pieces: rarest first among what the sender offers, skipping pieces
/// already claimed from a faster sender this round (`claimed`). `out`
/// is overwritten with the claimed piece indices, in claim order. When
/// the sender has nothing new, the remaining credit is **retained** for
/// later rounds, capped at one piece's worth — partial-piece progress
/// survives, but credit cannot pile up unboundedly against a stalled
/// sender.
///
/// One pass over the bitfields' words collects the claimable pieces
/// into `out`; the `credit / piece_bytes` of them smallest by
/// `(availability, piece)` are kept and claimed in that order. Neither
/// `availability` nor the claimable set changes while one sender is
/// served (only the pieces just picked join `claimed`), so this is
/// exactly the list that picking the rarest claimable piece once per
/// piece of credit produces.
#[expect(clippy::indexing_slicing, reason = "pieces < availability.len()")]
fn claim_pieces(
    receiver: &PieceSet,
    sender: &PieceSet,
    credit: &mut u64,
    piece_bytes: u64,
    availability: &[u32],
    claimed: &mut PieceSet,
    out: &mut Vec<usize>,
) {
    out.clear();
    // A zero-byte piece is free: every claimable piece is wanted.
    let want =
        usize::try_from(credit.checked_div(piece_bytes).unwrap_or(u64::MAX)).unwrap_or(usize::MAX);
    if want == 0 {
        return;
    }
    out.extend(receiver.claimable_from(sender, claimed));
    let rarity = |&p: &usize| (availability[p], p);
    if want < out.len() {
        out.select_nth_unstable_by_key(want, rarity);
        out.truncate(want);
    }
    out.sort_unstable_by_key(rarity);
    for &p in out.iter() {
        claimed.insert(p);
    }
    *credit -= out.len() as u64 * piece_bytes;
    if out.len() < want {
        *credit = (*credit).min(piece_bytes);
    }
}

/// The credit toward `sender` in a sender-sorted credit list, inserted
/// at zero on the first receipt from that sender.
#[expect(clippy::indexing_slicing, reason = "binary_search returned the index")]
fn credit_mut(credit: &mut Vec<(HostId, u64)>, sender: HostId) -> &mut u64 {
    let at = match credit.binary_search_by_key(&sender, |&(h, _)| h) {
        Ok(at) => at,
        Err(at) => {
            credit.insert(at, (sender, 0));
            at
        }
    };
    &mut credit[at].1
}

/// The member index of host `h` in a swarm of `n` members, whose member
/// `i` is host `i`.
fn member(h: HostId, n: usize) -> Option<usize> {
    let i = h.idx();
    (i < n).then_some(i)
}

/// One round's receipts, `(receiver member index, sender, bytes)`,
/// sorted by receiver then sender once the round's flows have moved.
type Receipts = Vec<(usize, HostId, u64)>;

/// Bytes from `sender` in one receiver's block of a sorted [`Receipts`]
/// list.
fn received_from(receipts: &[(usize, HostId, u64)], sender: HostId) -> u64 {
    receipts
        .binary_search_by_key(&sender, |&(_, s, _)| s)
        .ok()
        .and_then(|at| receipts.get(at))
        .map_or(0, |&(_, _, bytes)| bytes)
}

/// Runs one swarm to completion (or `max_rounds`). Returns the report and
/// the underlay (whose ledger holds the traffic classification for the
/// cost model). Records structured trace events into `tracer` (moved
/// into the engine for the run and restored afterwards, as
/// `run_experiment_with` does for Gnutella): leecher completions and
/// per-round summaries (Debug), and one
/// `swarm.done` event (Info). Round events are stamped at the round
/// boundaries, fault events at the plan's.
pub fn run_swarm_with(
    underlay: Underlay,
    cfg: SwarmConfig,
    seed: u64,
    tracer: &mut Tracer,
) -> (SwarmReport, Underlay) {
    let deadline = ROUND.mul(u64::from(cfg.max_rounds));
    let mut sim = Simulator::new(seed);
    sim.set_tracer(std::mem::take(tracer));
    let mut swarm = Swarm::new(underlay, cfg, &mut sim);
    // The deadline is the round cap, so no boundary after the last round
    // is applied; with no round at all, not even one at t = 0.
    if deadline > SimTime::ZERO {
        sim.run_until(&mut swarm, deadline);
    }
    *tracer = sim.take_tracer();
    swarm.finish(tracer)
}

/// The swarm's engine events: the next round, or fault-plan boundary `i`
/// (an index into the compiled plan's sorted boundary list).
#[derive(Clone, Copy, Debug)]
enum SwarmEv {
    Round,
    Fault(u32),
}

/// One swarm mid-run, a [`World`] on the engine: [`Swarm::new`] sets it
/// up and schedules its events, a `Round` event advances it one round
/// ([`Swarm::round`]), a `Fault` event enters a plan boundary, and
/// [`Swarm::finish`] closes it into the report. The round scratch is
/// reused, so a round allocates only when a buffer outgrows its largest
/// round so far or a peer first hears from a new sender
/// (`tests/alloc_count.rs` counts it).
struct Swarm {
    underlay: Underlay,
    cfg: SwarmConfig,
    /// Swarm membership: the first n hosts (host assignment to ASes is
    /// already random), so member `i` is host `i` ([`member`]). `peers`,
    /// `peer_spans`, `down` and `unchokes` run parallel to it.
    members: Vec<HostId>,
    peers: Vec<Peer>,
    tracker: Tracker,
    /// Every leecher's causal span: it covers the peer's whole life in
    /// the swarm — announce, piece exchange, completion — and closes at
    /// `peer.done` (or unfinished at the end of a truncated run).
    peer_spans: Vec<Option<u64>>,
    /// Piece availability for rarest-first.
    availability: Vec<u32>,

    /// Fault campaign: compiled once, each epoch boundary entered by a
    /// `Fault(i)` event. Crashed members pause; everyone else drops them
    /// and re-announces for replacements.
    compiled: Option<uap_net::CompiledFaultPlan>,
    down: Vec<bool>,
    reannounces: u64,
    completed_by_round: Vec<usize>,

    // Round scratch, reused every round.
    live: Vec<HostId>,
    unchokes: Vec<Vec<usize>>,
    interested: Vec<usize>,
    leftovers: Vec<usize>,
    /// This round's receipts; last round's are the tit-for-tat input.
    received_this: Receipts,
    received_last: Receipts,
    /// `(peer, piece)`.
    completions: Vec<(usize, usize)>,

    /// Flow machinery: the allocator snapshots the capacity graph once;
    /// the open-flow table persists across rounds so flow arrivals and
    /// departures are traced as deltas. Entries are member-index pairs
    /// `(sender, receiver)` with `(flow id, cumulative bytes)`, sorted by
    /// pair; after a round's diff they run parallel to `desired`.
    /// `next_flows` is the diff's output buffer.
    flow_alloc: FlowAllocator,
    open_flows: Vec<((u32, u32), (u64, u64))>,
    next_flows: Vec<((u32, u32), (u64, u64))>,
    next_flow_id: u64,
    desired: Vec<(u32, u32)>,
    senders: Vec<(u64, HostId)>,
    claimed: PieceSet,
    /// [`claim_pieces`]' output and scratch, sized to the torrent once.
    new_claims: Vec<usize>,

    rounds: u32,
    payload_bytes: u64,
}

impl Swarm {
    /// Sets the swarm up and schedules its events: every plan boundary,
    /// then the first round. A boundary at `k × round` therefore has a
    /// lower `seq` than the `Round` event it shares a time with and is
    /// entered first.
    fn new(underlay: Underlay, cfg: SwarmConfig, sim: &mut Simulator<SwarmEv>) -> Self {
        let n_members = cfg.n_leechers + cfg.n_seeds;
        assert!(
            n_members <= underlay.n_hosts(),
            "swarm larger than host population"
        );
        assert!(cfg.n_seeds >= 1, "a swarm needs a seed");
        assert!(cfg.n_pieces >= 1, "a swarm needs a piece");
        let members: Vec<HostId> = (0..n_members).map(HostId::from_index).collect();
        let mut peers: Vec<Peer> = members
            .iter()
            .enumerate()
            .map(|(i, &h)| Peer {
                host: h,
                pieces: if i < cfg.n_seeds {
                    PieceSet::full(cfg.n_pieces)
                } else {
                    PieceSet::empty(cfg.n_pieces)
                },
                neighbors: Vec::new(),
                credit: Vec::new(),
                done_at: None,
                is_seed: i < cfg.n_seeds,
            })
            .collect();
        let mut tracker = Tracker::new(cfg.tracker);
        // Initial announces. Span ids are allocated in peer order so
        // traces stay byte-identical per seed.
        let mut peer_spans: Vec<Option<u64>> = vec![None; peers.len()];
        for (peer, peer_span) in peers.iter_mut().zip(peer_spans.iter_mut()) {
            let who = peer.host;
            if !peer.is_seed {
                let tracer = sim.tracer_mut();
                let span = tracer.alloc_span();
                *peer_span = Some(span);
                tracer.set_span(Some(span));
                tracer.emit(SimTime::ZERO, registry::BITTORRENT_SPAN_OPEN, |f| {
                    f.str("span_kind", "peer").u64("peer", who.0 as u64);
                });
            }
            tracker.announce_into(
                &underlay,
                who,
                &members,
                cfg.max_peers,
                sim.rng(),
                &mut peer.neighbors,
            );
        }
        let mut availability: Vec<u32> = vec![0; cfg.n_pieces];
        for p in &peers {
            for (i, a) in availability.iter_mut().enumerate() {
                if p.pieces.contains(i) {
                    *a += 1;
                }
            }
        }
        let compiled = cfg
            .faults
            .as_ref()
            .map(|p| p.compile(&underlay.graph, underlay.n_hosts()));
        if let Some(plan) = &compiled {
            plan.schedule(sim, SwarmEv::Fault);
        }
        sim.schedule_at(ROUND, SwarmEv::Round);
        Swarm {
            compiled,
            down: vec![false; peers.len()],
            reannounces: 0,
            completed_by_round: Vec::new(),
            live: Vec::with_capacity(peers.len()),
            unchokes: vec![Vec::new(); peers.len()],
            interested: Vec::new(),
            leftovers: Vec::new(),
            received_this: Vec::new(),
            received_last: Vec::new(),
            completions: Vec::new(),
            flow_alloc: FlowAllocator::new(&underlay),
            open_flows: Vec::new(),
            next_flows: Vec::new(),
            next_flow_id: 0,
            desired: Vec::new(),
            senders: Vec::new(),
            claimed: PieceSet::empty(cfg.n_pieces),
            new_claims: Vec::with_capacity(cfg.n_pieces),
            rounds: 0,
            payload_bytes: 0,
            underlay,
            cfg,
            members,
            peers,
            tracker,
            peer_spans,
            availability,
        }
    }

    /// Leechers that hold every piece.
    fn finished(&self) -> usize {
        let done = |p: &&Peer| !p.is_seed && p.done_at.is_some();
        self.peers.iter().filter(done).count()
    }

    /// Enters boundary `b` of the fault plan
    /// ([`uap_net::fault::enter_boundary`]), then applies its crash
    /// flips: restored members and survivors that lost neighbors
    /// re-announce, and partial-chunk credit toward crashed senders is
    /// dropped.
    #[expect(
        clippy::indexing_slicing,
        reason = "i < peers.len() = peer_spans.len() = down.len()"
    )]
    fn fault_boundary(&mut self, b: usize, ctx: &mut Ctx<'_, SwarmEv>) {
        let Some(plan) = &self.compiled else { return };
        let (_, fault_seq) = uap_net::fault::enter_boundary(&mut self.underlay, plan, b, ctx);
        let now = ctx.now();
        let (rng, tracer) = (&mut *ctx.rng, &mut *ctx.tracer);
        let flips = plan.crash_flips(b);
        for &(h, crashed) in flips {
            if let Some(i) = member(h, self.down.len()) {
                self.down[i] = crashed;
            }
        }
        // The tracker's live pool is the members that still announce
        // under the new state.
        self.live.clear();
        let up = self.members.iter().zip(&self.down).filter(|&(_, &d)| !d);
        self.live.extend(up.map(|(&h, _)| h));
        let down = &self.down;
        // Restored members re-announce (their pre-crash neighborhoods
        // moved on without them); survivors shed dead neighbors and
        // refill from the tracker.
        for (i, peer) in self.peers.iter_mut().enumerate() {
            if down[i] || peer.done_at.is_some() || peer.is_seed {
                continue;
            }
            // Member `i` is host `i`, and a flipped member that is up
            // came back.
            let restored = flips.binary_search_by_key(&i, |&(h, _)| h.idx()).is_ok();
            let before = peer.neighbors.len();
            peer.neighbors
                .retain(|&h| !member(h, down.len()).is_some_and(|j| down[j]));
            if restored || peer.neighbors.len() < before {
                let who = peer.host;
                self.tracker.announce_into(
                    &self.underlay,
                    who,
                    &self.live,
                    self.cfg.max_peers,
                    rng,
                    &mut peer.neighbors,
                );
                self.reannounces += 1;
                let received = peer.neighbors.len();
                tracer.set_span(self.peer_spans[i]);
                tracer.set_cause(fault_seq);
                tracer.emit(now, registry::BITTORRENT_REANNOUNCE, |f| {
                    f.u64("peer", who.0 as u64).u64("received", received as u64);
                });
            }
        }
        // Partial-chunk credit toward a crashed sender times out: the
        // entry is pruned (the map must not leak across campaigns)
        // and the receiver re-requests those chunks from live
        // senders in the following rounds.
        for (peer, &span) in self.peers.iter_mut().zip(&self.peer_spans) {
            if peer.credit.is_empty() {
                continue;
            }
            let who = peer.host;
            tracer.set_span(span);
            tracer.set_cause(fault_seq);
            peer.credit.retain(|&(src, c)| {
                let dead = member(src, down.len()).is_some_and(|k| down[k]);
                if dead && c > 0 {
                    tracer.emit(now, registry::BITTORRENT_CHUNK_REASSIGN, |f| {
                        f.u64("peer", who.0 as u64)
                            .u64("sender", src.0 as u64)
                            .u64("lost_bytes", c);
                    });
                }
                !dead
            });
        }
    }

    /// Simulates the next round; `false` once every leecher has finished
    /// (the engine's deadline is the `max_rounds` cap).
    #[expect(clippy::indexing_slicing, reason = "i, j < peers.len(); p < n_pieces")]
    fn round(&mut self, ctx: &mut Ctx<'_, SwarmEv>) -> bool {
        self.rounds += 1;
        let rounds = self.rounds;
        let now = ctx.now();
        let (rng, tracer) = (&mut *ctx.rng, &mut *ctx.tracer);
        let finished = self.finished();
        if finished == self.cfg.n_leechers {
            self.completed_by_round.push(finished);
            return false;
        }
        let (peers, down) = (&self.peers, &self.down);
        let mut received_last = self.received_last.as_slice();
        // Phase 1: each peer picks its unchoke set (built in place into
        // its reused `unchokes` buffer).
        for (i, (me, unchoke)) in peers.iter().zip(&mut self.unchokes).enumerate() {
            unchoke.clear();
            // Peer i's receipts of last round head what is left of the
            // receiver-sorted list.
            let (mine, rest) = received_last.split_at(received_last.partition_point(|r| r.0 <= i));
            received_last = rest;
            if down[i] {
                continue;
            }
            // Interested neighbors: they lack something I have.
            self.interested.clear();
            self.interested.extend(
                me.neighbors
                    .iter()
                    .filter_map(|&h| member(h, peers.len()))
                    .filter(|&j| !down[j])
                    .filter(|&j| peers[j].done_at.is_none() && !peers[j].is_seed)
                    .filter(|&j| peers[j].pieces.is_interested_in(&me.pieces)),
            );
            if self.interested.is_empty() {
                continue;
            }
            // Tit-for-tat ranking; CAT discounts external reciprocators.
            let (cfg, underlay) = (&self.cfg, &self.underlay);
            self.interested.sort_by_key(|&j| {
                let recv = received_from(mine, peers[j].host);
                let scaled = if cfg.cost_aware_choking && !underlay.same_as(me.host, peers[j].host)
                {
                    recv / 2
                } else {
                    recv
                };
                (std::cmp::Reverse(scaled), peers[j].host)
            });
            unchoke.extend(self.interested.iter().copied().take(UNCHOKE_SLOTS));
            // Optimistic slots: random interested peers outside the set.
            self.leftovers.clear();
            self.leftovers.extend(
                self.interested
                    .iter()
                    .copied()
                    .filter(|j| !unchoke.contains(j)),
            );
            for _ in 0..OPTIMISTIC_SLOTS {
                if self.leftovers.is_empty() {
                    break;
                }
                let pick = self.leftovers[rng.index(self.leftovers.len())];
                if !unchoke.contains(&pick) {
                    unchoke.push(pick);
                }
            }
        }
        // Phase 2a: the round's unchoke pairs are its flow set. Diff it
        // against the persistent open-flow table (arrivals open, exits
        // close), then recompute the max-min fair allocation: every flow
        // competes for its sender's uplink, its receiver's downlink and
        // the shared AS links on its path — both capacity bugs of the old
        // per-flow `downlink/2` heuristic are impossible by construction.
        let round_secs = ROUND.as_secs_f64();
        let mut round_bytes = 0u64;
        self.completions.clear();
        self.desired.clear();
        for (i, unchoke) in self.unchokes.iter().enumerate() {
            for &j in unchoke {
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "member indices, bounded by the u32 HostId width"
                )]
                self.desired.push((i as u32, j as u32));
            }
        }
        self.desired.sort_unstable();
        // Both lists are sorted by pair, so one merge keeps the flows of
        // pairs still desired and opens the new ones, in pair order.
        self.next_flows.clear();
        let mut open = self.open_flows.iter().peekable();
        for &pair in &self.desired {
            while open.next_if(|&&(p, _)| p < pair).is_some() {}
            let flow = match open.next_if(|&&(p, _)| p == pair) {
                Some(&(_, flow)) => flow,
                None => {
                    let id = self.next_flow_id;
                    self.next_flow_id += 1;
                    let (src, dst) = (peers[pair.0 as usize].host, peers[pair.1 as usize].host);
                    tracer.emit(now, registry::NET_FLOW_OPEN, |f| {
                        f.u64("flow", id)
                            .u64("src", src.0 as u64)
                            .u64("dst", dst.0 as u64);
                    });
                    (id, 0)
                }
            };
            self.next_flows.push((pair, flow));
        }
        // Then the exits close, also in pair order.
        for &(pair, (id, bytes)) in &self.open_flows {
            if self.desired.binary_search(&pair).is_err() {
                tracer.emit(now, registry::NET_FLOW_CLOSE, |f| {
                    f.u64("flow", id).u64("bytes", bytes);
                });
            }
        }
        std::mem::swap(&mut self.open_flows, &mut self.next_flows);
        self.flow_alloc.begin();
        for &((i, j), (id, _)) in &self.open_flows {
            let (src, dst) = (peers[i as usize].host, peers[j as usize].host);
            // A fault partition can leave a cross-AS pair unroutable; the
            // rejected flow stays open but stalls (zero bytes) until
            // routing recovers.
            self.flow_alloc.add_flow(id, src, dst, &self.underlay);
        }
        self.flow_alloc.allocate();
        // Move bytes at the allocated rates. Zero-byte flows (stalled
        // routes, zero-capacity endpoints) are skipped outright: no
        // ledger entry, no credit.
        for ((i, j), flow) in &mut self.open_flows {
            let (i, j) = (*i as usize, *j as usize);
            let bytes = self.flow_alloc.bytes_of(flow.0, round_secs);
            if bytes == 0 {
                continue;
            }
            flow.1 += bytes;
            let (src, dst) = (self.peers[i].host, self.peers[j].host);
            self.underlay.account_transfer(now, src, dst, bytes);
            self.payload_bytes += bytes;
            round_bytes += bytes;
            self.received_this.push((j, src, bytes));
            *credit_mut(&mut self.peers[j].credit, src) += bytes;
        }
        self.received_this
            .sort_unstable_by_key(|&(receiver, sender, _)| (receiver, sender));
        // Phase 2b: receivers assemble chunks — fastest senders convert
        // credit first (slow senders only claim pieces nobody faster
        // offered, deprioritizing them), rarest pieces first.
        for received in self.received_this.chunk_by(|a, b| a.0 == b.0) {
            let Some(&(j, _, _)) = received.first() else {
                continue;
            };
            self.claimed.clear();
            self.senders.clear();
            self.senders
                .extend(received.iter().map(|&(_, sender, bytes)| (bytes, sender)));
            self.senders
                .sort_unstable_by_key(|&(b, h)| (std::cmp::Reverse(b), h));
            for &(_, src) in &self.senders {
                let i = src.idx();
                let mut credit = *credit_mut(&mut self.peers[j].credit, src);
                claim_pieces(
                    &self.peers[j].pieces,
                    &self.peers[i].pieces,
                    &mut credit,
                    self.cfg.piece_bytes,
                    &self.availability,
                    &mut self.claimed,
                    &mut self.new_claims,
                );
                *credit_mut(&mut self.peers[j].credit, src) = credit;
                for &p in &self.new_claims {
                    self.completions.push((j, p));
                }
            }
        }
        // Phase 3: commit completions, completion times, re-announces.
        let n_completions = self.completions.len();
        for &(j, p) in &self.completions {
            let peer = &mut self.peers[j];
            tracer.set_span(self.peer_spans[j]);
            if peer.pieces.insert(p) {
                self.availability[p] += 1;
            }
            if peer.pieces.is_complete() && peer.done_at.is_none() {
                peer.done_at = Some(rounds);
                let done_seq = tracer.emit(now, registry::BITTORRENT_PEER_DONE, |f| {
                    f.u64("peer", peer.host.0 as u64)
                        .u64("round", rounds as u64);
                });
                // The close is caused by the completion event itself.
                tracer.set_cause(done_seq);
                tracer.emit(now, registry::BITTORRENT_SPAN_CLOSE, |f| {
                    f.str("span_kind", "peer").bool("done", true);
                });
                tracer.set_cause(None);
            }
        }
        tracer.clear_provenance();
        tracer.emit(now, registry::BITTORRENT_ROUND, |f| {
            f.u64("round", rounds as u64)
                .u64("pieces", n_completions as u64)
                .u64("bytes", round_bytes);
        });
        std::mem::swap(&mut self.received_last, &mut self.received_this);
        self.received_this.clear();
        self.completed_by_round.push(self.finished());
        // Peers with shrunken useful neighborhoods re-announce every 20
        // rounds.
        if rounds.is_multiple_of(20) {
            for (peer, &is_down) in self.peers.iter_mut().zip(&self.down) {
                if !is_down && peer.done_at.is_none() && !peer.is_seed {
                    self.tracker.announce_into(
                        &self.underlay,
                        peer.host,
                        &self.members,
                        self.cfg.max_peers,
                        rng,
                        &mut peer.neighbors,
                    );
                }
            }
        }
        debug_assert!(
            self.completed_by_round.len() == rounds as usize
                && self.completed_by_round.last() == Some(&self.finished())
        );
        true
    }

    /// Closes the run: open flows and unfinished spans, the report, the
    /// per-link totals and `swarm.done`.
    fn finish(self, tracer: &mut Tracer) -> (SwarmReport, Underlay) {
        let Swarm {
            underlay,
            cfg,
            peers,
            tracker,
            peer_spans,
            open_flows,
            rounds,
            flow_alloc,
            ..
        } = self;
        let end = ROUND.mul(rounds as u64);
        // Flows still open when the run stops are closed here so every
        // flow.open has a matching flow.close in the trace.
        for &(_, (id, bytes)) in &open_flows {
            tracer.emit(end, registry::NET_FLOW_CLOSE, |f| {
                f.u64("flow", id).u64("bytes", bytes);
            });
        }
        // Leechers still incomplete when the run stops close their spans
        // unfinished, so span open/close stays balanced even in truncated runs.
        for (peer, &span) in peers.iter().zip(&peer_spans) {
            if peer.done_at.is_none() && span.is_some() {
                tracer.set_span(span);
                tracer.emit(end, registry::BITTORRENT_SPAN_CLOSE, |f| {
                    f.str("span_kind", "peer").bool("done", false);
                });
            }
        }
        tracer.clear_provenance();
        let completion_secs: Vec<f64> = peers
            .iter()
            .filter(|p| !p.is_seed)
            .filter_map(|p| p.done_at)
            .map(|r| r as f64 * ROUND.as_secs_f64())
            .collect();
        let report = SwarmReport {
            completed: completion_secs.len(),
            leechers: cfg.n_leechers,
            rounds,
            completion_secs,
            intra_as_fraction: underlay.traffic.locality_fraction(),
            payload_bytes: self.payload_bytes,
            announces: tracker.announces(),
            completed_by_round: self.completed_by_round,
            reannounces: self.reannounces,
            inter_as_saturations: flow_alloc.inter_as_saturations(),
        };
        underlay.trace_link_totals(end, tracer);
        tracer.emit(end, registry::BITTORRENT_SWARM_DONE, |f| {
            f.u64("rounds", report.rounds as u64)
                .u64("completed", report.completed as u64)
                .u64("leechers", report.leechers as u64)
                .u64("payload_bytes", report.payload_bytes)
                .u64("announces", report.announces)
                .f64("intra_as_fraction", report.intra_as_fraction);
        });
        (report, underlay)
    }
}

impl World<SwarmEv> for Swarm {
    fn handle(&mut self, ev: SwarmEv, ctx: &mut Ctx<'_, SwarmEv>) {
        match ev {
            SwarmEv::Round => {
                if self.round(ctx) {
                    ctx.schedule_in_root(ROUND, SwarmEv::Round);
                } else {
                    ctx.stop();
                }
            }
            SwarmEv::Fault(i) => self.fault_boundary(i as usize, ctx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use uap_net::{PopulationSpec, TopologyKind, TopologySpec, UnderlayConfig};
    use uap_sim::SimRng;
    use uap_sim::TraceLevel;

    /// [`claim_pieces`] as it was before the word-wise pass: one scan of
    /// every piece, bit by bit, per claimed piece, taking the rarest
    /// claimable one until the credit runs out or nothing is left.
    /// Appends to `out`.
    fn reference_claim_pieces(
        receiver: &PieceSet,
        sender: &PieceSet,
        credit: &mut u64,
        piece_bytes: u64,
        availability: &[u32],
        claimed: &mut PieceSet,
        out: &mut Vec<usize>,
    ) {
        while *credit >= piece_bytes {
            let wanted = (0..receiver.capacity())
                .filter(|&p| sender.contains(p) && !receiver.contains(p))
                .filter(|&p| !claimed.contains(p))
                .min_by_key(|&p| (availability[p], p));
            match wanted {
                Some(p) => {
                    *credit -= piece_bytes;
                    claimed.insert(p);
                    out.push(p);
                }
                None => {
                    *credit = (*credit).min(piece_bytes);
                    break;
                }
            }
        }
    }

    /// The pieces below `n` whose draw is under `density` (0 = none,
    /// 8 = all).
    fn set_of(n: usize, draws: &[u8], density: u8) -> PieceSet {
        let mut s = PieceSet::empty(n);
        for p in (0..n).filter(|&p| draws[p] < density) {
            s.insert(p);
        }
        s
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Three senders in a row, sharing one `claimed` set as one
        /// receiver's senders do in a round, claim exactly what the
        /// repeated-minimum reference claims: the same pieces in the
        /// same order, the same credit left and the same `claimed` set.
        #[test]
        fn claim_pieces_matches_the_repeated_minimum(
            (n_pick, n_any) in (0usize..4, 1usize..301),
            (pb_pick, pb_any) in (0usize..4, 2u64..5_000),
            draws in prop::collection::vec(0u8..8, 1_500..1_501),
            densities in prop::collection::vec(0u8..9, 5..6),
            availability in prop::collection::vec(0u32..4, 300..301),
            credit_draws in prop::collection::vec(any::<u64>(), 3..4),
        ) {
            let n = [63, 64, 65, n_any][n_pick];
            let piece_bytes = [0, 1, 1_024, pb_any][pb_pick];
            let set = |k: usize| set_of(n, &draws[k * 300..], densities[k]);
            let receiver = set(0);
            let start = set(1);
            let (mut claimed, mut claimed_ref) = (start.clone(), start);
            // Credit from nothing to more than every piece's worth.
            let span = (n as u64 + 3) * piece_bytes.max(1);
            for (k, draw) in credit_draws.iter().enumerate() {
                let sender = set(2 + k);
                let credit = draw % span;
                let (mut left, mut left_ref) = (credit, credit);
                let mut out = vec![usize::MAX]; // stale: must be overwritten
                let mut out_ref = Vec::new();
                claim_pieces(&receiver, &sender, &mut left, piece_bytes, &availability, &mut claimed, &mut out);
                reference_claim_pieces(&receiver, &sender, &mut left_ref, piece_bytes, &availability, &mut claimed_ref, &mut out_ref);
                prop_assert_eq!(&out, &out_ref, "n {} piece_bytes {} credit {} sender {}", n, piece_bytes, credit, k);
                prop_assert_eq!(left, left_ref, "credit left, sender {}", k);
                prop_assert_eq!(&claimed, &claimed_ref, "claimed after sender {}", k);
            }
        }
    }

    fn underlay(n: usize, seed: u64) -> Underlay {
        let mut rng = SimRng::new(seed);
        let g = TopologySpec::new(TopologyKind::Hierarchical {
            tier1: 2,
            tier2_per_tier1: 2,
            tier3_per_tier2: 2,
            tier2_peering_prob: 0.3,
            tier3_peering_prob: 0.4,
        })
        .build(&mut rng);
        Underlay::build(
            g,
            &PopulationSpec::leaf(n),
            UnderlayConfig::default(),
            &mut rng,
        )
    }

    fn small_cfg(tracker: TrackerPolicy) -> SwarmConfig {
        SwarmConfig {
            n_leechers: 60,
            n_seeds: 4,
            n_pieces: 32,
            piece_bytes: 128 * 1024,
            tracker,
            ..Default::default()
        }
    }

    #[test]
    fn swarm_completes() {
        let (report, _) = run_swarm_with(
            underlay(80, 1),
            small_cfg(TrackerPolicy::Random),
            11,
            &mut Tracer::disabled(),
        );
        assert_eq!(report.completed, report.leechers, "not everyone finished");
        assert!(report.mean_completion_secs() > 0.0);
        assert!(report.payload_bytes > 0);
        assert!(report.announces >= 64);
    }

    #[test]
    fn bns_increases_locality_without_collapsing_speed() {
        let (random, _) = run_swarm_with(
            underlay(80, 2),
            small_cfg(TrackerPolicy::Random),
            13,
            &mut Tracer::disabled(),
        );
        let (bns, _) = run_swarm_with(
            underlay(80, 2),
            small_cfg(TrackerPolicy::Bns {
                internal: 16,
                external: 4,
            }),
            13,
            &mut Tracer::disabled(),
        );
        assert!(
            bns.intra_as_fraction > 1.5 * random.intra_as_fraction,
            "bns {} vs random {}",
            bns.intra_as_fraction,
            random.intra_as_fraction
        );
        assert_eq!(bns.completed, bns.leechers);
        // Bindal et al.'s headline: locality does not blow up download
        // times. Allow 2x slack.
        assert!(
            bns.mean_completion_secs() < 2.0 * random.mean_completion_secs(),
            "bns {}s vs random {}s",
            bns.mean_completion_secs(),
            random.mean_completion_secs()
        );
    }

    #[test]
    fn cost_aware_tracker_also_localizes() {
        let (random, _) = run_swarm_with(
            underlay(80, 3),
            small_cfg(TrackerPolicy::Random),
            17,
            &mut Tracer::disabled(),
        );
        let (cat, _) = run_swarm_with(
            underlay(80, 3),
            small_cfg(TrackerPolicy::CostAware),
            17,
            &mut Tracer::disabled(),
        );
        assert!(cat.intra_as_fraction > random.intra_as_fraction);
        assert_eq!(cat.completed, cat.leechers);
    }

    #[test]
    fn seeds_only_swarm_is_a_noop() {
        let mut cfg = small_cfg(TrackerPolicy::Random);
        cfg.n_leechers = 0;
        cfg.n_seeds = 4;
        let (report, _) = run_swarm_with(underlay(20, 4), cfg, 19, &mut Tracer::disabled());
        assert_eq!(report.completed, 0);
        assert_eq!(report.rounds, 1);
    }

    #[test]
    fn max_rounds_bounds_runtime() {
        let mut cfg = small_cfg(TrackerPolicy::Random);
        cfg.max_rounds = 3;
        let (report, _) = run_swarm_with(underlay(80, 5), cfg, 23, &mut Tracer::disabled());
        assert_eq!(report.rounds, 3);
        assert!(report.completed < report.leechers);
    }

    #[test]
    fn traced_swarm_runs_are_byte_identical() {
        let trace = || {
            let mut cfg = small_cfg(TrackerPolicy::Random);
            cfg.max_rounds = 30;
            let mut t = Tracer::buffered(TraceLevel::Debug);
            run_swarm_with(underlay(80, 9), cfg, 37, &mut t);
            t.to_jsonl()
        };
        let a = trace();
        assert!(a.contains("\"k\":\"round\""));
        assert!(a.contains("\"k\":\"swarm.done\""));
        assert!(a.contains("\"k\":\"flow.open\""));
        assert!(a.contains("\"k\":\"flow.close\""));
        assert_eq!(a, trace());
    }

    #[test]
    fn deterministic_given_seed() {
        let (a, _) = run_swarm_with(
            underlay(80, 6),
            small_cfg(TrackerPolicy::Random),
            29,
            &mut Tracer::disabled(),
        );
        let (b, _) = run_swarm_with(
            underlay(80, 6),
            small_cfg(TrackerPolicy::Random),
            29,
            &mut Tracer::disabled(),
        );
        assert_eq!(a.completion_secs, b.completion_secs);
        assert_eq!(a.payload_bytes, b.payload_bytes);
    }

    #[test]
    fn swarm_flow_model_bypasses_route_cache() {
        // The swarm moves bytes with the bandwidth-share model
        // (account_transfer), not per-flow latency queries, so a full run
        // must leave the AS-pair route cache untouched — a regression here
        // means someone added a latency probe to the per-round hot loop.
        let (_, u) = run_swarm_with(
            underlay(80, 8),
            small_cfg(TrackerPolicy::Random),
            41,
            &mut Tracer::disabled(),
        );
        assert_eq!(u.route_cache_stats(), (0, 0));
        // The cache still answers post-run analysis queries on the same
        // underlay: any inter-AS pair registers a hit.
        let mut probed = false;
        for a in 0..u.n_hosts() {
            let (ha, hb) = (
                HostId::from_index(a),
                HostId::from_index((a + 1) % u.n_hosts()),
            );
            if !u.same_as(ha, hb) {
                assert!(u.rtt_us(ha, hb).is_some());
                probed = true;
                break;
            }
        }
        assert!(probed, "hierarchy population must span multiple ASes");
        let (hits, _) = u.route_cache_stats();
        assert!(hits > 0);
    }

    #[test]
    fn fault_free_runs_report_monotone_progress_and_no_reannounces() {
        let (report, _) = run_swarm_with(
            underlay(80, 1),
            small_cfg(TrackerPolicy::Random),
            11,
            &mut Tracer::disabled(),
        );
        assert_eq!(report.reannounces, 0);
        assert_eq!(report.completed_by_round.len(), report.rounds as usize);
        assert!(report.completed_by_round.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*report.completed_by_round.last().unwrap(), report.completed);
    }

    #[test]
    fn crash_epoch_stalls_then_recovery_completes_the_swarm() {
        let mut cfg = small_cfg(TrackerPolicy::Random);
        // Crash a third of the leechers (and nobody else) for rounds ~5-30.
        let crashed: Vec<HostId> = (4..24).map(HostId).collect();
        cfg.faults = Some(uap_net::FaultPlan::new().epoch(
            SimTime::from_secs(50),
            SimTime::from_secs(300),
            uap_net::FaultKind::HostCrash {
                hosts: crashed.clone(),
            },
        ));
        let (faulted, _) = run_swarm_with(underlay(80, 1), cfg, 11, &mut Tracer::disabled());
        // Dead-neighbor loss and crash recovery both force re-announces.
        assert!(
            faulted.reannounces > 0,
            "crash epochs must trigger re-announces"
        );
        // Everyone still finishes once the epoch clears: the crashed
        // leechers resume where they paused and re-announce for neighbors.
        assert_eq!(faulted.completed, faulted.leechers, "swarm must recover");
        let (clean, _) = run_swarm_with(
            underlay(80, 1),
            small_cfg(TrackerPolicy::Random),
            11,
            &mut Tracer::disabled(),
        );
        assert!(
            faulted.rounds >= clean.rounds,
            "a crash epoch cannot speed the swarm up ({} < {})",
            faulted.rounds,
            clean.rounds
        );
    }

    #[test]
    fn partition_epoch_stalls_cross_as_flows_then_recovers() {
        let mut cfg = small_cfg(TrackerPolicy::Random);
        cfg.max_rounds = 20; // entirely inside the partition window
        let base = cfg.clone();
        // Kill 90% of transit links for rounds 3..30.
        cfg.faults = Some(uap_net::FaultPlan::new().epoch(
            SimTime::from_secs(30),
            SimTime::from_secs(300),
            uap_net::FaultKind::TransitDown { p: 0.9, salt: 5 },
        ));
        let (faulted, _) =
            run_swarm_with(underlay(80, 1), cfg.clone(), 11, &mut Tracer::disabled());
        let (clean, _) = run_swarm_with(underlay(80, 1), base, 11, &mut Tracer::disabled());
        // Stalled cross-AS flows move strictly fewer payload bytes while
        // the partition holds.
        assert!(
            faulted.payload_bytes < clean.payload_bytes,
            "faulted {} !< clean {}",
            faulted.payload_bytes,
            clean.payload_bytes
        );
        // Once the window clears, the same campaign completes the swarm.
        cfg.max_rounds = 2_000;
        let (recovered, _) = run_swarm_with(underlay(80, 1), cfg, 11, &mut Tracer::disabled());
        assert_eq!(
            recovered.completed, recovered.leechers,
            "swarm must recover"
        );
    }

    /// A 60-round run under overlapping `HostCrash` and `RandomLinkDown`
    /// epochs.
    fn faulted_cfg() -> SwarmConfig {
        let mut cfg = small_cfg(TrackerPolicy::Random);
        cfg.max_rounds = 60;
        cfg.faults = Some(
            uap_net::FaultPlan::new()
                .epoch(
                    SimTime::from_secs(40),
                    SimTime::from_secs(120),
                    uap_net::FaultKind::HostCrash {
                        hosts: (0..12).map(HostId).collect(),
                    },
                )
                .epoch(
                    SimTime::from_secs(80),
                    SimTime::from_secs(160),
                    uap_net::FaultKind::RandomLinkDown { p: 0.4, salt: 3 },
                ),
        );
        cfg
    }

    #[test]
    fn faulted_swarm_runs_are_deterministic_and_traced() {
        let run = || {
            let cfg = faulted_cfg();
            let mut t = Tracer::buffered(TraceLevel::Debug);
            let (report, u) = run_swarm_with(underlay(80, 9), cfg, 37, &mut t);
            let epochs: Vec<SimTime> = t
                .events()
                .iter()
                .filter(|e| e.kind == "fault.epoch")
                .map(|e| e.t)
                .collect();
            (
                report.completed_by_round.clone(),
                report.reannounces,
                u.route_cache_invalidations(),
                epochs,
                t.to_jsonl(),
            )
        };
        let (curve, reann, invalidations, epochs, trace) = run();
        assert!(trace.contains("\"k\":\"reannounce\""));
        // The plan's four boundaries, each entered at its own time.
        assert_eq!(epochs, [40, 80, 120, 160].map(SimTime::from_secs));
        assert_eq!(invalidations, 4);
        let (curve2, reann2, inv2, _, trace2) = run();
        assert_eq!((curve, reann, invalidations), (curve2, reann2, inv2));
        assert_eq!(trace, trace2, "faulted runs must be byte-identical");
    }

    #[test]
    fn cost_aware_choking_flag_shifts_traffic() {
        let mut base = small_cfg(TrackerPolicy::Random);
        let (plain, _) = run_swarm_with(underlay(80, 7), base.clone(), 31, &mut Tracer::disabled());
        base.cost_aware_choking = true;
        let (cat, _) = run_swarm_with(underlay(80, 7), base, 31, &mut Tracer::disabled());
        assert!(cat.intra_as_fraction >= plain.intra_as_fraction);
        assert_eq!(cat.completed, cat.leechers);
    }

    #[test]
    fn receiver_downlink_is_never_exceeded() {
        // Eight fat seeds all unchoke the lone leecher; its 6 Mbit/s
        // downlink must bound what it receives per round. The old model
        // capped each flow at downlink/2, so eight senders could deliver
        // 4x the link's capacity.
        let mut u = underlay(20, 1);
        for i in 0..8 {
            u.hosts.hosts[i].up_kbps = 100_000;
        }
        u.hosts.hosts[8].down_kbps = 6_000;
        let cfg = SwarmConfig {
            n_leechers: 1,
            n_seeds: 8,
            max_rounds: 1,
            ..Default::default()
        };
        let (report, _) = run_swarm_with(u, cfg, 11, &mut Tracer::disabled());
        // Only the leecher receives payload, so payload_bytes is exactly
        // its per-round inflow: <= down_kbps * round_secs (+1% fp slack).
        let cap = (6_000u64 * 1_000 / 8) * 10;
        assert!(
            report.payload_bytes <= cap + cap / 100,
            "leecher received {} bytes against a {}-byte downlink budget",
            report.payload_bytes,
            cap
        );
        assert!(report.payload_bytes > 0, "flows should still move bytes");
    }

    #[test]
    fn zero_uplink_seed_transfers_nothing() {
        // A seed whose uplink is 0 kbps gets a max-min rate of exactly
        // zero; the old `.max(1)` floor let it trickle the whole torrent
        // out one byte per round.
        let mut u = underlay(20, 1);
        u.hosts.hosts[0].up_kbps = 0;
        let cfg = SwarmConfig {
            n_leechers: 6,
            n_seeds: 1,
            max_rounds: 10,
            ..Default::default()
        };
        let (report, _) = run_swarm_with(u, cfg, 11, &mut Tracer::disabled());
        assert_eq!(report.payload_bytes, 0, "a dead uplink must move nothing");
        assert_eq!(report.completed, 0);
    }

    /// The whole-run window of the degenerate suite's fault plans: the
    /// boundary at 0 is applied before round 1 moves a byte.
    const FOREVER: SimTime = SimTime::from_hours(1_000);

    /// The `u64` field `key` of a trace event.
    fn u64_field(e: &uap_sim::TraceEvent, key: &str) -> u64 {
        match e.fields.iter().find(|(k, _)| k == key) {
            Some((_, uap_sim::Value::U64(v))) => *v,
            other => panic!("{}: no u64 field {key:?} ({other:?})", e.kind),
        }
    }

    /// Trace events of `kind`.
    fn count_kind(t: &Tracer, kind: &str) -> usize {
        t.events().iter().filter(|e| e.kind == kind).count()
    }

    /// What every degenerate run must still deliver: a report whose
    /// counts are consistent with each other and with the flows the
    /// trace saw, and a trace whose spans are balanced.
    fn assert_sane(report: &SwarmReport, t: &Tracer) {
        assert!(report.completed <= report.leechers);
        assert_eq!(report.completion_secs.len(), report.completed);
        assert_eq!(report.completed_by_round.len(), report.rounds as usize);
        assert!(report.completed_by_round.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(
            report.completed_by_round.last().copied().unwrap_or(0),
            report.completed
        );
        // Payload is exactly what the flows carried: zero when, and only
        // when, no flow moved a byte.
        let flow_bytes: u64 = t
            .events()
            .iter()
            .filter(|e| e.kind == "flow.close")
            .map(|e| u64_field(e, "bytes"))
            .sum();
        assert_eq!(report.payload_bytes, flow_bytes);
        let mut open = std::collections::BTreeSet::new();
        for e in t.events() {
            match e.kind.as_str() {
                "span.open" => assert!(open.insert(e.span), "span {:?} reopened", e.span),
                "span.close" => assert!(open.remove(&e.span), "span {:?} not open", e.span),
                _ => {}
            }
        }
        assert!(open.is_empty(), "spans left open: {open:?}");
    }

    #[test]
    #[should_panic(expected = "a swarm needs a piece")]
    fn zero_piece_swarm_is_refused() {
        // Nobody could ever complete it: without the guard it ran every
        // one of its `max_rounds` rounds.
        let mut cfg = small_cfg(TrackerPolicy::Random);
        cfg.n_pieces = 0;
        run_swarm_with(underlay(80, 1), cfg, 11, &mut Tracer::disabled());
    }

    #[test]
    fn every_seed_crashing_for_good_ends_at_max_rounds() {
        let mut cfg = small_cfg(TrackerPolicy::Random);
        cfg.n_pieces = 256;
        cfg.max_rounds = 40;
        // All four seeds go down after two rounds and never come back:
        // the pieces they had not yet uploaded are gone with them.
        cfg.faults = Some(uap_net::FaultPlan::new().epoch(
            SimTime::from_secs(30),
            FOREVER,
            uap_net::FaultKind::HostCrash {
                hosts: (0..4).map(HostId).collect(),
            },
        ));
        let mut t = Tracer::buffered(TraceLevel::Debug);
        let (report, _) = run_swarm_with(underlay(80, 1), cfg, 11, &mut t);
        assert_eq!(report.rounds, 40);
        assert!(report.payload_bytes > 0, "two rounds of seeding happened");
        assert!(report.completed < report.leechers);
        // The `FOREVER` end lies past the deadline: one boundary entered.
        assert_eq!(count_kind(&t, "fault.epoch"), 1);
        assert_sane(&report, &t);
    }

    #[test]
    fn with_every_inter_as_link_down_only_same_as_pairs_exchange() {
        let u = underlay(80, 1);
        let mut cfg = small_cfg(TrackerPolicy::Random);
        cfg.max_rounds = 30;
        cfg.faults = Some(uap_net::FaultPlan::new().epoch(
            SimTime::ZERO,
            FOREVER,
            uap_net::FaultKind::LinkDown {
                links: (0..).take(u.graph.links.len()).collect(),
            },
        ));
        let mut t = Tracer::buffered(TraceLevel::Debug);
        let (report, u) = run_swarm_with(u, cfg, 11, &mut t);
        assert_eq!(report.rounds, 30);
        assert_eq!(count_kind(&t, "fault.epoch"), 1);
        assert!(report.payload_bytes == 0 || report.intra_as_fraction == 1.0);
        assert!(u.traffic.per_link_bytes().all(|b| b == 0));
        assert_sane(&report, &t);
    }

    #[test]
    fn zero_downlink_leecher_is_the_only_one_unfinished() {
        let mut u = underlay(80, 1);
        let stuck = HostId(10); // a leecher: members 0..4 are the seeds
        u.hosts.hosts[stuck.idx()].down_kbps = 0;
        let mut cfg = small_cfg(TrackerPolicy::Random);
        cfg.max_rounds = 400;
        let mut t = Tracer::buffered(TraceLevel::Debug);
        let (report, _) = run_swarm_with(u, cfg, 11, &mut t);
        assert_eq!(report.rounds, 400, "the stuck leecher keeps the run open");
        assert_eq!(report.completed, report.leechers - 1);
        let done_peers: Vec<u64> = t
            .events()
            .iter()
            .filter(|e| e.kind == "peer.done")
            .map(|e| u64_field(e, "peer"))
            .collect();
        assert_eq!(done_peers.len(), report.completed);
        assert!(!done_peers.contains(&(stuck.0 as u64)));
        assert_sane(&report, &t);
    }

    #[test]
    fn one_as_swarm_completes_entirely_intra_as() {
        let mut graph = uap_net::AsGraph::new();
        graph.add_as(uap_net::Tier::Tier3, uap_net::GeoPoint::new(0.0, 0.0), 10.0);
        let u = Underlay::build(
            graph,
            &PopulationSpec::uniform(40),
            UnderlayConfig::default(),
            &mut SimRng::new(3),
        );
        let cfg = SwarmConfig {
            n_leechers: 30,
            n_seeds: 2,
            n_pieces: 16,
            tracker: TrackerPolicy::Bns {
                internal: 19,
                external: 1,
            },
            ..Default::default()
        };
        let mut t = Tracer::buffered(TraceLevel::Debug);
        let (report, _) = run_swarm_with(u, cfg, 11, &mut t);
        assert_eq!(report.completed, report.leechers);
        assert_eq!(report.intra_as_fraction, 1.0);
        assert_sane(&report, &t);
    }

    #[test]
    fn claim_pieces_retains_partial_credit_capped_at_one_piece() {
        let sender = PieceSet::full(4);
        let mut receiver = PieceSet::empty(4);
        let availability = vec![1u32; 4];
        let mut claimed = PieceSet::empty(4);
        let mut out = Vec::new();
        // 2.5 pieces of credit: two claims, half a piece retained.
        let mut credit = 2_560;
        claim_pieces(
            &receiver,
            &sender,
            &mut credit,
            1_024,
            &availability,
            &mut claimed,
            &mut out,
        );
        assert_eq!(out, vec![0, 1]);
        assert_eq!(credit, 512, "partial credit must survive the round");
        // Receiver now holds everything; surplus credit is capped at one
        // piece instead of zeroed, so the next unchoke resumes instantly.
        for p in 0..4 {
            receiver.insert(p);
        }
        let mut credit = 10_000;
        out.clear();
        claim_pieces(
            &receiver,
            &sender,
            &mut credit,
            1_024,
            &availability,
            &mut claimed,
            &mut out,
        );
        assert!(out.is_empty());
        assert_eq!(credit, 1_024, "wasted credit caps at one piece, not zero");
    }

    #[test]
    fn claim_pieces_prefers_rare_pieces_and_never_double_claims() {
        let sender = PieceSet::full(3);
        let receiver = PieceSet::empty(3);
        let availability = vec![5u32, 1, 3];
        let mut claimed = PieceSet::empty(3);
        let mut out = Vec::new();
        let mut credit = 1_024;
        claim_pieces(
            &receiver,
            &sender,
            &mut credit,
            1_024,
            &availability,
            &mut claimed,
            &mut out,
        );
        assert_eq!(out, vec![1], "rarest piece claims first");
        // A second (slower) sender offering the same pieces can only claim
        // what the faster one left behind.
        let mut out2 = Vec::new();
        let mut credit2 = 4_096;
        claim_pieces(
            &receiver,
            &sender,
            &mut credit2,
            1_024,
            &availability,
            &mut claimed,
            &mut out2,
        );
        assert_eq!(out2, vec![2, 0], "claimed pieces are not re-claimed");
    }

    #[test]
    fn crash_epochs_prune_credit_and_trace_reassignments() {
        let mut cfg = small_cfg(TrackerPolicy::Random);
        cfg.max_rounds = 60;
        cfg.faults = Some(uap_net::FaultPlan::new().epoch(
            SimTime::from_secs(40),
            SimTime::from_secs(200),
            uap_net::FaultKind::HostCrash {
                hosts: (4..24).map(HostId).collect(),
            },
        ));
        let mut t = Tracer::buffered(TraceLevel::Debug);
        run_swarm_with(underlay(80, 9), cfg, 37, &mut t);
        let trace = t.to_jsonl();
        assert!(
            trace.contains("\"k\":\"chunk.reassign\""),
            "partial chunks held against crashed senders must be reassigned"
        );
    }
}
