//! Flow-level max-min fair bandwidth allocation (progressive filling).
//!
//! The paper's quantitative claims — locality changes *where* bytes flow
//! and *how fast* swarms finish — need transfers that are bandwidth-bound,
//! not latency proxies. [`FlowAllocator`] models that: every active
//! transfer is a **flow** over a capacity graph of
//!
//! * per-host **access links** — each host contributes an uplink and a
//!   downlink resource sized from [`crate::host::Host::up_kbps`] /
//!   `down_kbps`;
//! * **inter-AS links** — each [`crate::asgraph::AsLink`] contributes one
//!   shared resource sized from its `capacity_mbps` link class, so
//!   cross-AS flows compete for transit/peering capacity wherever it is
//!   narrow enough to bind. At the generator's capacities it never is:
//!   no inter-AS link enters the fill (see below) in any experiment of
//!   `exp all --seed 42` or any round of the benchmark's swarm, and
//!   [`FlowAllocator::inter_as_saturations`] counts the ones that bind.
//!
//! Rates come from **progressive filling** (Bertsekas & Gallager): every
//! unfrozen flow's rate rises at the same pace; when a resource
//! saturates, the flows crossing it freeze at the current rate; repeat
//! until every flow is frozen. The result is the unique max-min fair
//! allocation: no flow can gain rate without taking from a flow of equal
//! or smaller rate, and every flow is bottlenecked at some saturated
//! resource.
//!
//! # The index
//!
//! [`allocate`] rebuilds its structures from the registered set on every
//! call, and a filling level visits only the resources that can bind at
//! it:
//!
//! * a **census** of the touched resources, in first-use order, and a
//!   **static bound** per resource: the sum, over its flows, of each
//!   flow's smallest resource capacity. Every max-min rate is at most
//!   that smallest capacity, so a resource's load never exceeds its
//!   bound; one whose bound plus two [`saturation_eps`] stays below its
//!   capacity can neither saturate nor set an increment (a level's
//!   arg-min always saturates), and is **dropped** from the fill. The
//!   rest are **kept** in dense per-slot records (capacity, tolerance,
//!   load, unfrozen users). At the generator's capacities the bound drops
//!   every inter-AS link a swarm round uses, and nearly a quarter of its
//!   access links;
//! * a **resource→flows index**, CSR over the kept slots, every bucket in
//!   flow-id order, so freezing visits only a saturated slot's flows;
//! * a **wake-level heap** and an **increment log**. A kept slot sleeps
//!   under a lower bound on the level at which it could set the increment
//!   or saturate: `level + (cap − load − 2·eps) / users`, one tolerance for
//!   the saturation test and one for rounding. Each level pops only the
//!   slots whose wake level is at most `level + inc` and takes the
//!   increment `inc` from them, lowering it as it pops; a slot left
//!   asleep has more headroom per user than `inc` and stays an `eps`
//!   short of saturating. A sleeping slot's load is brought up to date by
//!   replaying the logged increments (`load += inc × users`, in log order)
//!   when it wakes or a freeze changes its user count; one whose users
//!   reach zero leaves without a replay. The heap is lazy: a slot's live
//!   entry is the one whose level equals the slot's `wake`;
//! * a **running level sum** of the increments. A flow freezing at a
//!   level takes the sum as its rate.
//!
//! The rates are bit-identical to adding each increment to every unfrozen
//! flow's rate and raising every touched resource's load at every level:
//! the increment is a minimum, which no dropped or sleeping slot attains;
//! no dropped or sleeping slot saturates, so the saturated sets are the
//! same; a replay performs the same `f64` multiply, then add, on the same
//! load with the same user count in the same order; and the rates and the
//! level sum both start at `0.0` and add the same increments in the same
//! order. That from-scratch fill is kept as
//! [`crate::invariants::reference_max_min`], the differential oracle.
//! Every level saturates at least one kept slot, so there are at most as
//! many levels (and logged increments) as kept slots.
//!
//! # Determinism
//!
//! Callers register flows with explicit `u64` ids; [`allocate`] sorts by
//! id before filling, so the allocation is a pure function of the *flow
//! set* — two same-seed runs, or the same set inserted in a different
//! order, produce bit-identical rates (`f64` arithmetic is deterministic
//! once the iteration order is fixed). No RNG, wall clock, or hash map is
//! involved. The invariants are re-checked under `debug_assertions`, over
//! loads materialised for every touched resource (dropped and sleeping
//! ones by replaying the log), by
//! [`crate::invariants::check_flow_capacity`],
//! [`check_flow_conservation`](crate::invariants::check_flow_conservation)
//! and [`check_flow_max_min`](crate::invariants::check_flow_max_min), and
//! [`check_flow_reference`](crate::invariants::check_flow_reference)
//! asserts every rate bit-equal to the reference fill's.
//!
//! # Reuse
//!
//! All working storage lives in the struct and is recycled across
//! [`begin`]/[`allocate`] cycles; the log and the heap are reserved to
//! their bounds before filling, so recomputing the allocation at flow
//! arrival/departure/fault epochs allocates nothing on the per-round hot
//! path (`tests/alloc_count.rs` counts the allocator's cycles alone and
//! the swarm's rounds).
//!
//! [`allocate`]: FlowAllocator::allocate
//! [`begin`]: FlowAllocator::begin

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::ids::HostId;
use crate::underlay::Underlay;

/// The one saturation tolerance, in bytes/second: float filling
/// accumulates rounding, so "load reached capacity" is tested as
/// `load + saturation_eps(cap) >= cap`, a slack proportional to the
/// capacity plus one byte/second. The debug checkers and the tests
/// compare loads and rates with the same slack, and the fill's two
/// filters keep two of it as their margin.
pub fn saturation_eps(cap: f64) -> f64 {
    cap * 1e-9 + 1.0
}

/// [`FlowAllocator`]'s `slot_of` entry for a resource the current flow
/// set does not touch.
const UNUSED: u32 = u32::MAX;

/// `slot_of` entry for a touched resource the static bound dropped from
/// the fill.
const DROPPED: u32 = u32::MAX - 1;

/// `frozen_at` entry for a flow that is still filling.
const UNFROZEN: u32 = u32::MAX;

/// A resource kept in the fill.
#[derive(Clone, Copy, Debug)]
struct Slot {
    /// Resource index, in the layout of [`FlowAllocator`]'s `cap`.
    res: u32,
    /// Unfrozen flows crossing it.
    users: u32,
    /// Capacity in bytes/second.
    cap: f64,
    /// [`saturation_eps`] of `cap`.
    eps: f64,
    /// Load with the first `seen` logged increments applied.
    load: f64,
    /// Logged increments `load` includes.
    seen: u32,
    /// The level of the slot's live heap entry; NaN while it has none
    /// (awake in the current level, or out of the fill).
    wake: f64,
}

impl Slot {
    /// Applies the increments logged since `seen` at the current user
    /// count: the additions the level-by-level fill made while it slept.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the log holds at most one increment per kept slot, a u32 count"
    )]
    fn catch_up(&mut self, incs: &[f64]) {
        let users = self.users as f64;
        for &inc in incs.get(self.seen as usize..).unwrap_or_default() {
            self.load += inc * users;
        }
        self.seen = incs.len() as u32;
    }

    /// A lower bound on the level at which the slot could set the
    /// increment or saturate, from an up-to-date `load` at `level`.
    fn wake_level(&self, level: f64) -> f64 {
        level + (self.cap - self.load - 2.0 * self.eps) / self.users as f64
    }
}

/// A heap entry: `slot` sleeps until the level reaches `level`. Ordered
/// so that [`BinaryHeap`], a max-heap, pops the lowest level first (ties
/// by slot).
#[derive(Clone, Copy, Debug)]
struct Wake {
    level: f64,
    slot: u32,
}

impl PartialEq for Wake {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Wake {}

impl PartialOrd for Wake {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Wake {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .level
            .total_cmp(&self.level)
            .then(other.slot.cmp(&self.slot))
    }
}

/// Deterministic max-min fair bandwidth allocator over host access links
/// and inter-AS links. See the module docs for the model and the
/// determinism contract.
#[derive(Debug)]
pub struct FlowAllocator {
    n_hosts: usize,
    /// Capacity per resource in bytes/second. Layout: `[0, n)` host
    /// uplinks, `[n, 2n)` host downlinks, `[2n, 2n + links)` AS links.
    cap: Vec<f64>,
    /// Registered flows: `(id, arena start, resource count)`; sorted by
    /// id inside [`FlowAllocator::allocate`].
    flows: Vec<(u64, u32, u32)>,
    /// Concatenated resource-index lists, one span per flow.
    arena: Vec<u32>,
    /// Allocated rate per flow (bytes/second), parallel to `flows`.
    rates: Vec<f64>,
    /// Per flow, parallel to `flows`: how many logged increments it took
    /// part in (the log's length when it froze), or [`UNFROZEN`].
    frozen_at: Vec<u32>,
    /// Resources touched by the current flow set, in first-use order.
    used: Vec<u32>,
    /// Per resource: its slot in `slots`, [`DROPPED`] or [`UNUSED`].
    slot_of: Vec<u32>,
    /// Per resource (only entries in `used` are meaningful): the static
    /// bound, the sum over its flows of each flow's smallest capacity.
    bound: Vec<f64>,
    /// The kept resources, in first-use order.
    slots: Vec<Slot>,
    /// The resource→flows index: the flows crossing slot `k` are
    /// `index[index_at[k]..index_at[k + 1]]`, in id order.
    index: Vec<u32>,
    /// Bucket starts of `index` by slot, plus the end.
    index_at: Vec<u32>,
    /// Sleeping slots by wake level, plus stale entries.
    heap: BinaryHeap<Wake>,
    /// The increment of every level that raised the rates, in order.
    incs: Vec<f64>,
    /// Slots visited in the current level: popped, or woken by a freeze.
    awake: Vec<u32>,
    /// The slots one filling level saturated.
    saturated: Vec<u32>,
    /// Inter-AS resources saturated over every fill so far.
    inter_as_saturations: u64,
}

impl FlowAllocator {
    /// Snapshots the capacity graph of `underlay`: host access links in
    /// kbit/s and AS links in Mbit/s, both converted to bytes/second.
    /// Host bandwidths and link classes are static for the life of a run;
    /// routing (and therefore each flow's AS-link span) is re-resolved on
    /// every [`FlowAllocator::add_flow`], so fault-epoch reroutes are
    /// picked up at the next recomputation.
    pub fn new(underlay: &Underlay) -> FlowAllocator {
        let n = underlay.n_hosts();
        let n_links = underlay.graph.links.len();
        let mut cap = Vec::with_capacity(2 * n + n_links);
        for h in &underlay.hosts.hosts {
            cap.push(h.up_kbps as f64 * 1_000.0 / 8.0);
        }
        for h in &underlay.hosts.hosts {
            cap.push(h.down_kbps as f64 * 1_000.0 / 8.0);
        }
        for l in &underlay.graph.links {
            cap.push(l.capacity_mbps * 1_000_000.0 / 8.0);
        }
        let n_resources = cap.len();
        FlowAllocator {
            n_hosts: n,
            cap,
            flows: Vec::new(),
            arena: Vec::new(),
            rates: Vec::new(),
            frozen_at: Vec::new(),
            used: Vec::new(),
            slot_of: vec![UNUSED; n_resources],
            bound: vec![0.0; n_resources],
            slots: Vec::new(),
            index: Vec::new(),
            index_at: Vec::new(),
            heap: BinaryHeap::new(),
            incs: Vec::new(),
            awake: Vec::new(),
            saturated: Vec::new(),
            inter_as_saturations: 0,
        }
    }

    /// Starts a new flow set (the previous set's flows depart).
    pub fn begin(&mut self) {
        self.flows.clear();
        self.arena.clear();
    }

    /// Registers flow `id` from `src` to `dst`. Returns `false` (and
    /// registers nothing) when the pair is unroutable under the current
    /// routing tables — a fault partition stalls the flow until routing
    /// recovers. Ids must be unique within one [`FlowAllocator::begin`]
    /// cycle (a debug build of [`FlowAllocator::allocate`] panics on a
    /// duplicate); the allocation depends only on the id *set*, not the
    /// insertion order.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "resource ids are < 2·n_hosts + n_links, and n_hosts is bounded by the u32 HostId width"
    )]
    pub fn add_flow(&mut self, id: u64, src: HostId, dst: HostId, underlay: &Underlay) -> bool {
        let start = self.arena.len() as u32;
        let src_as = underlay.hosts.as_of(src);
        let dst_as = underlay.hosts.as_of(dst);
        if src_as != dst_as {
            // Resolved directly from the routing tables (CSR slice), never
            // through the AS-pair route cache — flow setup must not perturb
            // the cache counters the latency queries own.
            let Some(path) = underlay.routing().path_links(src_as, dst_as) else {
                return false;
            };
            self.arena.push(src.0);
            self.arena.push(self.n_hosts as u32 + dst.0);
            for &li in path {
                self.arena.push(2 * self.n_hosts as u32 + u32::from(li));
            }
        } else {
            self.arena.push(src.0);
            self.arena.push(self.n_hosts as u32 + dst.0);
        }
        let len = self.arena.len() as u32 - start;
        self.flows.push((id, start, len));
        true
    }

    /// Computes the max-min fair allocation for the registered flow set
    /// by progressive filling. Deterministic: flows are processed in
    /// sorted-id order, so the result is independent of insertion order.
    pub fn allocate(&mut self) {
        self.flows.sort_unstable_by_key(|&(id, _, _)| id);
        #[cfg(debug_assertions)]
        #[expect(clippy::panic, reason = "debug-only duplicate-id guard")]
        #[expect(clippy::indexing_slicing, reason = "windows(2) yields pairs")]
        {
            if let Some(pair) = self.flows.windows(2).find(|w| w[0].0 == w[1].0) {
                panic!("duplicate flow id {}", pair[0].0);
            }
        }
        self.census();
        self.fill();
        #[cfg(debug_assertions)]
        #[expect(clippy::panic, reason = "debug-only invariant guards")]
        {
            use crate::invariants;
            let load = self.materialized_loads();
            invariants::check_flow_capacity(&self.cap, &load, &self.used)
                .unwrap_or_else(|e| panic!("flow capacity invariant: {e}"));
            invariants::check_flow_conservation(&load, &self.rates, &self.flows, &self.arena)
                .unwrap_or_else(|e| panic!("flow conservation invariant: {e}"));
            invariants::check_flow_max_min(&self.cap, &load, &self.flows, &self.arena)
                .unwrap_or_else(|e| panic!("flow max-min invariant: {e}"));
            invariants::check_flow_reference(&self.cap, &self.flows, &self.arena, &self.rates)
                .unwrap_or_else(|e| panic!("flow reference oracle: {e}"));
        }
    }

    /// The touched resources and their static bounds, the kept slots,
    /// the resource→flows index over the slots, and the heap with every
    /// slot asleep at level zero.
    #[expect(
        clippy::indexing_slicing,
        reason = "r < cap.len() = slot_of.len() = bound.len(); spans lie in arena; kept k < slots.len() < index_at.len()"
    )]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "slots and flow indices are below the arena length, a u32"
    )]
    fn census(&mut self) {
        for &r in &self.used {
            self.slot_of[r as usize] = UNUSED;
            self.bound[r as usize] = 0.0;
        }
        self.used.clear();
        for &(_, start, len) in &self.flows {
            let span = &self.arena[start as usize..(start + len) as usize];
            let least = span
                .iter()
                .map(|&r| self.cap[r as usize])
                .fold(f64::INFINITY, f64::min);
            for &r in span {
                let r = r as usize;
                if self.slot_of[r] == UNUSED {
                    self.slot_of[r] = DROPPED;
                    self.used.push(r as u32);
                }
                self.bound[r] += least;
            }
        }
        // The static bound: a resource is dropped when, with every flow at
        // its smallest capacity, its load would still sit two tolerances
        // short of its capacity (one for the saturation test, one for
        // rounding); the rest are kept.
        self.slots.clear();
        for &r in &self.used {
            let cap = self.cap[r as usize];
            let eps = saturation_eps(cap);
            if self.bound[r as usize] + 2.0 * eps >= cap {
                self.slot_of[r as usize] = self.slots.len() as u32;
                self.slots.push(Slot {
                    res: r,
                    users: 0,
                    cap,
                    eps,
                    load: 0.0,
                    seen: 0,
                    wake: f64::NAN,
                });
            }
        }
        for &r in &self.arena {
            let k = self.slot_of[r as usize];
            if k != DROPPED {
                self.slots[k as usize].users += 1;
            }
        }
        // The resource→flows index: bucket ends by slot, then a reverse
        // pass over the flows fills each bucket back to front, leaving
        // `index_at[k]` at its start and the flows in id order.
        self.index_at.clear();
        let mut end = 0;
        for s in &self.slots {
            end += s.users;
            self.index_at.push(end);
        }
        self.index_at.push(end);
        self.index.clear();
        self.index.resize(end as usize, 0);
        for (fi, &(_, start, len)) in self.flows.iter().enumerate().rev() {
            for &r in &self.arena[start as usize..(start + len) as usize] {
                let k = self.slot_of[r as usize];
                if k != DROPPED {
                    let at = &mut self.index_at[k as usize];
                    *at -= 1;
                    self.index[*at as usize] = fi as u32;
                }
            }
        }
        // A level saturates at least one slot, so the log never holds more
        // increments than there are slots. The heap starts with one entry
        // per slot, and only a freeze that leaves a sleeping slot with users
        // adds an entry without popping one, at most `users − 1` times per
        // slot: at most as many entries as the index holds.
        self.incs.clear();
        self.incs.reserve(self.slots.len());
        self.heap.clear();
        self.heap.reserve(self.index.len());
        for (k, s) in self.slots.iter_mut().enumerate() {
            s.wake = s.wake_level(0.0);
            self.heap.push(Wake {
                level: s.wake,
                slot: k as u32,
            });
        }
    }

    /// Progressive filling over the kept slots, level by level.
    #[expect(
        clippy::indexing_slicing,
        reason = "heap, awake and saturated hold slots < slots.len() < index_at.len(); index holds flow indices < flows.len() = rates.len() = frozen_at.len(); spans lie in arena; resources < slot_of.len()"
    )]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the log holds at most one increment per kept slot, a u32 count"
    )]
    fn fill(&mut self) {
        let FlowAllocator {
            n_hosts,
            flows,
            rates,
            frozen_at,
            arena,
            slot_of,
            slots,
            index,
            index_at,
            heap,
            incs,
            awake,
            saturated,
            inter_as_saturations,
            ..
        } = self;
        rates.clear();
        rates.resize(flows.len(), 0.0);
        frozen_at.clear();
        frozen_at.resize(flows.len(), UNFROZEN);
        let mut level = 0.0;
        loop {
            // Wake the slots that could set this level's increment,
            // lowest wake level first, and take the increment from them:
            // the tightest headroom per unfrozen user. A slot whose wake
            // level lies beyond `level + inc` has more headroom than that.
            let mut inc = f64::INFINITY;
            awake.clear();
            while let Some(&Wake { level: at, slot: k }) = heap.peek() {
                if at > level + inc {
                    break;
                }
                heap.pop();
                let s = &mut slots[k as usize];
                if s.wake.to_bits() != at.to_bits() {
                    continue;
                }
                s.wake = f64::NAN;
                s.catch_up(incs);
                let room = (s.cap - s.load).max(0.0) / s.users as f64;
                if room < inc {
                    inc = room;
                }
                awake.push(k);
            }
            if awake.is_empty() {
                break;
            }
            let raise = inc > 0.0 && inc.is_finite();
            if raise {
                level += inc;
                incs.push(inc);
            }
            saturated.clear();
            for &k in awake.iter() {
                let s = &mut slots[k as usize];
                if raise {
                    s.load += inc * s.users as f64;
                    s.seen = incs.len() as u32;
                }
                if s.load + s.eps >= s.cap {
                    saturated.push(k);
                    if s.res as usize >= 2 * *n_hosts {
                        *inter_as_saturations += 1;
                    }
                }
            }
            if saturated.is_empty() {
                // Floating-point safety net: exact arithmetic always
                // saturates the arg-min resource; if rounding hid it,
                // freeze everything at the current (feasible) rates
                // rather than loop forever.
                for (rate, at) in rates.iter_mut().zip(frozen_at.iter_mut()) {
                    if *at == UNFROZEN {
                        *rate = level;
                        *at = incs.len() as u32;
                    }
                }
                break;
            }
            // Freeze every unfrozen flow of each saturated slot (a woken
            // slot has one, so the loop terminates). A sleeping slot on a
            // frozen flow's path catches up at its old user count and
            // joins the woken ones, unless it loses its last user.
            for &k in saturated.iter() {
                let k = k as usize;
                for &fi in &index[index_at[k] as usize..index_at[k + 1] as usize] {
                    let fi = fi as usize;
                    if frozen_at[fi] != UNFROZEN {
                        continue;
                    }
                    frozen_at[fi] = incs.len() as u32;
                    rates[fi] = level;
                    let (_, start, len) = flows[fi];
                    for &r in &arena[start as usize..(start + len) as usize] {
                        let t = slot_of[r as usize];
                        if t == DROPPED {
                            continue;
                        }
                        let s = &mut slots[t as usize];
                        if !s.wake.is_nan() {
                            s.wake = f64::NAN;
                            if s.users > 1 {
                                s.catch_up(incs);
                                awake.push(t);
                            }
                        }
                        s.users -= 1;
                    }
                }
            }
            // The woken slots that still have users go back to sleep.
            for &k in awake.iter() {
                let s = &mut slots[k as usize];
                if s.users > 0 {
                    s.wake = s.wake_level(level);
                    heap.push(Wake {
                        level: s.wake,
                        slot: k,
                    });
                }
            }
            debug_assert!(heap.len() <= index.len(), "the heap outgrew its reserve");
        }
    }

    /// Every touched resource's load as the level-by-level fill leaves
    /// it, by resource index: a kept slot's from where its replays
    /// stopped, a dropped resource's from zero, each continued through
    /// the log at the user counts the flows' freeze points give.
    #[cfg(debug_assertions)]
    #[expect(
        clippy::indexing_slicing,
        reason = "spans lie in arena; resources < cap.len(); groups are non-empty"
    )]
    fn materialized_loads(&self) -> Vec<f64> {
        let mut took: Vec<(u32, u32)> = Vec::with_capacity(self.arena.len());
        for (&(_, start, len), &at) in self.flows.iter().zip(&self.frozen_at) {
            for &r in &self.arena[start as usize..(start + len) as usize] {
                took.push((r, at));
            }
        }
        took.sort_unstable();
        let mut load = vec![0.0; self.cap.len()];
        for group in took.chunk_by(|a, b| a.0 == b.0) {
            let r = group[0].0 as usize;
            let (seen, mut l) = match self.slots.get(self.slot_of[r] as usize) {
                Some(s) => (s.seen as usize, s.load),
                None => (0, 0.0),
            };
            // The group is sorted by freeze point: the users at logged
            // increment `j` are the flows that froze after it.
            let mut gone = 0;
            for (j, &inc) in self.incs.iter().enumerate().skip(seen) {
                while gone < group.len() && group[gone].1 as usize <= j {
                    gone += 1;
                }
                let users = group.len() - gone;
                if users == 0 {
                    break;
                }
                l += inc * users as f64;
            }
            load[r] = l;
        }
        load
    }

    /// Inter-AS resources that saturated over every
    /// [`FlowAllocator::allocate`] since [`FlowAllocator::new`]: each
    /// counts once per fill it binds in.
    pub fn inter_as_saturations(&self) -> u64 {
        self.inter_as_saturations
    }

    /// The allocated rate of flow `id` in bytes/second (`None` if the id
    /// was never registered — e.g. its [`FlowAllocator::add_flow`] was
    /// rejected as unroutable). Valid after [`FlowAllocator::allocate`].
    #[expect(clippy::indexing_slicing, reason = "allocate() sizes rates to flows")]
    pub fn rate_of(&self, id: u64) -> Option<f64> {
        self.flows
            .binary_search_by_key(&id, |&(fid, _, _)| fid)
            .ok()
            .map(|fi| self.rates[fi])
    }

    /// Whole bytes flow `id` moves in `secs` seconds at its allocated
    /// rate, rounded down — flooring per flow keeps every per-resource
    /// byte sum under `capacity × secs`. Zero for unknown ids.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "float → int `as` saturates, and a flow moves far under 2^64 bytes"
    )]
    pub fn bytes_of(&self, id: u64, secs: f64) -> u64 {
        match self.rate_of(id) {
            Some(rate) => (rate * secs) as u64,
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::PopulationSpec;
    use crate::underlay::UnderlayConfig;
    use crate::{TopologyKind, TopologySpec};
    use uap_sim::SimRng;

    fn underlay(n_hosts: usize, seed: u64) -> Underlay {
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
            &PopulationSpec::leaf(n_hosts),
            UnderlayConfig::default(),
            &mut rng,
        )
    }

    #[test]
    fn single_flow_gets_the_access_bottleneck() {
        let u = underlay(20, 1);
        let mut a = FlowAllocator::new(&u);
        a.begin();
        assert!(a.add_flow(7, HostId(0), HostId(1), &u));
        a.allocate();
        let rate = a.rate_of(7).unwrap();
        let want = (u.host(HostId(0)).up_kbps as f64 * 125.0)
            .min(u.host(HostId(1)).down_kbps as f64 * 125.0);
        // A lone flow is bottlenecked by the narrower access link unless
        // some AS link on the path is narrower still.
        assert!(rate <= want + 1.0, "rate {rate} exceeds access {want}");
        assert!(rate > 0.0);
    }

    #[test]
    fn two_flows_share_an_uplink_evenly() {
        let mut u = underlay(20, 2);
        // Give the sender a narrow uplink and both receivers wide
        // downlinks so the uplink is the unique bottleneck.
        u.hosts.hosts[0].up_kbps = 800;
        u.hosts.hosts[1].down_kbps = 100_000;
        u.hosts.hosts[2].down_kbps = 100_000;
        let mut a = FlowAllocator::new(&u);
        a.begin();
        assert!(a.add_flow(1, HostId(0), HostId(1), &u));
        assert!(a.add_flow(2, HostId(0), HostId(2), &u));
        a.allocate();
        let (r1, r2) = (a.rate_of(1).unwrap(), a.rate_of(2).unwrap());
        let cap = 800.0 * 125.0;
        assert!((r1 - r2).abs() < 1.0, "equal shares: {r1} vs {r2}");
        assert!((r1 + r2 - cap).abs() <= saturation_eps(cap) + 1.0);
    }

    #[test]
    fn zero_capacity_uplink_freezes_at_zero() {
        let mut u = underlay(20, 3);
        u.hosts.hosts[0].up_kbps = 0;
        let mut a = FlowAllocator::new(&u);
        a.begin();
        assert!(a.add_flow(1, HostId(0), HostId(1), &u));
        assert!(a.add_flow(2, HostId(2), HostId(3), &u));
        a.allocate();
        assert_eq!(a.rate_of(1), Some(0.0));
        assert!(a.rate_of(2).unwrap() > 0.0, "other flows still progress");
        assert_eq!(a.bytes_of(1, 10.0), 0);
    }

    #[test]
    fn max_min_beats_equal_split_for_the_unbottlenecked() {
        let mut u = underlay(20, 4);
        // Two flows from one sender; one receiver throttled far below the
        // equal share. Max-min gives the leftover to the other flow.
        u.hosts.hosts[0].up_kbps = 8_000;
        u.hosts.hosts[1].down_kbps = 80; // 10 kB/s
        u.hosts.hosts[2].down_kbps = 100_000;
        let mut a = FlowAllocator::new(&u);
        a.begin();
        assert!(a.add_flow(1, HostId(0), HostId(1), &u));
        assert!(a.add_flow(2, HostId(0), HostId(2), &u));
        a.allocate();
        let (r1, r2) = (a.rate_of(1).unwrap(), a.rate_of(2).unwrap());
        assert!((r1 - 80.0 * 125.0).abs() < 2.0, "throttled flow: {r1}");
        let cap = 8_000.0 * 125.0;
        assert!(
            (r1 + r2 - cap).abs() <= saturation_eps(cap) + 1.0,
            "leftover goes to the open flow: {r1} + {r2} != {cap}"
        );
    }

    #[test]
    fn insertion_order_does_not_change_rates() {
        let u = underlay(40, 5);
        let pairs = [(0u32, 9u32), (3, 14), (22, 7), (8, 31), (17, 2)];
        let run = |order: &[usize]| {
            let mut a = FlowAllocator::new(&u);
            a.begin();
            for &k in order {
                let (s, d) = pairs[k];
                a.add_flow(k as u64, HostId(s), HostId(d), &u);
            }
            a.allocate();
            (0..pairs.len())
                .map(|k| a.rate_of(k as u64).unwrap().to_bits())
                .collect::<Vec<u64>>()
        };
        assert_eq!(run(&[0, 1, 2, 3, 4]), run(&[4, 2, 0, 3, 1]));
        assert_eq!(run(&[0, 1, 2, 3, 4]), run(&[1, 3, 4, 0, 2]));
    }

    #[test]
    fn unroutable_pairs_are_rejected_and_unknown_ids_have_no_rate() {
        let u = underlay(20, 6);
        let mut a = FlowAllocator::new(&u);
        a.begin();
        assert!(a.add_flow(1, HostId(0), HostId(1), &u));
        a.allocate();
        assert_eq!(a.rate_of(99), None);
        assert_eq!(a.bytes_of(99, 10.0), 0);
    }

    #[test]
    fn an_empty_flow_set_allocates_nothing() {
        let u = underlay(20, 8);
        let mut a = FlowAllocator::new(&u);
        a.begin();
        a.allocate();
        assert_eq!(a.rate_of(0), None);
        // Emptying a set that touched resources leaves none of them behind.
        a.begin();
        assert!(a.add_flow(3, HostId(0), HostId(1), &u));
        a.allocate();
        a.begin();
        a.allocate();
        assert_eq!(a.rate_of(3), None);
        assert_eq!(a.bytes_of(3, 10.0), 0);
    }

    #[test]
    fn resources_saturating_at_one_level_freeze_all_their_flows() {
        let mut u = underlay(40, 9);
        // Three disjoint same-AS pairs, so no AS link is on any path.
        let mut pairs = Vec::new();
        let mut taken = [false; 40];
        let host = HostId::from_index;
        for s in 0..40 {
            if taken[s] {
                continue;
            }
            if let Some(d) = (s + 1..40).find(|&d| !taken[d] && u.same_as(host(s), host(d))) {
                taken[d] = true;
                pairs.push((s, d));
            }
        }
        assert!(pairs.len() >= 3, "fixture has three same-AS pairs");
        // Two equal uplinks saturate at the first level; a third, wider
        // uplink keeps filling.
        for (&(s, d), kbps) in pairs.iter().zip([800, 800, 8_000]) {
            u.hosts.hosts[s].up_kbps = kbps;
            u.hosts.hosts[d].down_kbps = 100_000;
        }
        let mut a = FlowAllocator::new(&u);
        a.begin();
        for (id, &(s, d)) in pairs.iter().take(3).enumerate() {
            assert!(a.add_flow(id as u64, host(s), host(d), &u));
        }
        a.allocate();
        let rate = |id| a.rate_of(id).unwrap();
        // The first level's increment is the narrow uplinks' full
        // capacity, and both of their flows froze at exactly that sum.
        assert_eq!(rate(0).to_bits(), (800.0f64 * 1_000.0 / 8.0).to_bits());
        assert_eq!(rate(1).to_bits(), rate(0).to_bits());
        assert!(rate(2) > rate(0), "the wide uplink keeps filling");
    }

    #[test]
    fn a_rejected_flow_leaves_nothing_for_the_next_cycle() {
        let mut u = underlay(20, 10);
        let a_host = HostId(0);
        let far = (2..20)
            .map(HostId)
            .find(|&h| !u.same_as(a_host, h))
            .unwrap();
        let near = (2..20).map(HostId).find(|&h| u.same_as(a_host, h)).unwrap();
        let mut state = crate::fault::FaultState::clear();
        state.mask = Some(vec![true; u.graph.links.len()]);
        u.apply_fault_state(&state);
        // Every AS link is down: the cross-AS flow is refused mid-set.
        let mut a = FlowAllocator::new(&u);
        a.begin();
        assert!(a.add_flow(1, a_host, near, &u));
        assert!(!a.add_flow(2, a_host, far, &u));
        assert!(a.add_flow(3, near, a_host, &u));
        a.allocate();
        assert_eq!(a.rate_of(2), None);
        let rates = |a: &FlowAllocator| [1, 3].map(|id| a.rate_of(id).unwrap().to_bits());
        let mut fresh = FlowAllocator::new(&u);
        fresh.begin();
        fresh.add_flow(1, a_host, near, &u);
        fresh.add_flow(3, near, a_host, &u);
        fresh.allocate();
        assert_eq!(rates(&a), rates(&fresh));
        // The next cycle, healed, reuses the id and the index is rebuilt
        // from the registered set alone.
        u.apply_fault_state(&crate::fault::FaultState::clear());
        a.begin();
        assert!(a.add_flow(3, near, a_host, &u));
        assert!(a.add_flow(1, a_host, far, &u));
        a.allocate();
        fresh.begin();
        fresh.add_flow(1, a_host, far, &u);
        fresh.add_flow(3, near, a_host, &u);
        fresh.allocate();
        assert_eq!(rates(&a), rates(&fresh));
        assert_eq!(a.rate_of(2), None);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "duplicate flow id 4")]
    fn a_duplicate_id_panics_in_debug() {
        let u = underlay(20, 11);
        let mut a = FlowAllocator::new(&u);
        a.begin();
        a.add_flow(4, HostId(0), HostId(1), &u);
        a.add_flow(9, HostId(2), HostId(3), &u);
        a.add_flow(4, HostId(5), HostId(6), &u);
        a.allocate();
    }

    #[test]
    fn reuse_across_begin_cycles_is_clean() {
        let u = underlay(20, 7);
        let mut a = FlowAllocator::new(&u);
        for round in 0..5u64 {
            a.begin();
            a.add_flow(round, HostId(0), HostId(1), &u);
            a.add_flow(round + 100, HostId(4), HostId(9), &u);
            a.allocate();
            assert!(a.rate_of(round).unwrap() > 0.0);
        }
        // Ids from earlier cycles are gone.
        assert_eq!(a.rate_of(0), None);
    }

    /// Two senders in one AS, each with a 1 000 kbit/s uplink, send to two
    /// wide receivers in another AS; the first link of the AS path gets
    /// `link_bytes_per_s`. Returns the filled allocator and the link's
    /// resource index.
    fn two_flows_over_one_link(link_bytes_per_s: f64) -> (FlowAllocator, usize) {
        let mut u = underlay(40, 12);
        let host = HostId::from_index;
        let pair_in = |a: usize, skip: &[usize]| {
            (0..40).find(|&b| b != a && !skip.contains(&b) && u.same_as(host(a), host(b)))
        };
        let (s0, s1, d0, d1) = (0..40)
            .find_map(|s0| {
                let s1 = pair_in(s0, &[])?;
                (0..40)
                    .filter(|&d0| !u.same_as(host(s0), host(d0)))
                    .find_map(|d0| Some((s0, s1, d0, pair_in(d0, &[])?)))
            })
            .expect("fixture has two ASes with two hosts each");
        for s in [s0, s1] {
            u.hosts.hosts[s].up_kbps = 1_000;
        }
        for d in [d0, d1] {
            u.hosts.hosts[d].down_kbps = 100_000;
        }
        let path = u
            .routing()
            .path_links(u.hosts.as_of(host(s0)), u.hosts.as_of(host(d0)))
            .unwrap();
        let li = path[0] as usize;
        u.graph.links[li].capacity_mbps = link_bytes_per_s * 8.0 / 1_000_000.0;
        let mut a = FlowAllocator::new(&u);
        a.begin();
        assert!(a.add_flow(1, host(s0), host(d0), &u));
        assert!(a.add_flow(2, host(s1), host(d1), &u));
        a.allocate();
        let want = crate::invariants::reference_max_min(&a.cap, &a.flows, &a.arena);
        assert_eq!(
            a.rates.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
        );
        (a, 2 * 40 + li)
    }

    #[test]
    fn a_link_at_the_bound_stays_in_the_fill_and_saturates() {
        // Each flow's smallest capacity is its 125 000 B/s uplink, so the
        // link's bound is 250 000 B/s: just above a 249 999 B/s link,
        // which binds alone.
        let (a, link) = two_flows_over_one_link(249_999.0);
        assert_ne!(a.slot_of[link], DROPPED, "the link is kept");
        assert_eq!(a.inter_as_saturations(), 1, "and it binds");
        for id in [1, 2] {
            let rate = a.rate_of(id).unwrap();
            assert!(
                (rate - 249_999.0 / 2.0).abs() < 1e-6,
                "link-bound rate {rate}"
            );
        }
        // Half a byte/second below a 250 000.5 B/s link, inside one
        // tolerance: the link saturates with the uplinks, so the filter
        // must keep it although its bound is below its capacity.
        let (a, link) = two_flows_over_one_link(250_000.5);
        assert_ne!(a.slot_of[link], DROPPED, "the link is kept");
        assert_eq!(a.inter_as_saturations(), 1, "and it saturates");
        for id in [1, 2] {
            assert_eq!(a.rate_of(id), Some(125_000.0), "uplink-bound");
        }
    }

    #[test]
    fn a_link_above_the_bound_is_dropped_and_rates_hold() {
        // A bound of 250 000 B/s sits 3 B/s below this link's capacity,
        // more than the two saturation tolerances (about 2 B/s) the
        // filter keeps as its margin.
        let (a, link) = two_flows_over_one_link(250_003.0);
        assert_eq!(a.slot_of[link], DROPPED, "the link leaves the fill");
        assert_eq!(a.inter_as_saturations(), 0);
        for id in [1, 2] {
            assert_eq!(a.rate_of(id), Some(125_000.0), "uplink-bound");
        }
    }
}
