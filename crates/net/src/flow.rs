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
//!   cross-AS flows genuinely compete for transit/peering capacity (this
//!   replaces the retired `transit_congestion` per-path discount with real
//!   sharing).
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
//! [`allocate`] rebuilds three structures from the registered set on
//! every call, so a filling level costs O(active resources), not
//! O(touched resources + flows × path length):
//!
//! * a **resource→flows index**, CSR over each touched resource's
//!   position in first-use order, every bucket in flow-id order;
//! * an **active list** of the resources that still have unfrozen users,
//!   compacted after every level. Only it is scanned for the increment,
//!   the load update and the saturation test, and only the flows of the
//!   saturated resources are visited to freeze them;
//! * a **running level sum** of the increments. A flow freezing at a
//!   level takes the sum as its rate, which is bit-identical to adding
//!   each increment to every unfrozen flow's rate: both start at `0.0`
//!   and add the same increments in the same order.
//!
//! The from-scratch fill the index replaced is kept as
//! [`crate::invariants::reference_max_min`], the differential oracle.
//!
//! # Determinism
//!
//! Callers register flows with explicit `u64` ids; [`allocate`] sorts by
//! id before filling, so the allocation is a pure function of the *flow
//! set* — two same-seed runs, or the same set inserted in a different
//! order, produce bit-identical rates (`f64` arithmetic is deterministic
//! once the iteration order is fixed). No RNG, wall clock, or hash map is
//! involved. The invariants are re-checked under `debug_assertions` by
//! [`crate::invariants::check_flow_capacity`],
//! [`check_flow_conservation`](crate::invariants::check_flow_conservation)
//! and [`check_flow_max_min`](crate::invariants::check_flow_max_min), and
//! [`check_flow_reference`](crate::invariants::check_flow_reference)
//! asserts every rate bit-equal to the reference fill's.
//!
//! # Reuse
//!
//! All working storage lives in the struct and is recycled across
//! [`begin`]/[`allocate`] cycles, so recomputing the allocation at flow
//! arrival/departure/fault epochs allocates nothing on the per-round hot
//! path (`tests/alloc_count.rs` counts the allocator's cycles alone and
//! the swarm's rounds).
//!
//! [`allocate`]: FlowAllocator::allocate
//! [`begin`]: FlowAllocator::begin

use crate::ids::HostId;
use crate::underlay::Underlay;

/// Relative slack used when deciding a resource is saturated: float
/// filling accumulates rounding, so "load reached capacity" is tested
/// with a tolerance proportional to the capacity plus one byte/second.
pub(crate) fn saturation_eps(cap: f64) -> f64 {
    cap * 1e-9 + 1.0
}

/// [`FlowAllocator`]'s `pos` entry for a resource the current flow set
/// does not touch.
const UNUSED: u32 = u32::MAX;

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
    /// Current load per resource (only entries in `used` are meaningful).
    load: Vec<f64>,
    /// Unfrozen flows crossing each resource.
    users: Vec<u32>,
    /// Per-flow frozen flag, parallel to `flows`.
    frozen: Vec<bool>,
    /// Resources touched by the current flow set, in first-use order.
    used: Vec<u32>,
    /// Each resource's position in `used`, or [`UNUSED`].
    pos: Vec<u32>,
    /// The resource→flows index: the flows crossing `used[p]` are
    /// `index[index_at[p]..index_at[p + 1]]`, in id order.
    index: Vec<u32>,
    /// Bucket starts of `index` by position in `used`, plus the end.
    index_at: Vec<u32>,
    /// Resources that still have unfrozen users while filling.
    active: Vec<u32>,
    /// The active resources one filling level saturated.
    saturated: Vec<u32>,
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
            load: vec![0.0; n_resources],
            users: vec![0; n_resources],
            frozen: Vec::new(),
            used: Vec::new(),
            pos: vec![UNUSED; n_resources],
            index: Vec::new(),
            index_at: Vec::new(),
            active: Vec::new(),
            saturated: Vec::new(),
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
                self.arena.push(2 * self.n_hosts as u32 + li);
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
    #[expect(
        clippy::indexing_slicing,
        reason = "r < cap.len(); fi < flows.len(); pos[r] < used.len() < index_at.len()"
    )]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "positions and flow indices are below the arena length, a u32"
    )]
    pub fn allocate(&mut self) {
        self.flows.sort_unstable_by_key(|&(id, _, _)| id);
        #[cfg(debug_assertions)]
        #[expect(clippy::panic, reason = "debug-only duplicate-id guard")]
        {
            if let Some(pair) = self.flows.windows(2).find(|w| w[0].0 == w[1].0) {
                panic!("duplicate flow id {}", pair[0].0);
            }
        }
        // Reset the resources the previous allocation touched, then build
        // this set's resource census in flow-id order.
        for &r in &self.used {
            self.pos[r as usize] = UNUSED;
            self.load[r as usize] = 0.0;
            self.users[r as usize] = 0;
        }
        self.used.clear();
        self.rates.clear();
        self.rates.resize(self.flows.len(), 0.0);
        self.frozen.clear();
        self.frozen.resize(self.flows.len(), false);
        for &(_, start, len) in &self.flows {
            for &r in &self.arena[start as usize..(start + len) as usize] {
                let r = r as usize;
                if self.pos[r] == UNUSED {
                    self.pos[r] = self.used.len() as u32;
                    self.used.push(r as u32);
                }
                self.users[r] += 1;
            }
        }
        // The resource→flows index: bucket ends by compact position, then
        // a reverse pass over the flows fills each bucket back to front,
        // leaving `index_at[p]` at its start and the flows in id order.
        self.index_at.clear();
        let mut end = 0;
        for &r in &self.used {
            end += self.users[r as usize];
            self.index_at.push(end);
        }
        self.index_at.push(end);
        self.index.clear();
        self.index.resize(end as usize, 0);
        for (fi, &(_, start, len)) in self.flows.iter().enumerate().rev() {
            for &r in &self.arena[start as usize..(start + len) as usize] {
                let at = &mut self.index_at[self.pos[r as usize] as usize];
                *at -= 1;
                self.index[*at as usize] = fi as u32;
            }
        }
        // Each level makes two passes over the active resources and
        // visits the flows of the saturated ones. `level` is the running
        // sum of the increments, so a flow freezing at it gets the same
        // additions in the same order as adding each increment to every
        // unfrozen flow's rate.
        self.active.clear();
        self.active.extend_from_slice(&self.used);
        let mut level = 0.0;
        loop {
            // Drop the resources left without unfrozen users. The tightest
            // remaining headroom per unfrozen user among the rest is the
            // uniform increment every unfrozen flow can absorb.
            let mut inc = f64::INFINITY;
            self.active.retain(|&r| {
                let r = r as usize;
                if self.users[r] == 0 {
                    return false;
                }
                let room = (self.cap[r] - self.load[r]).max(0.0) / self.users[r] as f64;
                if room < inc {
                    inc = room;
                }
                true
            });
            if self.active.is_empty() {
                break;
            }
            let raise = inc > 0.0 && inc.is_finite();
            if raise {
                level += inc;
            }
            self.saturated.clear();
            for &r in &self.active {
                let ri = r as usize;
                if raise {
                    self.load[ri] += inc * self.users[ri] as f64;
                }
                if self.load[ri] + saturation_eps(self.cap[ri]) >= self.cap[ri] {
                    self.saturated.push(r);
                }
            }
            if self.saturated.is_empty() {
                // Floating-point safety net: exact arithmetic always
                // saturates the arg-min resource; if rounding hid it,
                // freeze everything at the current (feasible) rates
                // rather than loop forever.
                for (rate, &frozen) in self.rates.iter_mut().zip(&self.frozen) {
                    if !frozen {
                        *rate = level;
                    }
                }
                break;
            }
            // Freeze every unfrozen flow of each saturated resource (an
            // active resource has one, so the loop terminates).
            for &r in &self.saturated {
                let p = self.pos[r as usize] as usize;
                let bucket = self.index_at[p] as usize..self.index_at[p + 1] as usize;
                for &fi in &self.index[bucket] {
                    let fi = fi as usize;
                    if self.frozen[fi] {
                        continue;
                    }
                    self.frozen[fi] = true;
                    self.rates[fi] = level;
                    let (_, start, len) = self.flows[fi];
                    for &s in &self.arena[start as usize..(start + len) as usize] {
                        self.users[s as usize] -= 1;
                    }
                }
            }
        }
        #[cfg(debug_assertions)]
        #[expect(clippy::panic, reason = "debug-only invariant guards")]
        {
            use crate::invariants;
            invariants::check_flow_capacity(&self.cap, &self.load, &self.used)
                .unwrap_or_else(|e| panic!("flow capacity invariant: {e}"));
            invariants::check_flow_conservation(&self.load, &self.rates, &self.flows, &self.arena)
                .unwrap_or_else(|e| panic!("flow conservation invariant: {e}"));
            invariants::check_flow_max_min(&self.cap, &self.load, &self.flows, &self.arena)
                .unwrap_or_else(|e| panic!("flow max-min invariant: {e}"));
            invariants::check_flow_reference(&self.cap, &self.flows, &self.arena, &self.rates)
                .unwrap_or_else(|e| panic!("flow reference oracle: {e}"));
        }
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
}
