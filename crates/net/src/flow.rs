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
//! and [`check_flow_max_min`](crate::invariants::check_flow_max_min).
//!
//! # Reuse
//!
//! All working storage lives in the struct and is recycled across
//! [`begin`]/[`allocate`] cycles, so recomputing the allocation at flow
//! arrival/departure/fault epochs allocates nothing on the per-round hot
//! path (the alloc pass in `xtask analyze` ratchets this).
//!
//! [`allocate`]: FlowAllocator::allocate
//! [`begin`]: FlowAllocator::begin

use crate::ids::HostId;
use crate::underlay::Underlay;
use uap_sim::Metrics;

/// Relative slack used when deciding a resource is saturated: float
/// filling accumulates rounding, so "load reached capacity" is tested
/// with a tolerance proportional to the capacity plus one byte/second.
fn saturation_eps(cap: f64) -> f64 {
    cap * 1e-9 + 1.0
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
    /// Current load per resource (only entries in `used` are meaningful).
    load: Vec<f64>,
    /// Unfrozen flows crossing each resource.
    users: Vec<u32>,
    /// Per-flow frozen flag, parallel to `flows`.
    frozen: Vec<bool>,
    /// Resources touched by the current flow set.
    used: Vec<u32>,
    /// Membership mask for `used`.
    in_used: Vec<bool>,
    /// Flows accepted by [`FlowAllocator::add_flow`] since construction.
    opened: u64,
    /// Flows rejected as unroutable since construction.
    rejected: u64,
}

impl FlowAllocator {
    /// Snapshots the capacity graph of `underlay`: host access links in
    /// kbit/s and AS links in Mbit/s, both converted to bytes/second.
    /// Host bandwidths and link classes are static for the life of a run;
    /// routing (and therefore each flow's AS-link span) is re-resolved on
    /// every [`FlowAllocator::add_flow`], so fault-epoch reroutes are
    /// picked up at the next recomputation.
    // lint:allow(alloc) — construction; runs once per experiment run
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
            in_used: vec![false; n_resources],
            opened: 0,
            rejected: 0,
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
    /// cycle; the allocation depends only on the id *set*, not the
    /// insertion order.
    pub fn add_flow(&mut self, id: u64, src: HostId, dst: HostId, underlay: &Underlay) -> bool {
        // lint:allow(cast) — arena holds per-flow resource ids; far under u32::MAX
        let start = self.arena.len() as u32;
        let src_as = underlay.hosts.as_of(src);
        let dst_as = underlay.hosts.as_of(dst);
        if src_as != dst_as {
            // Resolved directly from the routing tables (CSR slice), never
            // through the AS-pair route cache — flow setup must not perturb
            // the cache counters the latency queries own.
            let Some(path) = underlay.routing().path_links(src_as, dst_as) else {
                self.rejected += 1;
                return false;
            };
            self.arena.push(src.0);
            // lint:allow(cast) — n_hosts is bounded by the u32 HostId width
            self.arena.push(self.n_hosts as u32 + dst.0);
            for &li in path {
                // lint:allow(cast) — same HostId-width bound; link ids are u32
                self.arena.push(2 * self.n_hosts as u32 + li);
            }
        } else {
            self.arena.push(src.0);
            // lint:allow(cast) — same HostId-width bound as above
            self.arena.push(self.n_hosts as u32 + dst.0);
        }
        // lint:allow(cast) — arena length bound as in `start` above
        let len = self.arena.len() as u32 - start;
        debug_assert!(
            self.flows.iter().all(|&(fid, _, _)| fid != id),
            "duplicate flow id {id}"
        );
        self.flows.push((id, start, len));
        self.opened += 1;
        true
    }

    /// Computes the max-min fair allocation for the registered flow set
    /// by progressive filling. Deterministic: flows are processed in
    /// sorted-id order, so the result is independent of insertion order.
    pub fn allocate(&mut self) {
        self.flows.sort_unstable_by_key(|&(id, _, _)| id);
        // Reset the resources the previous allocation touched, then build
        // this set's resource census in flow-id order.
        for &r in &self.used {
            self.in_used[r as usize] = false;
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
                if !self.in_used[r] {
                    self.in_used[r] = true;
                    // lint:allow(cast) — r indexes `cap`, sized 2n + links < u32::MAX
                    self.used.push(r as u32);
                }
                self.users[r] += 1;
            }
        }
        let mut active = self.flows.len();
        while active > 0 {
            // The uniform rate increment every unfrozen flow can absorb:
            // the tightest remaining headroom per unfrozen user.
            let mut inc = f64::INFINITY;
            for &r in &self.used {
                let r = r as usize;
                if self.users[r] > 0 {
                    let room = (self.cap[r] - self.load[r]).max(0.0) / self.users[r] as f64;
                    if room < inc {
                        inc = room;
                    }
                }
            }
            if inc > 0.0 && inc.is_finite() {
                for (fi, &(_, _, _)) in self.flows.iter().enumerate() {
                    if !self.frozen[fi] {
                        self.rates[fi] += inc;
                    }
                }
                for &r in &self.used {
                    let r = r as usize;
                    if self.users[r] > 0 {
                        self.load[r] += inc * self.users[r] as f64;
                    }
                }
            }
            // Freeze every unfrozen flow that now crosses a saturated
            // resource (the arg-min resource above is always saturated, so
            // at least one flow freezes and the loop terminates).
            let mut froze = false;
            for (fi, &(_, start, len)) in self.flows.iter().enumerate() {
                if self.frozen[fi] {
                    continue;
                }
                let span = &self.arena[start as usize..(start + len) as usize];
                let sat = span.iter().any(|&r| {
                    let r = r as usize;
                    self.load[r] + saturation_eps(self.cap[r]) >= self.cap[r]
                });
                if sat {
                    self.frozen[fi] = true;
                    froze = true;
                    active -= 1;
                    for &r in span {
                        self.users[r as usize] -= 1;
                    }
                }
            }
            if !froze {
                // Floating-point safety net: exact arithmetic always
                // saturates the arg-min resource; if rounding hid it,
                // freeze everything at the current (feasible) rates
                // rather than loop forever.
                for fi in 0..self.flows.len() {
                    if !self.frozen[fi] {
                        self.frozen[fi] = true;
                        let (_, start, len) = self.flows[fi];
                        for &r in &self.arena[start as usize..(start + len) as usize] {
                            self.users[r as usize] -= 1;
                        }
                    }
                }
                active = 0;
            }
        }
        #[cfg(debug_assertions)]
        {
            use crate::invariants;
            invariants::check_flow_capacity(&self.cap, &self.load, &self.used)
                .unwrap_or_else(|e| panic!("flow capacity invariant: {e}")); // lint:allow(panic) — debug-only invariant
            invariants::check_flow_conservation(&self.load, &self.rates, &self.flows, &self.arena)
                .unwrap_or_else(|e| panic!("flow conservation invariant: {e}")); // lint:allow(panic) — debug-only invariant
            invariants::check_flow_max_min(&self.cap, &self.load, &self.flows, &self.arena)
                .unwrap_or_else(|e| panic!("flow max-min invariant: {e}")); // lint:allow(panic) — debug-only invariant
        }
    }

    /// The allocated rate of flow `id` in bytes/second (`None` if the id
    /// was never registered — e.g. its [`FlowAllocator::add_flow`] was
    /// rejected as unroutable). Valid after [`FlowAllocator::allocate`].
    pub fn rate_of(&self, id: u64) -> Option<f64> {
        self.flows
            .binary_search_by_key(&id, |&(fid, _, _)| fid)
            .ok()
            .map(|fi| self.rates[fi])
    }

    /// Exports lifetime counters (`net.flow.opened` / `net.flow.rejected`)
    /// into `metrics`, mirroring the route-cache export convention.
    pub fn export_metrics(&self, metrics: &mut Metrics) {
        metrics.set_counter("net.flow.opened", self.opened);
        metrics.set_counter("net.flow.rejected", self.rejected);
    }

    /// Whole bytes flow `id` moves in `secs` seconds at its allocated
    /// rate, rounded down — flooring per flow keeps every per-resource
    /// byte sum under `capacity × secs`. Zero for unknown ids.
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
        let mut m = Metrics::default();
        a.export_metrics(&mut m);
        assert_eq!(m.counter("net.flow.opened"), 1);
        assert_eq!(m.counter("net.flow.rejected"), 0);
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
