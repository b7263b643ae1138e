//! Overlay graph bookkeeping and flood mechanics.
//!
//! [`Overlay`] keeps the (undirected) neighbor sets, roles and online
//! marks, but no underlay state, and implements the flood both the ping
//! and query paths share ([`Overlay::flood_into`]). A flood records each
//! reached node's BFS parent; [`FloodResult::path_latency_us`] reads a
//! path's latency from the underlay when it is needed.

use uap_net::{HostId, Underlay};

/// Role of a node in the two-tier overlay.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Role {
    /// Floods and routes; the backbone.
    Ultrapeer,
    /// Attaches to ultrapeers; does not forward.
    Leaf,
}

/// A node that a flood reached.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reached {
    /// The node.
    pub host: HostId,
    /// Overlay hops from the origin.
    pub hops: u32,
    /// Index in the flood's `reached` of the entry this copy was forwarded
    /// from, or [`Reached::NO_PARENT`] for a copy the origin sent.
    pub parent: u32,
}

impl Reached {
    /// The `parent` of the origin's own copies; no `reached` is this long.
    pub const NO_PARENT: u32 = u32::MAX;
}

/// Outcome of one flood.
#[derive(Clone, Debug, Default)]
pub struct FloodResult {
    /// Every node the flood reached (origin excluded), in BFS order.
    pub reached: Vec<Reached>,
    /// Total transmissions, duplicates included.
    pub messages: u64,
}

impl FloodResult {
    /// One-way latency from `origin` to `reached[i]` along the flood's
    /// tree, in microseconds: the sum of [`Underlay::latency_us`] over the
    /// entry's parent chain, read now. `None` when a hop does not route
    /// under the underlay's current fault state, or `i` is out of range.
    pub fn path_latency_us(&self, underlay: &Underlay, origin: HostId, i: usize) -> Option<u64> {
        let mut at = self.reached.get(i)?;
        let mut sum = 0;
        while let Some(parent) = self.reached.get(at.parent as usize) {
            sum += underlay.latency_us(parent.host, at.host)?;
            at = parent;
        }
        Some(sum + underlay.latency_us(origin, at.host)?)
    }
}

/// The overlay adjacency structure.
pub struct Overlay {
    neighbors: Vec<Vec<HostId>>,
    roles: Vec<Role>,
    online: Vec<bool>,
    edge_count: usize,
    /// Flood scratch: generation-stamped visited marks, reused across
    /// floods so the per-ping/per-query path allocates nothing (a slot is
    /// "seen" when its stamp equals the current generation; bumping the
    /// generation resets all marks in O(1)).
    seen_gen: Vec<u64>,
    generation: u64,
    /// Reused peer snapshot for `set_online`'s edge-drop loop.
    scratch_peers: Vec<HostId>,
}

impl Overlay {
    /// An empty overlay over `n` potential nodes (all offline, ultrapeer
    /// role by default).
    pub fn new(n: usize) -> Overlay {
        Overlay {
            neighbors: vec![Vec::new(); n],
            roles: vec![Role::Ultrapeer; n],
            online: vec![false; n],
            edge_count: 0,
            seen_gen: vec![0; n],
            generation: 0,
            scratch_peers: Vec::new(),
        }
    }

    /// Number of potential nodes.
    pub fn len(&self) -> usize {
        self.neighbors.len()
    }

    /// Whether the overlay has no slots.
    pub fn is_empty(&self) -> bool {
        self.neighbors.is_empty()
    }

    /// Sets a node's role.
    #[expect(clippy::indexing_slicing, reason = "one slot per host of the underlay")]
    pub fn set_role(&mut self, h: HostId, role: Role) {
        self.roles[h.idx()] = role;
    }

    /// A node's role.
    #[expect(clippy::indexing_slicing, reason = "one slot per host of the underlay")]
    pub fn role(&self, h: HostId) -> Role {
        self.roles[h.idx()]
    }

    /// Marks a node online/offline. Going offline drops all its edges.
    #[expect(clippy::indexing_slicing, reason = "one slot per host of the underlay")]
    pub fn set_online(&mut self, h: HostId, online: bool) {
        self.online[h.idx()] = online;
        if !online {
            // Snapshot into the reused scratch (remove_edge mutates the
            // neighbor list we are iterating), preserving drop order.
            let mut peers = std::mem::take(&mut self.scratch_peers);
            peers.clear();
            peers.extend_from_slice(&self.neighbors[h.idx()]);
            for &p in &peers {
                self.remove_edge(h, p);
            }
            self.scratch_peers = peers;
        }
    }

    /// Whether a node is online.
    #[expect(clippy::indexing_slicing, reason = "one slot per host of the underlay")]
    pub fn is_online(&self, h: HostId) -> bool {
        self.online[h.idx()]
    }

    /// All online nodes.
    pub fn online_nodes(&self) -> Vec<HostId> {
        (0..self.len())
            .map(HostId::from_index)
            .filter(|&h| self.is_online(h))
            .collect()
    }

    /// Adds an undirected edge. No-op if the edge exists or endpoints coincide.
    #[expect(clippy::indexing_slicing, reason = "one slot per host of the underlay")]
    pub fn add_edge(&mut self, a: HostId, b: HostId) {
        if a == b || self.has_edge(a, b) {
            return;
        }
        self.neighbors[a.idx()].push(b);
        self.neighbors[b.idx()].push(a);
        self.edge_count += 1;
    }

    /// Removes an undirected edge if present.
    #[expect(clippy::indexing_slicing, reason = "one slot per host of the underlay")]
    pub fn remove_edge(&mut self, a: HostId, b: HostId) {
        let mut removed = false;
        if let Some(pos) = self.neighbors[a.idx()].iter().position(|&x| x == b) {
            self.neighbors[a.idx()].swap_remove(pos);
            removed = true;
        }
        if let Some(pos) = self.neighbors[b.idx()].iter().position(|&x| x == a) {
            self.neighbors[b.idx()].swap_remove(pos);
        }
        if removed {
            self.edge_count -= 1;
        }
    }

    /// Whether an edge exists.
    #[expect(clippy::indexing_slicing, reason = "one slot per host of the underlay")]
    pub fn has_edge(&self, a: HostId, b: HostId) -> bool {
        self.neighbors[a.idx()].contains(&b)
    }

    /// Current neighbors of a node.
    #[expect(clippy::indexing_slicing, reason = "one slot per host of the underlay")]
    pub fn neighbors(&self, h: HostId) -> &[HostId] {
        &self.neighbors[h.idx()]
    }

    /// Degree of a node.
    #[expect(clippy::indexing_slicing, reason = "one slot per host of the underlay")]
    pub fn degree(&self, h: HostId) -> usize {
        self.neighbors[h.idx()].len()
    }

    /// Total undirected edge count.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Snapshot of all edges `(a, b)` with `a < b`.
    pub fn edges(&self) -> Vec<(HostId, HostId)> {
        let mut out = Vec::with_capacity(self.edge_count);
        for (a, neighbors) in self.neighbors.iter().enumerate() {
            for &b in neighbors {
                if a < b.idx() {
                    out.push((HostId::from_index(a), b));
                }
            }
        }
        out
    }

    /// TTL-limited flood from `origin` with duplicate suppression; clears
    /// and fills `out` (the sim reuses one `FloodResult` across all
    /// ping/query floods).
    ///
    /// Semantics: the origin transmits to every neighbor; a node receiving
    /// the flood for the first time at hop `h < ttl` forwards to all its
    /// neighbors, the sender included (each transmission is counted,
    /// including those that arrive at already-visited nodes and are
    /// dropped).
    /// Ultrapeers forward; leaves receive but never forward. Leaves
    /// attached to a reached ultrapeer are delivered to (and counted) as
    /// hop `h + 1` even when `h + 1 == ttl`, like real leaf delivery.
    /// Needs `&mut self` for the generation-stamped visited scratch (the
    /// overlay topology is not modified).
    ///
    /// `out.reached` is its own BFS queue: it fills in first-reception
    /// order, which is the order nodes forward in, so the next forwarder
    /// is the next entry not yet expanded.
    #[expect(clippy::indexing_slicing, reason = "one slot per host of the underlay")]
    pub fn flood_into(&mut self, origin: HostId, ttl: u32, out: &mut FloodResult) {
        out.reached.clear();
        out.messages = 0;
        if ttl == 0 || !self.is_online(origin) {
            return;
        }
        self.generation += 1;
        let gen = self.generation;
        self.seen_gen[origin.idx()] = gen;
        let (neighbors, seen_gen) = (&self.neighbors, &mut self.seen_gen);
        let FloodResult { reached, messages } = out;
        // `from` transmits to every neighbor; a copy counts as reached only
        // if it is the first its receiver saw. Most copies are duplicates,
        // hence `push_if` rather than a branch on `seen`.
        let mut forward = |from: HostId, hops: u32, parent: u32, reached: &mut Vec<Reached>| {
            let peers = &neighbors[from.idx()];
            *messages += peers.len() as u64;
            for &w in peers {
                let copy = Reached {
                    host: w,
                    hops,
                    parent,
                };
                let seen = &mut seen_gen[w.idx()];
                push_if(reached, copy, *seen != gen);
                *seen = gen;
            }
        };
        forward(origin, 1, Reached::NO_PARENT, reached);
        // Forwarders: ultrapeers (leaves receive but never forward) reached
        // below the TTL. Hops never decrease along `reached`, so the first
        // entry at the TTL ends the flood.
        let mut next = 0u32;
        while let Some(&r) = reached.get(next as usize) {
            if r.hops >= ttl {
                break;
            }
            if self.roles[r.host.idx()] == Role::Ultrapeer {
                forward(r.host, r.hops + 1, next, reached);
            }
            next += 1;
        }
    }
}

/// Appends `item` iff `keep`, without a branch on `keep`: the item is
/// always written and the length moves past it only if it is kept. For
/// filters whose outcome the branch predictor cannot learn.
pub(crate) fn push_if<T: Copy>(buf: &mut Vec<T>, item: T, keep: bool) {
    buf.push(item);
    buf.truncate(buf.len() - usize::from(!keep));
}

#[cfg(test)]
mod tests {
    use super::*;
    use uap_net::{FaultState, PopulationSpec, TopologyKind, TopologySpec, UnderlayConfig};
    use uap_sim::SimRng;

    fn underlay(n: usize) -> Underlay {
        let mut rng = SimRng::new(71);
        let g = TopologySpec::new(TopologyKind::Mesh {
            n: 5,
            extra_edge_prob: 0.5,
        })
        .build(&mut rng);
        let cfg = UnderlayConfig {
            routing: uap_net::RoutingMode::ShortestPath,
            ..Default::default()
        };
        Underlay::build(g, &PopulationSpec::uniform(n), cfg, &mut rng)
    }

    fn flood(o: &mut Overlay, origin: HostId, ttl: u32) -> FloodResult {
        let mut r = FloodResult::default();
        o.flood_into(origin, ttl, &mut r);
        r
    }

    fn line_overlay(n: u32) -> Overlay {
        let mut o = Overlay::new(n as usize);
        for i in 0..n {
            o.set_online(HostId(i), true);
        }
        for i in 0..n - 1 {
            o.add_edge(HostId(i), HostId(i + 1));
        }
        o
    }

    #[test]
    fn edges_are_undirected_and_deduped() {
        let mut o = Overlay::new(10);
        o.add_edge(HostId(0), HostId(1));
        o.add_edge(HostId(1), HostId(0));
        o.add_edge(HostId(0), HostId(0));
        assert_eq!(o.edge_count(), 1);
        assert!(o.has_edge(HostId(0), HostId(1)));
        assert!(o.has_edge(HostId(1), HostId(0)));
        o.remove_edge(HostId(0), HostId(1));
        assert_eq!(o.edge_count(), 0);
        assert_eq!(o.degree(HostId(0)), 0);
    }

    #[test]
    fn going_offline_drops_edges() {
        let mut o = Overlay::new(10);
        for i in 0..5 {
            o.set_online(HostId(i), true);
        }
        o.add_edge(HostId(0), HostId(1));
        o.add_edge(HostId(0), HostId(2));
        o.set_online(HostId(0), false);
        assert_eq!(o.edge_count(), 0);
        assert_eq!(o.degree(HostId(1)), 0);
        assert_eq!(
            o.online_nodes(),
            vec![HostId(1), HostId(2), HostId(3), HostId(4)]
        );
    }

    #[test]
    fn flood_on_line_respects_ttl() {
        let mut o = line_overlay(10);
        let r = flood(&mut o, HostId(0), 3);
        // Reaches nodes 1, 2, 3.
        assert_eq!(r.reached.len(), 3);
        assert_eq!(r.reached[0].host, HostId(1));
        assert_eq!(r.reached[2].hops, 3);
        let parents: Vec<u32> = r.reached.iter().map(|x| x.parent).collect();
        assert_eq!(parents, [Reached::NO_PARENT, 0, 1]);
        // Transmissions: 0->1, 1->{0,2}, 2->{1,3}; node 3, at the TTL,
        // forwards nothing.
        assert_eq!(r.messages, 5);
    }

    #[test]
    fn flood_counts_duplicates_in_cycles() {
        let mut o = Overlay::new(3);
        for i in 0..3 {
            o.set_online(HostId(i), true);
        }
        o.add_edge(HostId(0), HostId(1));
        o.add_edge(HostId(1), HostId(2));
        o.add_edge(HostId(2), HostId(0));
        let r = flood(&mut o, HostId(0), 2);
        assert_eq!(r.reached.len(), 2);
        // Origin sends 2; nodes 1 and 2 each forward to their two
        // neighbors (copies back to 0 and across both count): 2 + 2 + 2.
        assert_eq!(r.messages, 6);
    }

    #[test]
    fn a_reached_entry_is_twelve_bytes() {
        const { assert!(std::mem::size_of::<Reached>() == 12) };
    }

    /// What a walk over the line 0 – 1 – … should read: the sum of the
    /// underlay's current latencies over hops `0..=i`.
    fn line_latency_us(u: &Underlay, i: usize) -> Option<u64> {
        (0..=i)
            .map(|k| u.latency_us(HostId::from_index(k), HostId::from_index(k + 1)))
            .sum()
    }

    fn path_latencies(r: &FloodResult, u: &Underlay) -> Vec<Option<u64>> {
        (0..r.reached.len())
            .map(|i| r.path_latency_us(u, HostId(0), i))
            .collect()
    }

    #[test]
    fn path_latency_sums_the_hops_along_the_tree() {
        let u = underlay(10);
        let mut o = line_overlay(10);
        let r = flood(&mut o, HostId(0), 9);
        for (i, lat) in path_latencies(&r, &u).into_iter().enumerate() {
            assert!(lat.is_some());
            assert_eq!(lat, line_latency_us(&u, i), "entry {i}");
        }
        assert_eq!(r.path_latency_us(&u, HostId(0), 9), None, "out of range");
    }

    /// A fault state with every AS link down (`cut`) or every inter-AS
    /// path inflated by `factor`.
    fn fault(u: &Underlay, cut: bool, factor: f64) -> FaultState {
        FaultState {
            mask: cut.then(|| vec![true; u.graph.links.len()]),
            latency_factor: factor,
            ..FaultState::clear()
        }
    }

    #[test]
    fn inflation_reaches_every_path_latency() {
        let mut u = underlay(10);
        let mut o = line_overlay(10);
        let r = flood(&mut o, HostId(0), 9);
        let before = path_latencies(&r, &u);
        u.apply_fault_state(&fault(&u, false, 2.0));
        let during = path_latencies(&r, &u);
        for (i, &lat) in during.iter().enumerate() {
            assert_eq!(lat, line_latency_us(&u, i), "entry {i}");
        }
        assert!(during.iter().zip(&before).any(|(d, b)| d > b));
        u.apply_fault_state(&FaultState::clear());
        assert_eq!(path_latencies(&r, &u), before);
    }

    #[test]
    fn a_cut_hop_leaves_its_paths_unroutable_until_the_heal() {
        let mut u = underlay(10);
        let mut o = line_overlay(10);
        let r = flood(&mut o, HostId(0), 9);
        let before = path_latencies(&r, &u);
        assert!(before.iter().all(Option::is_some));
        u.apply_fault_state(&fault(&u, true, 1.0));
        let during = path_latencies(&r, &u);
        for (i, &lat) in during.iter().enumerate() {
            assert_eq!(lat, line_latency_us(&u, i), "entry {i}");
        }
        assert!(during.iter().any(Option::is_none));
        u.apply_fault_state(&FaultState::clear());
        assert_eq!(path_latencies(&r, &u), before);
    }

    #[test]
    fn leaves_receive_but_do_not_forward() {
        let mut o = Overlay::new(10);
        for i in 0..4 {
            o.set_online(HostId(i), true);
        }
        // up0 - leaf1 - up2 would break the chain at the leaf.
        o.set_role(HostId(1), Role::Leaf);
        o.add_edge(HostId(0), HostId(1));
        o.add_edge(HostId(1), HostId(2));
        let r = flood(&mut o, HostId(0), 5);
        assert_eq!(r.reached.len(), 1);
        assert_eq!(r.reached[0].host, HostId(1));
    }

    #[test]
    fn zero_ttl_or_offline_origin_is_empty() {
        let mut o = line_overlay(5);
        assert_eq!(flood(&mut o, HostId(0), 0).reached.len(), 0);
        let mut o2 = line_overlay(5);
        o2.set_online(HostId(0), false);
        assert_eq!(flood(&mut o2, HostId(0), 3).reached.len(), 0);
    }

    /// Work guard: the result buffer is the flood's only working storage
    /// besides the visited stamps — `Overlay` owns no queue — and it is
    /// sized from reused capacity: a repeated whole-network flood neither
    /// moves nor grows it, and its slack stays within one doubling.
    #[test]
    fn flood_queues_in_its_result_buffer_only() {
        let n = 4_096u32;
        let mut o = line_overlay(n);
        let mut rng = SimRng::new(73);
        for _ in 0..n {
            let (a, b) = (rng.index(n as usize), rng.index(n as usize));
            o.add_edge(HostId::from_index(a), HostId::from_index(b));
        }
        let mut r = FloodResult::default();
        o.flood_into(HostId(0), n, &mut r);
        assert_eq!(r.reached.len(), n as usize - 1);
        assert_eq!(r.messages, 2 * o.edge_count() as u64);
        assert!(r.reached.capacity() <= 2 * n as usize);
        let buffer = (r.reached.as_ptr(), r.reached.capacity());
        let first = r.reached.clone();
        o.flood_into(HostId(0), n, &mut r);
        assert_eq!((r.reached.as_ptr(), r.reached.capacity()), buffer);
        assert_eq!(r.reached, first);
    }

    #[test]
    fn clustered_ball_smaller_than_random_ball() {
        // The mechanism behind Table 1: same degree, but a clustered
        // overlay's TTL-ball is smaller. Build two 64-node overlays of
        // degree 4: one ring-of-cliques (clustered), one random.
        let mut rng = SimRng::new(72);
        let mut clustered = Overlay::new(64);
        let mut random = Overlay::new(64);
        for i in 0..64 {
            clustered.set_online(HostId(i), true);
            random.set_online(HostId(i), true);
        }
        // Clustered: 16 cliques of 4 (degree 3 inside) + ring links.
        for c in 0..16u32 {
            let base = c * 4;
            for i in 0..4 {
                for j in (i + 1)..4 {
                    clustered.add_edge(HostId(base + i), HostId(base + j));
                }
            }
            let next = ((c + 1) % 16) * 4;
            clustered.add_edge(HostId(base), HostId(next + 1));
        }
        // Random: same edge count.
        let target = clustered.edge_count();
        while random.edge_count() < target {
            let a = HostId::from_index(rng.index(64));
            let b = HostId::from_index(rng.index(64));
            if a != b {
                random.add_edge(a, b);
            }
        }
        let rc = flood(&mut clustered, HostId(0), 3);
        let rr = flood(&mut random, HostId(0), 3);
        assert!(
            rc.reached.len() < rr.reached.len(),
            "clustered ball {} !< random ball {}",
            rc.reached.len(),
            rr.reached.len()
        );
        assert!(rc.messages < rr.messages);
    }
}
