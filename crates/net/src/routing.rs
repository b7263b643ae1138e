//! Inter-domain routing.
//!
//! Two modes:
//!
//! * [`RoutingMode::ShortestPath`] — minimum-hop routing over all links,
//!   used for the flat testlab topologies where "a router is taken as an
//!   abstraction of an AS boundary";
//! * [`RoutingMode::ValleyFree`] — policy routing with Gao export rules:
//!   a path climbs customer→provider links, optionally crosses one peering
//!   link, then descends provider→customer links. This is what makes the
//!   hierarchical topologies bill traffic the way Figure 1's monetary
//!   arrows say they do.
//!
//! Paths are selected by minimum AS-hop count, tie-broken by accumulated
//! link latency and then deterministically by state index, so two runs with
//! the same topology always route identically.
//!
//! ## Hot-path layout
//!
//! Every query overlays issue (`latency_us`, `as_hops`, `path_links`,
//! transit-link counts) is answered from a fully materialized route
//! table: one flat [`RouteSummary`] per ordered `(src, dst)` pair plus one
//! link-index segment per source holding that source's paths back to
//! back, so [`Routing::route`] is one indexed load and
//! [`Routing::path_links`] returns a borrowed `&[u32]` slice without
//! allocating.
//!
//! ## One way to build
//!
//! The unit of construction is the source row: one Dijkstra from one
//! source AS, summarised (`Routing::row`) — its summaries, its path
//! segment and its repair-index entries all written where they live. A
//! fault-epoch repair recomputes the rows of the sources a mask change
//! can affect and touches no other row; a full build is the same call on
//! an empty table with every source dirty. Rows are computed by the one
//! fork-join in this file (`Routing::rows`): workers own contiguous
//! ranges of the sorted source list and write only their own rows, so
//! the table is **byte-identical** for any thread count or scheduling —
//! see `docs/PERFORMANCE.md` for the determinism argument and the
//! parallel-region boundary that keeps scoped threads quarantined here.

use crate::asgraph::{AsGraph, LinkKind};
use crate::ids::AsId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use uap_sim::Fields;

/// Routing policy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RoutingMode {
    /// Minimum-hop over all links, ignoring business relationships.
    ShortestPath,
    /// Valley-free policy routing (up* peer? down*).
    ValleyFree,
}

const INF: u64 = u64::MAX;

/// Per-source Dijkstra result over the 2-phase state graph, as
/// [`ReferenceRouting`] keeps it.
struct SrcTable {
    /// `(hops, latency_us)` per state; `hops == u32::MAX` means unreachable.
    hops: Vec<u32>,
    latency: Vec<u64>,
    /// Predecessor `(state, link)` per state.
    pred: Vec<Option<(u32, u32)>>,
}

/// Route metrics and path location for one ordered `(src, dst)` pair.
///
/// `hops == u32::MAX` encodes an unreachable pair; [`Routing::route`]
/// filters those out, so a summary obtained through it always describes a
/// real path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RouteSummary {
    /// AS-hop count (0 for `src == dst`).
    pub hops: u32,
    /// Accumulated inter-AS link latency along the path, in microseconds.
    pub latency_us: u64,
    /// Number of transit (customer–provider) links on the path,
    /// precomputed so no per-transfer path scan is needed (traced by
    /// `account_transfer_traced` and reported in trace analyses).
    pub transit_links: u32,
    /// Offset of this pair's path in its source's path segment.
    path_off: u32,
    /// Number of links in the path (equals `hops` for reachable pairs).
    path_len: u32,
}

const UNREACHABLE: RouteSummary = RouteSummary {
    hops: u32::MAX,
    latency_us: INF,
    transit_links: 0,
    path_off: 0,
    path_len: 0,
};

/// Telemetry from one [`Routing::repair_with_mask`] call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Links whose up/down status differs between the two masks.
    pub changed_links: usize,
    /// Sources whose rows had to be recomputed (0 when nothing changed).
    pub dirty_sources: usize,
    /// Total sources in the table.
    pub sources_total: usize,
    /// Whether the >50%-dirty heuristic fell back to a full rebuild.
    pub full_rebuild: bool,
}

impl RepairStats {
    /// Writes the canonical `net/routing.repair` fields (the twin of
    /// [`crate::fault::FaultState::trace_fields`]); each caller leads with
    /// its own boundary field.
    pub fn trace_fields(&self, f: &mut Fields) {
        f.u64("changed_links", self.changed_links as u64)
            .u64("dirty_sources", self.dirty_sources as u64)
            .u64("sources_total", self.sources_total as u64)
            .bool("full_rebuild", self.full_rebuild);
    }
}

/// Per-source bookkeeping that makes fault-epoch routing repairs
/// incremental: the final per-state Dijkstra costs of every source and
/// the set of links each source's predecessor tree uses.
///
/// Built by [`Routing::compute_indexed`] alongside the table and updated
/// in place by [`Routing::repair_with_mask`] for the sources it
/// recomputes; two indexes compare equal when their persistent fields do
/// (the scratch buffers are not state). Dirty detection is asymmetric:
///
/// * **Link removed** (masked): a source's row can only change if its
///   shortest-path tree uses the link — exact, via the tree-link sets.
///   (Non-tree links never carry a final predecessor, and with
///   strict-improvement relaxation the tree edge is always the
///   earliest-popping final-cost candidate, so deleting a non-tree link
///   leaves the row byte-identical.)
/// * **Link restored** (unmasked): the tree rule cannot apply (a masked
///   link is in no tree), so the per-state candidate test marks a source
///   dirty when the link could offer a path at most as costly as the
///   current per-state cost of either endpoint — `≤`, not `<`, because an
///   equal-cost candidate can change the deterministic tie-break winner.
///   Per-state (not best-phase) costs matter: in valley-free mode a
///   restored link can improve the *worse* phase of an endpoint and
///   propagate new descents downstream. If every restored link fails the
///   test against the old costs strictly, induction over path prefixes
///   shows no path through restored links reaches any state at ≤ its old
///   cost, so unmarked rows stay byte-identical even when several links
///   come back in the same epoch.
///
/// Scratch buffers (`dirty`, `dirty_list`) are struct-owned and reused
/// across repairs per the allocation discipline.
pub struct RepairIndex {
    n: usize,
    n_links: usize,
    /// Bitset words per source row (`ceil(n_links / 64)`).
    words: usize,
    /// `n × 2n` per-state hop counts, row-major by source.
    hops: Vec<u32>,
    /// `n × 2n` per-state latencies, row-major by source.
    latency: Vec<u64>,
    /// Source → links its predecessor tree uses (`n` bitset rows of
    /// `words` words each).
    tree_links: Vec<u64>,
    /// Scratch: dirty-source bitset for the repair in progress.
    dirty: Vec<u64>,
    /// Scratch: sorted dirty-source list of the most recent repair.
    dirty_list: Vec<u32>,
}

impl RepairIndex {
    /// An index with no row installed yet: a full build fills every
    /// source's before any is read.
    fn new(n: usize, n_links: usize) -> RepairIndex {
        let words = n_links.div_ceil(64).max(1);
        RepairIndex {
            n,
            n_links,
            words,
            hops: vec![0; n * 2 * n],
            latency: vec![0; n * 2 * n],
            tree_links: vec![0; n * words],
            dirty: vec![0; n.div_ceil(64)],
            dirty_list: Vec::new(),
        }
    }

    /// The sources recomputed by the most recent
    /// [`Routing::repair_with_mask`] call, ascending. Drives delta
    /// route-cache invalidation (only these rows changed).
    pub fn dirty_sources(&self) -> &[u32] {
        &self.dirty_list
    }

    /// Makes every source dirty: what follows is a full build.
    fn mark_all_dirty(&mut self) {
        self.dirty_list.clear();
        #[expect(
            clippy::cast_possible_truncation,
            reason = "n <= 65 536, the u16 AsId width"
        )]
        self.dirty_list.extend(0..self.n as u32);
    }

    #[inline]
    #[expect(clippy::indexing_slicing, reason = "s < n; dirty has ceil(n/64) words")]
    fn is_dirty(&self, s: usize) -> bool {
        self.dirty[s / 64] & (1 << (s % 64)) != 0
    }

    #[inline]
    #[expect(clippy::indexing_slicing, reason = "s < n; dirty has ceil(n/64) words")]
    fn set_dirty(&mut self, s: usize) {
        self.dirty[s / 64] |= 1 << (s % 64);
    }

    /// Whether source `s`'s predecessor tree uses link `li`.
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "s < n rows, li < n_links bits")]
    fn tree_uses(&self, s: usize, li: usize) -> bool {
        self.tree_links[s * self.words + li / 64] & (1 << (li % 64)) != 0
    }

    /// Marks sources for which restoring link `li` could offer a path at
    /// most as costly as their current cost at either endpoint state (the
    /// conservative candidate test documented on [`RepairIndex`]).
    #[expect(clippy::indexing_slicing, reason = "li < n_links; states < 2n; s < n")]
    fn mark_link_up_candidates(&mut self, graph: &AsGraph, mode: RoutingMode, li: usize) {
        let link = &graph.links[li];
        let (a, b) = (link.a.idx() * 2, link.b.idx() * 2);
        let w = link.latency_us;
        // The state transitions this link enables (see `dijkstra`).
        let mut trans = [(0usize, 0usize); 3];
        let trans = match mode {
            RoutingMode::ShortestPath => {
                trans[0] = (a, b);
                trans[1] = (b, a);
                &trans[..2]
            }
            RoutingMode::ValleyFree => match link.kind {
                LinkKind::Transit => {
                    // Climb customer→provider, descend provider→customer.
                    trans[0] = (b, a);
                    trans[1] = (a, b + 1);
                    trans[2] = (a + 1, b + 1);
                    &trans[..3]
                }
                LinkKind::Peering => {
                    trans[0] = (a, b + 1);
                    trans[1] = (b, a + 1);
                    &trans[..2]
                }
            },
        };
        let ns = self.n * 2;
        for s in 0..self.n {
            if self.is_dirty(s) {
                continue;
            }
            let base = s * ns;
            for &(u, v) in trans {
                let hu = self.hops[base + u];
                if hu == u32::MAX {
                    continue;
                }
                let cand = (hu + 1, self.latency[base + u] + w);
                if cand <= (self.hops[base + v], self.latency[base + v]) {
                    self.set_dirty(s);
                    break;
                }
            }
        }
    }
}

impl PartialEq for RepairIndex {
    fn eq(&self, other: &RepairIndex) -> bool {
        (self.n, self.n_links, self.words) == (other.n, other.n_links, other.words)
            && self.hops == other.hops
            && self.latency == other.latency
            && self.tree_links == other.tree_links
    }
}

/// One source's place in the table and the index, lent to the worker
/// that recomputes it: a row is written where it lives.
struct Slot<'a> {
    src: usize,
    summaries: &'a mut [RouteSummary],
    paths: &'a mut Vec<u32>,
    hops: &'a mut [u32],
    latency: &'a mut [u64],
    tree_links: &'a mut [u64],
}

/// All-pairs routing with precomputed per-pair summaries and paths.
#[derive(PartialEq, Eq)]
pub struct Routing {
    mode: RoutingMode,
    n: usize,
    /// `n × n` summaries, row-major by source AS.
    summaries: Vec<RouteSummary>,
    /// Per source AS, the link indices of its paths to every destination,
    /// back to back in destination order.
    paths: Vec<Vec<u32>>,
}

/// Worker count for the row fork-join: the machine's parallelism. The
/// table does not depend on it (see [`Routing::compute_indexed_threads`]).
pub(crate) fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

impl Routing {
    /// Computes routing tables for every source AS of a fault-free graph.
    pub fn compute(graph: &AsGraph, mode: RoutingMode) -> Routing {
        Self::compute_indexed(graph, mode, None).0
    }

    /// Computes routing tables excluding links marked dead in `mask`
    /// (indexed by link index), together with the [`RepairIndex`] that
    /// makes subsequent fault epochs repairable via
    /// [`Routing::repair_with_mask`] instead of full rebuilds.
    pub fn compute_indexed(
        graph: &AsGraph,
        mode: RoutingMode,
        mask: Option<&[bool]>,
    ) -> (Routing, RepairIndex) {
        Self::compute_indexed_threads(graph, mode, mask, workers())
    }

    /// [`Routing::compute_indexed`] with an explicit worker count (the
    /// differential tests sweep this to prove scheduling cannot leak into
    /// the table). A full build is a repair of the empty table with every
    /// source dirty.
    pub fn compute_indexed_threads(
        graph: &AsGraph,
        mode: RoutingMode,
        mask: Option<&[bool]>,
        threads: usize,
    ) -> (Routing, RepairIndex) {
        let n = graph.len();
        let mut routing = Routing {
            mode,
            n,
            summaries: vec![UNREACHABLE; n * n],
            paths: vec![Vec::new(); n],
        };
        let mut index = RepairIndex::new(n, graph.links.len());
        index.mark_all_dirty();
        routing.recompute_dirty(&mut index, graph, mask, threads);
        (routing, index)
    }

    /// Incrementally repairs the table after a fault-mask transition from
    /// `old_mask` to `new_mask`, recomputing only the sources the change
    /// can affect (see [`RepairIndex`] for the dirty rules) and leaving
    /// every other row where it is — byte-identical to a full build under
    /// `new_mask`, which a debug-build assertion re-derives after every
    /// repair.
    #[expect(clippy::indexing_slicing, reason = "li < n_links = each mask's len")]
    pub fn repair_with_mask(
        &mut self,
        index: &mut RepairIndex,
        graph: &AsGraph,
        old_mask: Option<&[bool]>,
        new_mask: Option<&[bool]>,
        threads: usize,
    ) -> RepairStats {
        let n = self.n;
        debug_assert_eq!(index.n, n);
        debug_assert_eq!(index.n_links, graph.links.len());
        index.dirty.fill(0);
        index.dirty_list.clear();
        let mut changed = 0usize;
        for li in 0..index.n_links {
            let was = old_mask.is_some_and(|m| m[li]);
            let now = new_mask.is_some_and(|m| m[li]);
            if was == now {
                continue;
            }
            changed += 1;
            if now {
                // Link went down: exactly the sources whose tree uses it.
                for s in 0..n {
                    if index.tree_uses(s, li) {
                        index.set_dirty(s);
                    }
                }
            } else {
                index.mark_link_up_candidates(graph, self.mode, li);
            }
        }
        let mut stats = RepairStats {
            changed_links: changed,
            dirty_sources: 0,
            sources_total: n,
            full_rebuild: false,
        };
        if changed == 0 {
            return stats;
        }
        for s in 0..n {
            if index.is_dirty(s) {
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "s < n <= 65 536, the u16 AsId width"
                )]
                index.dirty_list.push(s as u32);
            }
        }
        if index.dirty_list.len() * 2 > n {
            // Majority dirty: the epoch is a full build. The threshold is
            // pinned output — `full_rebuild` and `dirty_sources` are
            // traced per epoch and tabulated by E17.
            index.mark_all_dirty();
            stats.full_rebuild = true;
        }
        stats.dirty_sources = index.dirty_list.len();
        self.recompute_dirty(index, graph, new_mask, threads);

        #[cfg(debug_assertions)]
        {
            let (full, fresh) = Self::compute_indexed_threads(graph, self.mode, new_mask, 1);
            debug_assert!(
                *self == full && *index == fresh,
                "incremental repair diverged from full recompute \
                 ({changed} changed links, {} dirty sources)",
                stats.dirty_sources
            );
        }
        stats
    }

    /// Recomputes the rows of `index.dirty_list` under `mask`, each written
    /// in place by the worker that is lent its slot; no other row is read
    /// or moved.
    fn recompute_dirty(
        &mut self,
        index: &mut RepairIndex,
        graph: &AsGraph,
        mask: Option<&[bool]>,
        threads: usize,
    ) {
        // Row widths; a chunk width may not be zero, even over no rows.
        let (n, ns) = (self.n.max(1), self.n.max(1) * 2);
        let mut dirty = index.dirty_list.iter().peekable();
        let slots: Vec<Slot> = self
            .summaries
            .chunks_exact_mut(n)
            .zip(&mut self.paths)
            .zip(index.hops.chunks_exact_mut(ns))
            .zip(index.latency.chunks_exact_mut(ns))
            .zip(index.tree_links.chunks_exact_mut(index.words))
            .enumerate()
            .filter(|&(s, _)| dirty.next_if(|&&d| d as usize == s).is_some())
            .map(
                |(src, ((((summaries, paths), hops), latency), tree_links))| Slot {
                    src,
                    summaries,
                    paths,
                    hops,
                    latency,
                    tree_links,
                },
            )
            .collect();
        Self::rows(graph, self.mode, mask, slots, threads);
    }

    /// The one fork-join: [`Routing::row`] run on every slot (ascending by
    /// source), fanned over contiguous ranges of the list. Each worker
    /// writes only the rows its slots lend it, so the result is
    /// independent of scheduling and of `threads`.
    #[expect(
        clippy::disallowed_methods,
        reason = "parallel region: workers own disjoint contiguous ranges of the sorted source \
                  list and write each row in place through `&mut` slots split off before the \
                  fork; the scope joins them all, so rows are byte-identical for any thread \
                  count (oracle: parallel_build_is_byte_identical_to_serial)"
    )]
    fn rows(
        graph: &AsGraph,
        mode: RoutingMode,
        mask: Option<&[bool]>,
        mut slots: Vec<Slot>,
        threads: usize,
    ) {
        let row = |slot: &mut Slot| Self::row(graph, mode, mask, slot);
        let per = slots.len().div_ceil(threads.max(1)).max(1);
        if per >= slots.len() {
            return slots.iter_mut().for_each(row);
        }
        std::thread::scope(|sc| {
            for range in slots.chunks_mut(per) {
                sc.spawn(move || range.iter_mut().for_each(row));
            }
        });
    }

    /// Recomputes one source's row into its slot.
    #[expect(clippy::indexing_slicing, reason = "tree_links has n_links bits")]
    fn row(graph: &AsGraph, mode: RoutingMode, mask: Option<&[bool]>, slot: &mut Slot) {
        let src = AsId::from_index(slot.src);
        let pred = Self::dijkstra(graph, mode, src, mask, slot.hops, slot.latency);
        // A destination's path is as long as the cheaper of its two
        // states' hop counts, so the segment is sized before it is filled.
        let links = slot
            .hops
            .chunks_exact(2)
            .filter_map(|states| states.iter().min())
            .filter(|&&hops| hops != u32::MAX)
            .map(|&hops| hops as usize)
            .sum();
        slot.paths.clear();
        slot.paths.reserve_exact(links);
        for (dst, out) in slot.summaries.iter_mut().enumerate() {
            *out = Self::summarize(graph, slot.hops, slot.latency, &pred, dst, slot.paths);
        }
        slot.tree_links.fill(0);
        for &(_, li) in pred.iter().flatten() {
            slot.tree_links[li as usize / 64] |= 1 << (li % 64);
        }
    }

    /// Reduces one destination's Dijkstra states to a [`RouteSummary`],
    /// appending its path to `paths`, the source's segment.
    #[expect(clippy::indexing_slicing, reason = "states < 2n = hops.len()")]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a path visits < 2n states, and a row holds at most n·(n−1) link ids \
                  (< 2^32 for n <= 65 536, the u16 AsId width)"
    )]
    fn summarize(
        graph: &AsGraph,
        hops: &[u32],
        latency: &[u64],
        pred: &[Option<(u32, u32)>],
        dst: usize,
        paths: &mut Vec<u32>,
    ) -> RouteSummary {
        let s0 = dst * 2;
        let s1 = s0 + 1;
        let c0 = (hops[s0], latency[s0]);
        let c1 = (hops[s1], latency[s1]);
        if c0.0 == u32::MAX && c1.0 == u32::MAX {
            return UNREACHABLE;
        }
        let mut s = if c0 <= c1 { s0 } else { s1 };
        let (hops, latency_us) = if c0 <= c1 { c0 } else { c1 };
        let path_off = paths.len();
        while let Some((prev, li)) = pred[s] {
            paths.push(li);
            s = prev as usize;
        }
        paths[path_off..].reverse();
        let transit_links = paths[path_off..]
            .iter()
            .filter(|&&li| graph.links[li as usize].kind == LinkKind::Transit)
            .count() as u32;
        RouteSummary {
            hops,
            latency_us,
            transit_links,
            // A min-hop path never revisits an AS (phase 0 may take every
            // step phase 1 may), so a row holds at most n·(n−1) link ids.
            path_off: path_off as u32,
            path_len: (paths.len() - path_off) as u32,
        }
    }

    /// The routing mode in effect.
    pub fn mode(&self) -> RoutingMode {
        self.mode
    }

    /// One source's Dijkstra over the 2-phase state graph: fills the
    /// per-state `(hops, latency)` costs (`hops == u32::MAX` means
    /// unreachable) and returns the predecessor `(state, link)` per state.
    #[expect(clippy::indexing_slicing, reason = "states < 2n; link ids < n_links")]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "state indices are < 2n, so s/2 < n <= 65 536, the u16 AsId width"
    )]
    fn dijkstra(
        graph: &AsGraph,
        mode: RoutingMode,
        src: AsId,
        mask: Option<&[bool]>,
        hops: &mut [u32],
        latency: &mut [u64],
    ) -> Vec<Option<(u32, u32)>> {
        // State encoding: as_idx * 2 + phase. Phase 0: the valley-free
        // prefix (may still climb); phase 1: committed to descending.
        hops.fill(u32::MAX);
        latency.fill(INF);
        let mut pred = vec![None; hops.len()];
        let start = src.idx() * 2;
        hops[start] = 0;
        latency[start] = 0;
        let mut heap: BinaryHeap<Reverse<(u32, u64, u32)>> = BinaryHeap::new();
        heap.push(Reverse((0, 0, start as u32)));
        while let Some(Reverse((h, lat, s))) = heap.pop() {
            let s = s as usize;
            if (h, lat) != (hops[s], latency[s]) {
                continue; // stale entry
            }
            let x = AsId((s / 2) as u16);
            let phase = s % 2;
            for &li in graph.incident(x) {
                if let Some(m) = mask {
                    if m[li as usize] {
                        continue;
                    }
                }
                let link = &graph.links[li as usize];
                #[expect(clippy::expect_used, reason = "graph.incident(x) lists links at x")]
                let y = link.other(x).expect("incident link");
                let next_phase = match mode {
                    RoutingMode::ShortestPath => 0,
                    RoutingMode::ValleyFree => match (phase, link.kind) {
                        // Climbing: x must be the customer (link.b).
                        (0, LinkKind::Transit) if link.b == x => 0,
                        // Descending: x is the provider (link.a).
                        (_, LinkKind::Transit) if link.a == x => 1,
                        // One peering crossing, only from the climb phase.
                        (0, LinkKind::Peering) => 1,
                        _ => continue,
                    },
                };
                if mode == RoutingMode::ShortestPath && phase == 1 {
                    continue; // phase 1 unused in shortest-path mode
                }
                let t = y.idx() * 2 + next_phase;
                let nh = h + 1;
                let nlat = lat + link.latency_us;
                if (nh, nlat) < (hops[t], latency[t]) {
                    hops[t] = nh;
                    latency[t] = nlat;
                    pred[t] = Some((s as u32, li));
                    heap.push(Reverse((nh, nlat, t as u32)));
                }
            }
        }
        pred
    }

    /// The precomputed summary for `(src, dst)`: hops, latency and transit
    /// count in one table read. `None` if either id is out of range or the
    /// pair is unreachable.
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "src, dst < n checked above")]
    pub fn route(&self, src: AsId, dst: AsId) -> Option<&RouteSummary> {
        if src.idx() >= self.n || dst.idx() >= self.n {
            return None;
        }
        let s = &self.summaries[src.idx() * self.n + dst.idx()];
        if s.hops == u32::MAX {
            None
        } else {
            Some(s)
        }
    }

    /// AS-hop distance (0 for `src == dst`), or `None` if unreachable.
    #[inline]
    pub fn as_hops(&self, src: AsId, dst: AsId) -> Option<u32> {
        Some(self.route(src, dst)?.hops)
    }

    /// Accumulated inter-AS link latency along the chosen path, in
    /// microseconds.
    #[inline]
    pub fn latency_us(&self, src: AsId, dst: AsId) -> Option<u64> {
        Some(self.route(src, dst)?.latency_us)
    }

    /// The link indices along the chosen path from `src` to `dst`, in
    /// traversal order, borrowed from the source's path segment (no
    /// allocation). Empty for `src == dst`.
    #[inline]
    pub fn path_links(&self, src: AsId, dst: AsId) -> Option<&[u32]> {
        let s = self.route(src, dst)?;
        let off = s.path_off as usize;
        self.paths
            .get(src.idx())?
            .get(off..off + s.path_len as usize)
    }

    /// The AS sequence of the chosen path, starting at `src` and ending at
    /// `dst`.
    pub fn path_ases(&self, graph: &AsGraph, src: AsId, dst: AsId) -> Option<Vec<AsId>> {
        let links = self.path_links(src, dst)?;
        let mut out = vec![src];
        let mut cur = src;
        #[expect(clippy::expect_used, reason = "a routed path's links chain end to end")]
        for &li in links {
            let link = graph.links.get(li as usize);
            cur = link.and_then(|l| l.other(cur)).expect("path link");
            out.push(cur);
        }
        debug_assert_eq!(out.last().copied(), Some(dst));
        #[cfg(debug_assertions)]
        #[expect(clippy::panic, reason = "debug-only invariant guard")]
        if self.mode == RoutingMode::ValleyFree {
            if let Err(e) = crate::invariants::check_valley_free(graph, &out) {
                panic!("valley-free violation on {src}->{dst}: {e}");
            }
        }
        Some(out)
    }

    /// Fraction of ordered AS pairs that are mutually reachable.
    pub fn reachable_fraction(&self) -> f64 {
        if self.n <= 1 {
            return 1.0;
        }
        let reachable = self
            .summaries
            .iter()
            .filter(|s| s.hops != u32::MAX && s.hops != 0)
            .count();
        reachable as f64 / (self.n * (self.n - 1)) as f64
    }
}

/// The pre-table per-query implementation, retained as the differential
/// reference: it answers every query by probing the raw Dijkstra state
/// tables and walking predecessor links, exactly as the production code
/// did before the flat table existed. Tests assert [`Routing`] agrees
/// with it on hops, latency, paths and reachability for every pair.
pub struct ReferenceRouting {
    n: usize,
    tables: Vec<SrcTable>,
}

impl ReferenceRouting {
    /// Computes the per-source Dijkstra tables serially.
    pub fn compute(graph: &AsGraph, mode: RoutingMode, mask: Option<&[bool]>) -> ReferenceRouting {
        let n = graph.len();
        let tables = (0..n)
            .map(|src| {
                let (mut hops, mut latency) = (vec![0; 2 * n], vec![0; 2 * n]);
                let src = AsId::from_index(src);
                let pred = Routing::dijkstra(graph, mode, src, mask, &mut hops, &mut latency);
                SrcTable {
                    hops,
                    latency,
                    pred,
                }
            })
            .collect();
        ReferenceRouting { n, tables }
    }

    /// The source's table and the cheaper of `dst`'s two states in it.
    fn best_state(&self, src: AsId, dst: AsId) -> Option<(&SrcTable, usize)> {
        if src.idx() >= self.n || dst.idx() >= self.n {
            return None;
        }
        let t = self.tables.get(src.idx())?;
        let s0 = dst.idx() * 2;
        let s1 = s0 + 1;
        let c0 = (*t.hops.get(s0)?, *t.latency.get(s0)?);
        let c1 = (*t.hops.get(s1)?, *t.latency.get(s1)?);
        if c0.0 == u32::MAX && c1.0 == u32::MAX {
            return None;
        }
        Some((t, if c0 <= c1 { s0 } else { s1 }))
    }

    /// AS-hop distance, or `None` if unreachable.
    pub fn as_hops(&self, src: AsId, dst: AsId) -> Option<u32> {
        let (t, s) = self.best_state(src, dst)?;
        t.hops.get(s).copied()
    }

    /// Accumulated path latency in microseconds.
    pub fn latency_us(&self, src: AsId, dst: AsId) -> Option<u64> {
        let (t, s) = self.best_state(src, dst)?;
        t.latency.get(s).copied()
    }

    /// The link indices along the chosen path (allocating, per query).
    pub fn path_links(&self, src: AsId, dst: AsId) -> Option<Vec<u32>> {
        let (t, mut s) = self.best_state(src, dst)?;
        let mut links = Vec::new();
        while let Some(&Some((prev, li))) = t.pred.get(s) {
            links.push(li);
            s = prev as usize;
        }
        links.reverse();
        Some(links)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asgraph::Tier;
    use crate::geo::GeoPoint;

    /// Figure-1-like fixture:
    ///
    /// ```text
    ///        T1a ===== T1b          (peering)
    ///       /   \         \
    ///     T2a    T2b       T2c      (transit, T1 provider)
    ///    /   \     \       /  \
    ///  A       B    C     D    E    (transit, T2 provider)
    ///          B ~~~ C              (peering between locals)
    /// ```
    fn figure1() -> AsGraph {
        let mut g = AsGraph::new();
        let p = |x: f64| GeoPoint::new(x, 0.0);
        let t1a = g.add_as(Tier::Tier1, p(0.0), 100.0); // AS0
        let t1b = g.add_as(Tier::Tier1, p(1000.0), 100.0); // AS1
        let t2a = g.add_as(Tier::Tier2, p(-200.0), 50.0); // AS2
        let t2b = g.add_as(Tier::Tier2, p(200.0), 50.0); // AS3
        let t2c = g.add_as(Tier::Tier2, p(1200.0), 50.0); // AS4
        let a = g.add_as(Tier::Tier3, p(-300.0), 20.0); // AS5
        let b = g.add_as(Tier::Tier3, p(-100.0), 20.0); // AS6
        let c = g.add_as(Tier::Tier3, p(150.0), 20.0); // AS7
        let d = g.add_as(Tier::Tier3, p(1100.0), 20.0); // AS8
        let e = g.add_as(Tier::Tier3, p(1300.0), 20.0); // AS9
        g.add_peering(t1a, t1b, 10_000, 100_000.0);
        g.add_transit(t1a, t2a, 5_000, 40_000.0);
        g.add_transit(t1a, t2b, 5_000, 40_000.0);
        g.add_transit(t1b, t2c, 5_000, 40_000.0);
        g.add_transit(t2a, a, 2_000, 10_000.0);
        g.add_transit(t2a, b, 2_000, 10_000.0);
        g.add_transit(t2b, c, 2_000, 10_000.0);
        g.add_transit(t2c, d, 2_000, 10_000.0);
        g.add_transit(t2c, e, 2_000, 10_000.0);
        g.add_peering(b, c, 1_000, 1_000.0);
        g
    }

    /// Figure 1 plus the degenerate shapes: no AS, one AS, and three ASes
    /// with no link between them.
    fn fixtures() -> Vec<AsGraph> {
        let isolated = |n: usize| {
            let mut g = AsGraph::new();
            for i in 0..n {
                g.add_as(Tier::Tier3, GeoPoint::new(i as f64, 0.0), 10.0);
            }
            g
        };
        vec![figure1(), isolated(0), isolated(1), isolated(3)]
    }

    #[test]
    fn same_as_is_zero_hops() {
        let g = figure1();
        let r = Routing::compute(&g, RoutingMode::ValleyFree);
        assert_eq!(r.as_hops(AsId(5), AsId(5)), Some(0));
        assert_eq!(r.path_links(AsId(5), AsId(5)), Some(&[][..]));
    }

    #[test]
    fn siblings_route_via_common_provider() {
        let g = figure1();
        let r = Routing::compute(&g, RoutingMode::ValleyFree);
        // A -> T2a -> B: up then down, 2 hops.
        assert_eq!(r.as_hops(AsId(5), AsId(6)), Some(2));
        let path = r.path_ases(&g, AsId(5), AsId(6)).unwrap();
        assert_eq!(path, vec![AsId(5), AsId(2), AsId(6)]);
    }

    #[test]
    fn local_peering_shortcut_is_used() {
        let g = figure1();
        let r = Routing::compute(&g, RoutingMode::ValleyFree);
        // B and C peer directly: 1 hop instead of B-T2a-T1a-T2b-C.
        assert_eq!(r.as_hops(AsId(6), AsId(7)), Some(1));
        let path = r.path_ases(&g, AsId(6), AsId(7)).unwrap();
        assert_eq!(path, vec![AsId(6), AsId(7)]);
    }

    #[test]
    fn cross_core_route_climbs_and_descends() {
        let g = figure1();
        let r = Routing::compute(&g, RoutingMode::ValleyFree);
        // A -> T2a -> T1a -> T1b -> T2c -> D = 5 hops, crossing the core
        // peering link exactly once.
        assert_eq!(r.as_hops(AsId(5), AsId(8)), Some(5));
        let path = r.path_ases(&g, AsId(5), AsId(8)).unwrap();
        assert_eq!(
            path,
            vec![AsId(5), AsId(2), AsId(0), AsId(1), AsId(4), AsId(8)]
        );
    }

    #[test]
    fn no_valley_paths() {
        // A valley would be e.g. A -> T2a -> B -> C (descending into B then
        // crossing the B~C peering). Verify B~C peering is never used as a
        // second lateral move: route A->C must go up to T1a and down via T2b,
        // or A->B->C would be shorter but is a valley.
        let g = figure1();
        let r = Routing::compute(&g, RoutingMode::ValleyFree);
        let path = r.path_ases(&g, AsId(5), AsId(7)).unwrap();
        // Valley-free best: A,T2a,T1a,T2b,C (4 hops). The valley path
        // A,T2a,B,C would be 3 hops but is forbidden.
        assert_eq!(path.len(), 5);
        assert_eq!(path, vec![AsId(5), AsId(2), AsId(0), AsId(3), AsId(7)]);
    }

    #[test]
    fn shortest_path_mode_ignores_policy() {
        let g = figure1();
        let r = Routing::compute(&g, RoutingMode::ShortestPath);
        // Without policy, A->C may cut through B's peering: A,T2a,B,C.
        assert_eq!(r.as_hops(AsId(5), AsId(7)), Some(3));
    }

    #[test]
    fn reachability_full_on_connected_graph() {
        let g = figure1();
        for mode in [RoutingMode::ShortestPath, RoutingMode::ValleyFree] {
            let r = Routing::compute(&g, mode);
            assert_eq!(r.reachable_fraction(), 1.0, "{mode:?}");
        }
    }

    #[test]
    fn peering_only_graph_unreachable_beyond_one_peer_hop_valley_free() {
        // Ring of 4 peering links: valley-free allows exactly one peering
        // crossing, so only direct neighbors are reachable.
        let mut g = AsGraph::new();
        for i in 0..4 {
            g.add_as(Tier::Tier3, GeoPoint::new(i as f64, 0.0), 10.0);
        }
        for i in 0..4u16 {
            g.add_peering(AsId(i), AsId((i + 1) % 4), 1_000, 100.0);
        }
        let r = Routing::compute(&g, RoutingMode::ValleyFree);
        assert_eq!(r.as_hops(AsId(0), AsId(1)), Some(1));
        assert_eq!(r.as_hops(AsId(0), AsId(2)), None);
        // Shortest-path mode reaches everything.
        let r2 = Routing::compute(&g, RoutingMode::ShortestPath);
        assert_eq!(r2.as_hops(AsId(0), AsId(2)), Some(2));
    }

    #[test]
    fn failure_mask_reroutes_or_disconnects() {
        let g = figure1();
        // Kill the B~C peering shortcut (link index 9): B->C re-routes via
        // the hierarchy.
        let mut mask = vec![false; g.links.len()];
        mask[9] = true;
        let (r, _) = Routing::compute_indexed(&g, RoutingMode::ValleyFree, Some(&mask));
        assert_eq!(r.as_hops(AsId(6), AsId(7)), Some(4));
        // Kill the T1a=T1b core peering too: D becomes unreachable from A.
        mask[0] = true;
        let (r2, _) = Routing::compute_indexed(&g, RoutingMode::ValleyFree, Some(&mask));
        assert_eq!(r2.as_hops(AsId(5), AsId(8)), None);
    }

    /// The link mask a one-epoch `RandomLinkDown` plan samples on `g`.
    fn random_mask(g: &AsGraph, p: f64, salt: u64) -> Vec<bool> {
        use crate::fault::{FaultKind, FaultPlan};
        use uap_sim::SimTime;
        FaultPlan::new()
            .epoch(
                SimTime::ZERO,
                SimTime::from_secs(1),
                FaultKind::RandomLinkDown { p, salt },
            )
            .compile(g)
            .state_at(SimTime::ZERO)
            .mask
            .expect("a link-down epoch always carries a mask")
    }

    #[test]
    fn all_links_masked_isolates_everything() {
        let g = figure1();
        assert!(random_mask(&g, 1.0, 1).iter().all(|&down| down));
        for g in fixtures() {
            let mask = vec![true; g.links.len()];
            // A table over at most one AS has no pair to lose.
            let isolated = if g.len() <= 1 { 1.0 } else { 0.0 };
            for mode in [RoutingMode::ShortestPath, RoutingMode::ValleyFree] {
                let built = Routing::compute_indexed(&g, mode, Some(&mask));
                assert_eq!(built.0.reachable_fraction(), isolated, "{mode:?}");
                // Masking everything as a repair lands on the same table,
                // with no inter-AS path and no link id left in any row; and
                // clearing the mask lands back on the fault-free build.
                let pristine = Routing::compute_indexed(&g, mode, None);
                for threads in [1, 16] {
                    let (mut r, mut idx) =
                        Routing::compute_indexed_threads(&g, mode, None, threads);
                    r.repair_with_mask(&mut idx, &g, None, Some(&mask), threads);
                    assert!(r.paths.iter().all(Vec::is_empty), "{mode:?}");
                    for (a, b) in (0..g.len()).flat_map(|a| (0..g.len()).map(move |b| (a, b))) {
                        let path = r.path_links(AsId::from_index(a), AsId::from_index(b));
                        assert_eq!(path, (a == b).then_some(&[][..]), "{mode:?} {a}->{b}");
                    }
                    assert!(
                        (&r, &idx) == (&built.0, &built.1),
                        "{mode:?} threads={threads}"
                    );
                    r.repair_with_mask(&mut idx, &g, Some(&mask), None, threads);
                    assert!((r, idx) == pristine, "{mode:?} threads={threads}");
                }
            }
            assert_eq!(g.component_count(Some(&mask)), g.len());
        }
    }

    #[test]
    fn valley_free_reachability_not_above_shortest_path_under_same_mask() {
        // Policy can orphan an AS whose only surviving links are peerings,
        // so valley-free reachability is bounded by raw connectivity.
        use crate::gen::{TopologyKind, TopologySpec};
        let g = TopologySpec::new(TopologyKind::Hierarchical {
            tier1: 2,
            tier2_per_tier1: 3,
            tier3_per_tier2: 2,
            tier2_peering_prob: 0.5,
            tier3_peering_prob: 0.5,
        })
        .build(&mut uap_sim::SimRng::new(3));
        for salt in 0..5 {
            let mask = random_mask(&g, 0.3, salt);
            let (vf, _) = Routing::compute_indexed(&g, RoutingMode::ValleyFree, Some(&mask));
            let (sp, _) = Routing::compute_indexed(&g, RoutingMode::ShortestPath, Some(&mask));
            assert!(vf.reachable_fraction() <= sp.reachable_fraction() + 1e-12);
        }
    }

    #[test]
    fn latency_accumulates_along_path() {
        let g = figure1();
        let r = Routing::compute(&g, RoutingMode::ValleyFree);
        // A -> T2a -> B: 2000 + 2000.
        assert_eq!(r.latency_us(AsId(5), AsId(6)), Some(4_000));
        // A -> ... -> D: 2000 + 5000 + 10000 + 5000 + 2000.
        assert_eq!(r.latency_us(AsId(5), AsId(8)), Some(24_000));
    }

    #[test]
    fn path_links_consistent_with_hops() {
        let g = figure1();
        let r = Routing::compute(&g, RoutingMode::ValleyFree);
        for a in 0..g.len() {
            for b in 0..g.len() {
                let (a, b) = (AsId::from_index(a), AsId::from_index(b));
                if let Some(h) = r.as_hops(a, b) {
                    assert_eq!(r.path_links(a, b).unwrap().len(), h as usize);
                }
            }
        }
    }

    #[test]
    fn route_summary_combines_all_metrics() {
        let g = figure1();
        let r = Routing::compute(&g, RoutingMode::ValleyFree);
        // A -> ... -> D crosses 4 transit links and the core peering.
        let s = r.route(AsId(5), AsId(8)).unwrap();
        assert_eq!(s.hops, 5);
        assert_eq!(s.latency_us, 24_000);
        assert_eq!(s.transit_links, 4);
        // B -> C is the pure peering shortcut.
        let s = r.route(AsId(6), AsId(7)).unwrap();
        assert_eq!((s.hops, s.transit_links), (1, 0));
        // Unreachable and out-of-range pairs yield None.
        assert!(r.route(AsId(0), AsId(99)).is_none());
    }

    #[test]
    fn parallel_build_is_byte_identical_to_serial() {
        for g in fixtures() {
            // Figure 1 loses its core peering and the B~C shortcut.
            let mask: Vec<bool> = (0..g.links.len()).map(|li| li == 0 || li == 9).collect();
            for mode in [RoutingMode::ShortestPath, RoutingMode::ValleyFree] {
                for m in [None, Some(&mask[..])] {
                    let serial = Routing::compute_indexed_threads(&g, mode, m, 1);
                    for threads in [2, 3, 7, 16] {
                        let par = Routing::compute_indexed_threads(&g, mode, m, threads);
                        assert!(
                            serial == par,
                            "table or index of {} ASes ({threads} threads, {mode:?}, \
                             masked: {}) diverged from one thread",
                            g.len(),
                            m.is_some()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn repair_matches_full_rebuild_across_mask_sequence() {
        let g = figure1();
        let nl = g.links.len();
        // Down B~C, then also the core peering, then heal B~C while the
        // core stays down, then full heal. Every step must agree with a
        // from-scratch masked build (repair also self-checks in debug).
        let mut steps: Vec<Vec<bool>> = vec![vec![false; nl]; 4];
        steps[0][9] = true;
        steps[1][9] = true;
        steps[1][0] = true;
        steps[2][0] = true;
        for mode in [RoutingMode::ShortestPath, RoutingMode::ValleyFree] {
            for threads in [1, 3] {
                let (mut r, mut idx) = Routing::compute_indexed_threads(&g, mode, None, threads);
                let mut prev: Option<Vec<bool>> = None;
                for step in &steps {
                    let stats =
                        r.repair_with_mask(&mut idx, &g, prev.as_deref(), Some(step), threads);
                    let full = Routing::compute_indexed_threads(&g, mode, Some(step), 1);
                    assert!(
                        (&r, &idx) == (&full.0, &full.1),
                        "{mode:?} threads={threads} mask={step:?}"
                    );
                    assert_eq!(stats.sources_total, g.len());
                    assert_eq!(stats.dirty_sources, idx.dirty_sources().len());
                    assert_eq!(stats.full_rebuild, stats.dirty_sources == g.len());
                    prev = Some(step.clone());
                }
            }
        }
    }

    #[test]
    fn repair_on_local_peering_fault_touches_subset_of_sources() {
        let g = figure1();
        let (mut r, mut idx) =
            Routing::compute_indexed_threads(&g, RoutingMode::ValleyFree, None, 1);
        // B~C (link 9) only appears in B's and C's shortest-path trees:
        // any other source crossing it would form a valley.
        let mut mask = vec![false; g.links.len()];
        mask[9] = true;
        let stats = r.repair_with_mask(&mut idx, &g, None, Some(&mask), 1);
        assert_eq!(stats.changed_links, 1);
        assert!(!stats.full_rebuild);
        assert_eq!(idx.dirty_sources(), &[6, 7]);
        assert_eq!(stats.dirty_sources, 2);
        assert_eq!(r.as_hops(AsId(6), AsId(7)), Some(4));
    }

    /// The work guard of per-row storage, with no clock: a repair moves
    /// and rewrites the dirty rows and nothing else.
    #[test]
    fn repair_moves_only_dirty_rows() {
        use crate::gen::{TopologyKind, TopologySpec};
        let g = TopologySpec::new(TopologyKind::Hierarchical {
            tier1: 4,
            tier2_per_tier1: 6,
            tier3_per_tier2: 8,
            tier2_peering_prob: 0.3,
            tier3_peering_prob: 0.3,
        })
        .build(&mut uap_sim::SimRng::new(11));
        let n = g.len();
        assert!(n >= 200);
        let mode = RoutingMode::ValleyFree;
        let (mut r, mut idx) = Routing::compute_indexed_threads(&g, mode, None, 2);
        let mut mask = vec![false; g.links.len()];
        let leaf_peering = |l: &crate::asgraph::AsLink| {
            l.kind == LinkKind::Peering && g.nodes[l.a.idx()].tier == Tier::Tier3
        };
        mask[g.links.iter().position(leaf_peering).expect("leaf peering")] = true;
        // The cut, then its heal.
        for (old, new) in [(None, Some(&mask[..])), (Some(&mask[..]), None)] {
            let before: Vec<_> = r.paths.iter().map(|p| p.as_ptr()).collect();
            let summaries = r.summaries.clone();
            let stats = r.repair_with_mask(&mut idx, &g, old, new, 2);
            assert!(!stats.full_rebuild && stats.dirty_sources > 0);
            let full = Routing::compute_indexed_threads(&g, mode, new, 1).0;
            for (s, &ptr) in before.iter().enumerate() {
                let row = s * n..(s + 1) * n;
                if idx.dirty_sources().contains(&u32::try_from(s).unwrap()) {
                    assert_eq!(r.paths[s], full.paths[s], "dirty row {s}");
                    let want = &full.summaries[row.clone()];
                    assert_eq!(&r.summaries[row], want, "dirty row {s}");
                } else {
                    assert_eq!(r.paths[s].as_ptr(), ptr, "clean row {s} moved");
                    let want = &summaries[row.clone()];
                    assert_eq!(&r.summaries[row], want, "clean row {s}");
                }
            }
        }
        // No changed link: the repair returns before it touches any row —
        // a mark left in every row is still there afterwards.
        for row in &mut r.paths {
            row.push(u32::MAX);
        }
        let stats = r.repair_with_mask(&mut idx, &g, None, Some(&vec![false; mask.len()]), 2);
        assert_eq!((stats.changed_links, stats.dirty_sources), (0, 0));
        assert!(r.paths.iter().all(|row| row.last() == Some(&u32::MAX)));
    }

    #[test]
    fn route_summary_is_three_words() {
        assert_eq!(std::mem::size_of::<RouteSummary>(), 24);
    }

    #[test]
    fn repair_after_heal_is_incremental_and_exact() {
        let g = figure1();
        let (mut r, mut idx) =
            Routing::compute_indexed_threads(&g, RoutingMode::ValleyFree, None, 1);
        let mut mask = vec![false; g.links.len()];
        mask[9] = true;
        r.repair_with_mask(&mut idx, &g, None, Some(&mask), 1);
        // Heal: the candidate test must mark (at least) B and C dirty and
        // restore the original table exactly.
        let stats = r.repair_with_mask(&mut idx, &g, Some(&mask), None, 1);
        assert_eq!(stats.changed_links, 1);
        assert!(!stats.full_rebuild);
        assert!(idx.dirty_sources().contains(&6));
        assert!(idx.dirty_sources().contains(&7));
        let pristine = Routing::compute(&g, RoutingMode::ValleyFree);
        assert!(r == pristine);
        assert_eq!(r.as_hops(AsId(6), AsId(7)), Some(1));
    }

    #[test]
    fn repair_with_unchanged_mask_is_a_noop() {
        for g in fixtures() {
            let (mut r, mut idx) =
                Routing::compute_indexed_threads(&g, RoutingMode::ValleyFree, None, 16);
            let mask = vec![false; g.links.len()];
            // None vs all-false: no link changed status.
            let stats = r.repair_with_mask(&mut idx, &g, None, Some(&mask), 16);
            assert_eq!(
                stats,
                RepairStats {
                    changed_links: 0,
                    dirty_sources: 0,
                    sources_total: g.len(),
                    full_rebuild: false,
                }
            );
            assert!(idx.dirty_sources().is_empty());
            let connected = if g.links.is_empty() && g.len() > 1 {
                0.0
            } else {
                1.0
            };
            assert_eq!(r.reachable_fraction(), connected);
        }
    }

    #[test]
    fn repair_falls_back_to_full_rebuild_when_majority_dirty() {
        let g = figure1();
        let (mut r, mut idx) =
            Routing::compute_indexed_threads(&g, RoutingMode::ValleyFree, None, 1);
        // The T1a–T2a transit uplink (link 1) sits on most sources' trees;
        // downing it alongside the core peering dirties well over half.
        let mut mask = vec![false; g.links.len()];
        mask[0] = true;
        mask[1] = true;
        let stats = r.repair_with_mask(&mut idx, &g, None, Some(&mask), 1);
        assert!(stats.full_rebuild);
        assert_eq!(stats.dirty_sources, g.len());
        let (full, _) = Routing::compute_indexed(&g, RoutingMode::ValleyFree, Some(&mask));
        assert!(r == full);
        // The rebuilt index keeps working for further epochs.
        let stats = r.repair_with_mask(&mut idx, &g, Some(&mask), None, 1);
        assert!(!stats.full_rebuild || stats.dirty_sources == g.len());
        let pristine = Routing::compute(&g, RoutingMode::ValleyFree);
        assert!(r == pristine);
    }

    #[test]
    fn table_matches_reference_implementation() {
        let g = figure1();
        for mode in [RoutingMode::ShortestPath, RoutingMode::ValleyFree] {
            let table = Routing::compute(&g, mode);
            let refr = ReferenceRouting::compute(&g, mode, None);
            for a in 0..g.len() {
                for b in 0..g.len() {
                    let (a, b) = (AsId::from_index(a), AsId::from_index(b));
                    assert_eq!(table.as_hops(a, b), refr.as_hops(a, b), "{a}->{b}");
                    assert_eq!(table.latency_us(a, b), refr.latency_us(a, b), "{a}->{b}");
                    assert_eq!(
                        table.path_links(a, b).map(<[u32]>::to_vec),
                        refr.path_links(a, b),
                        "{a}->{b}"
                    );
                }
            }
        }
    }
}
