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
//! table: one [`Route`] record per ordered `(src, dst)` pair, 16 bytes
//! and 16-aligned, four to a cache line, holding the pair's latency
//! (`u32` µs), hop and transit counts (`u8` each) and the path itself,
//! at most five `u16` link ids.
//! [`Routing::route`] and [`Routing::path_links`] read that one record
//! and return borrows without allocating.
//!
//! The widths are construction-time refusals (`route table refused: …`):
//! a graph of more than 65 536 links, and a route of more than five links
//! or past `u32::MAX` µs, raised in the caller and naming the same pair
//! at any worker count. No binary builds one: on the three-tier
//! hierarchies they build, a valley-free path climbs at most two provider
//! links, crosses at most one peering and descends at most two, and
//! shortest-path routing there and on the testlabs stays within five
//! links too.
//!
//! ## One way to build
//!
//! The unit of construction is the source row: one level-synchronous
//! sweep from one source AS over the valley-free state graph, summarised
//! (`Rows::recompute`) — its route records, and its repair-index entries
//! when the table holds an index, written where they live. Every edge adds one
//! hop, so the sweep visits the states level by level, each level in
//! `(latency, state)` order: the order in which a Dijkstra keyed by
//! `(hops, latency, state)` pops them. That heap-ordered Dijkstra is kept
//! as [`ReferenceRouting`], the sweep's differential oracle.
//!
//! A fault-epoch repair recomputes the rows of the sources a mask change
//! can affect and touches no other row; a full build is the same call on
//! an empty table with every source dirty. The table owns everything a
//! repair needs — the private [`RepairIndex`], the mask its rows were
//! built under, its worker count and the running repair totals — so
//! [`Routing::repair_with_mask`] takes only the graph and the new mask.
//! Only a repair reads the index, so [`Routing::compute`] (what
//! `Underlay::build` runs) writes route records only, and the first
//! repair that changes a link installs the index with one full sweep
//! under the old mask before it marks its dirty sources; a run without a
//! link fault never allocates it. [`Routing::compute_indexed`] builds the
//! table together with its index.
//! Rows are computed by the one
//! fork-join in this file (`Routing::rows`): workers own contiguous
//! ranges of the sorted source list and write only their own rows, so
//! the table is **byte-identical** for any thread count or scheduling —
//! see `docs/PERFORMANCE.md` for the determinism argument and the
//! parallel-region boundary that keeps scoped threads quarantined here.

use crate::asgraph::{AsGraph, AsLink, LinkKind};
use crate::ids::AsId;
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

/// The state transitions `(from, to)` that `link` enables under `mode`.
/// State `2·as + phase`: phase 0 may still climb or cross a peering,
/// phase 1 only descends. The one rule the sweep's [`StateGraph`] and
/// the heal-candidate test ([`RepairIndex`]) share; a link enables at
/// most one transition out of any state.
fn transitions(link: &AsLink, mode: RoutingMode) -> [Option<(usize, usize)>; 3] {
    let (a, b) = (link.a.idx() * 2, link.b.idx() * 2);
    match (mode, link.kind) {
        // Phase 1 is unused in shortest-path mode.
        (RoutingMode::ShortestPath, _) => [Some((a, b)), Some((b, a)), None],
        // Climb customer→provider, descend provider→customer.
        (RoutingMode::ValleyFree, LinkKind::Transit) => {
            [Some((b, a)), Some((a, b + 1)), Some((a + 1, b + 1))]
        }
        // One peering crossing, only from the climb phase.
        (RoutingMode::ValleyFree, LinkKind::Peering) => [Some((a, b + 1)), Some((b, a + 1)), None],
    }
}

/// One edge of the [`StateGraph`].
#[derive(Clone, Copy)]
struct Edge {
    /// The crossed link's latency.
    latency: u64,
    /// The state it enters.
    to: u32,
    /// The link it crosses.
    link: u32,
    /// Whether that link is a transit link.
    transit: bool,
}

/// The state graph of one `(graph, mode, mask)` in CSR form: state `s`'s
/// out-edges are `edges[first[s]..first[s + 1]]`, in the order of its
/// AS's incident links. Built once per [`Routing::recompute_dirty`] call
/// into buffers the [`RepairIndex`] keeps, and read by every worker.
#[derive(Default)]
struct StateGraph {
    first: Vec<usize>,
    edges: Vec<Edge>,
}

impl StateGraph {
    #[expect(clippy::indexing_slicing, reason = "li < n_links = mask.len()")]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "states are < 2n <= 131 072, twice the u16 AsId width"
    )]
    fn rebuild(&mut self, graph: &AsGraph, mode: RoutingMode, mask: &[bool]) {
        self.first.clear();
        self.edges.clear();
        for x in 0..graph.len() {
            let incident = graph.incident(AsId::from_index(x));
            for from in [2 * x, 2 * x + 1] {
                self.first.push(self.edges.len());
                for &li in incident {
                    if mask[li as usize] {
                        continue;
                    }
                    let link = &graph.links[li as usize];
                    let mut trans = transitions(link, mode).into_iter().flatten();
                    if let Some((_, to)) = trans.find(|&(u, _)| u == from) {
                        self.edges.push(Edge {
                            latency: link.latency_us,
                            to: to as u32,
                            link: li,
                            transit: link.kind == LinkKind::Transit,
                        });
                    }
                }
            }
        }
        self.first.push(self.edges.len());
    }

    /// State `s`'s out-edges.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "s < 2n; first holds 2n + 1 ascending offsets into edges"
    )]
    fn out(&self, s: usize) -> &[Edge] {
        &self.edges[self.first[s]..self.first[s + 1]]
    }
}

/// One worker's sweep buffers, kept in the [`RepairIndex`] and reused by
/// every row that worker computes.
#[derive(Default)]
struct Scratch {
    /// Per-state hop counts of the row being computed (`u32::MAX`:
    /// unreachable), full width; the index keeps them narrowed.
    hops: Vec<u32>,
    /// Per-state latencies of the row being computed, full width.
    latency: Vec<u64>,
    /// Predecessor `(state, link)` of every reached state but the source.
    pred: Vec<(u32, u32)>,
    /// Transit links on the path to every reached state.
    transit: Vec<u32>,
    /// The level being visited, as `(latency, state)`.
    level: Vec<(u64, u32)>,
    /// The level it collects.
    next: Vec<(u64, u32)>,
    /// The first route of this worker's range that a record cannot hold,
    /// as `(src, dst, hops, µs)`; `Routing::rows` raises it in the caller.
    refused: Option<(usize, usize, u32, u64)>,
}

impl Scratch {
    /// One source's sweep over the `ns` states of `states`: fills the
    /// per-state `(hops, latency)` costs (`hops == u32::MAX` means
    /// unreachable) and the predecessors and transit counts of the reached
    /// states.
    ///
    /// Every edge adds one hop, so level `h + 1` is exactly the set of
    /// states first reached from level `h`, and its costs are final once
    /// level `h` is visited. Visiting each level in `(latency, state)`
    /// order with strict-`<` relaxation is the order in which a Dijkstra
    /// keyed by `(hops, latency, state)` pops its valid entries, so costs,
    /// predecessors and tie-breaks are the heap's ([`ReferenceRouting`]).
    #[expect(
        clippy::indexing_slicing,
        reason = "src and edge targets are states < ns = hops.len() = pred.len()"
    )]
    fn sweep(&mut self, states: &StateGraph, src: usize, ns: usize) {
        let Scratch {
            hops,
            latency,
            pred,
            transit,
            level,
            next,
            ..
        } = self;
        hops.clear();
        hops.resize(ns, u32::MAX);
        latency.clear();
        latency.resize(ns, INF);
        pred.resize(ns, (0, 0));
        transit.resize(ns, 0);
        hops[src] = 0;
        latency[src] = 0;
        transit[src] = 0;
        level.clear();
        #[expect(clippy::cast_possible_truncation, reason = "src < 2n <= 131 072")]
        level.push((0, src as u32));
        let mut h = 0;
        while !level.is_empty() {
            // A state's latency may have fallen since it was collected.
            for (lat, s) in level.iter_mut() {
                *lat = latency[*s as usize];
            }
            level.sort_unstable();
            next.clear();
            h += 1;
            for &(lat, s) in level.iter() {
                let on_path = transit[s as usize];
                for e in states.out(s as usize) {
                    let (t, lat) = (e.to as usize, lat + e.latency);
                    if hops[t] == u32::MAX {
                        hops[t] = h;
                        next.push((lat, e.to));
                    } else if hops[t] != h || lat >= latency[t] {
                        continue;
                    }
                    latency[t] = lat;
                    pred[t] = (s, e.link);
                    transit[t] = on_path + u32::from(e.transit);
                }
            }
            std::mem::swap(level, next);
        }
    }

    /// `dst`'s cheaper state (by `(hops, latency)`, phase 0 on a tie) and
    /// its cost: the state its route follows. `None` when neither state
    /// was reached.
    #[expect(clippy::indexing_slicing, reason = "dst < n: its states < 2n")]
    fn best(&self, dst: usize) -> Option<(usize, u32, u64)> {
        let s0 = dst * 2;
        let c0 = (self.hops[s0], self.latency[s0]);
        let c1 = (self.hops[s0 + 1], self.latency[s0 + 1]);
        let (s, (hops, latency)) = if c0 <= c1 { (s0, c0) } else { (s0 + 1, c1) };
        (hops != u32::MAX).then_some((s, hops, latency))
    }

    /// The [`Route`] record of the route [`Scratch::best`] found: the
    /// state it ends in, its hops and its latency.
    #[expect(
        clippy::indexing_slicing,
        reason = "states < 2n; `Rows::recompute` refused a route of more than INLINE hops"
    )]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "`Rows::recompute` refused the row unless every route is at most INLINE hops \
                  and under 2^32 µs; link ids are < 65 536 (refused at construction)"
    )]
    fn summarize(&self, (mut s, hops, latency): (usize, u32, u64)) -> Route {
        let transit_links = self.transit[s] as u8;
        let mut links = [0; INLINE];
        for link in links[..hops as usize].iter_mut().rev() {
            let (prev, li) = self.pred[s];
            *link = li as u16;
            s = prev as usize;
        }
        Route {
            latency_us: latency as u32,
            hops: hops as u8,
            transit_links,
            links,
        }
    }
}

/// Per-source heap-ordered Dijkstra result over the 2-phase state graph:
/// the search the production sweep replaced, kept by [`ReferenceRouting`]
/// as its oracle.
struct SrcTable {
    /// `(hops, latency_us)` per state; `hops == u32::MAX` means unreachable.
    hops: Vec<u32>,
    latency: Vec<u64>,
    /// Predecessor `(state, link)` per state.
    pred: Vec<Option<(u32, u32)>>,
}

/// Links a [`Route`] record holds in place.
const INLINE: usize = 5;

/// One ordered `(src, dst)` pair's route: its metrics and its path of at
/// most five links. 16 bytes, 16-aligned: four records to a cache line,
/// and one read of one record answers every per-pair query.
///
/// `hops == u8::MAX` encodes an unreachable pair; [`Routing::route`]
/// filters those out, so a record obtained through it always describes a
/// real path. The widths hold by refusal: [`Routing::compute_indexed`]
/// refuses a graph of more than 65 536 links, or one where a route takes
/// more than [`INLINE`] links or `2^32` µs or more.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(C, align(16))]
pub struct Route {
    /// Accumulated inter-AS link latency along the path, in microseconds.
    pub latency_us: u32,
    /// AS-hop count (0 for `src == dst`): the path's link count.
    pub hops: u8,
    /// Number of transit (customer–provider) links on the path,
    /// precomputed so no per-transfer path scan is needed (traced by
    /// `account_transfer_traced` and reported in trace analyses).
    pub transit_links: u8,
    /// The path's link ids in traversal order, the slots past `hops` zero.
    links: [u16; INLINE],
}

const UNREACHABLE: Route = Route {
    latency_us: u32::MAX,
    hops: u8::MAX,
    transit_links: 0,
    links: [0; INLINE],
};

/// The most link ids a [`Route`]'s `u16` slots can name.
const MAX_LINKS: usize = 1 << 16;

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

/// The hop count a stored reachable cost saturates at; `u16::MAX` is
/// the unreachable state.
const HOPS_CAP: u16 = u16::MAX - 1;

/// A state's sweep cost as the [`RepairIndex`] stores it: `u16` hops,
/// `u16::MAX` for an unreachable state, and `u32` latency. A reachable
/// cost that does not fit saturates, hops to [`HOPS_CAP`] and latency to
/// `u32::MAX`, so the stored cost never exceeds the sweep's. Only a
/// state no route follows can saturate (`Rows::recompute` refuses a
/// route past the record's widths); the heal-candidate test reads it
/// through [`floor`] and [`ceiling`].
fn narrow(hops: u32, latency: u64) -> (u16, u32) {
    if hops == u32::MAX {
        return (u16::MAX, u32::MAX);
    }
    (
        u16::try_from(hops).map_or(HOPS_CAP, |h| h.min(HOPS_CAP)),
        u32::try_from(latency).unwrap_or(u32::MAX),
    )
}

/// The least sweep cost a stored cost stands for, `None` when the state
/// is unreachable: the stored cost itself, since saturation only lowers.
fn floor((hops, latency): (u16, u32)) -> Option<(u32, u64)> {
    (hops != u16::MAX).then_some((u32::from(hops), u64::from(latency)))
}

/// The most a stored cost stands for: the stored cost when it is below
/// both ceilings, else `(u32::MAX, INF)` (unreachable, or perhaps
/// saturated), which every offer undercuts.
fn ceiling((hops, latency): (u16, u32)) -> (u32, u64) {
    if hops >= HOPS_CAP || latency == u32::MAX {
        (u32::MAX, INF)
    } else {
        (u32::from(hops), u64::from(latency))
    }
}

/// Per-source bookkeeping that makes fault-epoch routing repairs
/// incremental: the final per-state costs of every source's sweep and
/// the set of links each source's predecessor tree uses.
///
/// A [`Routing`] keeps its own, written alongside the rows by the build
/// that holds one ([`Routing::compute_indexed`]) or by the sweep that
/// installs it at the first repair that changes a link, and updated in
/// place by [`Routing::repair_with_mask`] for the sources it recomputes.
/// Until then `hops`, `latency` and `tree_links` are empty and
/// unallocated. Two indexes compare equal when their persistent fields do
/// (the scratch buffers are not state). Dirty detection is asymmetric:
///
/// * **Link removed** (masked): a source's row can only change if its
///   shortest-path tree uses the link — exact, via the tree-link sets.
///   (A state's predecessor is the first edge, in its level's
///   `(latency, state)` visiting order, to offer the final cost;
///   strict-`<` relaxation keeps it against every later equal offer. A
///   non-tree link is never that edge, so deleting it removes only
///   offers that lost: by induction over levels, every level's states,
///   costs, order and predecessors stay as they were, and the row is
///   byte-identical.)
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
///   come back in the same epoch. A stored cost that may have saturated
///   only widens the test: the offer is taken from the entering state's
///   [`floor`] and compared with the exit state's [`ceiling`].
///
/// Scratch buffers (`dirty`, `dirty_list`, the state graph and the
/// per-worker sweep buffers) are struct-owned and reused across repairs,
/// so a repair allocates only for its fork.
struct RepairIndex {
    n: usize,
    n_links: usize,
    /// Bitset words per source row (`ceil(n_links / 64)`).
    words: usize,
    /// `n × 2n` per-state hop counts, row-major by source; `u16::MAX`
    /// means unreachable. With `latency`, 6 bytes per state: the sweep
    /// runs on full-width [`Scratch`] costs, and `Rows::recompute`
    /// narrows them here ([`narrow`]).
    hops: Vec<u16>,
    /// `n × 2n` per-state latencies in µs, row-major by source (any value
    /// for an unreachable state).
    latency: Vec<u32>,
    /// Source → links its predecessor tree uses (`n` bitset rows of
    /// `words` words each).
    tree_links: Vec<u64>,
    /// Scratch: dirty-source bitset for the repair in progress.
    dirty: Vec<u64>,
    /// Scratch: sorted dirty-source list of the most recent repair.
    dirty_list: Vec<u32>,
    /// Scratch: the state graph of the recompute in progress.
    states: StateGraph,
    /// Scratch: one sweep buffer set per worker.
    scratch: Vec<Scratch>,
}

impl RepairIndex {
    /// An index that holds no per-source entry yet, only the scratch a
    /// build needs; [`RepairIndex::install`] allocates the entries.
    fn new(n: usize, n_links: usize) -> RepairIndex {
        RepairIndex {
            n,
            n_links,
            words: n_links.div_ceil(64).max(1),
            hops: Vec::new(),
            latency: Vec::new(),
            tree_links: Vec::new(),
            dirty: vec![0; n.div_ceil(64)],
            dirty_list: Vec::new(),
            states: StateGraph::default(),
            scratch: Vec::new(),
        }
    }

    /// Whether the per-source entries are allocated (an index over no
    /// AS has none to allocate, and no link to repair).
    fn installed(&self) -> bool {
        !self.tree_links.is_empty()
    }

    /// Allocates the per-source entries, zeroed: a full sweep fills every
    /// source's before any is read.
    fn install(&mut self) {
        let (n, words) = (self.n, self.words);
        self.hops = vec![0; n * 2 * n];
        self.latency = vec![0; n * 2 * n];
        self.tree_links = vec![0; n * words];
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
        let w = link.latency_us;
        let trans = transitions(link, mode);
        let ns = self.n * 2;
        for s in 0..self.n {
            if self.is_dirty(s) {
                continue;
            }
            let base = s * ns;
            let stored = |x: usize| (self.hops[base + x], self.latency[base + x]);
            for &(u, v) in trans.iter().flatten() {
                let Some((hu, lu)) = floor(stored(u)) else {
                    continue;
                };
                if (hu + 1, lu + w) <= ceiling(stored(v)) {
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

/// Consecutive source rows of the table and the index, from source
/// `base` on, lent to the worker that recomputes the dirty ones among
/// them: a row is written where it lives.
struct Rows<'a> {
    base: usize,
    n: usize,
    words: usize,
    /// Whether the table holds an index; without one, `hops`, `latency`
    /// and `tree_links` are empty and only records are written.
    indexed: bool,
    routes: &'a mut [Box<[Route]>],
    hops: &'a mut [u16],
    latency: &'a mut [u32],
    tree_links: &'a mut [u64],
}

/// Splits the first `at` elements off `rows`, keeping the rest there.
fn split_front<'a, T>(rows: &mut &'a mut [T], at: usize) -> &'a mut [T] {
    let (front, rest) = std::mem::take(rows).split_at_mut(at);
    *rows = rest;
    front
}

impl<'a> Rows<'a> {
    /// Splits off the rows before source `end` (`base <= end <= n`),
    /// keeping the rest.
    fn split_until(&mut self, end: usize) -> Rows<'a> {
        let (k, n, words, indexed) = (end - self.base, self.n, self.words, self.indexed);
        let (states, bits) = if indexed {
            (k * 2 * n, k * words)
        } else {
            (0, 0)
        };
        let front = Rows {
            base: self.base,
            n,
            words,
            indexed,
            routes: split_front(&mut self.routes, k),
            hops: split_front(&mut self.hops, states),
            latency: split_front(&mut self.latency, states),
            tree_links: split_front(&mut self.tree_links, bits),
        };
        self.base = end;
        front
    }

    /// Recomputes source `src`'s row (`src` is one of these rows) in
    /// place: the sweep, then every destination's record, then, when the
    /// table holds an index, the tree links and the narrowed per-state
    /// costs.
    ///
    /// A route a record cannot hold — one of more than [`INLINE`] links,
    /// or of `2^32` µs or more — is recorded in `scratch.refused` instead,
    /// and the row is left unfinished. (A state no route follows may cost
    /// more; the index saturates it, see [`narrow`].)
    #[expect(
        clippy::indexing_slicing,
        reason = "src − base < the rows lent; tree_links has n_links bits"
    )]
    fn recompute(&mut self, src: usize, states: &StateGraph, scratch: &mut Scratch) {
        let (r, ns, words) = (src - self.base, 2 * self.n, self.words);
        scratch.sweep(states, src * 2, ns);
        let routes = &mut self.routes[r];
        if routes.is_empty() {
            // A full build allocates each row in the worker that fills it.
            *routes = vec![UNREACHABLE; self.n].into();
        }
        for (dst, out) in routes.iter_mut().enumerate() {
            *out = match scratch.best(dst) {
                None => UNREACHABLE,
                Some((_, hops, latency))
                    if hops as usize > INLINE || latency > u64::from(u32::MAX) =>
                {
                    scratch.refused = Some((src, dst, hops, latency));
                    return;
                }
                Some(best) => scratch.summarize(best),
            };
        }
        if !self.indexed {
            return;
        }
        let tree_links = &mut self.tree_links[r * words..(r + 1) * words];
        tree_links.fill(0);
        // Every reached state but the source has a predecessor link.
        for (&h, &(_, li)) in scratch.hops.iter().zip(&scratch.pred) {
            if h != 0 && h != u32::MAX {
                tree_links[li as usize / 64] |= 1 << (li % 64);
            }
        }
        let hops = &mut self.hops[r * ns..(r + 1) * ns];
        let latency = &mut self.latency[r * ns..(r + 1) * ns];
        let wide = scratch.hops.iter().zip(&scratch.latency);
        for ((h, lat), (&wide_h, &wide_lat)) in hops.iter_mut().zip(latency.iter_mut()).zip(wide) {
            (*h, *lat) = narrow(wide_h, wide_lat);
        }
    }
}

/// All-pairs routing with a precomputed record per pair, and everything
/// a fault epoch needs to repair it in place: the [`RepairIndex`], the
/// link mask the rows were built under, the worker count and the running
/// repair totals.
pub struct Routing {
    mode: RoutingMode,
    n: usize,
    /// Per source AS, its `n` route records in destination order, each
    /// row allocated by the worker that first fills it (see
    /// docs/PERFORMANCE.md, "Route table").
    routes: Vec<Box<[Route]>>,
    /// Per-source repair bookkeeping (see [`RepairIndex`]), installed by
    /// the first repair that changes a link unless the build wrote it.
    index: RepairIndex,
    /// The link mask the rows were built under (all false: no link
    /// down), diffed against the next repair's mask to find changed links.
    mask: Vec<bool>,
    /// Worker count for builds and repairs, read once at build: asking
    /// the OS per fault boundary allocates.
    workers: usize,
    /// Running `(sources_recomputed, sources_total, full_fallbacks)` over
    /// every repair.
    totals: (u64, u64, u64),
}

/// Two tables are equal when their rows, the masks they were built under
/// and, whenever both hold one, their repair indexes are: the worker
/// count, the repair totals and whether the index is installed yet
/// describe how a table was reached, not what it answers.
impl PartialEq for Routing {
    fn eq(&self, other: &Routing) -> bool {
        let both_indexed = self.index.installed() && other.index.installed();
        (self.mode, self.n) == (other.mode, other.n)
            && self.routes == other.routes
            && (!both_indexed || self.index == other.index)
            && self.mask == other.mask
    }
}

impl Routing {
    /// Computes routing tables for every source AS of a fault-free graph,
    /// on the machine's parallelism, writing route records only: the
    /// first repair that changes a link installs the repair index.
    pub fn compute(graph: &AsGraph, mode: RoutingMode) -> Routing {
        Self::build(graph, mode, None, Self::machine_workers(), false)
    }

    /// Computes routing tables excluding links marked dead in `mask`
    /// (indexed by link index), on the machine's parallelism, together
    /// with the index that makes later fault epochs repairable via
    /// [`Routing::repair_with_mask`] instead of full rebuilds.
    pub fn compute_indexed(graph: &AsGraph, mode: RoutingMode, mask: Option<&[bool]>) -> Routing {
        Self::compute_indexed_threads(graph, mode, mask, Self::machine_workers())
    }

    /// [`Routing::compute_indexed`] with an explicit worker count, kept
    /// for the table's repairs too (the differential tests sweep it to
    /// prove scheduling cannot leak into the table).
    ///
    /// # Panics
    ///
    /// Refuses a graph of more than 65 536 links, whose ids a record's
    /// `u16` slots cannot name, before any row is allocated; and a route
    /// past the record's widths (`Routing::recompute_dirty`).
    pub fn compute_indexed_threads(
        graph: &AsGraph,
        mode: RoutingMode,
        mask: Option<&[bool]>,
        threads: usize,
    ) -> Routing {
        Self::build(graph, mode, mask, threads, true)
    }

    /// The machine's parallelism.
    fn machine_workers() -> usize {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    }

    /// The one build: a repair of the empty table with every source
    /// dirty, writing the index too when `indexed`.
    #[expect(
        clippy::panic,
        reason = "refusal at build time: every link id must fit a record's u16 slot"
    )]
    fn build(
        graph: &AsGraph,
        mode: RoutingMode,
        mask: Option<&[bool]>,
        threads: usize,
        indexed: bool,
    ) -> Routing {
        let n = graph.len();
        let n_links = graph.links.len();
        if n_links > MAX_LINKS {
            panic!("route table refused: {n_links} links, past the record's {MAX_LINKS} link ids");
        }
        let mut routing = Routing {
            mode,
            n,
            routes: vec![Box::default(); n],
            index: RepairIndex::new(n, n_links),
            mask: mask.map_or_else(|| vec![false; n_links], <[bool]>::to_vec),
            workers: threads,
            totals: (0, 0, 0),
        };
        if indexed {
            routing.index.install();
        }
        routing.index.mark_all_dirty();
        routing.recompute_dirty(graph);
        routing
    }

    /// Incrementally repairs the table after a fault-mask transition from
    /// the mask its rows were built under to `new_mask`, recomputing only
    /// the sources the change can affect (see [`RepairIndex`] for the
    /// dirty rules) and leaving every other row where it is —
    /// byte-identical to a full build under `new_mask`, which a
    /// debug-build assertion re-derives after every repair.
    ///
    /// A table built without its index installs it first, when some link
    /// changed: one full sweep under the old mask, which rewrites every
    /// record as it was. The repair that follows, and the stats it
    /// returns, are those of a table built with its index.
    #[expect(clippy::indexing_slicing, reason = "li < n_links = each mask's len")]
    pub fn repair_with_mask(&mut self, graph: &AsGraph, new_mask: Option<&[bool]>) -> RepairStats {
        let now = |li: usize| new_mask.is_some_and(|m| m[li]);
        if !self.index.installed() && (0..self.mask.len()).any(|li| self.mask[li] != now(li)) {
            self.index.install();
            self.index.mark_all_dirty();
            self.recompute_dirty(graph);
        }
        let n = self.n;
        let index = &mut self.index;
        debug_assert_eq!(index.n, n);
        debug_assert_eq!(index.n_links, graph.links.len());
        index.dirty.fill(0);
        index.dirty_list.clear();
        let mut changed = 0usize;
        for (li, was) in self.mask.iter_mut().enumerate() {
            let now = now(li);
            if *was == now {
                continue;
            }
            *was = now;
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
        self.totals.1 += n as u64;
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
            self.totals.2 += 1;
        }
        stats.dirty_sources = index.dirty_list.len();
        self.totals.0 += stats.dirty_sources as u64;
        self.recompute_dirty(graph);

        debug_assert!(
            *self == Self::compute_indexed_threads(graph, self.mode, new_mask, 1),
            "incremental repair diverged from full recompute \
             ({changed} changed links, {} dirty sources)",
            stats.dirty_sources
        );
        stats
    }

    /// The sources recomputed by the most recent
    /// [`Routing::repair_with_mask`] call, ascending. Drives delta
    /// route-cache invalidation (only these rows changed).
    pub fn dirty_sources(&self) -> &[u32] {
        &self.index.dirty_list
    }

    /// Running `(sources_recomputed, sources_total, full_fallbacks)`
    /// totals across every [`Routing::repair_with_mask`] call so far.
    pub fn repair_totals(&self) -> (u64, u64, u64) {
        self.totals
    }

    /// Bytes allocated for the repair index's per-state costs and
    /// tree-link sets: 0 until the table is built with its index
    /// ([`Routing::compute_indexed`]) or repaired across a link change.
    pub fn repair_index_bytes(&self) -> usize {
        let ix = &self.index;
        2 * ix.hops.capacity() + 4 * ix.latency.capacity() + 8 * ix.tree_links.capacity()
    }

    /// Recomputes the rows of the index's dirty list under the table's
    /// mask, each written in place by the worker that is lent it; no
    /// other row is read or moved.
    ///
    /// # Panics
    ///
    /// Refuses a route a record cannot hold (`route table refused: …`)
    /// once every worker has stopped. A worker stops its range at its
    /// first refused source, so the lowest range's refusal names the first
    /// refused source in ascending order, at any worker count.
    #[expect(
        clippy::panic,
        reason = "refusal at build time: a route must fit its record's INLINE links and u32 latency"
    )]
    fn recompute_dirty(&mut self, graph: &AsGraph) {
        let indexed = self.index.installed();
        let RepairIndex {
            n,
            words,
            hops,
            latency,
            tree_links,
            dirty_list,
            states,
            scratch,
            ..
        } = &mut self.index;
        if dirty_list.is_empty() {
            return;
        }
        states.rebuild(graph, self.mode, &self.mask);
        let per = dirty_list.len().div_ceil(self.workers.max(1));
        let workers = dirty_list.len().div_ceil(per);
        if scratch.len() < workers {
            scratch.resize_with(workers, Scratch::default);
        }
        let rows = Rows {
            base: 0,
            n: *n,
            words: *words,
            indexed,
            routes: &mut self.routes,
            hops,
            latency,
            tree_links,
        };
        Self::rows(states, dirty_list, rows, scratch, per);
        let refused = scratch.iter().take(workers).find_map(|s| s.refused);
        if let Some((src, dst, hops, latency)) = refused {
            panic!(
                "route table refused: AS {src} routes to AS {dst} in {hops} hops and {latency} µs, \
                 past the record's {INLINE} hops and {} µs",
                u32::MAX
            )
        }
    }

    /// The one fork-join: [`Rows::recompute`] run on every dirty source
    /// (ascending), fanned over contiguous ranges of `per` sources, each
    /// with its own scratch. Each worker writes only the rows split off
    /// for it, so the result is independent of scheduling and of the
    /// worker count. The calling thread takes the last range: taking the
    /// first measured `underlay_scale`'s peak RSS 4 MB higher in about
    /// half the runs.
    #[expect(
        clippy::disallowed_methods,
        reason = "parallel region: workers own disjoint contiguous ranges of the sorted source \
                  list and write each row in place through `&mut` rows split off before they \
                  are spawned; the scope joins them all, so rows are byte-identical for any \
                  thread count (oracle: parallel_build_is_byte_identical_to_serial)"
    )]
    fn rows(
        states: &StateGraph,
        dirty: &[u32],
        mut rest: Rows,
        scratch: &mut [Scratch],
        per: usize,
    ) {
        let n = rest.n;
        let mut jobs =
            (1..)
                .zip(dirty.chunks(per))
                .zip(scratch)
                .map(|((next, sources), scratch)| {
                    let end = dirty.get(next * per).map_or(n, |&s| s as usize);
                    let mut rows = rest.split_until(end);
                    move || {
                        scratch.refused = None;
                        for &s in sources {
                            rows.recompute(s as usize, states, scratch);
                            if scratch.refused.is_some() {
                                break;
                            }
                        }
                    }
                });
        let spawned = dirty.len().div_ceil(per) - 1;
        if spawned == 0 {
            return jobs.for_each(|mut job| job());
        }
        std::thread::scope(|sc| {
            for job in jobs.by_ref().take(spawned) {
                sc.spawn(job);
            }
            jobs.for_each(|mut job| job());
        });
    }

    /// The routing mode in effect.
    pub fn mode(&self) -> RoutingMode {
        self.mode
    }

    /// The precomputed record for `(src, dst)`: hops, latency and transit
    /// count in one table read. `None` if either id is out of range or the
    /// pair is unreachable.
    #[inline]
    pub fn route(&self, src: AsId, dst: AsId) -> Option<&Route> {
        let r = self.routes.get(src.idx())?.get(dst.idx())?;
        (r.hops != UNREACHABLE.hops).then_some(r)
    }

    /// AS-hop distance (0 for `src == dst`), or `None` if unreachable.
    #[inline]
    pub fn as_hops(&self, src: AsId, dst: AsId) -> Option<u32> {
        Some(u32::from(self.route(src, dst)?.hops))
    }

    /// Accumulated inter-AS link latency along the chosen path, in
    /// microseconds.
    #[inline]
    pub fn latency_us(&self, src: AsId, dst: AsId) -> Option<u64> {
        Some(u64::from(self.route(src, dst)?.latency_us))
    }

    /// The link indices along the chosen path from `src` to `dst`, in
    /// traversal order, borrowed from the pair's record (no allocation).
    /// Empty for `src == dst`.
    #[inline]
    pub fn path_links(&self, src: AsId, dst: AsId) -> Option<&[u16]> {
        Some(self.route_path(src, dst)?.1)
    }

    /// The pair's record and its path, from one read of the record.
    #[inline]
    pub(crate) fn route_path(&self, src: AsId, dst: AsId) -> Option<(&Route, &[u16])> {
        let r = self.route(src, dst)?;
        Some((r, r.links.get(..usize::from(r.hops))?))
    }

    /// The AS sequence of the chosen path, starting at `src` and ending at
    /// `dst`.
    pub fn path_ases(&self, graph: &AsGraph, src: AsId, dst: AsId) -> Option<Vec<AsId>> {
        let links = self.path_links(src, dst)?;
        let mut out = vec![src];
        let mut cur = src;
        #[expect(clippy::expect_used, reason = "a routed path's links chain end to end")]
        for &li in links {
            let link = graph.links.get(usize::from(li));
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
            .routes
            .iter()
            .flat_map(|row| row.iter())
            .filter(|r| r.hops != UNREACHABLE.hops && r.hops != 0)
            .count();
        reachable as f64 / (self.n * (self.n - 1)) as f64
    }
}

/// The differential oracle: the heap-ordered Dijkstra the level sweep
/// replaced, one [`SrcTable`] per source, and the pre-table per-query
/// answers over it — every query probes the raw state tables and walks
/// predecessor links, exactly as the production code did before the flat
/// table existed. Its transition rules are its own `match`, not the
/// production [`transitions`], so the two searches stay independent.
/// Tests assert [`Routing`] agrees with it on hops, latency, paths,
/// transit counts and reachability for every pair.
pub struct ReferenceRouting {
    n: usize,
    tables: Vec<SrcTable>,
}

impl ReferenceRouting {
    /// Computes the per-source Dijkstra tables serially.
    pub fn compute(graph: &AsGraph, mode: RoutingMode, mask: Option<&[bool]>) -> ReferenceRouting {
        let n = graph.len();
        let tables = (0..n)
            .map(|src| Self::dijkstra(graph, mode, AsId::from_index(src), mask))
            .collect();
        ReferenceRouting { n, tables }
    }

    /// One source's Dijkstra over the 2-phase state graph, its heap
    /// ordered by `(hops, latency, state)`.
    #[expect(clippy::indexing_slicing, reason = "states < 2n; link ids < n_links")]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "state indices are < 2n, so s/2 < n <= 65 536, the u16 AsId width"
    )]
    fn dijkstra(graph: &AsGraph, mode: RoutingMode, src: AsId, mask: Option<&[bool]>) -> SrcTable {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        // State encoding: as_idx * 2 + phase. Phase 0: the valley-free
        // prefix (may still climb); phase 1: committed to descending.
        let ns = graph.len() * 2;
        let mut hops = vec![u32::MAX; ns];
        let mut latency = vec![INF; ns];
        let mut pred = vec![None; ns];
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
        SrcTable {
            hops,
            latency,
            pred,
        }
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

    /// Transit links on the chosen path, counted from its links.
    pub fn transit_links(&self, graph: &AsGraph, src: AsId, dst: AsId) -> Option<u32> {
        let links = self.path_links(src, dst)?;
        let transit = links.iter().filter(|&&li| {
            graph
                .links
                .get(li as usize)
                .is_some_and(|l| l.kind == LinkKind::Transit)
        });
        u32::try_from(transit.count()).ok()
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

    /// `n` ASes with no link between them.
    fn isolated(n: usize) -> AsGraph {
        let mut g = AsGraph::new();
        for i in 0..n {
            g.add_as(Tier::Tier3, GeoPoint::new(i as f64, 0.0), 10.0);
        }
        g
    }

    /// Sixteen ASes in a ring of transit links, each AS the provider of
    /// the next: in both modes the far side is eight hops away, past what
    /// a record holds.
    fn ring16() -> AsGraph {
        let mut g = isolated(16);
        for i in 0..16u16 {
            let latency = 1_000 + u64::from(i % 5) * 300;
            g.add_transit(AsId(i), AsId((i + 1) % 16), latency, 1_000.0);
        }
        g
    }

    /// A binary provider tree of depth four (31 ASes, AS `k` the provider
    /// of `2k + 1` and `2k + 2`) with one peering between two depth-2
    /// ASes on opposite sides: leaf to leaf across the root is eight
    /// hops, across the peering five.
    fn deep_tree() -> AsGraph {
        let mut g = isolated(31);
        for k in 0..15u16 {
            for child in [2 * k + 1, 2 * k + 2] {
                g.add_transit(AsId(k), AsId(child), 1_000 + u64::from(child) * 10, 1_000.0);
            }
        }
        g.add_peering(AsId(3), AsId(6), 500, 1_000.0);
        g
    }

    /// Figure 1 and the degenerate ones: no AS, one AS, and three ASes
    /// with no link between them.
    fn fixtures() -> Vec<AsGraph> {
        vec![figure1(), isolated(0), isolated(1), isolated(3)]
    }

    /// A one-thread build of `g` under `mask`, or its refusal's message.
    /// It is refused exactly when [`ReferenceRouting`] routes some pair
    /// past five links.
    fn built(g: &AsGraph, mode: RoutingMode, mask: Option<&[bool]>) -> Result<Routing, String> {
        let refr = ReferenceRouting::compute(g, mode, mask);
        let ids = || (0..g.len()).map(AsId::from_index);
        let long =
            ids().any(|a| ids().any(|b| refr.as_hops(a, b).is_some_and(|h| h as usize > INLINE)));
        let built = std::panic::catch_unwind(|| Routing::compute_indexed_threads(g, mode, mask, 1))
            .map_err(|p| p.downcast_ref::<String>().cloned().unwrap_or_default());
        assert_eq!(built.is_err(), long, "{} ASes {mode:?}", g.len());
        built
    }

    /// The message of the refusal a one-thread build of `g` must raise.
    fn refusal(g: &AsGraph, mode: RoutingMode) -> String {
        built(g, mode, None).err().expect("the build is refused")
    }

    /// The two long-path shapes route some pair past five links in both
    /// modes, so a record cannot hold them.
    #[test]
    fn the_ring_and_the_deep_tree_are_refused() {
        for g in [ring16(), deep_tree()] {
            for mode in [RoutingMode::ShortestPath, RoutingMode::ValleyFree] {
                let msg = refusal(&g, mode);
                assert!(
                    msg.starts_with("route table refused: AS "),
                    "{mode:?}: {msg}"
                );
            }
        }
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
        let r = Routing::compute_indexed(&g, RoutingMode::ValleyFree, Some(&mask));
        assert_eq!(r.as_hops(AsId(6), AsId(7)), Some(4));
        // Kill the T1a=T1b core peering too: D becomes unreachable from A.
        mask[0] = true;
        let r2 = Routing::compute_indexed(&g, RoutingMode::ValleyFree, Some(&mask));
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
            .compile(g, 0)
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
                assert_eq!(built.reachable_fraction(), isolated, "{mode:?}");
                // Masking everything as a repair lands on the same table,
                // with no inter-AS path and no link id left in any row; and
                // clearing the mask lands back on the fault-free build.
                let pristine = Routing::compute_indexed(&g, mode, None);
                for threads in [1, 16] {
                    let mut r = Routing::compute_indexed_threads(&g, mode, None, threads);
                    r.repair_with_mask(&g, Some(&mask));
                    for (a, b) in (0..g.len()).flat_map(|a| (0..g.len()).map(move |b| (a, b))) {
                        let path = r.path_links(AsId::from_index(a), AsId::from_index(b));
                        assert_eq!(path, (a == b).then_some(&[][..]), "{mode:?} {a}->{b}");
                    }
                    assert!(r == built, "{mode:?} threads={threads}");
                    r.repair_with_mask(&g, None);
                    assert!(r == pristine, "{mode:?} threads={threads}");
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
            let vf = Routing::compute_indexed(&g, RoutingMode::ValleyFree, Some(&mask));
            // A shortest path may detour past five links under the mask;
            // the reference's reachability stands in for a refused table.
            let sp = match built(&g, RoutingMode::ShortestPath, Some(&mask)) {
                Ok(sp) => sp.reachable_fraction(),
                Err(_) => {
                    let refr =
                        ReferenceRouting::compute(&g, RoutingMode::ShortestPath, Some(&mask));
                    let ids = || (0..g.len()).map(AsId::from_index);
                    let pairs =
                        ids().flat_map(|a| ids().filter(move |&b| b != a).map(move |b| (a, b)));
                    let reached = pairs.filter(|&(a, b)| refr.as_hops(a, b).is_some()).count();
                    reached as f64 / (g.len() * (g.len() - 1)) as f64
                }
            };
            assert!(vf.reachable_fraction() <= sp + 1e-12);
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
        for g in fixtures() {
            let nl = g.links.len();
            let down = |cut: fn(usize) -> bool| (0..nl).map(cut).collect::<Vec<bool>>();
            // One link in four down, then a second quarter with it, then
            // the first quarter healed while the second stays down, then a
            // full heal. On Figure 1: B~C, then the core peering too, then
            // B~C back. Every step must agree with a from-scratch masked
            // build (repair also self-checks in debug).
            let steps = [
                down(|li| li % 4 == 1),
                down(|li| li % 4 <= 1),
                down(|li| li % 4 == 0),
                down(|_| false),
            ];
            for mode in [RoutingMode::ShortestPath, RoutingMode::ValleyFree] {
                for threads in [1, 3] {
                    let mut r = Routing::compute_indexed_threads(&g, mode, None, threads);
                    for step in &steps {
                        let stats = r.repair_with_mask(&g, Some(step));
                        let full = Routing::compute_indexed_threads(&g, mode, Some(step), 1);
                        assert!(
                            r == full,
                            "{} ASes {mode:?} threads={threads} mask={step:?}",
                            g.len()
                        );
                        assert_eq!(stats.sources_total, g.len());
                        assert_eq!(stats.dirty_sources, r.dirty_sources().len());
                        let all_dirty = stats.changed_links > 0 && stats.dirty_sources == g.len();
                        assert_eq!(stats.full_rebuild, all_dirty);
                        assert_matches_reference(&r, &g, Some(step));
                    }
                }
            }
        }
    }

    /// A table built under one mask and repaired straight to another
    /// lands on a fresh build under the second: the table diffs against
    /// the mask it was built under, not against a fault-free one.
    #[test]
    fn repair_from_a_masked_build_equals_a_fresh_build() {
        for g in fixtures() {
            let nl = g.links.len();
            let first: Vec<bool> = (0..nl).map(|li| li % 3 == 0).collect();
            let second: Vec<bool> = (0..nl).map(|li| li % 3 != 1).collect();
            for mode in [RoutingMode::ShortestPath, RoutingMode::ValleyFree] {
                for threads in [1, 3] {
                    let mut r = Routing::compute_indexed_threads(&g, mode, Some(&first), threads);
                    let stats = r.repair_with_mask(&g, Some(&second));
                    // Links `li % 3 == 2` went down; none came back.
                    assert_eq!(
                        stats.changed_links,
                        (0..nl).filter(|li| li % 3 == 2).count()
                    );
                    let fresh = Routing::compute_indexed_threads(&g, mode, Some(&second), 1);
                    assert!(r == fresh, "{} ASes {mode:?} threads={threads}", g.len());
                    assert_matches_reference(&r, &g, Some(&second));
                    // And back to the first: every changed link heals.
                    r.repair_with_mask(&g, Some(&first));
                    let fresh = Routing::compute_indexed_threads(&g, mode, Some(&first), 1);
                    assert!(r == fresh, "{} ASes {mode:?} threads={threads}", g.len());
                }
            }
        }
    }

    #[test]
    fn repair_on_local_peering_fault_touches_subset_of_sources() {
        let g = figure1();
        let mut r = Routing::compute_indexed_threads(&g, RoutingMode::ValleyFree, None, 1);
        // B~C (link 9) only appears in B's and C's shortest-path trees:
        // any other source crossing it would form a valley.
        let mut mask = vec![false; g.links.len()];
        mask[9] = true;
        let stats = r.repair_with_mask(&g, Some(&mask));
        assert_eq!(stats.changed_links, 1);
        assert!(!stats.full_rebuild);
        assert_eq!(r.dirty_sources(), &[6, 7]);
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
        let mut r = Routing::compute_indexed_threads(&g, mode, None, 2);
        let mut mask = vec![false; g.links.len()];
        let leaf_peering = |l: &crate::asgraph::AsLink| {
            l.kind == LinkKind::Peering && g.nodes[l.a.idx()].tier == Tier::Tier3
        };
        mask[g.links.iter().position(leaf_peering).expect("leaf peering")] = true;
        // The cut, then its heal.
        for new in [Some(&mask[..]), None] {
            // Every row is an allocation of its own, so a row that is
            // replaced rather than rewritten in place shows as moved.
            let before: Vec<_> = r.routes.iter().map(|row| row.as_ptr()).collect();
            let routes = r.routes.clone();
            let stats = r.repair_with_mask(&g, new);
            assert!(!stats.full_rebuild && stats.dirty_sources > 0);
            let full = Routing::compute_indexed_threads(&g, mode, new, 1);
            for (s, &ptr) in before.iter().enumerate() {
                assert_eq!(r.routes[s].as_ptr(), ptr, "row {s} moved");
                if r.dirty_sources().contains(&u32::try_from(s).unwrap()) {
                    assert_eq!(r.routes[s], full.routes[s], "dirty row {s}");
                } else {
                    assert_eq!(r.routes[s], routes[s], "clean row {s}");
                }
            }
        }
        // No changed link: the repair returns before it touches any row —
        // a mark left in every row is still there afterwards.
        for row in &mut r.routes {
            row[0].links[INLINE - 1] = u16::MAX;
        }
        let stats = r.repair_with_mask(&g, Some(&vec![false; mask.len()]));
        assert_eq!((stats.changed_links, stats.dirty_sources), (0, 0));
        assert!(r
            .routes
            .iter()
            .all(|row| row[0].links[INLINE - 1] == u16::MAX));
    }

    // Four route records to a cache line.
    const _: () = assert!(size_of::<Route>() == 16 && align_of::<Route>() == 16);

    /// A build writes route records only; the first cut installs the
    /// index, six bytes a state plus one tree-link bitset a source.
    #[test]
    fn an_index_state_is_six_bytes() {
        let g = figure1();
        let mut r = Routing::compute(&g, RoutingMode::ValleyFree);
        assert_eq!(r.repair_index_bytes(), 0);
        let cut: Vec<bool> = (0..g.links.len()).map(|li| li == 9).collect();
        r.repair_with_mask(&g, Some(&cut));
        let states = g.len() * 2 * g.len();
        let bytes = std::mem::size_of_val(r.index.hops.as_slice())
            + std::mem::size_of_val(r.index.latency.as_slice());
        assert_eq!(bytes, 6 * states);
        assert_eq!(r.repair_index_bytes(), bytes + 8 * g.len() * r.index.words);
    }

    /// Two ASes joined by one transit link of `latency_us`.
    fn two_ases(latency_us: u64) -> AsGraph {
        let mut g = isolated(2);
        g.add_transit(AsId(0), AsId(1), latency_us, 1_000.0);
        g
    }

    #[test]
    #[should_panic(expected = "route table refused")]
    fn a_latency_past_the_record_width_is_refused() {
        Routing::compute_indexed_threads(&two_ases(1 << 32), RoutingMode::ValleyFree, None, 1);
    }

    /// More link ids than a record's `u16` slots name: refused before any
    /// row is allocated. 363 ASes give 65 703 distinct pairs.
    #[test]
    #[should_panic(expected = "route table refused: 65537 links")]
    fn more_links_than_the_record_names_are_refused() {
        let mut g = isolated(363);
        let pairs = (0..363u16).flat_map(|a| (a + 1..363).map(move |b| (a, b)));
        for (a, b) in pairs.take(MAX_LINKS + 1) {
            g.add_peering(AsId(a), AsId(b), 1_000, 1_000.0);
        }
        Routing::compute_indexed_threads(&g, RoutingMode::ShortestPath, None, 1);
    }

    /// Chains of 256 ASes, whose ends are 255 hops apart (past what a
    /// record's `u8` holds beside its unreachable sentinel), and of 7 ASes,
    /// whose ends are six hops apart: both are refused at the first route
    /// past five links.
    #[test]
    fn a_route_of_255_hops_is_refused() {
        for n in [256, 7] {
            let mut g = isolated(n);
            for i in 1..n {
                g.add_transit(AsId::from_index(i - 1), AsId::from_index(i), 1_000, 1_000.0);
            }
            let msg = refusal(&g, RoutingMode::ShortestPath);
            assert!(
                msg.starts_with("route table refused: AS 0 routes to AS 6 in 6 hops"),
                "{n} ASes: {msg}"
            );
        }
    }

    /// A refusal is raised in the caller and names the same pair at any
    /// worker count: each worker stops its range at its first refused
    /// source, and the lowest range's refusal is the one raised. Inputs: a
    /// 7-AS chain beside 33 isolated ASes (only the first range refuses)
    /// and a 40-AS chain (every range does).
    #[test]
    fn a_refusal_names_the_same_pair_at_any_worker_count() {
        for chain in [7, 40] {
            let mut g = isolated(40);
            for i in 1..chain {
                g.add_transit(AsId::from_index(i - 1), AsId::from_index(i), 1_000, 1_000.0);
            }
            for mode in [RoutingMode::ShortestPath, RoutingMode::ValleyFree] {
                let msgs = [1, 2, 4].map(|threads| {
                    let built = std::panic::catch_unwind(|| {
                        Routing::compute_indexed_threads(&g, mode, None, threads)
                    });
                    let payload = built.err().expect("the build is refused");
                    payload
                        .downcast_ref::<String>()
                        .cloned()
                        .unwrap_or_default()
                });
                assert!(
                    msgs[0].starts_with("route table refused: AS 0 routes to AS 6 in 6 hops"),
                    "{chain}-AS chain, {mode:?}: {}",
                    msgs[0]
                );
                assert!(
                    msgs.iter().all(|m| *m == msgs[0]),
                    "{chain}, {mode:?}: {msgs:?}"
                );
            }
        }
    }

    /// The widest route latency a record holds is accepted in both modes.
    /// In valley-free mode AS 1 also reaches its descending state by
    /// climbing to AS 0 and back, at twice the link's latency: no route
    /// follows that state, so the index saturates it instead of refusing
    /// the table, and the heal-candidate test reads it as anything from
    /// the stored cost up.
    #[test]
    fn the_widest_route_latency_is_accepted() {
        let max = u64::from(u32::MAX);
        for mode in [RoutingMode::ShortestPath, RoutingMode::ValleyFree] {
            let g = two_ases(max);
            let mut r = Routing::compute_indexed_threads(&g, mode, None, 1);
            assert_eq!(r.latency_us(AsId(0), AsId(1)), Some(max), "{mode:?}");
            assert_eq!(r.latency_us(AsId(1), AsId(0)), Some(max), "{mode:?}");
            assert_matches_reference(&r, &g, None);
            // A cut and a heal land on fresh builds.
            let cut = Some(&[true][..]);
            r.repair_with_mask(&g, cut);
            assert!(r == Routing::compute_indexed_threads(&g, mode, cut, 1));
            r.repair_with_mask(&g, None);
            assert!(r == Routing::compute_indexed_threads(&g, mode, None, 1));
        }
        // AS 1's phase-1 state in source 1's row, stored saturated by the
        // sweep that installs the index at a lazy table's first cut, and
        // again by the heal.
        let g = two_ases(max);
        let mut r = Routing::compute(&g, RoutingMode::ValleyFree);
        r.repair_with_mask(&g, Some(&[true]));
        r.repair_with_mask(&g, None);
        assert!(r == Routing::compute_indexed_threads(&g, RoutingMode::ValleyFree, None, 1));
        let stored = (r.index.hops[4 + 3], r.index.latency[4 + 3]);
        assert_eq!(stored, (2, u32::MAX));
        assert_eq!(floor(stored), Some((2, max)));
        assert_eq!(ceiling(stored), (u32::MAX, INF));
    }

    #[test]
    fn a_stored_cost_saturates_downward() {
        assert_eq!(narrow(u32::MAX, INF), (u16::MAX, u32::MAX));
        assert_eq!(narrow(7, 9), (7, 9));
        assert_eq!(narrow(u32::from(u16::MAX), 0), (HOPS_CAP, 0));
        assert_eq!(narrow(1, 1 << 40), (1, u32::MAX));
        assert_eq!(floor((u16::MAX, 0)), None);
        assert_eq!(ceiling((7, 9)), (7, 9));
        assert_eq!(ceiling((HOPS_CAP, 9)), (u32::MAX, INF));
    }

    #[test]
    fn repair_after_heal_is_incremental_and_exact() {
        let g = figure1();
        let mut r = Routing::compute_indexed_threads(&g, RoutingMode::ValleyFree, None, 1);
        let mut mask = vec![false; g.links.len()];
        mask[9] = true;
        r.repair_with_mask(&g, Some(&mask));
        // Heal: the candidate test must mark (at least) B and C dirty and
        // restore the original table exactly.
        let stats = r.repair_with_mask(&g, None);
        assert_eq!(stats.changed_links, 1);
        assert!(!stats.full_rebuild);
        assert!(r.dirty_sources().contains(&6));
        assert!(r.dirty_sources().contains(&7));
        let pristine = Routing::compute_indexed(&g, RoutingMode::ValleyFree, None);
        assert!(r == pristine);
        assert_eq!(r.as_hops(AsId(6), AsId(7)), Some(1));
    }

    #[test]
    fn repair_with_unchanged_mask_is_a_noop() {
        for g in fixtures() {
            let mut r = Routing::compute_indexed_threads(&g, RoutingMode::ValleyFree, None, 16);
            let mask = vec![false; g.links.len()];
            // None vs all-false: no link changed status.
            let stats = r.repair_with_mask(&g, Some(&mask));
            assert_eq!(
                stats,
                RepairStats {
                    changed_links: 0,
                    dirty_sources: 0,
                    sources_total: g.len(),
                    full_rebuild: false,
                }
            );
            assert!(r.dirty_sources().is_empty());
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
        let mut r = Routing::compute_indexed_threads(&g, RoutingMode::ValleyFree, None, 1);
        // The T1a–T2a transit uplink (link 1) sits on most sources' trees;
        // downing it alongside the core peering dirties well over half.
        let mut mask = vec![false; g.links.len()];
        mask[0] = true;
        mask[1] = true;
        let stats = r.repair_with_mask(&g, Some(&mask));
        assert!(stats.full_rebuild);
        assert_eq!(stats.dirty_sources, g.len());
        let full = Routing::compute_indexed(&g, RoutingMode::ValleyFree, Some(&mask));
        assert!(r == full);
        // The rebuilt index keeps working for further epochs.
        let stats = r.repair_with_mask(&g, None);
        assert!(!stats.full_rebuild || stats.dirty_sources == g.len());
        let pristine = Routing::compute_indexed(&g, RoutingMode::ValleyFree, None);
        assert!(r == pristine);
    }

    /// Every pair's hops, latency, transit count and path in `table`
    /// equal [`ReferenceRouting`]'s under `mask`.
    fn assert_matches_reference(table: &Routing, g: &AsGraph, mask: Option<&[bool]>) {
        let mode = table.mode();
        let refr = ReferenceRouting::compute(g, mode, mask);
        for a in 0..g.len() {
            for b in 0..g.len() {
                let (a, b) = (AsId::from_index(a), AsId::from_index(b));
                let at = format!("{} ASes {mode:?} {a}->{b}", g.len());
                assert_eq!(table.as_hops(a, b), refr.as_hops(a, b), "{at}");
                assert_eq!(table.latency_us(a, b), refr.latency_us(a, b), "{at}");
                assert_eq!(
                    table.route(a, b).map(|r| u32::from(r.transit_links)),
                    refr.transit_links(g, a, b),
                    "{at}"
                );
                assert_eq!(
                    table
                        .path_links(a, b)
                        .map(|p| p.iter().map(|&li| u32::from(li)).collect()),
                    refr.path_links(a, b),
                    "{at}"
                );
            }
        }
    }

    #[test]
    fn table_matches_reference_implementation() {
        for g in fixtures() {
            for mode in [RoutingMode::ShortestPath, RoutingMode::ValleyFree] {
                let table = Routing::compute(&g, mode);
                assert_matches_reference(&table, &g, None);
            }
        }
    }
}
