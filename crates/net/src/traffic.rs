//! Traffic accounting.
//!
//! The economics of §2.1 hinge on *where* bytes flow: traffic that stays
//! inside an AS is free, traffic over peering links costs only the link
//! upkeep, and traffic over transit links is billed per Mbps at the peak
//! rate "measured using samples over a months' time" (the industry-standard
//! 95th-percentile rule). [`TrafficAccounting`] classifies every transfer
//! accordingly and keeps the per-AS transit samples the billing needs.
//!
//! The ledger is laid out for [`TrafficAccounting::record`], which runs
//! once per transfer: one 16-byte line per link (its byte counter, the
//! sample column that pays for it, its endpoints), and the samples as one
//! bucket-major table with a row per 5-minute billing window and a column
//! per AS plus one sink column. A transit link's column is its customer
//! AS; a peering link's is the sink, which nobody is billed from. So a
//! transfer touches its links' lines and one row, and needs no graph.

use crate::asgraph::{AsGraph, LinkKind};
use crate::ids::AsId;
use uap_sim::SimTime;

/// Width of a billing sample window.
const BILLING_WINDOW: SimTime = SimTime::from_mins(5);

/// Where a byte travelled.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TrafficCategory {
    /// Source and destination host in the same AS.
    IntraAs,
    /// Crossed one or more peering links (but no transit link).
    InterAsPeering,
    /// Crossed at least one transit link.
    InterAsTransit,
}

impl TrafficCategory {
    /// Stable short name used in trace events and reports.
    pub fn name(self) -> &'static str {
        match self {
            TrafficCategory::IntraAs => "intra",
            TrafficCategory::InterAsPeering => "peering",
            TrafficCategory::InterAsTransit => "transit",
        }
    }
}

/// One link's line of the ledger.
#[derive(Clone, Copy, Debug)]
struct LinkLine {
    /// Bytes the link carried.
    bytes: u64,
    /// The sample column its bytes land in: the customer AS of a transit
    /// link, the sink column of a peering link.
    payer: u32,
    /// The link's endpoints.
    a: AsId,
    b: AsId,
}

/// Accumulated traffic statistics for one simulation run.
#[derive(Clone, Debug)]
pub struct TrafficAccounting {
    intra_bytes: u64,
    peering_bytes: u64,
    transit_bytes: u64,
    /// One line per link, indexed by link id.
    links: Vec<LinkLine>,
    /// Sample columns: one per AS, then the peering sink.
    columns: usize,
    /// Bytes per billing window and column, window-major: window `w` is
    /// `samples[w * columns..(w + 1) * columns]`, and column `asn` holds
    /// the transit bytes `asn` pays its providers for. Grows by whole
    /// windows up to the latest one an inter-AS transfer fell in.
    samples: Vec<u64>,
    transfers: u64,
}

impl TrafficAccounting {
    /// Creates an accounting ledger for `graph`.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a column is <= n <= 65 536, the u16 AsId width plus the sink"
    )]
    pub fn new(graph: &AsGraph) -> Self {
        let sink = graph.len();
        let links = graph
            .links
            .iter()
            .map(|l| LinkLine {
                bytes: 0,
                // The *customer* side pays for transit bytes.
                payer: match l.kind {
                    LinkKind::Transit => l.b.idx(),
                    LinkKind::Peering => sink,
                } as u32,
                a: l.a,
                b: l.b,
            })
            .collect();
        TrafficAccounting {
            intra_bytes: 0,
            peering_bytes: 0,
            transit_bytes: 0,
            links,
            columns: sink + 1,
            samples: Vec::new(),
            transfers: 0,
        }
    }

    /// Records a transfer of `bytes` at time `now` along `path_links`
    /// (empty for an intra-AS transfer), starting at `src_as`. Returns the
    /// category the transfer was classified as. Panics if a link of the
    /// path does not touch the AS the path has reached.
    #[expect(
        clippy::indexing_slicing,
        reason = "link ids < links.len(); payer columns < columns; the window's row is resized"
    )]
    pub fn record(
        &mut self,
        now: SimTime,
        src_as: AsId,
        path_links: &[u16],
        bytes: u64,
    ) -> TrafficCategory {
        self.transfers += 1;
        if path_links.is_empty() {
            self.intra_bytes += bytes;
            return TrafficCategory::IntraAs;
        }
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a billing-window index: the windows up to it are held in memory, so it fits a usize"
        )]
        let window = (now.as_micros() / BILLING_WINDOW.as_micros()) as usize;
        let (columns, start) = (self.columns, window * self.columns);
        if self.samples.len() < start + columns {
            self.samples.resize(start + columns, 0);
        }
        let row = &mut self.samples[start..start + columns];
        let sink = columns - 1;
        let mut transit = 0u64;
        let mut cur = src_as;
        for &li in path_links {
            let link = &mut self.links[li as usize];
            link.bytes += bytes;
            #[expect(clippy::expect_used, reason = "a routed path's links chain end to end")]
            let next = link.other(cur).expect("path follows links");
            cur = next;
            row[link.payer as usize] += bytes;
            transit += u64::from(link.payer as usize != sink);
        }
        let crossed = path_links.len() as u64;
        self.peering_bytes += (crossed - transit) * bytes;
        self.transit_bytes += transit * bytes;
        if transit > 0 {
            TrafficCategory::InterAsTransit
        } else {
            TrafficCategory::InterAsPeering
        }
    }

    /// Total bytes by category `(intra, peering, transit)`. Peering/transit
    /// totals count each crossed link once per transfer (a 5-link transit
    /// path adds 5 × bytes, reflecting the load each link carries).
    pub fn totals(&self) -> (u64, u64, u64) {
        (self.intra_bytes, self.peering_bytes, self.transit_bytes)
    }

    /// Number of transfers recorded.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Bytes carried by link `li`.
    #[expect(clippy::indexing_slicing, reason = "li is a link of the graph")]
    pub fn link_bytes(&self, li: u32) -> u64 {
        self.links[li as usize].bytes
    }

    /// Per-link byte totals, in link id order. Used by the trace layer to
    /// emit end-of-run per-link traffic events.
    pub fn per_link_bytes(&self) -> impl ExactSizeIterator<Item = u64> + '_ {
        self.links.iter().map(|l| l.bytes)
    }

    /// Fraction of transfer bytes (weighted per-link) that stayed intra-AS.
    pub fn locality_fraction(&self) -> f64 {
        let total = self.intra_bytes + self.peering_bytes + self.transit_bytes;
        if total == 0 {
            return 0.0;
        }
        self.intra_bytes as f64 / total as f64
    }

    /// The 95th-percentile transit rate for `asn` in Mbit/s, computed over
    /// the billing sample windows (an AS that bursts briefly still pays for
    /// its busiest 5 % of windows). The AS's samples are padded with zero
    /// windows to the longer of `horizon` and the ledger's window count:
    /// every window up to the latest one any inter-AS transfer fell in,
    /// whether or not `asn` paid in it.
    #[expect(clippy::indexing_slicing, reason = "asn in graph; rank in 1..=len")]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "n_windows counts billing windows the run could hold in memory; 0.95·len ≤ len"
    )]
    pub fn transit_p95_mbps(&self, asn: AsId, horizon: SimTime) -> f64 {
        let width_s = BILLING_WINDOW.as_secs_f64();
        let n_windows = horizon.as_micros().div_ceil(BILLING_WINDOW.as_micros()) as usize;
        if n_windows == 0 {
            return 0.0;
        }
        let mut rates: Vec<f64> = self
            .samples
            .chunks_exact(self.columns)
            .map(|row| row[asn.idx()] as f64 * 8.0 / 1e6 / width_s)
            .collect();
        rates.resize(n_windows.max(rates.len()), 0.0);
        rates.sort_by(|a, b| a.total_cmp(b));
        // Nearest-rank 95th percentile.
        let rank = ((0.95 * rates.len() as f64).ceil() as usize).clamp(1, rates.len());
        rates[rank - 1]
    }
}

impl LinkLine {
    /// The endpoint across the link from `x`, if `x` is one of its ends.
    #[inline]
    fn other(&self, x: AsId) -> Option<AsId> {
        if self.a == x {
            Some(self.b)
        } else if self.b == x {
            Some(self.a)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asgraph::Tier;
    use crate::geo::GeoPoint;
    use crate::routing::{Routing, RoutingMode};
    use proptest::prelude::*;

    fn graph() -> AsGraph {
        let mut g = AsGraph::new();
        let t1 = g.add_as(Tier::Tier1, GeoPoint::new(0.0, 0.0), 100.0);
        let a = g.add_as(Tier::Tier3, GeoPoint::new(10.0, 0.0), 10.0);
        let b = g.add_as(Tier::Tier3, GeoPoint::new(0.0, 10.0), 10.0);
        g.add_transit(t1, a, 1_000, 1_000.0); // link 0, customer = a
        g.add_transit(t1, b, 1_000, 1_000.0); // link 1, customer = b
        g.add_peering(a, b, 500, 100.0); // link 2
        g
    }

    /// The ledger as it was before `record` stopped writing what nobody
    /// read and before it left the graph: per-AS external-byte counters,
    /// category totals bumped per link, link kinds read from the graph,
    /// and one growable sample vector per AS, extended only by the transit
    /// links that AS pays for.
    struct OracleLedger {
        totals: (u64, u64, u64),
        transfers: u64,
        per_link: Vec<u64>,
        samples: Vec<Vec<u64>>,
        external: Vec<u64>,
    }

    impl OracleLedger {
        fn new(graph: &AsGraph) -> Self {
            OracleLedger {
                totals: (0, 0, 0),
                transfers: 0,
                per_link: vec![0; graph.links.len()],
                samples: vec![Vec::new(); graph.len()],
                external: vec![0; graph.len()],
            }
        }

        fn record(
            &mut self,
            graph: &AsGraph,
            now: SimTime,
            src_as: AsId,
            path_links: &[u16],
            bytes: u64,
        ) -> TrafficCategory {
            self.transfers += 1;
            if path_links.is_empty() {
                self.totals.0 += bytes;
                return TrafficCategory::IntraAs;
            }
            let mut crossed_transit = false;
            let mut cur = src_as;
            for &li in path_links {
                let link = &graph.links[li as usize];
                self.per_link[li as usize] += bytes;
                let next = link.other(cur).expect("path follows links");
                self.external[cur.idx()] += bytes;
                self.external[next.idx()] += bytes;
                match link.kind {
                    LinkKind::Peering => self.totals.1 += bytes,
                    LinkKind::Transit => {
                        crossed_transit = true;
                        self.totals.2 += bytes;
                        let idx = (now.as_micros() / 300_000_000) as usize;
                        let buckets = &mut self.samples[link.b.idx()];
                        if buckets.len() <= idx {
                            buckets.resize(idx + 1, 0);
                        }
                        buckets[idx] += bytes;
                    }
                }
                cur = next;
            }
            if crossed_transit {
                TrafficCategory::InterAsTransit
            } else {
                TrafficCategory::InterAsPeering
            }
        }

        /// The old rule: an AS's own samples, padded to `horizon`.
        #[expect(
            clippy::cast_possible_truncation,
            reason = "window counts of a test horizon; 0.95·len ≤ len"
        )]
        fn transit_p95_mbps(&self, asn: AsId, horizon: SimTime) -> f64 {
            let n_windows = horizon.as_micros().div_ceil(300_000_000) as usize;
            if n_windows == 0 {
                return 0.0;
            }
            let mut rates: Vec<f64> = self.samples[asn.idx()]
                .iter()
                .map(|&b| b as f64 * 8.0 / 1e6 / 300.0)
                .collect();
            rates.resize(n_windows.max(rates.len()), 0.0);
            rates.sort_by(|a, b| a.total_cmp(b));
            let rank = ((0.95 * rates.len() as f64).ceil() as usize).clamp(1, rates.len());
            rates[rank - 1]
        }
    }

    proptest! {
        /// `record` against the ledger it replaced, over chains of
        /// valley-free transfers whose time stamps cross several billing
        /// windows in both directions, a quarter of them of zero bytes.
        #[test]
        fn record_matches_the_ledger_it_replaced(
            seed in any::<u64>(),
            transfers in prop::collection::vec(
                (
                    0usize..1 << 16,
                    0usize..1 << 16,
                    0u64..2_400_000_000,
                    0u64..1 << 30,
                    0u8..4,
                ),
                1..60,
            ),
        ) {
            use crate::gen::{TopologyKind, TopologySpec};
            let g = TopologySpec::new(TopologyKind::Hierarchical {
                tier1: 2,
                tier2_per_tier1: 3,
                tier3_per_tier2: 3,
                tier2_peering_prob: 0.4,
                tier3_peering_prob: 0.4,
            })
            .build(&mut uap_sim::SimRng::new(seed));
            let r = Routing::compute(&g, RoutingMode::ValleyFree);
            let mut t = TrafficAccounting::new(&g);
            let mut oracle = OracleLedger::new(&g);
            for (src, dst, micros, bytes, zero) in transfers {
                let bytes = if zero == 0 { 0 } else { bytes };
                let (src, dst) = (AsId::from_index(src % g.len()), AsId::from_index(dst % g.len()));
                let Some(path) = r.path_links(src, dst) else { continue };
                let now = SimTime::from_micros(micros);
                prop_assert_eq!(
                    t.record(now, src, path, bytes),
                    oracle.record(&g, now, src, path, bytes)
                );
            }
            prop_assert_eq!(t.totals(), oracle.totals);
            prop_assert_eq!(t.transfers(), oracle.transfers);
            prop_assert_eq!(t.per_link_bytes().collect::<Vec<_>>(), oracle.per_link.clone());
            // Forty minutes covers every transfer, as every binary's
            // horizon does, so the two padding rules agree.
            let horizon = SimTime::from_mins(40);
            for asn in (0..g.len()).map(AsId::from_index) {
                prop_assert_eq!(
                    t.transit_p95_mbps(asn, horizon).to_bits(),
                    oracle.transit_p95_mbps(asn, horizon).to_bits()
                );
                // Why the per-AS counter carried no information: it was the
                // sum of the link counters over the AS's incident links.
                let incident: u64 = g.incident(asn).iter().map(|&li| t.link_bytes(li)).sum();
                prop_assert_eq!(oracle.external[asn.idx()], incident);
            }
        }
    }

    #[test]
    fn a_link_line_is_a_quarter_of_a_cache_line() {
        assert_eq!(std::mem::size_of::<LinkLine>(), 16);
    }

    /// A horizon that ends before the last transfer: every AS is padded to
    /// the ledger's window count, not to its own last paying window.
    #[test]
    fn p95_pads_every_as_to_the_ledger_windows() {
        let g = graph();
        let r = Routing::compute(&g, RoutingMode::ValleyFree);
        let mut t = TrafficAccounting::new(&g);
        let up = r.path_links(AsId(1), AsId(0)).unwrap();
        // AS 1 pays 75 MB in each of windows 0 and 1: 2 Mbit/s.
        t.record(SimTime::from_mins(1), AsId(1), up, 75_000_000);
        t.record(SimTime::from_mins(6), AsId(1), up, 75_000_000);
        // A peering transfer in window 39 makes the ledger 40 windows long.
        let peer = r.path_links(AsId(1), AsId(2)).unwrap();
        t.record(SimTime::from_mins(197), AsId(1), peer, 1_000);
        // Over a 10-minute horizon AS 1's two paying windows are 2 of 40,
        // not 2 of 2: p95 is zero, as over the full 200 minutes.
        assert_eq!(t.transit_p95_mbps(AsId(1), SimTime::from_mins(10)), 0.0);
        assert_eq!(t.transit_p95_mbps(AsId(1), SimTime::from_mins(200)), 0.0);
        // Without the late transfer the ledger is two windows long.
        let mut short = TrafficAccounting::new(&g);
        short.record(SimTime::from_mins(1), AsId(1), up, 75_000_000);
        short.record(SimTime::from_mins(6), AsId(1), up, 75_000_000);
        let p95 = short.transit_p95_mbps(AsId(1), SimTime::from_mins(10));
        assert!((p95 - 2.0).abs() < 1e-9, "p95 {p95}");
    }

    #[test]
    #[should_panic(expected = "path follows links")]
    fn a_path_that_leaves_the_current_as_is_refused() {
        let g = graph();
        let mut t = TrafficAccounting::new(&g);
        // Link 1 joins AS 0 and AS 2; a path from AS 1 cannot start on it.
        t.record(SimTime::ZERO, AsId(1), &[1], 1_000);
    }

    #[test]
    fn intra_as_is_free_of_links() {
        let g = graph();
        let mut t = TrafficAccounting::new(&g);
        let cat = t.record(SimTime::ZERO, AsId(1), &[], 1_000);
        assert_eq!(cat, TrafficCategory::IntraAs);
        assert_eq!(t.totals(), (1_000, 0, 0));
        assert_eq!(t.locality_fraction(), 1.0);
    }

    #[test]
    fn peering_path_classified() {
        let g = graph();
        let r = Routing::compute(&g, RoutingMode::ValleyFree);
        let path = r.path_links(AsId(1), AsId(2)).unwrap();
        assert_eq!(path, vec![2]); // direct peering
        let mut t = TrafficAccounting::new(&g);
        let cat = t.record(SimTime::ZERO, AsId(1), path, 500);
        assert_eq!(cat, TrafficCategory::InterAsPeering);
        assert_eq!(t.totals(), (0, 500, 0));
        assert_eq!(t.link_bytes(2), 500);
    }

    #[test]
    fn transit_path_bills_the_customers() {
        let g = graph();
        // Force the up-and-over path a -> t1 -> b by killing the peering.
        let mut mask = vec![false; g.links.len()];
        mask[2] = true;
        let r = Routing::compute_indexed(&g, RoutingMode::ValleyFree, Some(&mask));
        let path = r.path_links(AsId(1), AsId(2)).unwrap();
        assert_eq!(path.len(), 2);
        let mut t = TrafficAccounting::new(&g);
        let cat = t.record(SimTime::from_secs(10), AsId(1), path, 1_000);
        assert_eq!(cat, TrafficCategory::InterAsTransit);
        // Each transit link carries the bytes once.
        assert_eq!(t.totals(), (0, 0, 2_000));
        // Both customer ASes (a and b) accumulate a billing sample.
        assert!(t.transit_p95_mbps(AsId(1), SimTime::from_mins(5)) > 0.0);
        assert!(t.transit_p95_mbps(AsId(2), SimTime::from_mins(5)) > 0.0);
        // The Tier-1 provider pays nobody.
        assert_eq!(t.transit_p95_mbps(AsId(0), SimTime::from_mins(5)), 0.0);
    }

    #[test]
    fn p95_ignores_short_bursts() {
        let g = graph();
        let mut t = TrafficAccounting::new(&g);
        let r = Routing::compute(&g, RoutingMode::ValleyFree);
        let path = r.path_links(AsId(1), AsId(0)).unwrap();
        // One huge burst in a single 5-minute window of a 10-hour horizon:
        // 1/120 of windows is way under the top 5 %, so p95 stays 0.
        t.record(SimTime::from_mins(2), AsId(1), path, 1 << 30);
        let p95 = t.transit_p95_mbps(AsId(1), SimTime::from_hours(10));
        assert_eq!(p95, 0.0);
        // But a sustained rate shows up.
        let mut t2 = TrafficAccounting::new(&g);
        for m in 0..600 {
            t2.record(SimTime::from_mins(m), AsId(1), path, 75_000_000);
        }
        let p95 = t2.transit_p95_mbps(AsId(1), SimTime::from_hours(10));
        // 75 MB / 5 min/window... each window gets 5 records of 75MB = 375MB
        // over 300 s = 10 Mbps.
        assert!((p95 - 10.0).abs() < 0.2, "p95 {p95}");
    }

    #[test]
    fn locality_fraction_mixes() {
        let g = graph();
        let mut t = TrafficAccounting::new(&g);
        t.record(SimTime::ZERO, AsId(1), &[], 750);
        t.record(SimTime::ZERO, AsId(1), &[2], 250);
        assert_eq!(t.locality_fraction(), 0.75);
        assert_eq!(t.transfers(), 2);
    }
}
