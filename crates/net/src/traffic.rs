//! Traffic accounting.
//!
//! The economics of §2.1 hinge on *where* bytes flow: traffic that stays
//! inside an AS is free, traffic over peering links costs only the link
//! upkeep, and traffic over transit links is billed per Mbps at the peak
//! rate "measured using samples over a months' time" (the industry-standard
//! 95th-percentile rule). [`TrafficAccounting`] classifies every transfer
//! accordingly and keeps the per-AS transit samples the billing needs.

use crate::asgraph::{AsGraph, LinkKind};
use crate::ids::AsId;
use uap_sim::SimTime;

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

/// Accumulated traffic statistics for one simulation run.
#[derive(Clone, Debug)]
pub struct TrafficAccounting {
    /// Width of a billing sample bucket (default 5 minutes).
    pub sample_width: SimTime,
    intra_bytes: u64,
    peering_bytes: u64,
    transit_bytes: u64,
    per_link_bytes: Vec<u64>,
    /// Per-AS transit bytes (what the AS pays its providers for), bucketed
    /// by sample window for 95th-percentile billing.
    per_as_transit_samples: Vec<Vec<u64>>,
    transfers: u64,
}

impl TrafficAccounting {
    /// Creates an accounting ledger for `graph`.
    pub fn new(graph: &AsGraph) -> Self {
        TrafficAccounting {
            sample_width: SimTime::from_mins(5),
            intra_bytes: 0,
            peering_bytes: 0,
            transit_bytes: 0,
            per_link_bytes: vec![0; graph.links.len()],
            per_as_transit_samples: vec![Vec::new(); graph.len()],
            transfers: 0,
        }
    }

    /// Records a transfer of `bytes` at time `now` along `path_links`
    /// (empty for an intra-AS transfer between `src_as == dst_as`).
    /// Returns the category the transfer was classified as.
    pub fn record(
        &mut self,
        graph: &AsGraph,
        now: SimTime,
        src_as: AsId,
        path_links: &[u32],
        bytes: u64,
    ) -> TrafficCategory {
        self.transfers += 1;
        if path_links.is_empty() {
            self.intra_bytes += bytes;
            return TrafficCategory::IntraAs;
        }
        let bucket = (now.as_micros() / self.sample_width.as_micros()) as usize;
        let (mut peering, mut transit) = (0, 0);
        let mut crossed_transit = false;
        let mut cur = src_as;
        #[expect(clippy::expect_used, reason = "a routed path's links chain end to end")]
        for &li in path_links {
            let link = &graph.links[li as usize];
            self.per_link_bytes[li as usize] += bytes;
            cur = link.other(cur).expect("path follows links");
            match link.kind {
                LinkKind::Peering => peering += bytes,
                LinkKind::Transit => {
                    crossed_transit = true;
                    transit += bytes;
                    // The *customer* side pays for transit bytes.
                    let samples = &mut self.per_as_transit_samples[link.b.idx()];
                    if samples.len() <= bucket {
                        samples.resize(bucket + 1, 0);
                    }
                    samples[bucket] += bytes;
                }
            }
        }
        self.peering_bytes += peering;
        self.transit_bytes += transit;
        #[cfg(debug_assertions)]
        #[expect(clippy::panic, reason = "debug-only invariant guard")]
        if let Err(e) = crate::invariants::check_traffic_conservation(graph, self) {
            panic!("traffic ledger corrupted: {e}");
        }
        if crossed_transit {
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
    pub fn link_bytes(&self, li: u32) -> u64 {
        self.per_link_bytes[li as usize]
    }

    /// Per-link byte totals, indexed by link id. Used by the trace layer
    /// to emit end-of-run per-link traffic events.
    pub fn per_link_bytes(&self) -> &[u64] {
        &self.per_link_bytes
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
    /// the billing sample buckets, padding with zero samples up to `horizon`
    /// (an AS that bursts briefly still pays for its busiest 5 % of windows).
    pub fn transit_p95_mbps(&self, asn: AsId, horizon: SimTime) -> f64 {
        let width_s = self.sample_width.as_secs_f64();
        let n_windows = horizon.as_micros().div_ceil(self.sample_width.as_micros()) as usize;
        if n_windows == 0 {
            return 0.0;
        }
        let mut rates: Vec<f64> = self.per_as_transit_samples[asn.idx()]
            .iter()
            .map(|&b| b as f64 * 8.0 / 1e6 / width_s)
            .collect();
        rates.resize(n_windows.max(rates.len()), 0.0);
        rates.sort_by(|a, b| a.total_cmp(b));
        // Nearest-rank 95th percentile.
        let rank = ((0.95 * rates.len() as f64).ceil() as usize).clamp(1, rates.len());
        rates[rank - 1]
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
    /// read: per-AS external-byte counters, category totals bumped per
    /// link, the billing bucket divided out per transit link.
    struct OracleLedger {
        ledger: TrafficAccounting,
        external: Vec<u64>,
    }

    impl OracleLedger {
        fn record(
            &mut self,
            graph: &AsGraph,
            now: SimTime,
            src_as: AsId,
            path_links: &[u32],
            bytes: u64,
        ) -> TrafficCategory {
            let l = &mut self.ledger;
            l.transfers += 1;
            if path_links.is_empty() {
                l.intra_bytes += bytes;
                return TrafficCategory::IntraAs;
            }
            let mut crossed_transit = false;
            let mut cur = src_as;
            for &li in path_links {
                let link = &graph.links[li as usize];
                l.per_link_bytes[li as usize] += bytes;
                let next = link.other(cur).expect("path follows links");
                self.external[cur.idx()] += bytes;
                self.external[next.idx()] += bytes;
                match link.kind {
                    LinkKind::Peering => l.peering_bytes += bytes,
                    LinkKind::Transit => {
                        crossed_transit = true;
                        l.transit_bytes += bytes;
                        let idx = (now.as_micros() / l.sample_width.as_micros()) as usize;
                        let buckets = &mut l.per_as_transit_samples[link.b.idx()];
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
    }

    proptest! {
        /// `record` against the ledger it replaced, over chains of
        /// valley-free transfers whose time stamps cross several billing
        /// buckets in both directions.
        #[test]
        fn record_matches_the_ledger_it_replaced(
            seed in any::<u64>(),
            transfers in prop::collection::vec(
                (0usize..1 << 16, 0usize..1 << 16, 0u64..2_400_000_000, 0u64..1 << 30),
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
            let mut oracle = OracleLedger {
                ledger: TrafficAccounting::new(&g),
                external: vec![0; g.len()],
            };
            for (src, dst, micros, bytes) in transfers {
                let (src, dst) = (AsId::from_index(src % g.len()), AsId::from_index(dst % g.len()));
                let Some(path) = r.path_links(src, dst) else { continue };
                let now = SimTime::from_micros(micros);
                prop_assert_eq!(
                    t.record(&g, now, src, path, bytes),
                    oracle.record(&g, now, src, path, bytes)
                );
            }
            prop_assert_eq!(t.totals(), oracle.ledger.totals());
            prop_assert_eq!(t.transfers(), oracle.ledger.transfers());
            prop_assert_eq!(t.per_link_bytes(), oracle.ledger.per_link_bytes());
            let horizon = SimTime::from_mins(40);
            for asn in (0..g.len()).map(AsId::from_index) {
                prop_assert_eq!(
                    t.transit_p95_mbps(asn, horizon).to_bits(),
                    oracle.ledger.transit_p95_mbps(asn, horizon).to_bits()
                );
                // Why the per-AS counter carried no information: it was the
                // sum of the link counters over the AS's incident links.
                let incident: u64 = g.incident(asn).iter().map(|&li| t.link_bytes(li)).sum();
                prop_assert_eq!(oracle.external[asn.idx()], incident);
            }
        }
    }

    #[test]
    fn intra_as_is_free_of_links() {
        let g = graph();
        let mut t = TrafficAccounting::new(&g);
        let cat = t.record(&g, SimTime::ZERO, AsId(1), &[], 1_000);
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
        let cat = t.record(&g, SimTime::ZERO, AsId(1), path, 500);
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
        let (r, _) = Routing::compute_indexed(&g, RoutingMode::ValleyFree, Some(&mask));
        let path = r.path_links(AsId(1), AsId(2)).unwrap();
        assert_eq!(path.len(), 2);
        let mut t = TrafficAccounting::new(&g);
        let cat = t.record(&g, SimTime::from_secs(10), AsId(1), path, 1_000);
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
        t.record(&g, SimTime::from_mins(2), AsId(1), path, 1 << 30);
        let p95 = t.transit_p95_mbps(AsId(1), SimTime::from_hours(10));
        assert_eq!(p95, 0.0);
        // But a sustained rate shows up.
        let mut t2 = TrafficAccounting::new(&g);
        for m in 0..600 {
            t2.record(&g, SimTime::from_mins(m), AsId(1), path, 75_000_000);
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
        t.record(&g, SimTime::ZERO, AsId(1), &[], 750);
        t.record(&g, SimTime::ZERO, AsId(1), &[2], 250);
        assert_eq!(t.locality_fraction(), 0.75);
        assert_eq!(t.transfers(), 2);
    }
}
