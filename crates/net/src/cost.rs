//! The ISP cost model of Figure 2.
//!
//! From §2.1: "transit traffic costs per Mbps are almost fixed resulting in
//! a proportional increase of costs with more traffic. […] However, between
//! local or so-called peering ISPs, the cost is just that of maintaining the
//! direct link between the two ISPs and is therefore constant. This results
//! in a cost per Mbps that is inversely proportional to the total exchanged
//! traffic." (after Norton's peering business case \[24\])
//!
//! [`CostParams`] captures the two tariffs; [`IspBill`] applies them to a
//! run's [`TrafficAccounting`].

use crate::asgraph::{AsGraph, LinkKind};
use crate::ids::AsId;
use crate::traffic::TrafficAccounting;
use uap_sim::SimTime;

/// Tariff parameters (monthly, USD).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostParams {
    /// Transit price per Mbps of 95th-percentile rate, per month.
    pub transit_usd_per_mbps: f64,
    /// Flat monthly cost of maintaining one peering link (port, cross-
    /// connect, amortized equipment).
    pub peering_flat_usd: f64,
}

impl Default for CostParams {
    /// Norton-era defaults: ~$20/Mbps transit, ~$2 000/month per peering
    /// port.
    fn default() -> Self {
        CostParams {
            transit_usd_per_mbps: 20.0,
            peering_flat_usd: 2_000.0,
        }
    }
}

impl CostParams {
    /// Monthly transit cost at a given 95th-percentile rate — the *linear*
    /// curve of Figure 2.
    pub fn transit_cost(&self, p95_mbps: f64) -> f64 {
        self.transit_usd_per_mbps * p95_mbps.max(0.0)
    }

    /// Monthly cost of `n` peering links — *constant* in traffic.
    pub fn peering_cost(&self, n_links: usize) -> f64 {
        self.peering_flat_usd * n_links as f64
    }

    /// Transit cost per Mbps — constant (Figure 2, upper curve).
    pub fn transit_cost_per_mbps(&self, _traffic_mbps: f64) -> f64 {
        self.transit_usd_per_mbps
    }

    /// Peering cost per Mbps for one link — inversely proportional to the
    /// exchanged traffic (Figure 2, lower curve).
    pub fn peering_cost_per_mbps(&self, traffic_mbps: f64) -> f64 {
        if traffic_mbps <= 0.0 {
            f64::INFINITY
        } else {
            self.peering_flat_usd / traffic_mbps
        }
    }

    /// Traffic level at which peering becomes cheaper per Mbps than transit
    /// (the crossover in Figure 2).
    pub fn crossover_mbps(&self) -> f64 {
        self.peering_flat_usd / self.transit_usd_per_mbps
    }
}

/// One AS's monthly bill under the cost model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IspBill {
    /// The billed AS.
    pub asn: AsId,
    /// 95th-percentile transit rate in Mbps.
    pub transit_p95_mbps: f64,
    /// Transit portion of the bill (USD/month).
    pub transit_usd: f64,
    /// Number of peering links this AS maintains.
    pub peering_links: usize,
    /// Peering portion of the bill (USD/month).
    pub peering_usd: f64,
}

impl IspBill {
    /// Total monthly cost.
    pub fn total_usd(&self) -> f64 {
        self.transit_usd + self.peering_usd
    }
}

/// Computes every AS's bill for a run that covered `horizon` of simulated
/// time. The measured p95 rate is assumed to be representative of the whole
/// billing month.
pub fn bill_all(
    graph: &AsGraph,
    traffic: &TrafficAccounting,
    params: &CostParams,
    horizon: SimTime,
) -> Vec<IspBill> {
    let bills: Vec<IspBill> = (0..graph.len())
        .map(|i| {
            let asn = AsId::from_index(i);
            let p95 = traffic.transit_p95_mbps(asn, horizon);
            let peering_links = graph
                .incident(asn)
                .iter()
                .filter_map(|&li| graph.links.get(li as usize))
                .filter(|l| l.kind == LinkKind::Peering)
                .count();
            IspBill {
                asn,
                transit_p95_mbps: p95,
                transit_usd: params.transit_cost(p95),
                peering_links,
                peering_usd: params.peering_cost(peering_links),
            }
        })
        .collect();
    #[cfg(debug_assertions)]
    #[expect(clippy::panic, reason = "debug-only invariant guard")]
    if let Err(e) = crate::invariants::check_cost_non_negative(&bills) {
        panic!("cost model produced an invalid bill: {e}");
    }
    bills
}

/// Sum of all ASes' transit bills — the system-wide avoidable cost that
/// locality-aware P2P reduces.
pub fn total_transit_usd(bills: &[IspBill]) -> f64 {
    bills.iter().map(|b| b.transit_usd).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transit_is_linear() {
        let p = CostParams::default();
        assert_eq!(p.transit_cost(0.0), 0.0);
        assert_eq!(p.transit_cost(10.0), 200.0);
        assert_eq!(p.transit_cost(100.0), 2_000.0);
        // Per-Mbps price is flat.
        assert_eq!(
            p.transit_cost_per_mbps(1.0),
            p.transit_cost_per_mbps(1_000.0)
        );
    }

    #[test]
    fn peering_per_mbps_is_inverse() {
        let p = CostParams::default();
        let c10 = p.peering_cost_per_mbps(10.0);
        let c100 = p.peering_cost_per_mbps(100.0);
        assert!((c10 / c100 - 10.0).abs() < 1e-9);
        assert_eq!(p.peering_cost_per_mbps(0.0), f64::INFINITY);
        // Absolute peering cost does not depend on traffic at all.
        assert_eq!(p.peering_cost(3), 6_000.0);
    }

    #[test]
    fn crossover_matches_figure2_shape() {
        let p = CostParams::default();
        let x = p.crossover_mbps();
        assert_eq!(x, 100.0);
        // Below crossover transit is cheaper per Mbps, above it peering is.
        assert!(p.transit_cost_per_mbps(50.0) < p.peering_cost_per_mbps(50.0));
        assert!(p.transit_cost_per_mbps(200.0) > p.peering_cost_per_mbps(200.0));
    }

    #[test]
    fn negative_rate_clamps() {
        let p = CostParams::default();
        assert_eq!(p.transit_cost(-5.0), 0.0);
    }

    #[test]
    fn billing_integrates_traffic() {
        use crate::asgraph::Tier;
        use crate::geo::GeoPoint;
        use crate::routing::{Routing, RoutingMode};
        let mut g = AsGraph::new();
        let t1 = g.add_as(Tier::Tier1, GeoPoint::new(0.0, 0.0), 100.0);
        let a = g.add_as(Tier::Tier3, GeoPoint::new(10.0, 0.0), 10.0);
        let b = g.add_as(Tier::Tier3, GeoPoint::new(0.0, 10.0), 10.0);
        g.add_transit(t1, a, 1_000, 1_000.0);
        g.add_transit(t1, b, 1_000, 1_000.0);
        g.add_peering(a, b, 500, 100.0);
        let r = Routing::compute(&g, RoutingMode::ValleyFree);
        let mut tr = TrafficAccounting::new(&g);
        // Sustained transit: a -> t1 for the whole horizon.
        let path = r.path_links(AsId(1), AsId(0)).unwrap();
        let horizon = SimTime::from_hours(2);
        for m in 0..24 {
            tr.record(&g, SimTime::from_mins(m * 5), AsId(1), path, 37_500_000);
        }
        let bills = bill_all(&g, &tr, &CostParams::default(), horizon);
        // AS a (idx 1): 37.5 MB / 300 s = 1 Mbps p95 → $20 transit + one
        // peering link flat fee.
        let bill_a = &bills[1];
        assert!((bill_a.transit_p95_mbps - 1.0).abs() < 1e-9);
        assert!((bill_a.transit_usd - 20.0).abs() < 1e-9);
        assert_eq!(bill_a.peering_links, 1);
        assert_eq!(bill_a.peering_usd, 2_000.0);
        assert!((bill_a.total_usd() - 2_020.0).abs() < 1e-9);
        // The Tier-1 has no providers: zero transit bill, zero peering
        // links in this fixture... it peers with nobody here.
        assert_eq!(bills[0].transit_usd, 0.0);
        assert!(total_transit_usd(&bills) > 0.0);
    }
}
