//! The AS-level ISP graph.
//!
//! The paper (§2.1) describes the Internet as "built on two types of ISPs:
//! Local ISPs that provide connectivity services in limited geographical
//! areas, and Transit ISPs that act on a global plane", ordered in a
//! hierarchy (Figure 1) where solid lines are **peering** connections and
//! dashed ones are **transit** connections with monetary flow from customer
//! to provider. [`AsGraph`] captures exactly that structure.

use crate::geo::GeoPoint;
use crate::ids::AsId;

/// Position of an ISP in the Internet hierarchy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Tier {
    /// Global transit ISP (top of Figure 1).
    Tier1,
    /// Regional ISP.
    Tier2,
    /// Local/stub ISP — where end users attach.
    Tier3,
}

/// Kind of inter-AS link.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LinkKind {
    /// Customer–provider (transit) link. By convention the link's `a`
    /// endpoint is the **provider** and `b` the **customer**; traffic on it
    /// is billed to the customer.
    Transit,
    /// Settlement-free peering between (usually same-tier) ISPs.
    Peering,
}

/// The relationship of AS `x` towards AS `y` on a direct link.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Relationship {
    /// `x` sells transit to `y`.
    ProviderOf,
    /// `x` buys transit from `y`.
    CustomerOf,
    /// `x` peers with `y`.
    PeerWith,
}

/// One Autonomous System.
#[derive(Clone, Debug)]
pub struct AsNode {
    /// Identifier (also the index into [`AsGraph::nodes`]).
    pub id: AsId,
    /// Hierarchy tier.
    pub tier: Tier,
    /// Geographic centre of the ISP's service area.
    pub geo_center: GeoPoint,
    /// Radius of the service area in kilometres (hosts scatter within it).
    pub service_radius_km: f64,
}

/// One inter-AS link.
#[derive(Clone, Debug)]
pub struct AsLink {
    /// First endpoint; for [`LinkKind::Transit`] links, the **provider**.
    pub a: AsId,
    /// Second endpoint; for [`LinkKind::Transit`] links, the **customer**.
    pub b: AsId,
    /// Link kind (transit or peering).
    pub kind: LinkKind,
    /// One-way propagation latency in microseconds.
    pub latency_us: u64,
    /// Capacity in Mbit/s (used by the cost model and congestion metrics).
    pub capacity_mbps: f64,
}

impl AsLink {
    /// The endpoint opposite `x`, or `None` if `x` is not an endpoint.
    pub fn other(&self, x: AsId) -> Option<AsId> {
        if self.a == x {
            Some(self.b)
        } else if self.b == x {
            Some(self.a)
        } else {
            None
        }
    }
}

/// The AS-level graph.
#[derive(Clone, Debug, Default)]
pub struct AsGraph {
    /// All ASes, indexed by [`AsId`].
    pub nodes: Vec<AsNode>,
    /// All inter-AS links.
    pub links: Vec<AsLink>,
    adj: Vec<Vec<u32>>,
}

impl AsGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        AsGraph::default()
    }

    /// Number of ASes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no ASes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Adds an AS and returns its id.
    pub fn add_as(&mut self, tier: Tier, geo_center: GeoPoint, service_radius_km: f64) -> AsId {
        #[expect(
            clippy::expect_used,
            reason = "AsId is 16 bits; more ASes is a construction bug"
        )]
        let id = AsId(u16::try_from(self.nodes.len()).expect("too many ASes"));
        self.nodes.push(AsNode {
            id,
            tier,
            geo_center,
            service_radius_km,
        });
        self.adj.push(Vec::new());
        id
    }

    fn add_link(&mut self, link: AsLink) -> u32 {
        assert!(link.a != link.b, "self-link on {}", link.a);
        assert!(
            link.a.idx() < self.nodes.len() && link.b.idx() < self.nodes.len(),
            "link endpoint out of range"
        );
        debug_assert!(
            self.link_between(link.a, link.b).is_none(),
            "duplicate link {} - {}",
            link.a,
            link.b
        );
        #[expect(clippy::expect_used, reason = "link indices are 32 bits by design")]
        let idx = u32::try_from(self.links.len()).expect("too many links");
        self.adj[link.a.idx()].push(idx);
        self.adj[link.b.idx()].push(idx);
        self.links.push(link);
        idx
    }

    /// Adds a transit link: `customer` buys connectivity from `provider`.
    /// Returns the link index.
    pub fn add_transit(
        &mut self,
        provider: AsId,
        customer: AsId,
        latency_us: u64,
        capacity_mbps: f64,
    ) -> u32 {
        self.add_link(AsLink {
            a: provider,
            b: customer,
            kind: LinkKind::Transit,
            latency_us,
            capacity_mbps,
        })
    }

    /// Adds a settlement-free peering link. Returns the link index.
    pub fn add_peering(&mut self, x: AsId, y: AsId, latency_us: u64, capacity_mbps: f64) -> u32 {
        self.add_link(AsLink {
            a: x,
            b: y,
            kind: LinkKind::Peering,
            latency_us,
            capacity_mbps,
        })
    }

    /// Link indices incident to `x`.
    pub fn incident(&self, x: AsId) -> &[u32] {
        &self.adj[x.idx()]
    }

    /// Neighbors of `x` with the connecting link index.
    pub fn neighbors(&self, x: AsId) -> impl Iterator<Item = (AsId, u32)> + '_ {
        self.adj[x.idx()].iter().map(move |&li| {
            #[expect(clippy::expect_used, reason = "adj[x] lists only links incident to x")]
            let other = self.links[li as usize]
                .other(x)
                .expect("adjacency invariant");
            (other, li)
        })
    }

    /// The link between `x` and `y`, if directly connected.
    pub fn link_between(&self, x: AsId, y: AsId) -> Option<u32> {
        self.adj[x.idx()]
            .iter()
            .copied()
            .find(|&li| self.links[li as usize].other(x) == Some(y))
    }

    /// The relationship of `x` towards `y` on their direct link, if any.
    pub fn relationship(&self, x: AsId, y: AsId) -> Option<Relationship> {
        let li = self.link_between(x, y)?;
        let link = &self.links[li as usize];
        Some(match link.kind {
            LinkKind::Peering => Relationship::PeerWith,
            LinkKind::Transit => {
                if link.a == x {
                    Relationship::ProviderOf
                } else {
                    Relationship::CustomerOf
                }
            }
        })
    }

    /// Providers of `x` (ASes `x` buys transit from).
    pub fn providers(&self, x: AsId) -> Vec<AsId> {
        self.neighbors(x)
            .filter(|&(y, _)| self.relationship(x, y) == Some(Relationship::CustomerOf))
            .map(|(y, _)| y)
            .collect()
    }

    /// Customers of `x`.
    pub fn customers(&self, x: AsId) -> Vec<AsId> {
        self.neighbors(x)
            .filter(|&(y, _)| self.relationship(x, y) == Some(Relationship::ProviderOf))
            .map(|(y, _)| y)
            .collect()
    }

    /// Peers of `x`.
    pub fn peers(&self, x: AsId) -> Vec<AsId> {
        self.neighbors(x)
            .filter(|&(y, _)| self.relationship(x, y) == Some(Relationship::PeerWith))
            .map(|(y, _)| y)
            .collect()
    }

    /// Number of links of each kind: `(transit, peering)`.
    pub fn link_counts(&self) -> (usize, usize) {
        let transit = self
            .links
            .iter()
            .filter(|l| l.kind == LinkKind::Transit)
            .count();
        (transit, self.links.len() - transit)
    }

    /// Whether the graph is connected, ignoring link direction semantics.
    /// An optional `dead_links` mask (by link index) excludes failed links.
    pub fn is_connected(&self, dead_links: Option<&[bool]>) -> bool {
        self.component_count(dead_links) <= 1
    }

    /// Number of connected components (0 for an empty graph), optionally
    /// excluding failed links.
    pub fn component_count(&self, dead_links: Option<&[bool]>) -> usize {
        if self.nodes.is_empty() {
            return 0;
        }
        let n = self.nodes.len();
        let mut seen = vec![false; n];
        let mut components = 0;
        let mut stack = Vec::new();
        for start in 0..n {
            if seen[start] {
                continue;
            }
            components += 1;
            seen[start] = true;
            stack.push(start);
            while let Some(x) = stack.pop() {
                for &li in &self.adj[x] {
                    if let Some(mask) = dead_links {
                        if mask[li as usize] {
                            continue;
                        }
                    }
                    #[expect(clippy::expect_used, reason = "adj[x] lists only links incident to x")]
                    let y = self.links[li as usize]
                        .other(AsId::from_index(x))
                        .expect("adjacency invariant")
                        .idx();
                    if !seen[y] {
                        seen[y] = true;
                        stack.push(y);
                    }
                }
            }
        }
        components
    }

    /// Validates structural invariants; returns a description of the first
    /// violation found. Used by generators' tests.
    pub fn validate(&self) -> Result<(), String> {
        for (i, l) in self.links.iter().enumerate() {
            if l.a == l.b {
                return Err(format!("link {i} is a self-loop on {}", l.a));
            }
            if l.latency_us == 0 {
                return Err(format!("link {i} has zero latency"));
            }
            if l.capacity_mbps <= 0.0 {
                return Err(format!("link {i} has non-positive capacity"));
            }
        }
        for x in 0..self.nodes.len() {
            for &li in &self.adj[x] {
                if self.links[li as usize].other(AsId::from_index(x)).is_none() {
                    return Err(format!("adjacency of AS{x} references foreign link {li}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> AsGraph {
        let mut g = AsGraph::new();
        let t1 = g.add_as(Tier::Tier1, GeoPoint::new(0.0, 0.0), 500.0);
        let a = g.add_as(Tier::Tier3, GeoPoint::new(100.0, 0.0), 50.0);
        let b = g.add_as(Tier::Tier3, GeoPoint::new(0.0, 100.0), 50.0);
        g.add_transit(t1, a, 5_000, 10_000.0);
        g.add_transit(t1, b, 5_000, 10_000.0);
        g.add_peering(a, b, 2_000, 1_000.0);
        g
    }

    #[test]
    fn relationships() {
        let g = triangle();
        assert_eq!(
            g.relationship(AsId(0), AsId(1)),
            Some(Relationship::ProviderOf)
        );
        assert_eq!(
            g.relationship(AsId(1), AsId(0)),
            Some(Relationship::CustomerOf)
        );
        assert_eq!(
            g.relationship(AsId(1), AsId(2)),
            Some(Relationship::PeerWith)
        );
        assert_eq!(
            g.relationship(AsId(2), AsId(1)),
            Some(Relationship::PeerWith)
        );
    }

    #[test]
    fn provider_customer_peer_lists() {
        let g = triangle();
        assert_eq!(g.providers(AsId(1)), vec![AsId(0)]);
        assert_eq!(g.customers(AsId(0)), vec![AsId(1), AsId(2)]);
        assert_eq!(g.peers(AsId(1)), vec![AsId(2)]);
        assert!(g.providers(AsId(0)).is_empty());
    }

    #[test]
    fn link_counts_and_lookup() {
        let g = triangle();
        assert_eq!(g.link_counts(), (2, 1));
        assert!(g.link_between(AsId(1), AsId(2)).is_some());
        assert!(g.link_between(AsId(0), AsId(0)).is_none());
        let li = g.link_between(AsId(0), AsId(1)).unwrap();
        assert_eq!(g.links[li as usize].other(AsId(0)), Some(AsId(1)));
        assert_eq!(g.links[li as usize].other(AsId(5)), None);
    }

    #[test]
    fn connectivity() {
        let mut g = triangle();
        assert!(g.is_connected(None));
        assert_eq!(g.component_count(None), 1);
        let lonely = g.add_as(Tier::Tier3, GeoPoint::default(), 10.0);
        assert!(!g.is_connected(None));
        assert_eq!(g.component_count(None), 2);
        g.add_peering(AsId(1), lonely, 1_000, 100.0);
        assert!(g.is_connected(None));
    }

    #[test]
    fn dead_link_mask_cuts_graph() {
        let g = triangle();
        // Kill both transit links: AS0 is isolated, AS1-AS2 stay peered.
        let mask = vec![true, true, false];
        assert_eq!(g.component_count(Some(&mask)), 2);
    }

    #[test]
    fn validate_catches_bad_links() {
        let mut g = triangle();
        g.links[0].latency_us = 0;
        assert!(g.validate().unwrap_err().contains("zero latency"));
    }

    #[test]
    fn empty_graph() {
        let g = AsGraph::new();
        assert!(g.is_empty());
        assert_eq!(g.component_count(None), 0);
        assert!(g.is_connected(None));
        assert!(g.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "self-link")]
    fn self_link_panics() {
        let mut g = AsGraph::new();
        let a = g.add_as(Tier::Tier3, GeoPoint::default(), 10.0);
        g.add_peering(a, a, 1_000, 100.0);
    }
}
