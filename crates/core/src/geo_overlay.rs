//! A geolocation-based overlay with location-constrained search, after
//! Globase.KOM (Kovacevic, Liebau, Steinmetz \[19\]).
//!
//! §4: "Geolocation information is used to build an overlay where
//! neighboring peers are geographically close. […] Kovacevic et al.
//! present a hierarchical tree-based P2P system that enables
//! geolocation-based overlay operations."
//!
//! Structure: a quadtree over the world box. A zone splits when it holds
//! more than `max_zone_peers` peers, and each zone answers queries through
//! one **supervisor**. A location-constrained query (rectangle) is routed
//! from the root down only into intersecting zones, one message per zone
//! supervisor — message cost proportional to the area touched, not the
//! network size, which is the "new application areas" payoff measured in
//! Table 2. Peers only join: the zone tree models neither departures nor
//! dead supervisors.
//!
//! Peers register with positions from a pluggable geolocation source;
//! noisy sources (IP-to-location) put peers in the wrong zone, degrading
//! recall — `examples/geo_search.rs` compares GPS and IP-mapping
//! registrations.

use uap_net::{GeoPoint, HostId};

/// An axis-aligned query/zone rectangle.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rect {
    /// Left edge.
    pub x0: f64,
    /// Bottom edge.
    pub y0: f64,
    /// Right edge (exclusive).
    pub x1: f64,
    /// Top edge (exclusive).
    pub y1: f64,
}

impl Rect {
    /// Creates a rectangle; panics if degenerate.
    pub fn new(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        assert!(x1 > x0 && y1 > y0, "degenerate rectangle");
        Rect { x0, y0, x1, y1 }
    }

    /// Whether a point lies inside.
    pub fn contains(&self, p: &GeoPoint) -> bool {
        p.x_km >= self.x0 && p.x_km < self.x1 && p.y_km >= self.y0 && p.y_km < self.y1
    }

    /// Whether two rectangles intersect.
    pub fn intersects(&self, other: &Rect) -> bool {
        self.x0 < other.x1 && other.x0 < self.x1 && self.y0 < other.y1 && other.y0 < self.y1
    }

    fn quadrant(&self, q: usize) -> Rect {
        let mx = (self.x0 + self.x1) / 2.0;
        let my = (self.y0 + self.y1) / 2.0;
        match q {
            0 => Rect {
                x0: self.x0,
                y0: self.y0,
                x1: mx,
                y1: my,
            },
            1 => Rect {
                x0: mx,
                y0: self.y0,
                x1: self.x1,
                y1: my,
            },
            2 => Rect {
                x0: self.x0,
                y0: my,
                x1: mx,
                y1: self.y1,
            },
            _ => Rect {
                x0: mx,
                y0: my,
                x1: self.x1,
                y1: self.y1,
            },
        }
    }
}

enum Node {
    Leaf { members: Vec<(HostId, GeoPoint)> },
    Inner { children: Box<[Node; 4]> },
}

/// Result of a location-constrained query.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GeoQueryOutcome {
    /// Peers reported inside the query rectangle.
    pub found: Vec<HostId>,
    /// Overlay messages spent (one per zone supervisor contacted).
    pub messages: u64,
    /// Zones visited.
    pub zones_visited: u64,
}

/// The zone tree.
pub struct GeoOverlay {
    root: Node,
    bounds: Rect,
    max_zone_peers: usize,
    n_members: usize,
}

impl GeoOverlay {
    /// Builds the overlay for the given world bounds.
    pub fn new(bounds: Rect, max_zone_peers: usize) -> GeoOverlay {
        assert!(max_zone_peers >= 1);
        GeoOverlay {
            root: Node::Leaf {
                members: Vec::new(),
            },
            bounds,
            max_zone_peers,
            n_members: 0,
        }
    }

    /// Registered peers.
    pub fn len(&self) -> usize {
        self.n_members
    }

    /// Whether the overlay has no members.
    pub fn is_empty(&self) -> bool {
        self.n_members == 0
    }

    /// Registers a peer at its (reported) position. Positions outside the
    /// world bounds are clamped onto it.
    pub fn join(&mut self, h: HostId, pos: GeoPoint) {
        let pos = GeoPoint::new(
            pos.x_km.clamp(self.bounds.x0, self.bounds.x1 - 1e-9),
            pos.y_km.clamp(self.bounds.y0, self.bounds.y1 - 1e-9),
        );
        let max = self.max_zone_peers;
        Self::insert(&mut self.root, self.bounds, h, pos, max, 0);
        self.n_members += 1;
    }

    fn insert(node: &mut Node, zone: Rect, h: HostId, pos: GeoPoint, max: usize, depth: usize) {
        match node {
            Node::Leaf { members } => {
                members.push((h, pos));
                // Split when overfull (depth cap avoids infinite splits on
                // coincident points).
                if members.len() > max && depth < 20 {
                    let old = std::mem::take(members);
                    let mut children = Box::new([
                        Node::Leaf {
                            members: Vec::new(),
                        },
                        Node::Leaf {
                            members: Vec::new(),
                        },
                        Node::Leaf {
                            members: Vec::new(),
                        },
                        Node::Leaf {
                            members: Vec::new(),
                        },
                    ]);
                    for (m, p) in old {
                        for (q, child) in children.iter_mut().enumerate() {
                            if zone.quadrant(q).contains(&p) {
                                Self::insert(child, zone.quadrant(q), m, p, max, depth + 1);
                                break;
                            }
                        }
                    }
                    *node = Node::Inner { children };
                }
            }
            Node::Inner { children } => {
                for (q, child) in children.iter_mut().enumerate() {
                    if zone.quadrant(q).contains(&pos) {
                        Self::insert(child, zone.quadrant(q), h, pos, max, depth + 1);
                        return;
                    }
                }
            }
        }
    }

    /// Location-constrained search: all peers registered inside `query`.
    pub fn search(&self, query: &Rect) -> GeoQueryOutcome {
        let mut out = GeoQueryOutcome::default();
        Self::search_rec(&self.root, self.bounds, query, &mut out);
        out
    }

    fn search_rec(node: &Node, zone: Rect, query: &Rect, out: &mut GeoQueryOutcome) {
        if !zone.intersects(query) {
            return;
        }
        out.zones_visited += 1;
        out.messages += 1; // one message to this zone's supervisor
        match node {
            Node::Leaf { members } => {
                for &(m, p) in members {
                    if query.contains(&p) {
                        out.found.push(m);
                    }
                }
            }
            Node::Inner { children } => {
                for (q, child) in children.iter().enumerate() {
                    Self::search_rec(child, zone.quadrant(q), query, out);
                }
            }
        }
    }

    /// Maximum tree depth (diagnostics).
    pub fn depth(&self) -> usize {
        fn rec(node: &Node) -> usize {
            match node {
                Node::Leaf { .. } => 1,
                Node::Inner { children } => 1 + children.iter().map(rec).max().unwrap_or(0),
            }
        }
        rec(&self.root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uap_net::{PopulationSpec, TopologyKind, TopologySpec, Underlay, UnderlayConfig};
    use uap_sim::SimRng;

    fn world() -> Rect {
        Rect::new(0.0, 0.0, 5_000.0, 5_000.0)
    }

    fn underlay(n: usize) -> Underlay {
        let mut rng = SimRng::new(111);
        let g = TopologySpec::new(TopologyKind::Hierarchical {
            tier1: 2,
            tier2_per_tier1: 2,
            tier3_per_tier2: 2,
            tier2_peering_prob: 0.0,
            tier3_peering_prob: 0.0,
        })
        .build(&mut rng);
        Underlay::build(
            g,
            &PopulationSpec::leaf(n),
            UnderlayConfig::default(),
            &mut rng,
        )
    }

    #[test]
    fn rect_geometry() {
        let r = Rect::new(0.0, 0.0, 10.0, 10.0);
        assert!(r.contains(&GeoPoint::new(5.0, 5.0)));
        assert!(!r.contains(&GeoPoint::new(10.0, 5.0))); // right edge exclusive
        assert!(r.intersects(&Rect::new(9.0, 9.0, 20.0, 20.0)));
        assert!(!r.intersects(&Rect::new(10.0, 0.0, 20.0, 10.0)));
    }

    #[test]
    fn search_finds_exactly_the_peers_in_range() {
        let u = underlay(300);
        let mut g = GeoOverlay::new(world(), 8);
        for h in u.hosts.ids() {
            g.join(h, u.host(h).geo);
        }
        assert_eq!(g.len(), 300);
        let q = Rect::new(1_000.0, 1_000.0, 3_000.0, 3_000.0);
        let out = g.search(&q);
        let truth: Vec<HostId> = u
            .hosts
            .ids()
            .filter(|&h| q.contains(&u.host(h).geo))
            .collect();
        let mut found = out.found.clone();
        found.sort();
        let mut expected = truth.clone();
        expected.sort();
        assert_eq!(found, expected);
        assert!(out.messages > 0);
    }

    #[test]
    fn query_cost_scales_with_area_not_population() {
        let u = underlay(400);
        let mut g = GeoOverlay::new(world(), 8);
        for h in u.hosts.ids() {
            g.join(h, u.host(h).geo);
        }
        let small = g.search(&Rect::new(0.0, 0.0, 500.0, 500.0));
        let big = g.search(&Rect::new(0.0, 0.0, 4_999.0, 4_999.0));
        assert!(small.zones_visited < big.zones_visited);
        // A tiny query touches a handful of zones, far less than n.
        assert!(
            small.zones_visited < 400 / 4,
            "small query visited {} zones",
            small.zones_visited
        );
    }

    #[test]
    fn split_and_depth() {
        let mut g = GeoOverlay::new(world(), 2);
        // Cluster points to force splits.
        for i in 0..20u32 {
            g.join(HostId(i), GeoPoint::new(10.0 + i as f64 * 0.1, 10.0));
        }
        assert!(g.depth() > 1);
        let out = g.search(&Rect::new(0.0, 0.0, 100.0, 100.0));
        assert_eq!(out.found.len(), 20);
    }

    #[test]
    fn out_of_bounds_positions_clamp() {
        let mut g = GeoOverlay::new(world(), 4);
        g.join(HostId(7), GeoPoint::new(-50.0, 9_999.0));
        let out = g.search(&Rect::new(0.0, 0.0, 5_000.0, 5_000.0));
        assert_eq!(out.found, vec![HostId(7)]);
    }

    #[test]
    fn noisy_registration_degrades_recall() {
        // GPS-registered overlay vs IP-mapping-registered overlay: the
        // noisy one misses peers whose reported zone differs from truth.
        use uap_info::{GeoLocator, GeoService, GeoSource};
        let u = underlay(300);
        let mut rng = SimRng::new(112);
        let mut exact = GeoOverlay::new(world(), 8);
        let mut noisy = GeoOverlay::new(world(), 8);
        let mut gps = GeoService::new(&u, GeoSource::Gps);
        let mut ipmap = GeoService::new(&u, GeoSource::IpMapping);
        for h in u.hosts.ids() {
            exact.join(h, gps.locate(h, &mut rng));
            noisy.join(h, ipmap.locate(h, &mut rng));
        }
        let q = Rect::new(1_000.0, 1_000.0, 2_000.0, 2_000.0);
        let truth: std::collections::BTreeSet<HostId> = u
            .hosts
            .ids()
            .filter(|&h| q.contains(&u.host(h).geo))
            .collect();
        if truth.is_empty() {
            return; // fixture produced empty region; nothing to compare
        }
        let recall = |out: &GeoQueryOutcome| {
            out.found.iter().filter(|h| truth.contains(h)).count() as f64 / truth.len() as f64
        };
        let r_exact = recall(&exact.search(&q));
        let r_noisy = recall(&noisy.search(&q));
        assert!(r_exact > 0.99, "gps recall {r_exact}");
        assert!(r_noisy <= r_exact);
    }
}
