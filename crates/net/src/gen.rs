//! Topology generators.
//!
//! Two families:
//!
//! * The **testlab topologies** of the oracle study the paper reprints in
//!   §5 of \[1\] — "four different 5-AS topologies: ring, star, tree and
//!   random mesh". These are flat graphs of peering links, routed with
//!   plain shortest paths (in the testlab a router *is* the AS boundary).
//! * **Internet-like topologies** — the hierarchical local/transit-ISP
//!   structure of the paper's Figure 1, and Barabási–Albert preferential
//!   attachment. These carry customer/provider semantics and are routed
//!   valley-free.

use crate::asgraph::{AsGraph, Tier};
use crate::geo::{propagation_delay_us, GeoPoint};
use crate::ids::AsId;
use uap_sim::SimRng;

/// Which topology to generate.
#[derive(Clone, Debug, PartialEq)]
pub enum TopologyKind {
    /// `n` ASes in a cycle (testlab).
    Ring {
        /// Number of ASes.
        n: usize,
    },
    /// One hub AS with `n - 1` spokes (testlab).
    Star {
        /// Number of ASes including the hub (AS 0).
        n: usize,
    },
    /// Balanced tree with the given fanout (testlab). Parent links are
    /// transit links (parent is the provider).
    Tree {
        /// Number of ASes.
        n: usize,
        /// Children per node.
        fanout: usize,
    },
    /// Random connected mesh: a random spanning tree plus extra edges
    /// (testlab "random mesh").
    Mesh {
        /// Number of ASes.
        n: usize,
        /// Probability of adding each non-tree edge.
        extra_edge_prob: f64,
    },
    /// Hierarchical Internet per Figure 1: fully-meshed Tier-1 core,
    /// Tier-2 regionals multi-homed to Tier-1s, Tier-3 locals homed to
    /// Tier-2s, plus some same-tier peering.
    Hierarchical {
        /// Number of Tier-1 (global transit) ISPs.
        tier1: usize,
        /// Tier-2 ISPs per Tier-1.
        tier2_per_tier1: usize,
        /// Tier-3 (local) ISPs per Tier-2.
        tier3_per_tier2: usize,
        /// Probability that two Tier-2s under the same Tier-1 peer.
        tier2_peering_prob: f64,
        /// Probability that two sibling Tier-3s peer.
        tier3_peering_prob: f64,
    },
    /// Barabási–Albert preferential attachment; each new AS buys transit
    /// from `m` existing ASes chosen by degree.
    PreferentialAttachment {
        /// Number of ASes.
        n: usize,
        /// Links per new AS.
        m: usize,
    },
}

/// A topology request: kind plus world-scale parameters.
#[derive(Clone, Debug)]
pub struct TopologySpec {
    /// Which topology.
    pub kind: TopologyKind,
    /// Side length of the world box in kilometres.
    pub world_km: f64,
    /// Base per-link latency floor in microseconds (switching/queueing).
    pub base_link_latency_us: u64,
}

impl TopologySpec {
    /// A spec with default world scale (continental: 5 000 km box, 200 µs
    /// per-link floor).
    pub fn new(kind: TopologyKind) -> Self {
        TopologySpec {
            kind,
            world_km: 5_000.0,
            base_link_latency_us: 200,
        }
    }

    /// Generates the AS graph.
    pub fn build(&self, rng: &mut SimRng) -> AsGraph {
        let g = match self.kind {
            TopologyKind::Ring { n } => self.ring(n, rng),
            TopologyKind::Star { n } => self.star(n, rng),
            TopologyKind::Tree { n, fanout } => self.tree(n, fanout, rng),
            TopologyKind::Mesh { n, extra_edge_prob } => self.mesh(n, extra_edge_prob, rng),
            TopologyKind::Hierarchical {
                tier1,
                tier2_per_tier1,
                tier3_per_tier2,
                tier2_peering_prob,
                tier3_peering_prob,
            } => self.hierarchical(
                tier1,
                tier2_per_tier1,
                tier3_per_tier2,
                tier2_peering_prob,
                tier3_peering_prob,
                rng,
            ),
            TopologyKind::PreferentialAttachment { n, m } => self.preferential(n, m, rng),
        };
        debug_assert!(g.validate().is_ok(), "{:?}", g.validate());
        debug_assert!(g.is_connected(None), "generator produced split graph");
        g
    }

    fn random_point(&self, rng: &mut SimRng) -> GeoPoint {
        GeoPoint::new(
            rng.f64_range(0.0, self.world_km),
            rng.f64_range(0.0, self.world_km),
        )
    }

    #[expect(clippy::indexing_slicing, reason = "x, y come from g.add_as")]
    fn link_latency(&self, g: &AsGraph, x: AsId, y: AsId) -> u64 {
        let km = g.nodes[x.idx()]
            .geo_center
            .distance_km(&g.nodes[y.idx()].geo_center);
        self.base_link_latency_us + propagation_delay_us(km)
    }

    fn ring(&self, n: usize, rng: &mut SimRng) -> AsGraph {
        assert!(n >= 3, "a ring needs at least 3 ASes");
        let mut g = AsGraph::new();
        // Place on a circle so link latencies reflect adjacency.
        let r = self.world_km / 2.5;
        let c = self.world_km / 2.0;
        for i in 0..n {
            let theta = std::f64::consts::TAU * i as f64 / n as f64;
            let p = GeoPoint::new(c + r * theta.cos(), c + r * theta.sin());
            g.add_as(Tier::Tier3, p, self.world_km / 20.0);
        }
        let _ = rng;
        for i in 0..n {
            let a = AsId::from_index(i);
            let b = AsId::from_index((i + 1) % n);
            let lat = self.link_latency(&g, a, b);
            g.add_peering(a, b, lat, 1_000.0);
        }
        g
    }

    fn star(&self, n: usize, rng: &mut SimRng) -> AsGraph {
        assert!(n >= 2, "a star needs at least 2 ASes");
        let mut g = AsGraph::new();
        let center = GeoPoint::new(self.world_km / 2.0, self.world_km / 2.0);
        g.add_as(Tier::Tier2, center, self.world_km / 10.0);
        for _ in 1..n {
            let p = self.random_point(rng);
            g.add_as(Tier::Tier3, p, self.world_km / 20.0);
        }
        for i in 1..n {
            let spoke = AsId::from_index(i);
            let lat = self.link_latency(&g, AsId(0), spoke);
            g.add_peering(AsId(0), spoke, lat, 1_000.0);
        }
        g
    }

    #[expect(clippy::indexing_slicing, reason = "parents come from g.add_as")]
    fn tree(&self, n: usize, fanout: usize, rng: &mut SimRng) -> AsGraph {
        assert!(n >= 1 && fanout >= 1);
        let mut g = AsGraph::new();
        g.add_as(
            Tier::Tier1,
            GeoPoint::new(self.world_km / 2.0, self.world_km / 2.0),
            self.world_km / 10.0,
        );
        for i in 1..n {
            let parent = AsId::from_index((i - 1) / fanout);
            // Children scatter near their parent.
            let pc = g.nodes[parent.idx()].geo_center;
            let p = GeoPoint::new(
                (pc.x_km + rng.f64_range(-0.15, 0.15) * self.world_km).clamp(0.0, self.world_km),
                (pc.y_km + rng.f64_range(-0.15, 0.15) * self.world_km).clamp(0.0, self.world_km),
            );
            let tier = if i <= fanout {
                Tier::Tier2
            } else {
                Tier::Tier3
            };
            let child = g.add_as(tier, p, self.world_km / 20.0);
            let lat = self.link_latency(&g, parent, child);
            g.add_transit(parent, child, lat, 5_000.0);
        }
        g
    }

    fn mesh(&self, n: usize, extra_edge_prob: f64, rng: &mut SimRng) -> AsGraph {
        assert!(n >= 2);
        let mut g = AsGraph::new();
        for _ in 0..n {
            let p = self.random_point(rng);
            g.add_as(Tier::Tier3, p, self.world_km / 20.0);
        }
        // Random spanning tree: connect each node to a random earlier one.
        for i in 1..n {
            let j = rng.index(i);
            let (a, b) = (AsId::from_index(j), AsId::from_index(i));
            let lat = self.link_latency(&g, a, b);
            g.add_peering(a, b, lat, 1_000.0);
        }
        // Extra edges.
        for i in 0..n {
            for j in (i + 1)..n {
                let (a, b) = (AsId::from_index(i), AsId::from_index(j));
                if g.link_between(a, b).is_none() && rng.chance(extra_edge_prob) {
                    let lat = self.link_latency(&g, a, b);
                    g.add_peering(a, b, lat, 1_000.0);
                }
            }
        }
        g
    }

    #[expect(clippy::indexing_slicing, reason = "ids from g.add_as; loops in range")]
    fn hierarchical(
        &self,
        tier1: usize,
        tier2_per_tier1: usize,
        tier3_per_tier2: usize,
        tier2_peering_prob: f64,
        tier3_peering_prob: f64,
        rng: &mut SimRng,
    ) -> AsGraph {
        assert!(tier1 >= 1);
        let mut g = AsGraph::new();
        let mut t1_ids = Vec::new();
        for _ in 0..tier1 {
            let p = self.random_point(rng);
            t1_ids.push(g.add_as(Tier::Tier1, p, self.world_km / 8.0));
        }
        // Tier-1 full mesh of peering (the settlement-free core).
        for i in 0..t1_ids.len() {
            for j in (i + 1)..t1_ids.len() {
                let lat = self.link_latency(&g, t1_ids[i], t1_ids[j]);
                g.add_peering(t1_ids[i], t1_ids[j], lat, 100_000.0);
            }
        }
        let mut t2_by_parent: Vec<Vec<AsId>> = vec![Vec::new(); tier1];
        let mut t3_by_parent: Vec<Vec<AsId>> = Vec::new();
        for (pi, &t1) in t1_ids.iter().enumerate() {
            for _ in 0..tier2_per_tier1 {
                let pc = g.nodes[t1.idx()].geo_center;
                let p = GeoPoint::new(
                    (pc.x_km + rng.f64_range(-0.2, 0.2) * self.world_km).clamp(0.0, self.world_km),
                    (pc.y_km + rng.f64_range(-0.2, 0.2) * self.world_km).clamp(0.0, self.world_km),
                );
                let t2 = g.add_as(Tier::Tier2, p, self.world_km / 15.0);
                let lat = self.link_latency(&g, t1, t2);
                g.add_transit(t1, t2, lat, 40_000.0);
                // Multi-home ~40% of Tier-2s to a second Tier-1.
                if t1_ids.len() > 1 && rng.chance(0.4) {
                    let mut alt = rng.pick(&t1_ids).to_owned();
                    if alt == t1 {
                        alt = t1_ids[(pi + 1) % t1_ids.len()];
                    }
                    if g.link_between(alt, t2).is_none() {
                        let lat = self.link_latency(&g, alt, t2);
                        g.add_transit(alt, t2, lat, 40_000.0);
                    }
                }
                t2_by_parent[pi].push(t2);
            }
        }
        // Tier-2 sibling peering.
        for siblings in &t2_by_parent {
            for i in 0..siblings.len() {
                for j in (i + 1)..siblings.len() {
                    if g.link_between(siblings[i], siblings[j]).is_none()
                        && rng.chance(tier2_peering_prob)
                    {
                        let lat = self.link_latency(&g, siblings[i], siblings[j]);
                        g.add_peering(siblings[i], siblings[j], lat, 10_000.0);
                    }
                }
            }
        }
        // Tier-3 locals.
        let all_t2: Vec<AsId> = t2_by_parent.iter().flatten().copied().collect();
        for &t2 in &all_t2 {
            let mut children = Vec::new();
            for _ in 0..tier3_per_tier2 {
                let pc = g.nodes[t2.idx()].geo_center;
                let p = GeoPoint::new(
                    (pc.x_km + rng.f64_range(-0.08, 0.08) * self.world_km)
                        .clamp(0.0, self.world_km),
                    (pc.y_km + rng.f64_range(-0.08, 0.08) * self.world_km)
                        .clamp(0.0, self.world_km),
                );
                let t3 = g.add_as(Tier::Tier3, p, self.world_km / 40.0);
                let lat = self.link_latency(&g, t2, t3);
                g.add_transit(t2, t3, lat, 10_000.0);
                children.push(t3);
            }
            // Local ISPs in the same region sometimes peer (this is exactly
            // the peering-agreement incentive §2.1 discusses).
            for i in 0..children.len() {
                for j in (i + 1)..children.len() {
                    if rng.chance(tier3_peering_prob) {
                        let lat = self.link_latency(&g, children[i], children[j]);
                        g.add_peering(children[i], children[j], lat, 1_000.0);
                    }
                }
            }
            t3_by_parent.push(children);
        }
        g
    }

    fn preferential(&self, n: usize, m: usize, rng: &mut SimRng) -> AsGraph {
        assert!(n >= 2 && m >= 1);
        let mut g = AsGraph::new();
        let m = m.min(n - 1);
        // Seed clique of m+1 Tier-1s, peered.
        let seed = m + 1;
        for _ in 0..seed.min(n) {
            let p = self.random_point(rng);
            g.add_as(Tier::Tier1, p, self.world_km / 10.0);
        }
        for i in 0..seed.min(n) {
            for j in (i + 1)..seed.min(n) {
                let (a, b) = (AsId::from_index(i), AsId::from_index(j));
                let lat = self.link_latency(&g, a, b);
                g.add_peering(a, b, lat, 100_000.0);
            }
        }
        // Degree-proportional attachment; endpoint list doubles as the
        // sampling urn.
        let mut urn: Vec<u16> = Vec::new();
        for l in &g.links {
            urn.push(l.a.0);
            urn.push(l.b.0);
        }
        for i in seed..n {
            let p = self.random_point(rng);
            let tier = if i < n / 10 { Tier::Tier2 } else { Tier::Tier3 };
            let new = g.add_as(tier, p, self.world_km / 30.0);
            let mut chosen: Vec<AsId> = Vec::new();
            let mut guard = 0;
            while chosen.len() < m && guard < 10_000 {
                guard += 1;
                let pick = AsId(*rng.pick(&urn));
                if pick != new && !chosen.contains(&pick) {
                    chosen.push(pick);
                }
            }
            for provider in chosen {
                let lat = self.link_latency(&g, provider, new);
                g.add_transit(provider, new, lat, 10_000.0);
                urn.push(provider.0);
                urn.push(new.0);
            }
        }
        g
    }
}

/// The exact 5-AS testlab spec of the reprinted study (§5 of \[1\]):
/// "Using 5 routers … we configure four different 5-AS topologies: ring,
/// star, tree and random mesh."
pub fn testlab_specs() -> Vec<(&'static str, TopologySpec)> {
    vec![
        ("ring", TopologySpec::new(TopologyKind::Ring { n: 5 })),
        ("star", TopologySpec::new(TopologyKind::Star { n: 5 })),
        (
            "tree",
            TopologySpec::new(TopologyKind::Tree { n: 5, fanout: 2 }),
        ),
        (
            "mesh",
            TopologySpec::new(TopologyKind::Mesh {
                n: 5,
                extra_edge_prob: 0.4,
            }),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::new(0xBEEF)
    }

    #[test]
    fn ring_structure() {
        let g = TopologySpec::new(TopologyKind::Ring { n: 5 }).build(&mut rng());
        assert_eq!(g.len(), 5);
        assert_eq!(g.links.len(), 5);
        assert!(g.is_connected(None));
        for i in 0..5 {
            assert_eq!(g.incident(AsId(i)).len(), 2);
        }
    }

    #[test]
    fn star_structure() {
        let g = TopologySpec::new(TopologyKind::Star { n: 5 }).build(&mut rng());
        assert_eq!(g.links.len(), 4);
        assert_eq!(g.incident(AsId(0)).len(), 4);
        for i in 1..5 {
            assert_eq!(g.incident(AsId(i)).len(), 1);
        }
    }

    #[test]
    fn tree_structure() {
        let g = TopologySpec::new(TopologyKind::Tree { n: 7, fanout: 2 }).build(&mut rng());
        assert_eq!(g.links.len(), 6);
        assert!(g.is_connected(None));
        let (transit, peering) = g.link_counts();
        assert_eq!((transit, peering), (6, 0));
        // Root has no providers; leaves have exactly one.
        assert!(g.providers(AsId(0)).is_empty());
        assert_eq!(g.providers(AsId(6)), vec![AsId(2)]);
    }

    #[test]
    fn mesh_is_connected_with_zero_extras() {
        let g = TopologySpec::new(TopologyKind::Mesh {
            n: 30,
            extra_edge_prob: 0.0,
        })
        .build(&mut rng());
        assert_eq!(g.links.len(), 29); // exactly the spanning tree
        assert!(g.is_connected(None));
    }

    #[test]
    fn mesh_extras_increase_edges() {
        let g = TopologySpec::new(TopologyKind::Mesh {
            n: 30,
            extra_edge_prob: 0.3,
        })
        .build(&mut rng());
        assert!(g.links.len() > 29);
        assert!(g.is_connected(None));
    }

    #[test]
    fn hierarchical_structure() {
        let g = TopologySpec::new(TopologyKind::Hierarchical {
            tier1: 3,
            tier2_per_tier1: 4,
            tier3_per_tier2: 3,
            tier2_peering_prob: 0.3,
            tier3_peering_prob: 0.3,
        })
        .build(&mut rng());
        assert_eq!(g.len(), 3 + 12 + 36);
        assert!(g.is_connected(None));
        // The Tier-1 core is a full peering mesh.
        for i in 0..3 {
            for j in (i + 1)..3 {
                assert_eq!(
                    g.relationship(AsId(i), AsId(j)),
                    Some(crate::asgraph::Relationship::PeerWith)
                );
            }
        }
        // Every Tier-2/Tier-3 AS has at least one provider.
        for node in &g.nodes {
            if node.tier != Tier::Tier1 {
                assert!(
                    !g.providers(node.id).is_empty(),
                    "{} has no provider",
                    node.id
                );
            }
        }
    }

    #[test]
    fn preferential_attachment_degree_skew() {
        let g = TopologySpec::new(TopologyKind::PreferentialAttachment { n: 200, m: 2 })
            .build(&mut rng());
        assert!(g.is_connected(None));
        let mut degrees: Vec<usize> = (0..g.len())
            .map(|i| g.incident(AsId::from_index(i)).len())
            .collect();
        degrees.sort_unstable_by(|a, b| b.cmp(a));
        // Heavy-tailed: the max degree should far exceed the median.
        assert!(degrees[0] >= 4 * degrees[g.len() / 2]);
    }

    #[test]
    fn testlab_specs_build() {
        for (name, spec) in testlab_specs() {
            let g = spec.build(&mut rng());
            assert_eq!(g.len(), 5, "{name}");
            assert!(g.is_connected(None), "{name}");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = TopologySpec::new(TopologyKind::Hierarchical {
            tier1: 2,
            tier2_per_tier1: 3,
            tier3_per_tier2: 2,
            tier2_peering_prob: 0.5,
            tier3_peering_prob: 0.5,
        });
        let a = spec.build(&mut SimRng::new(7));
        let b = spec.build(&mut SimRng::new(7));
        assert_eq!(a.links.len(), b.links.len());
        for (la, lb) in a.links.iter().zip(&b.links) {
            assert_eq!((la.a, la.b, la.latency_us), (lb.a, lb.b, lb.latency_us));
        }
    }
}
