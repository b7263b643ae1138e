//! Overlay-graph structure metrics.
//!
//! Figure 6 of the paper contrasts "(a) uniform random neighbor selection
//! and (b) biased neighbor selection": the biased overlay clusters along
//! AS boundaries with "a minimal number of inter-AS connections necessary
//! to keep the network connected". [`OverlayStats`] quantifies exactly
//! that: intra-AS edge fraction, inter-AS edge count, connectivity of the
//! online subgraph, and degree statistics.

use std::collections::BTreeMap;
use uap_net::{HostId, Underlay};

/// Structural summary of one overlay snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct OverlayStats {
    /// Total edges.
    pub edges: usize,
    /// Edges whose endpoints share an AS.
    pub intra_as_edges: usize,
    /// Edges crossing AS boundaries.
    pub inter_as_edges: usize,
    /// Nodes with at least one edge.
    pub connected_nodes: usize,
    /// Connected components among nodes with degree ≥ 1.
    pub components: usize,
    /// Mean degree over connected nodes.
    pub mean_degree: f64,
    /// Maximum degree.
    pub max_degree: usize,
    /// Newman modularity of the AS partition (clustered overlays score
    /// high; random overlays near zero).
    pub as_modularity: f64,
}

impl OverlayStats {
    /// Fraction of edges that stay inside an AS.
    pub fn intra_fraction(&self) -> f64 {
        if self.edges == 0 {
            0.0
        } else {
            self.intra_as_edges as f64 / self.edges as f64
        }
    }

    /// Computes the statistics for an edge list over an underlay.
    #[expect(clippy::indexing_slicing, reason = "index maps endpoints into parent")]
    pub fn compute(underlay: &Underlay, edges: &[(HostId, HostId)]) -> OverlayStats {
        let mut degree: BTreeMap<HostId, usize> = BTreeMap::new();
        let mut intra = 0usize;
        for &(a, b) in edges {
            *degree.entry(a).or_insert(0) += 1;
            *degree.entry(b).or_insert(0) += 1;
            if underlay.same_as(a, b) {
                intra += 1;
            }
        }
        let connected_nodes = degree.len();
        let mean_degree = if connected_nodes == 0 {
            0.0
        } else {
            2.0 * edges.len() as f64 / connected_nodes as f64
        };
        let max_degree = degree.values().copied().max().unwrap_or(0);

        // Union-find over participating nodes.
        let ids: Vec<HostId> = degree.keys().copied().collect();
        let index: BTreeMap<HostId, usize> = ids.iter().enumerate().map(|(i, &h)| (h, i)).collect();
        let mut parent: Vec<usize> = (0..ids.len()).collect();
        fn find(parent: &mut [usize], x: usize) -> usize {
            let mut r = x;
            while parent[r] != r {
                r = parent[r];
            }
            let mut c = x;
            while parent[c] != r {
                let next = parent[c];
                parent[c] = r;
                c = next;
            }
            r
        }
        for &(a, b) in edges {
            let (ra, rb) = (find(&mut parent, index[&a]), find(&mut parent, index[&b]));
            if ra != rb {
                parent[ra] = rb;
            }
        }
        let mut roots: Vec<usize> = (0..ids.len()).map(|i| find(&mut parent, i)).collect();
        roots.sort_unstable();
        roots.dedup();
        let components = roots.len();

        // Newman modularity with the AS partition: Q = Σ_c (e_c/m −
        // (d_c/2m)²), where e_c is edges inside community c and d_c the
        // total degree of its nodes.
        let m = edges.len() as f64;
        let as_modularity = if m == 0.0 {
            0.0
        } else {
            let mut e_in: BTreeMap<u16, f64> = BTreeMap::new();
            let mut deg_sum: BTreeMap<u16, f64> = BTreeMap::new();
            for &(a, b) in edges {
                let (aa, ab) = (underlay.hosts.as_of(a).0, underlay.hosts.as_of(b).0);
                if aa == ab {
                    *e_in.entry(aa).or_insert(0.0) += 1.0;
                }
                *deg_sum.entry(aa).or_insert(0.0) += 1.0;
                *deg_sum.entry(ab).or_insert(0.0) += 1.0;
            }
            deg_sum
                .iter()
                .map(|(asn, &d)| {
                    let e = e_in.get(asn).copied().unwrap_or(0.0);
                    e / m - (d / (2.0 * m)).powi(2)
                })
                .sum()
        };

        OverlayStats {
            edges: edges.len(),
            intra_as_edges: intra,
            inter_as_edges: edges.len() - intra,
            connected_nodes,
            components,
            mean_degree,
            max_degree,
            as_modularity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uap_net::{PopulationSpec, TopologyKind, TopologySpec, Underlay, UnderlayConfig};
    use uap_sim::SimRng;

    fn underlay() -> Underlay {
        let mut rng = SimRng::new(101);
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
            &PopulationSpec::leaf(100),
            UnderlayConfig::default(),
            &mut rng,
        )
    }

    #[test]
    fn empty_graph() {
        let u = underlay();
        let s = OverlayStats::compute(&u, &[]);
        assert_eq!(s.edges, 0);
        assert_eq!(s.components, 0);
        assert_eq!(s.intra_fraction(), 0.0);
        assert_eq!(s.as_modularity, 0.0);
    }

    #[test]
    fn classifies_edges() {
        let u = underlay();
        // Find one intra and one inter pair.
        let a0 = HostId(0);
        let same = u
            .hosts
            .ids()
            .find(|&h| h != a0 && u.same_as(a0, h))
            .unwrap();
        let diff = u.hosts.ids().find(|&h| !u.same_as(a0, h)).unwrap();
        let s = OverlayStats::compute(&u, &[(a0, same), (a0, diff)]);
        assert_eq!(s.edges, 2);
        assert_eq!(s.intra_as_edges, 1);
        assert_eq!(s.inter_as_edges, 1);
        assert_eq!(s.intra_fraction(), 0.5);
        assert_eq!(s.connected_nodes, 3);
        assert_eq!(s.components, 1);
        assert_eq!(s.max_degree, 2);
    }

    #[test]
    fn component_counting() {
        let u = underlay();
        let e = vec![
            (HostId(0), HostId(1)),
            (HostId(1), HostId(2)),
            (HostId(10), HostId(11)),
        ];
        let s = OverlayStats::compute(&u, &e);
        assert_eq!(s.components, 2);
        assert_eq!(s.connected_nodes, 5);
    }

    #[test]
    fn modularity_separates_clustered_from_random() {
        let u = underlay();
        let mut rng = SimRng::new(102);
        // Clustered: ring within each AS.
        let mut clustered = Vec::new();
        for a in 0..u.n_ases() {
            let members = u.hosts.in_as(uap_net::AsId::from_index(a));
            for w in members.windows(2) {
                clustered.push((w[0], w[1]));
            }
        }
        // Random with the same edge count.
        let mut random = Vec::new();
        while random.len() < clustered.len() {
            let a = HostId::from_index(rng.index(100));
            let b = HostId::from_index(rng.index(100));
            if a != b {
                random.push((a, b));
            }
        }
        let sc = OverlayStats::compute(&u, &clustered);
        let sr = OverlayStats::compute(&u, &random);
        assert!(sc.as_modularity > 0.5, "clustered Q = {}", sc.as_modularity);
        assert!(
            sr.as_modularity < 0.3,
            "random Q = {} suspiciously high",
            sr.as_modularity
        );
        assert!(sc.intra_fraction() > sr.intra_fraction());
    }
}
