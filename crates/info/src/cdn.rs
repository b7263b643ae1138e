//! CDN-provided locality information (§3.1), after Ono \[5\].
//!
//! "The actual CDN servers which are used for a certain time frame are
//! those which have the least load and shortest paths to the requesting
//! peer. This fact is exploited to infer locality information."
//!
//! [`SimulatedCdn`] places replica servers in selected ASes and redirects
//! each request to a replica with probability decreasing in AS-hop
//! distance, perturbed by load noise. [`OnoEstimator`] has each peer build
//! a *ratio map* (empirical redirection distribution) and scores pairwise
//! proximity as one minus the cosine similarity of the maps — peers that
//! the CDN sends to the same replicas are close, without the peers ever
//! measuring each other.

use crate::provider::ProximityEstimator;
use std::collections::BTreeMap;
use uap_net::{AsId, HostId, Underlay};
use uap_sim::SimRng;

/// A simulated content distribution network.
pub struct SimulatedCdn {
    /// ASes hosting a replica server.
    pub replica_ases: Vec<AsId>,
    /// Redirection steepness: weight ∝ (1 + as_hops)^(−gamma).
    pub gamma: f64,
    /// Relative load-noise amplitude on replica weights per request.
    pub load_noise: f64,
    redirections_served: u64,
}

impl SimulatedCdn {
    /// Deploys replicas in `k` ASes spread deterministically over the
    /// topology (every `n/k`-th AS), the way a CDN covers regions.
    pub fn deploy(underlay: &Underlay, k: usize) -> SimulatedCdn {
        let n = underlay.n_ases();
        let k = k.clamp(1, n);
        let replica_ases = (0..k).map(|i| AsId::from_index(i * n / k)).collect();
        SimulatedCdn {
            replica_ases,
            gamma: 2.0,
            load_noise: 0.3,
            redirections_served: 0,
        }
    }

    /// Serves one request from `h`: returns the replica index the CDN
    /// redirects to.
    pub fn redirect(&mut self, underlay: &Underlay, h: HostId, rng: &mut SimRng) -> usize {
        self.redirections_served += 1;
        let my_as = underlay.hosts.as_of(h);
        let weights: Vec<f64> = self
            .replica_ases
            .iter()
            .map(|&r| {
                let hops = underlay.routing().as_hops(my_as, r).unwrap_or(u32::MAX / 2) as f64;
                let proximity_w = (1.0 + hops).powf(-self.gamma);
                let noise = 1.0 + rng.f64_range(-self.load_noise, self.load_noise);
                proximity_w * noise.max(0.01)
            })
            .collect();
        let total: f64 = weights.iter().sum();
        let mut u = rng.f64() * total;
        for (i, w) in weights.iter().enumerate() {
            u -= w;
            if u <= 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// Total redirections served.
    pub fn redirections_served(&self) -> u64 {
        self.redirections_served
    }
}

/// One peer's empirical redirection distribution.
#[derive(Clone, Debug, PartialEq)]
pub struct RatioMap {
    /// Fraction of requests sent to each replica (sums to 1).
    pub ratios: Vec<f64>,
}

impl RatioMap {
    /// Cosine similarity with another map, in `[0, 1]`.
    pub fn cosine(&self, other: &RatioMap) -> f64 {
        let dot: f64 = self
            .ratios
            .iter()
            .zip(&other.ratios)
            .map(|(a, b)| a * b)
            .sum();
        let na: f64 = self.ratios.iter().map(|a| a * a).sum::<f64>().sqrt();
        let nb: f64 = other.ratios.iter().map(|b| b * b).sum::<f64>().sqrt();
        if na == 0.0 || nb == 0.0 {
            0.0
        } else {
            (dot / (na * nb)).clamp(0.0, 1.0)
        }
    }
}

/// The Ono-style proximity estimator: compares peers' CDN ratio maps.
pub struct OnoEstimator<'a> {
    underlay: &'a Underlay,
    cdn: SimulatedCdn,
    /// Requests each peer samples to build its ratio map.
    pub samples_per_peer: usize,
    maps: BTreeMap<HostId, RatioMap>,
    messages: u64,
}

impl<'a> OnoEstimator<'a> {
    /// Creates the estimator over a deployed CDN.
    pub fn new(underlay: &'a Underlay, cdn: SimulatedCdn, samples_per_peer: usize) -> Self {
        OnoEstimator {
            underlay,
            cdn,
            samples_per_peer,
            maps: BTreeMap::new(),
            messages: 0,
        }
    }

    /// The ratio map of `h`, sampling it on first use. Sampling costs one
    /// message per CDN request (the DNS lookup Ono piggybacks on).
    #[expect(clippy::indexing_slicing, reason = "redirect < replica_ases.len()")]
    pub fn ratio_map(&mut self, h: HostId, rng: &mut SimRng) -> RatioMap {
        if let Some(m) = self.maps.get(&h) {
            return m.clone();
        }
        let mut counts = vec![0usize; self.cdn.replica_ases.len()];
        for _ in 0..self.samples_per_peer {
            let r = self.cdn.redirect(self.underlay, h, rng);
            counts[r] += 1;
            self.messages += 1;
        }
        let total = self.samples_per_peer.max(1) as f64;
        let map = RatioMap {
            ratios: counts.iter().map(|&c| c as f64 / total).collect(),
        };
        self.maps.insert(h, map.clone());
        map
    }
}

impl ProximityEstimator for OnoEstimator<'_> {
    fn proximity(&mut self, a: HostId, b: HostId, rng: &mut SimRng) -> f64 {
        let ma = self.ratio_map(a, rng);
        let mb = self.ratio_map(b, rng);
        // Exchanging ratio maps costs one message pair.
        self.messages += 2;
        1.0 - ma.cosine(&mb)
    }

    fn overhead_messages(&self) -> u64 {
        self.messages
    }

    fn name(&self) -> &'static str {
        "cdn-ono"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uap_net::{PopulationSpec, TopologyKind, TopologySpec, Underlay, UnderlayConfig};

    fn underlay() -> Underlay {
        let mut rng = SimRng::new(11);
        let g = TopologySpec::new(TopologyKind::Hierarchical {
            tier1: 2,
            tier2_per_tier1: 3,
            tier3_per_tier2: 3,
            tier2_peering_prob: 0.2,
            tier3_peering_prob: 0.2,
        })
        .build(&mut rng);
        Underlay::build(
            g,
            &PopulationSpec::leaf(200),
            UnderlayConfig::default(),
            &mut rng,
        )
    }

    #[test]
    fn redirections_favor_close_replicas() {
        let u = underlay();
        let mut cdn = SimulatedCdn::deploy(&u, 4);
        let mut rng = SimRng::new(12);
        let h = HostId(0);
        let my_as = u.hosts.as_of(h);
        let mut counts = vec![0usize; cdn.replica_ases.len()];
        for _ in 0..2_000 {
            counts[cdn.redirect(&u, h, &mut rng)] += 1;
        }
        // The replica with the fewest AS hops should get the most requests.
        let hops: Vec<u32> = cdn
            .replica_ases
            .iter()
            .map(|&r| u.routing().as_hops(my_as, r).unwrap())
            .collect();
        let closest = (0..hops.len()).min_by_key(|&i| hops[i]).unwrap();
        let busiest = (0..counts.len()).max_by_key(|&i| counts[i]).unwrap();
        assert_eq!(hops[closest], hops[busiest], "{hops:?} {counts:?}");
        assert_eq!(cdn.redirections_served(), 2_000);
    }

    #[test]
    fn cosine_properties() {
        let a = RatioMap {
            ratios: vec![0.5, 0.5, 0.0],
        };
        let b = RatioMap {
            ratios: vec![0.0, 0.0, 1.0],
        };
        assert!((a.cosine(&a) - 1.0).abs() < 1e-12);
        assert_eq!(a.cosine(&b), 0.0);
        assert_eq!(a.cosine(&b), b.cosine(&a));
        let zero = RatioMap {
            ratios: vec![0.0, 0.0, 0.0],
        };
        assert_eq!(a.cosine(&zero), 0.0);
    }

    #[test]
    fn same_as_peers_look_similar() {
        let u = underlay();
        let cdn = SimulatedCdn::deploy(&u, 4);
        let mut ono = OnoEstimator::new(&u, cdn, 100);
        let mut rng = SimRng::new(13);
        // Find two same-AS peers and one far peer.
        let a = HostId(0);
        let my_as = u.hosts.as_of(a);
        let same = u
            .hosts
            .in_as(my_as)
            .iter()
            .copied()
            .find(|&h| h != a)
            .expect("need same-AS peer");
        let far = u
            .hosts
            .ids()
            .find(|&h| {
                u.routing()
                    .as_hops(my_as, u.hosts.as_of(h))
                    .map(|d| d >= 3)
                    .unwrap_or(false)
            })
            .expect("need far peer");
        let p_same = ono.proximity(a, same, &mut rng);
        let p_far = ono.proximity(a, far, &mut rng);
        assert!(
            p_same < p_far,
            "same-AS dissimilarity {p_same} not < far {p_far}"
        );
        assert!(ono.overhead_messages() > 0);
    }

    #[test]
    fn ratio_maps_are_cached() {
        let u = underlay();
        let cdn = SimulatedCdn::deploy(&u, 3);
        let mut ono = OnoEstimator::new(&u, cdn, 50);
        let mut rng = SimRng::new(14);
        let m1 = ono.ratio_map(HostId(1), &mut rng);
        let msgs = ono.overhead_messages();
        let m2 = ono.ratio_map(HostId(1), &mut rng);
        assert_eq!(m1, m2);
        assert_eq!(ono.overhead_messages(), msgs);
    }

    #[test]
    fn deploy_clamps_replica_count() {
        let u = underlay();
        let cdn = SimulatedCdn::deploy(&u, 10_000);
        assert_eq!(cdn.replica_ases.len(), u.n_ases());
        let cdn1 = SimulatedCdn::deploy(&u, 0);
        assert_eq!(cdn1.replica_ases.len(), 1);
    }
}
