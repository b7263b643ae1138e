//! Population-wide Vivaldi service (§3.2, prediction methods).
//!
//! Maintains one [`VivaldiNode`] per host and drives updates from periodic
//! gossip rounds against the underlay's measured RTTs. Implements
//! [`ProximityEstimator`] so the usage layer can swap it in wherever a
//! pinger would go — at a fraction of the measurement overhead, which is
//! the paper's argument for prediction methods.

use crate::provider::ProximityEstimator;
use uap_coords::{EmbeddingQuality, VivaldiConfig, VivaldiNode};
use uap_net::{HostId, Underlay};
use uap_sim::SimRng;

/// Vivaldi coordinates for every host in an underlay.
pub struct VivaldiService {
    nodes: Vec<VivaldiNode>,
    messages: u64,
    rounds: u64,
}

impl VivaldiService {
    /// Creates fresh coordinates for `n_hosts` hosts.
    pub fn new(n_hosts: usize, cfg: VivaldiConfig) -> VivaldiService {
        VivaldiService {
            nodes: (0..n_hosts).map(|_| VivaldiNode::new(cfg)).collect(),
            messages: 0,
            rounds: 0,
        }
    }

    /// One gossip round: every host samples `samples_per_node` random peers
    /// (2 messages each: probe + reply carrying the remote coordinate).
    #[expect(clippy::indexing_slicing, reason = "i, j < n = nodes.len()")]
    pub fn run_round(&mut self, underlay: &Underlay, samples_per_node: usize, rng: &mut SimRng) {
        self.rounds += 1;
        let n = self.nodes.len();
        if n < 2 {
            return;
        }
        for i in 0..n {
            for _ in 0..samples_per_node {
                let j = rng.index(n);
                if i == j {
                    continue;
                }
                let rtt_us = match underlay.measured_rtt_us(
                    HostId::from_index(i),
                    HostId::from_index(j),
                    rng,
                ) {
                    Some(r) => r,
                    None => continue,
                };
                self.messages += 2;
                let remote = self.nodes[j].clone();
                self.nodes[i].update(&remote, rtt_us as f64 / 1_000.0, rng);
            }
        }
    }

    /// Runs `rounds` gossip rounds.
    pub fn converge(
        &mut self,
        underlay: &Underlay,
        rounds: usize,
        samples_per_node: usize,
        rng: &mut SimRng,
    ) {
        for _ in 0..rounds {
            self.run_round(underlay, samples_per_node, rng);
        }
    }

    /// Predicted RTT between two hosts in microseconds.
    #[expect(clippy::indexing_slicing, reason = "one node per underlay host")]
    pub fn predict_us(&self, a: HostId, b: HostId) -> f64 {
        self.nodes[a.idx()].predict_ms(&self.nodes[b.idx()]) * 1_000.0
    }

    /// The coordinate of one host.
    #[expect(clippy::indexing_slicing, reason = "one node per underlay host")]
    pub fn node(&self, h: HostId) -> &VivaldiNode {
        &self.nodes[h.idx()]
    }

    /// Gossip rounds performed.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Evaluates prediction accuracy on `n_pairs` random host pairs.
    pub fn quality(
        &self,
        underlay: &Underlay,
        n_pairs: usize,
        rng: &mut SimRng,
    ) -> EmbeddingQuality {
        let n = self.nodes.len();
        let pairs: Vec<(f64, f64)> = (0..n_pairs)
            .filter_map(|_| {
                let a = HostId::from_index(rng.index(n));
                let b = HostId::from_index(rng.index(n));
                if a == b {
                    return None;
                }
                let actual = underlay.rtt_us(a, b)? as f64;
                Some((self.predict_us(a, b), actual))
            })
            .collect();
        EmbeddingQuality::evaluate(&pairs)
    }
}

impl ProximityEstimator for VivaldiService {
    fn proximity(&mut self, a: HostId, b: HostId, _rng: &mut SimRng) -> f64 {
        // Prediction is free: the coordinates are already maintained.
        self.predict_us(a, b)
    }

    fn overhead_messages(&self) -> u64 {
        self.messages
    }

    fn name(&self) -> &'static str {
        "vivaldi"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uap_net::{NetParams, Underlay};

    fn underlay() -> Underlay {
        NetParams {
            tier1: 2,
            tier2_per_tier1: 2,
            tier3_per_tier2: 2,
            n_hosts: 80,
            seed: 51,
        }
        .build()
    }

    #[test]
    fn convergence_improves_quality() {
        let u = underlay();
        let mut svc = VivaldiService::new(u.n_hosts(), VivaldiConfig::default());
        let mut rng = SimRng::new(52);
        let before = svc.quality(&u, 300, &mut rng);
        svc.converge(&u, 40, 4, &mut rng);
        let after = svc.quality(&u, 300, &mut rng);
        assert!(
            after.median_rel_err < before.median_rel_err,
            "median {} -> {}",
            before.median_rel_err,
            after.median_rel_err
        );
        assert!(
            after.median_rel_err < 0.5,
            "median {}",
            after.median_rel_err
        );
    }

    #[test]
    fn overhead_scales_with_rounds_and_samples() {
        let u = underlay();
        let mut svc = VivaldiService::new(u.n_hosts(), VivaldiConfig::default());
        let mut rng = SimRng::new(53);
        svc.run_round(&u, 2, &mut rng);
        let one = svc.overhead_messages();
        // <= 2 msgs * 2 samples * 80 hosts (self-draws skipped).
        assert!(one <= 320 && one > 200, "overhead {one}");
        svc.run_round(&u, 2, &mut rng);
        assert!(svc.overhead_messages() > one);
        assert_eq!(svc.rounds(), 2);
    }

    #[test]
    fn ranking_correlates_with_underlay_rtt() {
        let u = underlay();
        let mut svc = VivaldiService::new(u.n_hosts(), VivaldiConfig::default());
        let mut rng = SimRng::new(54);
        svc.converge(&u, 50, 4, &mut rng);
        let from = HostId(0);
        let candidates: Vec<HostId> = (1..40).map(HostId).collect();
        let ranked = svc.rank(from, &candidates, &mut rng);
        // The mean true RTT of the top 5 must beat the bottom 5.
        let rtt = |h: HostId| u.rtt_us(from, h).unwrap() as f64;
        let top: f64 = ranked[..5].iter().map(|&h| rtt(h)).sum::<f64>() / 5.0;
        let bottom: f64 = ranked[ranked.len() - 5..]
            .iter()
            .map(|&h| rtt(h))
            .sum::<f64>()
            / 5.0;
        assert!(top < bottom, "top {top} not < bottom {bottom}");
    }

    #[test]
    fn tiny_population_is_safe() {
        let u = underlay();
        let mut svc = VivaldiService::new(1, VivaldiConfig::default());
        let mut rng = SimRng::new(55);
        svc.run_round(&u, 3, &mut rng);
        assert_eq!(svc.overhead_messages(), 0);
    }
}
