//! Vivaldi — decentralized network coordinates (Dabek et al. \[7\]).
//!
//! The paper calls Vivaldi "the most prominent" latency prediction method:
//! every node keeps a synthetic coordinate and nudges it after each RTT
//! sample as if connected to the sampled peer by a spring whose rest length
//! is the measured RTT. No landmarks, no central administration — each
//! node only measures "latencies to just a small set of other nodes"
//! (typically its overlay neighbors).
//!
//! This implementation follows the adaptive-timestep algorithm of the
//! Vivaldi paper, including the optional *height* component that models the
//! access-link delay all of a host's paths share.

use crate::matrix::l2;
use uap_sim::SimRng;

/// Vivaldi tuning parameters.
#[derive(Clone, Copy, Debug)]
pub struct VivaldiConfig {
    /// Coordinate dimensionality (the paper's evaluations use 2–5).
    pub dims: usize,
    /// Adaptive timestep constant `c_c` (fraction of the distance-to-rest
    /// moved per sample).
    pub cc: f64,
    /// Error-smoothing constant `c_e`.
    pub ce: f64,
    /// Whether to carry a height (access-link) component.
    pub use_height: bool,
}

impl Default for VivaldiConfig {
    fn default() -> Self {
        VivaldiConfig {
            dims: 3,
            cc: 0.25,
            ce: 0.25,
            use_height: true,
        }
    }
}

/// One node's Vivaldi state.
#[derive(Clone, Debug)]
pub struct VivaldiNode {
    /// Euclidean part of the coordinate (milliseconds).
    pub coord: Vec<f64>,
    /// Height component in milliseconds (0 when disabled).
    pub height: f64,
    /// Local error estimate in `[0, 1]`-ish range (starts at 1 = "know
    /// nothing").
    pub error: f64,
    cfg: VivaldiConfig,
    samples: u64,
}

impl VivaldiNode {
    /// A fresh node at the origin with maximal error.
    pub fn new(cfg: VivaldiConfig) -> Self {
        VivaldiNode {
            coord: vec![0.0; cfg.dims],
            height: if cfg.use_height { 0.1 } else { 0.0 },
            error: 1.0,
            cfg,
            samples: 0,
        }
    }

    /// Number of RTT samples absorbed.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Predicted RTT in milliseconds to another node.
    pub fn predict_ms(&self, other: &VivaldiNode) -> f64 {
        l2(&self.coord, &other.coord) + self.height + other.height
    }

    /// Absorbs one RTT observation (milliseconds) of `remote`.
    ///
    /// `rng` is only used to pick a random direction when the two
    /// coordinates coincide (the standard bootstrap trick).
    pub fn update(&mut self, remote: &VivaldiNode, rtt_ms: f64, rng: &mut SimRng) {
        if !(rtt_ms.is_finite()) || rtt_ms <= 0.0 {
            return;
        }
        self.samples += 1;
        // Sample confidence balance: how much we trust ourselves vs them.
        let w = if self.error + remote.error > 0.0 {
            self.error / (self.error + remote.error)
        } else {
            0.5
        };
        let dist = self.predict_ms(remote);
        let rel_err = (dist - rtt_ms).abs() / rtt_ms;
        // Exponentially-weighted error update.
        self.error =
            (rel_err * self.cfg.ce * w + self.error * (1.0 - self.cfg.ce * w)).clamp(0.0, 10.0);
        // Force along the unit vector from remote to self, magnitude
        // (rtt - dist), applied with the adaptive timestep δ = c_c · w.
        let delta = self.cfg.cc * w;
        let mut dir: Vec<f64> = self
            .coord
            .iter()
            .zip(&remote.coord)
            .map(|(a, b)| a - b)
            .collect();
        let mut norm = dir.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm < 1e-9 {
            // Coincident coordinates: push in a random direction.
            for d in &mut dir {
                *d = rng.f64() - 0.5;
            }
            norm = dir.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-9);
        }
        let force = rtt_ms - dist;
        for (c, d) in self.coord.iter_mut().zip(&dir) {
            *c += delta * force * d / norm;
        }
        if self.cfg.use_height {
            // Heights absorb the shared component: they stretch when the
            // spring is compressed, like the Euclidean part, but along the
            // always-positive height axis.
            self.height = (self.height + delta * force * self.height / dist.max(1e-9)).max(0.1);
        }
    }
}

/// Runs `rounds` update rounds over a full RTT matrix: in each round every
/// node absorbs one sample from every other node, in index order. Returns
/// the final nodes. This is the centralized driver used by experiments and
/// tests; the overlay crates drive updates from live protocol traffic
/// instead.
///
/// The sweep is deliberately systematic rather than sampling one random
/// peer per round: on small topologies, single-random-peer gossip can
/// settle into a *folded* spring equilibrium (a local minimum of the
/// spring energy) that the shrinking adaptive timestep then freezes in
/// place permanently. Balanced all-pairs updates escape those folds. The
/// RNG is still needed for the coincident-coordinate bootstrap kick in
/// [`VivaldiNode::update`].
#[expect(clippy::indexing_slicing, reason = "i, j < n; rtt_ms is n × n")]
pub fn gossip_converge(
    rtt_ms: &[Vec<f64>],
    cfg: VivaldiConfig,
    rounds: usize,
    rng: &mut SimRng,
) -> Vec<VivaldiNode> {
    let n = rtt_ms.len();
    let mut nodes: Vec<VivaldiNode> = (0..n).map(|_| VivaldiNode::new(cfg)).collect();
    for _ in 0..rounds {
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let remote = nodes[j].clone();
                nodes[i].update(&remote, rtt_ms[i][j], rng);
            }
        }
    }
    nodes
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RTT matrix of 4 nodes at the corners of a 100 ms square (diagonal
    /// ≈ 141 ms) — perfectly embeddable in 2D.
    fn square_rtts() -> Vec<Vec<f64>> {
        let pts = [(0.0, 0.0), (100.0, 0.0), (0.0, 100.0), (100.0, 100.0)];
        (0..4)
            .map(|i| {
                (0..4)
                    .map(|j| {
                        let (xi, yi): (f64, f64) = pts[i];
                        let (xj, yj) = pts[j];
                        ((xi - xj).powi(2) + (yi - yj).powi(2)).sqrt()
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn converges_on_embeddable_topology() {
        let rtts = square_rtts();
        let cfg = VivaldiConfig {
            dims: 2,
            use_height: false,
            ..Default::default()
        };
        let mut rng = SimRng::new(1);
        let nodes = gossip_converge(&rtts, cfg, 400, &mut rng);
        for i in 0..4 {
            for j in 0..4 {
                if i == j {
                    continue;
                }
                let p = nodes[i].predict_ms(&nodes[j]);
                let e = (p - rtts[i][j]).abs() / rtts[i][j];
                assert!(
                    e < 0.15,
                    "pair ({i},{j}): predicted {p}, true {}",
                    rtts[i][j]
                );
            }
        }
    }

    #[test]
    fn error_estimate_decreases() {
        let rtts = square_rtts();
        let cfg = VivaldiConfig {
            dims: 2,
            use_height: false,
            ..Default::default()
        };
        let mut rng = SimRng::new(2);
        let nodes = gossip_converge(&rtts, cfg, 300, &mut rng);
        for n in &nodes {
            assert!(n.error < 0.5, "error {}", n.error);
            assert!(n.samples() > 0);
        }
    }

    #[test]
    fn ignores_garbage_samples() {
        let cfg = VivaldiConfig::default();
        let mut a = VivaldiNode::new(cfg);
        let b = VivaldiNode::new(cfg);
        let mut rng = SimRng::new(3);
        let before = a.coord.clone();
        a.update(&b, -5.0, &mut rng);
        a.update(&b, f64::NAN, &mut rng);
        a.update(&b, 0.0, &mut rng);
        assert_eq!(a.coord, before);
        assert_eq!(a.samples(), 0);
    }

    #[test]
    fn coincident_nodes_separate() {
        let cfg = VivaldiConfig {
            dims: 2,
            use_height: false,
            ..Default::default()
        };
        let mut a = VivaldiNode::new(cfg);
        let b = VivaldiNode::new(cfg);
        let mut rng = SimRng::new(4);
        a.update(&b, 50.0, &mut rng);
        assert!(l2(&a.coord, &b.coord) > 0.0);
    }

    #[test]
    fn height_stays_positive() {
        let cfg = VivaldiConfig {
            dims: 2,
            use_height: true,
            ..Default::default()
        };
        let mut rng = SimRng::new(5);
        let mut a = VivaldiNode::new(cfg);
        let b = VivaldiNode::new(cfg);
        for _ in 0..200 {
            a.update(&b, 10.0, &mut rng);
        }
        assert!(a.height >= 0.1);
    }

    #[test]
    fn prediction_is_symmetric() {
        let cfg = VivaldiConfig::default();
        let mut rng = SimRng::new(6);
        let mut a = VivaldiNode::new(cfg);
        let mut b = VivaldiNode::new(cfg);
        for _ in 0..50 {
            let bc = b.clone();
            a.update(&bc, 80.0, &mut rng);
            let ac = a.clone();
            b.update(&ac, 80.0, &mut rng);
        }
        assert!((a.predict_ms(&b) - b.predict_ms(&a)).abs() < 1e-12);
    }
}
