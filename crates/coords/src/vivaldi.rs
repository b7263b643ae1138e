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
//! Vivaldi paper in [`DIMS`] dimensions plus the *height* component that
//! models the access-link delay all of a host's paths share.

use crate::matrix::l2;
use uap_sim::SimRng;

/// Adaptive timestep constant `c_c` (fraction of the distance-to-rest
/// moved per sample).
const CC: f64 = 0.25;
/// Error-smoothing constant `c_e`.
const CE: f64 = 0.25;

/// Coordinate dimensionality (the paper's evaluations use 2–5).
pub const DIMS: usize = 3;
/// The least height a node carries, in milliseconds: where it starts, and
/// the floor it never shrinks below.
const MIN_HEIGHT_MS: f64 = 0.1;

/// One node's Vivaldi state.
#[derive(Clone, Debug)]
pub struct VivaldiNode {
    /// Euclidean part of the coordinate (milliseconds).
    pub coord: Vec<f64>,
    /// Height component in milliseconds.
    pub height: f64,
    /// Local error estimate in `[0, 1]`-ish range (starts at 1 = "know
    /// nothing").
    pub error: f64,
    samples: u64,
}

impl Default for VivaldiNode {
    /// A fresh node at the origin with maximal error.
    fn default() -> Self {
        VivaldiNode {
            coord: vec![0.0; DIMS],
            height: MIN_HEIGHT_MS,
            error: 1.0,
            samples: 0,
        }
    }
}

impl VivaldiNode {
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
        self.error = (rel_err * CE * w + self.error * (1.0 - CE * w)).clamp(0.0, 10.0);
        // Force along the unit vector from remote to self, magnitude
        // (rtt - dist), applied with the adaptive timestep δ = c_c · w.
        let delta = CC * w;
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
        // Heights absorb the shared component: they stretch when the
        // spring is compressed, like the Euclidean part, but along the
        // always-positive height axis.
        self.height =
            (self.height + delta * force * self.height / dist.max(1e-9)).max(MIN_HEIGHT_MS);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `rounds` update rounds over a full RTT matrix: in each round
    /// every node absorbs one sample from every other node, in index order.
    ///
    /// The sweep is deliberately systematic rather than sampling one random
    /// peer per round: on small topologies such as the square below,
    /// single-random-peer gossip can settle into a *folded* spring
    /// equilibrium (a local minimum of the spring energy) that the shrinking
    /// adaptive timestep then freezes in place permanently. Balanced
    /// all-pairs updates escape those folds. The RNG is still needed for the
    /// coincident-coordinate bootstrap kick in [`VivaldiNode::update`].
    fn gossip_converge(rtt_ms: &[Vec<f64>], rounds: usize, rng: &mut SimRng) -> Vec<VivaldiNode> {
        let n = rtt_ms.len();
        let mut nodes = vec![VivaldiNode::default(); n];
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
        let mut rng = SimRng::new(1);
        let nodes = gossip_converge(&rtts, 400, &mut rng);
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
        let mut rng = SimRng::new(2);
        let nodes = gossip_converge(&rtts, 300, &mut rng);
        for n in &nodes {
            assert!(n.error < 0.5, "error {}", n.error);
            assert!(n.samples() > 0);
        }
    }

    #[test]
    fn ignores_garbage_samples() {
        let mut a = VivaldiNode::default();
        let b = VivaldiNode::default();
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
        let mut a = VivaldiNode::default();
        let b = VivaldiNode::default();
        let mut rng = SimRng::new(4);
        a.update(&b, 50.0, &mut rng);
        assert!(l2(&a.coord, &b.coord) > 0.0);
    }

    #[test]
    fn height_stays_positive() {
        let mut rng = SimRng::new(5);
        let mut a = VivaldiNode::default();
        let b = VivaldiNode::default();
        for _ in 0..200 {
            a.update(&b, 10.0, &mut rng);
        }
        assert!(a.height >= MIN_HEIGHT_MS);
    }

    #[test]
    fn prediction_is_symmetric() {
        let mut rng = SimRng::new(6);
        let mut a = VivaldiNode::default();
        let mut b = VivaldiNode::default();
        for _ in 0..50 {
            let bc = b.clone();
            a.update(&bc, 80.0, &mut rng);
            let ac = a.clone();
            b.update(&ac, 80.0, &mut rng);
        }
        assert!((a.predict_ms(&b) - b.predict_ms(&a)).abs() < 1e-12);
    }
}
