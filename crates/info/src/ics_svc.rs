//! Beacon-based coordinate service (§3.2, Figure 4), after Lim et al. \[20\].
//!
//! Wires the [`uap_coords::IcsSystem`] to a simulated underlay:
//!
//! * beacon hosts are chosen spread across ASes (one per AS, round-robin);
//! * beacons measure their full RTT matrix (step S1);
//! * the administrative node builds the transformation matrix (S2–S5);
//! * every host embeds itself with one RTT probe per beacon (H1–H3).
//!
//! Message accounting: `m·(m−1)` probes for the beacon matrix plus `2·m`
//! messages per embedded host — compare with `n²` for explicit all-pairs
//! measurement.

use crate::provider::ProximityEstimator;
use uap_coords::{EmbeddingQuality, IcsSystem, Matrix};
use uap_net::{HostId, Underlay};
use uap_sim::SimRng;

/// The deployed coordinate system with every host embedded.
pub struct IcsService {
    system: IcsSystem,
    beacons: Vec<HostId>,
    coords: Vec<Vec<f64>>,
    messages: u64,
}

impl IcsService {
    /// Picks `n_beacons` hosts spread over the ASes, deterministically:
    /// round-robin over ASes in id order, first host of each.
    pub fn pick_beacons(underlay: &Underlay, n_beacons: usize) -> Vec<HostId> {
        let mut beacons = Vec::new();
        let mut offset = 0usize;
        while beacons.len() < n_beacons {
            let mut progressed = false;
            for a in 0..underlay.n_ases() {
                let hosts = underlay.hosts.in_as(uap_net::AsId::from_index(a));
                if let Some(&h) = hosts.get(offset) {
                    beacons.push(h);
                    progressed = true;
                    if beacons.len() == n_beacons {
                        break;
                    }
                }
            }
            if !progressed {
                break; // fewer hosts than requested beacons
            }
            offset += 1;
        }
        beacons
    }

    /// Builds the system: measures the beacon matrix, constructs the
    /// transform with `dims` dimensions, and embeds every host.
    pub fn build(
        underlay: &Underlay,
        n_beacons: usize,
        dims: usize,
        rng: &mut SimRng,
    ) -> IcsService {
        let beacons = Self::pick_beacons(underlay, n_beacons);
        let m = beacons.len();
        assert!(m >= 2, "need at least two beacons");
        let mut messages = 0u64;
        // S1: beacons measure RTTs to each other (in milliseconds — the
        // embedding space's natural unit).
        let mut d = Matrix::zeros(m, m);
        for i in 0..m {
            for j in 0..m {
                if i == j {
                    continue;
                }
                #[expect(
                    clippy::expect_used,
                    reason = "beacons are hosts of one connected underlay"
                )]
                let rtt = underlay
                    .measured_rtt_us(beacons[i], beacons[j], rng)
                    .expect("beacons mutually reachable") as f64
                    / 1_000.0;
                d[(i, j)] = rtt;
                messages += 1;
            }
        }
        // Symmetrize: measurement jitter can differ per direction.
        for i in 0..m {
            for j in (i + 1)..m {
                let avg = (d[(i, j)] + d[(j, i)]) / 2.0;
                d[(i, j)] = avg;
                d[(j, i)] = avg;
            }
        }
        let system = IcsSystem::build(&d, dims.min(m));
        // H2/H3: every host measures to all beacons and embeds.
        let coords: Vec<Vec<f64>> = underlay
            .hosts
            .ids()
            .map(|h| {
                let dists: Vec<f64> = beacons
                    .iter()
                    .map(|&b| {
                        if b == h {
                            return 0.0;
                        }
                        messages += 2;
                        underlay.measured_rtt_us(h, b, rng).unwrap_or(u64::MAX / 2) as f64 / 1_000.0
                    })
                    .collect();
                system.host_coord(&dists)
            })
            .collect();
        IcsService {
            system,
            beacons,
            coords,
            messages,
        }
    }

    /// The beacon hosts.
    pub fn beacons(&self) -> &[HostId] {
        &self.beacons
    }

    /// The underlying coordinate system.
    pub fn system(&self) -> &IcsSystem {
        &self.system
    }

    /// A host's embedded coordinate.
    pub fn coord(&self, h: HostId) -> &[f64] {
        &self.coords[h.idx()]
    }

    /// Predicted RTT between two hosts in microseconds.
    pub fn predict_us(&self, a: HostId, b: HostId) -> f64 {
        self.system
            .predict(&self.coords[a.idx()], &self.coords[b.idx()])
            * 1_000.0
    }

    /// Evaluates prediction accuracy on `n_pairs` random pairs.
    pub fn quality(
        &self,
        underlay: &Underlay,
        n_pairs: usize,
        rng: &mut SimRng,
    ) -> EmbeddingQuality {
        let n = self.coords.len();
        let pairs: Vec<(f64, f64)> = (0..n_pairs)
            .filter_map(|_| {
                let a = HostId(rng.index(n) as u32);
                let b = HostId(rng.index(n) as u32);
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

impl ProximityEstimator for IcsService {
    fn proximity(&mut self, a: HostId, b: HostId, _rng: &mut SimRng) -> f64 {
        self.predict_us(a, b)
    }

    fn overhead_messages(&self) -> u64 {
        self.messages
    }

    fn name(&self) -> &'static str {
        "ics-landmark"
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
            n_hosts: 60,
            seed: 61,
        }
        .build()
    }

    #[test]
    fn beacons_spread_over_ases() {
        let u = underlay();
        let beacons = IcsService::pick_beacons(&u, 6);
        assert_eq!(beacons.len(), 6);
        let ases: std::collections::BTreeSet<_> =
            beacons.iter().map(|&b| u.hosts.as_of(b)).collect();
        assert!(ases.len() >= 4, "beacons clumped: {ases:?}");
    }

    #[test]
    fn beacon_request_caps_at_population() {
        let u = underlay();
        let beacons = IcsService::pick_beacons(&u, 10_000);
        assert_eq!(beacons.len(), u.n_hosts());
    }

    #[test]
    fn predictions_correlate_with_truth() {
        let u = underlay();
        let mut rng = SimRng::new(62);
        let svc = IcsService::build(&u, 8, 4, &mut rng);
        let q = svc.quality(&u, 400, &mut rng);
        assert!(q.n > 300);
        assert!(
            q.median_rel_err < 0.5,
            "median rel err {}",
            q.median_rel_err
        );
    }

    #[test]
    fn overhead_is_linear_not_quadratic_in_hosts() {
        let u = underlay();
        let mut rng = SimRng::new(63);
        let m = 6u64;
        let svc = IcsService::build(&u, m as usize, 3, &mut rng);
        let n = u.n_hosts() as u64;
        // m(m-1) beacon probes + ≤ 2m per host.
        let expected_max = m * (m - 1) + n * 2 * m;
        assert!(svc.overhead_messages() <= expected_max);
        assert!(svc.overhead_messages() as f64 > (n as f64) * 2.0 * (m as f64 - 1.0));
        // Far below the n(n-1) cost of explicit all-pairs measurement.
        assert!(svc.overhead_messages() < n * (n - 1));
    }

    #[test]
    fn beacon_self_distance_is_zero() {
        let u = underlay();
        let mut rng = SimRng::new(64);
        let svc = IcsService::build(&u, 5, 3, &mut rng);
        let b0 = svc.beacons()[0];
        // A beacon's own embedding should sit near its beacon coordinate.
        let own = svc.coord(b0);
        let bc = svc.system().beacon_coord(0);
        let d = uap_coords::matrix::l2(own, bc);
        // Not exact (jitterless here, but the embedding is lossy):
        // must still be far smaller than typical inter-beacon distances.
        let spread =
            uap_coords::matrix::l2(svc.system().beacon_coord(0), svc.system().beacon_coord(1));
        assert!(d < spread, "self-embedding {d} vs spread {spread}");
    }
}
