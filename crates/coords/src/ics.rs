//! The Internet Coordinate System of Lim, Hou and Choi \[20\].
//!
//! This is the landmark-based predictor the paper reprints as Figure 4.
//! A small set of *beacon nodes* measures the full pairwise RTT matrix; an
//! administrative node applies PCA to that matrix and publishes a scaled
//! *transformation matrix*. Any host then embeds itself by measuring RTTs
//! to the beacons and taking one matrix–vector product.
//!
//! Construction (steps S1–S5 of the excerpt):
//!
//! 1. beacons measure the `m × m` distance matrix `D`;
//! 2. eigendecompose `D` (symmetric), order components by `|λ|`;
//! 3. pick the dimension `n` by a cumulative-variation threshold (or fix it);
//! 4. unscaled coordinates `cᵢ = Uₙᵀ dᵢ` where `dᵢ` is beacon `i`'s column;
//! 5. least-squares scaling `α = Σ lᵢⱼ·dᵢⱼ / Σ lᵢⱼ²` over beacon pairs,
//!    giving the published transform `Ūₙ = α·Uₙ` and beacon coordinates
//!    `c̄ᵢ = Ūₙᵀ dᵢ`.
//!
//! Host embedding (steps H1–H3): measure the distance vector `l` to all
//! beacons and compute `x = Ūₙᵀ l`. Predicted distance between hosts is the
//! L2 distance of their coordinates.
//!
//! The worked Examples 4 and 5 of the excerpt (α = 0.6, c̄₁ = [−2.1, 1.5],
//! predicted distances 0.94 / 3.42 / 10.01, and for n = 4: α = 0.5927,
//! 0.8383, 3.0224) are unit tests below.

use crate::matrix::{l2, Matrix};

/// A built ICS: the transformation matrix plus the beacon coordinates.
#[derive(Clone, Debug)]
pub struct IcsSystem {
    /// `Ūₙ`, an `m × n` matrix (beacons × dimensions).
    transform: Matrix,
    beacon_coords: Vec<Vec<f64>>,
    alpha: f64,
    eigenvalues: Vec<f64>,
}

impl IcsSystem {
    /// Builds the system from the beacon distance matrix with a fixed
    /// embedding dimension `n`.
    ///
    /// # Panics
    /// Panics if `d` is not square/symmetric or `n` is 0 or exceeds the
    /// number of beacons.
    pub fn build(d: &Matrix, n: usize) -> IcsSystem {
        let m = d.rows();
        assert!(n >= 1 && n <= m, "dimension {n} out of range 1..={m}");
        assert!(d.is_symmetric(1e-9), "distance matrix must be symmetric");
        let (vals, vecs) = d.symmetric_eigen();
        // Uₙ: the top-n eigenvectors as columns (m × n).
        let mut un = Matrix::zeros(m, n);
        for k in 0..n {
            for i in 0..m {
                un[(i, k)] = vecs[(i, k)];
            }
        }
        // Unscaled beacon coordinates cᵢ = Uₙᵀ dᵢ.
        let unt = un.transpose();
        let raw: Vec<Vec<f64>> = (0..m).map(|i| unt.matvec(&d.col(i))).collect();
        // Least-squares scaling over beacon pairs.
        let mut num = 0.0;
        let mut den = 0.0;
        for (i, ri) in raw.iter().enumerate() {
            for (j, rj) in raw.iter().enumerate().skip(i + 1) {
                let lij = l2(ri, rj);
                num += lij * d[(i, j)];
                den += lij * lij;
            }
        }
        // Degenerate embeddings (all beacons coincide in the chosen
        // subspace) leave only floating-point noise in `den`; scaling noise
        // up would be meaningless, so fall back to α = 1.
        let scale: f64 = (0..m)
            .flat_map(|i| ((i + 1)..m).map(move |j| (i, j)))
            .map(|(i, j)| d[(i, j)] * d[(i, j)])
            .sum();
        let alpha = if den > 1e-12 * scale.max(1.0) {
            num / den
        } else {
            1.0
        };
        let transform = un.scale(alpha);
        let beacon_coords = raw
            .into_iter()
            .map(|c| c.into_iter().map(|x| x * alpha).collect())
            .collect();
        IcsSystem {
            transform,
            beacon_coords,
            alpha,
            eigenvalues: vals,
        }
    }

    /// Builds the system choosing the dimension as the smallest `n` whose
    /// cumulative percentage of variation `Σ|λ₁..ₙ| / Σ|λ|` reaches
    /// `threshold` (step S4 of the excerpt).
    pub fn build_with_threshold(d: &Matrix, threshold: f64) -> IcsSystem {
        let (vals, _) = d.symmetric_eigen();
        let total: f64 = vals.iter().map(|v| v.abs()).sum();
        let mut acc = 0.0;
        let mut n = vals.len();
        for (k, v) in vals.iter().enumerate() {
            acc += v.abs();
            if total > 0.0 && acc / total >= threshold - 1e-9 {
                n = k + 1;
                break;
            }
        }
        IcsSystem::build(d, n.max(1))
    }

    /// The embedding dimension `n`.
    pub fn dims(&self) -> usize {
        self.transform.cols()
    }

    /// Number of beacons `m`.
    pub fn n_beacons(&self) -> usize {
        self.transform.rows()
    }

    /// The least-squares scaling factor α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The eigenvalues of the beacon distance matrix, ordered by `|λ|`.
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// The published transformation matrix `Ūₙ` (m × n).
    pub fn transform(&self) -> &Matrix {
        &self.transform
    }

    /// Coordinate of beacon `i`.
    ///
    /// # Panics
    /// Panics if `i` is not below [`IcsSystem::n_beacons`].
    #[expect(clippy::indexing_slicing, reason = "documented panic: i < n_beacons()")]
    pub fn beacon_coord(&self, i: usize) -> &[f64] {
        &self.beacon_coords[i]
    }

    /// Embeds a host from its measured distance vector to all beacons
    /// (step H3: `x = Ūₙᵀ l`).
    ///
    /// # Panics
    /// Panics if `dists.len()` differs from the number of beacons.
    pub fn host_coord(&self, dists: &[f64]) -> Vec<f64> {
        assert_eq!(dists.len(), self.n_beacons(), "need one RTT per beacon");
        self.transform.transpose().matvec(dists)
    }

    /// Predicted distance between two embedded coordinates.
    pub fn predict(&self, a: &[f64], b: &[f64]) -> f64 {
        l2(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The distance matrix behind Examples 1/4/5 of the Lim et al. excerpt:
    /// hosts 1–2 in one AS, hosts 3–4 in another; intra-AS distance 1,
    /// inter-AS distance 3.
    fn example_matrix() -> Matrix {
        Matrix::from_rows(
            4,
            4,
            vec![
                0.0, 1.0, 3.0, 3.0, //
                1.0, 0.0, 3.0, 3.0, //
                3.0, 3.0, 0.0, 1.0, //
                3.0, 3.0, 1.0, 0.0,
            ],
        )
    }

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn example4_n2_alpha_is_0_6() {
        // "By Eq. (11), the scaling factor α is 0.6."
        let ics = IcsSystem::build(&example_matrix(), 2);
        assert_close(ics.alpha(), 0.6, 1e-9);
    }

    #[test]
    fn example4_n2_beacon_coordinates() {
        // "c̄₁ = c̄₂ = [−2.1, 1.5] and c̄₃ = c̄₄ = [−2.1, −1.5]" —
        // eigenvector signs are conventions, so compare per-axis magnitude
        // and the grouping.
        let ics = IcsSystem::build(&example_matrix(), 2);
        let c1 = ics.beacon_coord(0);
        let c2 = ics.beacon_coord(1);
        let c3 = ics.beacon_coord(2);
        let c4 = ics.beacon_coord(3);
        assert_close(c1[0].abs(), 2.1, 1e-9);
        assert_close(c1[1].abs(), 1.5, 1e-9);
        // Same-AS beacons coincide.
        assert_close(l2(c1, c2), 0.0, 1e-9);
        assert_close(l2(c3, c4), 0.0, 1e-9);
        // First axis equal across ASes, second axis mirrored.
        assert_close(c1[0], c3[0], 1e-9);
        assert_close(c1[1], -c3[1], 1e-9);
    }

    #[test]
    fn example4_n2_inter_as_distance_exactly_3() {
        // "The distances between two hosts in different ASs is exactly 3."
        let ics = IcsSystem::build(&example_matrix(), 2);
        let d = ics.predict(ics.beacon_coord(0), ics.beacon_coord(2));
        assert_close(d, 3.0, 1e-9);
    }

    #[test]
    fn example4_n4_published_numbers() {
        // "When n = 4, α = 0.5927, L2(c̄₁,c̄₂) = L2(c̄₃,c̄₄) = 0.8383, and
        //  L2(c̄₁,c̄₃) = … = 3.0224."
        let ics = IcsSystem::build(&example_matrix(), 4);
        assert_close(ics.alpha(), 0.5927, 5e-4);
        let intra = ics.predict(ics.beacon_coord(0), ics.beacon_coord(1));
        assert_close(intra, 0.8383, 5e-4);
        let intra2 = ics.predict(ics.beacon_coord(2), ics.beacon_coord(3));
        assert_close(intra2, 0.8383, 5e-4);
        for (i, j) in [(0, 2), (0, 3), (1, 2), (1, 3)] {
            let inter = ics.predict(ics.beacon_coord(i), ics.beacon_coord(j));
            assert_close(inter, 3.0224, 5e-4);
        }
    }

    #[test]
    fn example5_host_a_near_first_as() {
        // "host A … obtains a distance vector of lₐ = [1, 1, 4, 4]ᵀ.
        //  By Eq. (14), xₐ = [−3, 1.8]ᵀ. … the estimated distances between
        //  host A and beacon nodes are L2(c̄₁,xₐ) = L2(c̄₂,xₐ) = 0.94 and
        //  L2(c̄₃,xₐ) = L2(c̄₄,xₐ) = 3.42."
        let ics = IcsSystem::build(&example_matrix(), 2);
        let xa = ics.host_coord(&[1.0, 1.0, 4.0, 4.0]);
        assert_close(xa[0].abs(), 3.0, 1e-9);
        assert_close(xa[1].abs(), 1.8, 1e-9);
        assert_close(ics.predict(&xa, ics.beacon_coord(0)), 0.9487, 5e-4);
        assert_close(ics.predict(&xa, ics.beacon_coord(1)), 0.9487, 5e-4);
        assert_close(ics.predict(&xa, ics.beacon_coord(2)), 3.4205, 5e-4);
        assert_close(ics.predict(&xa, ics.beacon_coord(3)), 3.4205, 5e-4);
    }

    #[test]
    fn example5_host_b_far_from_all() {
        // "host B … lᵦ = [10, 10, 10, 10]ᵀ. In this case, xᵦ = [−12, 0]ᵀ,
        //  and L2(c̄ᵢ, xᵦ) = 10.01 for i = 1,…,4."
        let ics = IcsSystem::build(&example_matrix(), 2);
        let xb = ics.host_coord(&[10.0, 10.0, 10.0, 10.0]);
        assert_close(xb[0].abs(), 12.0, 1e-9);
        assert_close(xb[1].abs(), 0.0, 1e-9);
        for i in 0..4 {
            assert_close(ics.predict(&xb, ics.beacon_coord(i)), 10.0130, 5e-4);
        }
    }

    #[test]
    fn transform_matches_figure4_magnitude() {
        // Figure 4 caption: Ū₂ = [[−0.3 ×4], [−0.3, −0.3, 0.3, 0.3]]ᵀ —
        // i.e. every entry has magnitude 0.3 and the second column splits
        // the two ASes.
        let ics = IcsSystem::build(&example_matrix(), 2);
        let t = ics.transform();
        assert_eq!((t.rows(), t.cols()), (4, 2));
        for i in 0..4 {
            assert_close(t[(i, 0)].abs(), 0.3, 1e-9);
            assert_close(t[(i, 1)].abs(), 0.3, 1e-9);
        }
        // Column 0 has uniform sign; column 1 splits 2/2.
        let same: Vec<f64> = (0..4).map(|i| t[(i, 0)].signum()).collect();
        assert!(same.iter().all(|&s| s == same[0]));
        assert_eq!(t[(0, 1)].signum(), t[(1, 1)].signum());
        assert_eq!(t[(2, 1)].signum(), t[(3, 1)].signum());
        assert_ne!(t[(0, 1)].signum(), t[(2, 1)].signum());
    }

    #[test]
    fn threshold_dimension_selection() {
        // |λ| = 7, 5, 1, 1 (total 14). 50% → n=1; 80% → n=2 (12/14≈0.857);
        // 95% → n=3 (13/14 ≈ 0.929 < 0.95 → n=4).
        let d = example_matrix();
        assert_eq!(IcsSystem::build_with_threshold(&d, 0.5).dims(), 1);
        assert_eq!(IcsSystem::build_with_threshold(&d, 0.8).dims(), 2);
        assert_eq!(IcsSystem::build_with_threshold(&d, 0.95).dims(), 4);
    }

    #[test]
    fn higher_dimension_never_hurts_beacon_fit() {
        let d = example_matrix();
        let err = |n: usize| {
            let ics = IcsSystem::build(&d, n);
            let mut e = 0.0;
            for i in 0..4 {
                for j in (i + 1)..4 {
                    let p = ics.predict(ics.beacon_coord(i), ics.beacon_coord(j));
                    e += (p - d[(i, j)]).powi(2);
                }
            }
            e
        };
        assert!(err(2) <= err(1) + 1e-9);
        assert!(err(4) <= err(2) + 1e-9);
    }

    #[test]
    #[should_panic(expected = "one RTT per beacon")]
    fn wrong_length_distance_vector_panics() {
        let ics = IcsSystem::build(&example_matrix(), 2);
        ics.host_coord(&[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_dims_panics() {
        IcsSystem::build(&example_matrix(), 0);
    }
}
