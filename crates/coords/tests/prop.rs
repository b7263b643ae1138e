//! Property-based tests for the coordinate systems.

use proptest::prelude::*;
use uap_coords::{IcsSystem, Matrix, VivaldiNode};
use uap_sim::SimRng;

/// A random symmetric "distance-like" matrix (positive off-diagonals,
/// zero diagonal).
fn sym_matrix(n: usize, seed: u64) -> Matrix {
    let mut rng = SimRng::new(seed);
    let mut d = Matrix::zeros(n, n);
    for i in 0..n {
        for j in (i + 1)..n {
            let v = rng.f64_range(1.0, 200.0);
            d[(i, j)] = v;
            d[(j, i)] = v;
        }
    }
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Jacobi: A = V Λ Vᵀ and V orthonormal, for any symmetric input.
    #[test]
    fn eigen_reconstructs_and_is_orthonormal(n in 2usize..12, seed in any::<u64>()) {
        let a = sym_matrix(n, seed);
        let (vals, v) = a.symmetric_eigen();
        // Orthonormality.
        let vtv = v.transpose().matmul(&v);
        for i in 0..n {
            for j in 0..n {
                let expect = if i == j { 1.0 } else { 0.0 };
                prop_assert!((vtv[(i, j)] - expect).abs() < 1e-8);
            }
        }
        // Reconstruction.
        let mut lambda = Matrix::zeros(n, n);
        for k in 0..n {
            lambda[(k, k)] = vals[k];
        }
        let rebuilt = v.matmul(&lambda).matmul(&v.transpose());
        for i in 0..n {
            for j in 0..n {
                prop_assert!((rebuilt[(i, j)] - a[(i, j)]).abs() < 1e-6);
            }
        }
        // Ordering by |λ|.
        for w in vals.windows(2) {
            prop_assert!(w[0].abs() >= w[1].abs() - 1e-9);
        }
    }

    /// ICS invariants for any beacon matrix: α positive and finite,
    /// predictions symmetric and non-negative, full-rank embedding
    /// reproduces beacon distances up to the α least-squares fit.
    #[test]
    fn ics_embedding_invariants(n_beacons in 3usize..10, dims in 1usize..6, seed in any::<u64>()) {
        let m = n_beacons;
        let dims = dims.min(m);
        let d = sym_matrix(m, seed);
        let ics = IcsSystem::build(&d, dims);
        prop_assert!(ics.alpha().is_finite() && ics.alpha() > 0.0);
        prop_assert_eq!(ics.dims(), dims);
        for i in 0..m {
            for j in 0..m {
                let pij = ics.predict(ics.beacon_coord(i), ics.beacon_coord(j));
                let pji = ics.predict(ics.beacon_coord(j), ics.beacon_coord(i));
                prop_assert!(pij >= 0.0);
                prop_assert!((pij - pji).abs() < 1e-9);
            }
        }
        // Host embedding of a beacon's own distance column lands near the
        // beacon's coordinate (identical by construction).
        let col: Vec<f64> = (0..m).map(|j| d[(0, j)]).collect();
        let x = ics.host_coord(&col);
        let dist = ics.predict(&x, ics.beacon_coord(0));
        prop_assert!(dist < 1e-6, "self embedding off by {dist}");
    }

    /// Vivaldi never produces NaN and the error estimate stays bounded,
    /// whatever the RTT stream.
    #[test]
    fn vivaldi_stays_finite(rtts in prop::collection::vec(0.1f64..10_000.0, 1..200), seed in any::<u64>()) {
        let mut rng = SimRng::new(seed);
        let mut a = VivaldiNode::default();
        let mut b = VivaldiNode::default();
        for (i, &rtt) in rtts.iter().enumerate() {
            if i % 2 == 0 {
                let bc = b.clone();
                a.update(&bc, rtt, &mut rng);
            } else {
                let ac = a.clone();
                b.update(&ac, rtt, &mut rng);
            }
        }
        prop_assert!(a.coord.iter().all(|x| x.is_finite()));
        prop_assert!(b.coord.iter().all(|x| x.is_finite()));
        prop_assert!(a.error.is_finite() && (0.0..=10.0).contains(&a.error));
        prop_assert!(a.predict_ms(&b).is_finite());
        prop_assert!(a.predict_ms(&b) >= 0.0);
    }
}
