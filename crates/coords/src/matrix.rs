//! Minimal dense linear algebra.
//!
//! The ICS construction needs: a dense matrix, matrix–vector products, and
//! a symmetric eigendecomposition. Beacon sets are small (tens of nodes),
//! so a cyclic Jacobi sweep is simple, robust and fast enough — no external
//! BLAS/LAPACK dependency.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major `rows × cols` matrix of `f64`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds from row-major data.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `i` as a slice.
    ///
    /// # Panics
    /// Panics if `i` is not below [`Matrix::rows`].
    #[expect(clippy::indexing_slicing, reason = "documented panic: i < rows()")]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Column `j` copied into a vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self * other`.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "inner dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += a * other[(k, j)];
                }
            }
        }
        out
    }

    /// Matrix–vector product `self * v`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, v.len(), "dimension mismatch");
        (0..self.rows)
            .map(|i| self.row(i).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// Scales every entry.
    pub fn scale(&self, k: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| x * k).collect(),
        }
    }

    /// Whether the matrix is symmetric within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Symmetric eigendecomposition by cyclic Jacobi rotations.
    ///
    /// Returns `(eigenvalues, eigenvectors)` where `eigenvectors.col(k)` is
    /// the unit eigenvector of `eigenvalues[k]`, **sorted by descending
    /// absolute value** — the order PCA on a distance matrix wants (the
    /// dominant structural components first, whatever their sign).
    ///
    /// # Panics
    /// Panics if the matrix is not square/symmetric.
    pub fn symmetric_eigen(&self) -> (Vec<f64>, Matrix) {
        assert!(self.is_symmetric(1e-9), "matrix not symmetric");
        let n = self.rows;
        let mut a = self.clone();
        let mut v = Matrix::identity(n);
        let max_sweeps = 100;
        for _ in 0..max_sweeps {
            // Off-diagonal Frobenius norm.
            let mut off = 0.0;
            for i in 0..n {
                for j in (i + 1)..n {
                    off += a[(i, j)] * a[(i, j)];
                }
            }
            if off.sqrt() < 1e-12 {
                break;
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = a[(p, q)];
                    if apq.abs() < 1e-15 {
                        continue;
                    }
                    let app = a[(p, p)];
                    let aqq = a[(q, q)];
                    let theta = (aqq - app) / (2.0 * apq);
                    let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                    let c = 1.0 / (t * t + 1.0).sqrt();
                    let s = t * c;
                    // Rotate rows/cols p and q of `a`.
                    for k in 0..n {
                        let akp = a[(k, p)];
                        let akq = a[(k, q)];
                        a[(k, p)] = c * akp - s * akq;
                        a[(k, q)] = s * akp + c * akq;
                    }
                    for k in 0..n {
                        let apk = a[(p, k)];
                        let aqk = a[(q, k)];
                        a[(p, k)] = c * apk - s * aqk;
                        a[(q, k)] = s * apk + c * aqk;
                    }
                    // Accumulate the rotation into the eigenvector basis.
                    for k in 0..n {
                        let vkp = v[(k, p)];
                        let vkq = v[(k, q)];
                        v[(k, p)] = c * vkp - s * vkq;
                        v[(k, q)] = s * vkp + c * vkq;
                    }
                }
            }
        }
        let mut pairs: Vec<(f64, Vec<f64>)> = (0..n).map(|k| (a[(k, k)], v.col(k))).collect();
        pairs.sort_by(|x, y| {
            y.0.abs()
                .total_cmp(&x.0.abs())
                .then_with(|| x.0.total_cmp(&y.0).reverse())
        });
        let eigenvalues: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let mut vectors = Matrix::zeros(n, n);
        for (k, (_, vec)) in pairs.iter().enumerate() {
            // Sign convention: first nonzero component positive, so results
            // are reproducible across platforms.
            let sign = vec
                .iter()
                .find(|x| x.abs() > 1e-12)
                .map(|x| x.signum())
                .unwrap_or(1.0);
            for (i, x) in vec.iter().enumerate() {
                vectors[(i, k)] = x * sign;
            }
        }
        (eigenvalues, vectors)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[expect(clippy::indexing_slicing, reason = "the debug_assert!ed bound")]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[expect(clippy::indexing_slicing, reason = "the debug_assert!ed bound")]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            writeln!(
                f,
                "  {}",
                self.row(i)
                    .iter()
                    .map(|x| format!("{x:9.4}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            )?;
        }
        write!(f, "]")
    }
}

/// Euclidean (L2) distance between two equal-length vectors.
pub fn l2(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_ops() {
        let m = Matrix::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(2), vec![3.0, 6.0]);
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(m.matvec(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
    }

    #[test]
    fn matmul_identity() {
        let m = Matrix::from_rows(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let i = Matrix::identity(2);
        assert_eq!(m.matmul(&i), m);
        assert_eq!(i.matmul(&m), m);
    }

    #[test]
    fn eigen_diagonal() {
        let m = Matrix::from_rows(3, 3, vec![3.0, 0.0, 0.0, 0.0, -5.0, 0.0, 0.0, 0.0, 1.0]);
        let (vals, vecs) = m.symmetric_eigen();
        // Sorted by |λ| descending: -5, 3, 1.
        assert!((vals[0] + 5.0).abs() < 1e-10);
        assert!((vals[1] - 3.0).abs() < 1e-10);
        assert!((vals[2] - 1.0).abs() < 1e-10);
        // Eigenvector of -5 is e2.
        assert!((vecs[(1, 0)].abs() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn eigen_reconstructs_matrix() {
        // A = V Λ Vᵀ must reproduce the input.
        let m = Matrix::from_rows(
            4,
            4,
            vec![
                4.0, 1.0, 2.0, 0.5, 1.0, 3.0, 0.0, 1.0, 2.0, 0.0, 5.0, 1.5, 0.5, 1.0, 1.5, 2.0,
            ],
        );
        let (vals, v) = m.symmetric_eigen();
        let mut lambda = Matrix::zeros(4, 4);
        for k in 0..4 {
            lambda[(k, k)] = vals[k];
        }
        let rebuilt = v.matmul(&lambda).matmul(&v.transpose());
        for i in 0..4 {
            for j in 0..4 {
                assert!(
                    (rebuilt[(i, j)] - m[(i, j)]).abs() < 1e-8,
                    "({i},{j}): {} vs {}",
                    rebuilt[(i, j)],
                    m[(i, j)]
                );
            }
        }
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let m = Matrix::from_rows(3, 3, vec![2.0, 1.0, 0.0, 1.0, 2.0, 1.0, 0.0, 1.0, 2.0]);
        let (_, v) = m.symmetric_eigen();
        let vtv = v.transpose().matmul(&v);
        for i in 0..3 {
            for j in 0..3 {
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((vtv[(i, j)] - expected).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn ics_fixture_eigenstructure() {
        // The reconstructed distance matrix behind the paper's Example 4
        // (two ASes, intra distance 1, inter distance 3): eigenvalues must
        // be 7, -5, -1, -1 ordered by |λ| as 7, -5, -1, -1.
        let d = Matrix::from_rows(
            4,
            4,
            vec![
                0.0, 1.0, 3.0, 3.0, 1.0, 0.0, 3.0, 3.0, 3.0, 3.0, 0.0, 1.0, 3.0, 3.0, 1.0, 0.0,
            ],
        );
        let (vals, _) = d.symmetric_eigen();
        assert!((vals[0] - 7.0).abs() < 1e-9);
        assert!((vals[1] + 5.0).abs() < 1e-9);
        assert!((vals[2] + 1.0).abs() < 1e-9);
        assert!((vals[3] + 1.0).abs() < 1e-9);
    }

    #[test]
    fn l2_distance() {
        assert_eq!(l2(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(l2(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn symmetry_check() {
        let m = Matrix::from_rows(2, 2, vec![1.0, 2.0, 2.0, 1.0]);
        assert!(m.is_symmetric(1e-12));
        let m2 = Matrix::from_rows(2, 2, vec![1.0, 2.0, 3.0, 1.0]);
        assert!(!m2.is_symmetric(1e-12));
        let rect = Matrix::zeros(2, 3);
        assert!(!rect.is_symmetric(1e-12));
    }
}
