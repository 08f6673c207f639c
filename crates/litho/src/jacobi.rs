//! Dense symmetric eigendecomposition (cyclic Jacobi).
//!
//! The TCC operator assembled in [`crate::tcc`] is a real symmetric
//! positive-semidefinite matrix of modest size (a few hundred rows — one per
//! in-pupil frequency sample). A cyclic Jacobi sweep is simple, numerically
//! robust and plenty fast at that scale, so we use it instead of pulling in
//! a linear-algebra dependency.

/// A dense, row-major, real symmetric matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct SymMatrix {
    n: usize,
    data: Vec<f64>,
}

impl SymMatrix {
    /// An `n × n` zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn zeros(n: usize) -> Self {
        assert!(n > 0, "matrix dimension must be nonzero");
        SymMatrix { n, data: vec![0.0; n * n] }
    }

    /// Dimension `n`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Element at `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n + j]
    }

    /// Sets both `(i, j)` and `(j, i)` to keep the matrix symmetric.
    #[inline]
    pub fn set_sym(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.n + j] = v;
        self.data[j * self.n + i] = v;
    }

    /// Largest absolute off-diagonal element.
    pub fn off_diagonal_norm(&self) -> f64 {
        max_magnitude((0..self.n).flat_map(|i| (i + 1..self.n).map(move |j| self.get(i, j))))
    }
}

/// The largest magnitude `|v|` over `values` (0 for none).
///
/// A compare, not an `f64::max` fold, for the reason `Raster::max` gives:
/// such folds have compiled to vector paths that skip elements. Like
/// `f64::max`, the compare ignores NaN.
pub(crate) fn max_magnitude(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(0.0, |m, v| if v.abs() > m { v.abs() } else { m })
}

/// One eigenpair of a symmetric matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct EigenPair {
    /// Eigenvalue.
    pub value: f64,
    /// Unit-norm eigenvector.
    pub vector: Vec<f64>,
}

/// Eigendecomposes a symmetric matrix with the cyclic Jacobi method,
/// returning all eigenpairs sorted by *descending* eigenvalue.
///
/// Convergence: sweeps run until the largest off-diagonal magnitude falls
/// below `tol · max|diag|` or `max_sweeps` is reached (30 sweeps are far more
/// than the ~10 a few-hundred-row PSD matrix needs).
///
/// ```
/// use ganopc_litho::jacobi::{eigendecompose, SymMatrix};
/// let mut m = SymMatrix::zeros(2);
/// m.set_sym(0, 0, 2.0);
/// m.set_sym(1, 1, 2.0);
/// m.set_sym(0, 1, 1.0);
/// let eig = eigendecompose(&m, 1e-12, 30);
/// assert!((eig[0].value - 3.0).abs() < 1e-9);
/// assert!((eig[1].value - 1.0).abs() < 1e-9);
/// ```
pub fn eigendecompose(matrix: &SymMatrix, tol: f64, max_sweeps: usize) -> Vec<EigenPair> {
    let n = matrix.dim();
    let mut a = matrix.clone();
    // Eigenvector accumulator, starts as identity.
    let mut v = vec![0.0f64; n * n];
    for i in 0..n {
        v[i * n + i] = 1.0;
    }
    let diag_scale = max_magnitude((0..n).map(|i| a.get(i, i))).max(f64::MIN_POSITIVE);

    for _sweep in 0..max_sweeps {
        if a.off_diagonal_norm() <= tol * diag_scale {
            break;
        }
        for p in 0..n {
            for q in p + 1..n {
                let apq = a.get(p, q);
                if apq.abs() <= tol * diag_scale * 1e-2 {
                    continue;
                }
                let app = a.get(p, p);
                let aqq = a.get(q, q);
                // Jacobi rotation angle.
                let theta = 0.5 * (aqq - app) / apq;
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // Update matrix A <- Jᵀ A J.
                for k in 0..n {
                    let akp = a.get(k, p);
                    let akq = a.get(k, q);
                    a.set_sym(k, p, c * akp - s * akq);
                    a.set_sym(k, q, s * akp + c * akq);
                }
                // Fix the 2x2 block that the symmetric row/col update mangles.
                a.set_sym(p, p, app - t * apq);
                a.set_sym(q, q, aqq + t * apq);
                a.set_sym(p, q, 0.0);
                // Accumulate rotations into V.
                for k in 0..n {
                    let vkp = v[k * n + p];
                    let vkq = v[k * n + q];
                    v[k * n + p] = c * vkp - s * vkq;
                    v[k * n + q] = s * vkp + c * vkq;
                }
            }
        }
    }

    let mut pairs: Vec<EigenPair> = (0..n)
        .map(|j| EigenPair { value: a.get(j, j), vector: (0..n).map(|i| v[i * n + j]).collect() })
        .collect();
    // PANIC: Jacobi rotations of a finite symmetric matrix keep the
    // diagonal finite, so eigenvalues are never NaN.
    pairs.sort_by(|x, y| y.value.partial_cmp(&x.value).expect("non-NaN eigenvalues"));
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat_from_rows(rows: &[&[f64]]) -> SymMatrix {
        let n = rows.len();
        let mut m = SymMatrix::zeros(n);
        for (i, r) in rows.iter().enumerate() {
            for (j, &x) in r.iter().enumerate() {
                m.set_sym(i, j, x);
            }
        }
        m
    }

    fn matvec(m: &SymMatrix, x: &[f64]) -> Vec<f64> {
        (0..m.dim()).map(|i| (0..m.dim()).map(|j| m.get(i, j) * x[j]).sum()).collect()
    }

    #[test]
    fn diagonal_matrix_is_its_own_decomposition() {
        let m = mat_from_rows(&[&[3.0, 0.0, 0.0], &[0.0, 1.0, 0.0], &[0.0, 0.0, 2.0]]);
        let eig = eigendecompose(&m, 1e-14, 10);
        let values: Vec<f64> = eig.iter().map(|p| p.value).collect();
        assert_eq!(values, vec![3.0, 2.0, 1.0]);
    }

    #[test]
    fn known_2x2() {
        let m = mat_from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let eig = eigendecompose(&m, 1e-14, 30);
        assert!((eig[0].value - 3.0).abs() < 1e-10);
        assert!((eig[1].value - 1.0).abs() < 1e-10);
        // Eigenvector of 3 is (1,1)/√2 up to sign.
        let v = &eig[0].vector;
        assert!((v[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-8);
        assert!((v[0] - v[1]).abs() < 1e-8);
    }

    #[test]
    fn eigen_equation_holds_random_psd() {
        // Build PSD matrix A = BᵀB from a deterministic pseudo-random B.
        let n = 24;
        let mut b = vec![0.0f64; n * n];
        let mut state = 0x1234_5678_u64;
        for x in b.iter_mut() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            *x = ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5;
        }
        let mut a = SymMatrix::zeros(n);
        for i in 0..n {
            for j in i..n {
                let dot: f64 = (0..n).map(|k| b[k * n + i] * b[k * n + j]).sum();
                a.set_sym(i, j, dot);
            }
        }
        let eig = eigendecompose(&a, 1e-13, 50);
        // All eigenvalues nonnegative (PSD), sorted descending.
        for w in eig.windows(2) {
            assert!(w[0].value >= w[1].value - 1e-9);
        }
        for pair in &eig {
            assert!(pair.value > -1e-8, "negative eigenvalue {}", pair.value);
            // A v ≈ λ v
            let av = matvec(&a, &pair.vector);
            for (avi, vi) in av.iter().zip(&pair.vector) {
                assert!((avi - pair.value * vi).abs() < 1e-6, "λ={}", pair.value);
            }
            // Unit norm.
            let norm: f64 = pair.vector.iter().map(|x| x * x).sum::<f64>().sqrt();
            assert!((norm - 1.0).abs() < 1e-8);
        }
        // Trace preserved.
        let trace: f64 = (0..n).map(|i| a.get(i, i)).sum();
        let eigsum: f64 = eig.iter().map(|p| p.value).sum();
        assert!((trace - eigsum).abs() < 1e-6 * trace.abs().max(1.0));
    }

    #[test]
    fn eigenvectors_are_orthogonal() {
        let m = mat_from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, 0.2], &[0.5, 0.2, 1.0]]);
        let eig = eigendecompose(&m, 1e-14, 50);
        for i in 0..3 {
            for j in i + 1..3 {
                let dot: f64 = eig[i].vector.iter().zip(&eig[j].vector).map(|(a, b)| a * b).sum();
                assert!(dot.abs() < 1e-8, "vectors {i},{j} not orthogonal: {dot}");
            }
        }
    }

    #[test]
    fn off_diagonal_norm_reports_max() {
        let m = mat_from_rows(&[&[1.0, -5.0], &[-5.0, 1.0]]);
        assert_eq!(m.off_diagonal_norm(), 5.0);
        // The largest off-diagonal magnitude at every position of a 7 × 7
        // matrix whose diagonal is larger still.
        let n = 7;
        for (p, q) in (0..n).flat_map(|p| (p + 1..n).map(move |q| (p, q))) {
            let mut m = SymMatrix::zeros(n);
            for i in 0..n {
                m.set_sym(i, i, 100.0);
                for j in i + 1..n {
                    m.set_sym(i, j, if (i + j) % 2 == 0 { 0.5 } else { -0.25 });
                }
            }
            m.set_sym(p, q, -3.0);
            assert_eq!(m.off_diagonal_norm(), 3.0, "largest at ({p}, {q})");
        }
    }

    #[test]
    fn max_magnitude_sees_every_position() {
        for len in 1..=17 {
            for at in 0..len {
                // Mixed signs below the peak, the peak negative.
                let values: Vec<f64> =
                    (0..len).map(|i| if i == at { -9.0 } else { [1.5, -2.5][i % 2] }).collect();
                assert_eq!(max_magnitude(values), 9.0, "length {len}, largest at {at}");
            }
        }
        assert_eq!(max_magnitude([]), 0.0);
        assert_eq!(max_magnitude([f64::NAN, -2.0]), 2.0);
    }
}
