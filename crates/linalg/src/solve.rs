//! Direct linear solver: Cholesky for symmetric positive-definite systems.
//!
//! Used by the ADMM Lasso backend (factor-once, solve-many).

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;

/// Cholesky factorization `A = L L^T` of a symmetric positive-definite
/// matrix. Only the lower triangle of the input is read.
#[must_use = "dropping a Cholesky factorization discards the work"]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factorizes `a`. Returns [`LinalgError::NotPositiveDefinite`] when a
    /// diagonal pivot is non-positive.
    pub fn new(a: &Matrix) -> Result<Self> {
        let (m, n) = a.shape();
        if m != n {
            return Err(LinalgError::ShapeMismatch {
                expected: (m, m),
                got: (m, n),
            });
        }
        let mut l = Matrix::zeros(n, n);
        for j in 0..n {
            let mut d = a[(j, j)];
            for k in 0..j {
                d -= l[(j, k)] * l[(j, k)];
            }
            if d <= 0.0 {
                return Err(LinalgError::NotPositiveDefinite);
            }
            let dj = d.sqrt();
            l[(j, j)] = dj;
            for i in j + 1..n {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = s / dj;
            }
        }
        Ok(Self { l })
    }

    /// Solves `A x = b` via the two triangular solves.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.l.rows();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                expected: (n, 1),
                got: (b.len(), 1),
            });
        }
        let mut y = b.to_vec();
        for i in 0..n {
            let mut s = y[i];
            for j in 0..i {
                s -= self.l[(i, j)] * y[j];
            }
            y[i] = s / self.l[(i, i)];
        }
        for i in (0..n).rev() {
            let mut s = y[i];
            for j in i + 1..n {
                s -= self.l[(j, i)] * y[j];
            }
            y[i] = s / self.l[(i, i)];
        }
        Ok(y)
    }

    /// The lower-triangular factor.
    pub fn l(&self) -> &Matrix {
        &self.l
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cholesky_solves_spd_system() {
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]).unwrap();
        let ch = Cholesky::new(&a).unwrap();
        let x = ch.solve(&[8.0, 7.0]).unwrap();
        // A x = b check.
        assert!((4.0 * x[0] + 2.0 * x[1] - 8.0).abs() < 1e-12);
        assert!((2.0 * x[0] + 3.0 * x[1] - 7.0).abs() < 1e-12);
    }

    #[test]
    fn cholesky_factor_reconstructs() {
        let a = Matrix::from_rows(&[&[6.0, 3.0, 1.0], &[3.0, 4.0, 2.0], &[1.0, 2.0, 5.0]]).unwrap();
        let l = Cholesky::new(&a).unwrap().l().clone();
        let llt = l.matmul(&l.transpose()).unwrap();
        assert!(llt.sub(&a).unwrap().max_abs() < 1e-12);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(Cholesky::new(&a).is_err());
    }

    #[test]
    fn solvers_reject_bad_rhs_length() {
        let a = Matrix::identity(3);
        assert!(Cholesky::new(&a).unwrap().solve(&[1.0]).is_err());
    }
}
