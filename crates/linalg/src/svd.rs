//! Singular value decomposition.
//!
//! Two backends are provided:
//!
//! * [`svd_gram`] — thin SVD via the eigendecomposition of the smaller Gram
//!   matrix. For the tall-skinny matrices this workspace decomposes (ambient
//!   dimension up to ~3500, at most a few hundred points per local cluster)
//!   this is dramatically cheaper than bidiagonalization and accurate enough
//!   for basis estimation (relative error ~ sqrt(machine eps) on the smallest
//!   singular values, which basis extraction never consumes).
//! * [`svd_jacobi`] — one-sided Jacobi SVD; slower but accurate to machine
//!   precision for all singular values. Used as the cross-check oracle in
//!   tests and available for ablation benches.
//!
//! [`truncated_svd`] implements the paper's footnote 3: local subspace bases
//! are estimated with a *truncated* SVD to keep the per-device cost low.

use crate::eigh::eigh_largest;
use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;
use crate::vector;

/// Thin SVD `A = U diag(s) V^T` with singular values in **descending** order.
#[derive(Debug, Clone)]
#[must_use = "dropping an SVD discards the factorization work"]
pub struct Svd {
    /// Left singular vectors (`rows x k`).
    pub u: Matrix,
    /// Singular values, descending, length `k = min(rows, cols)` (or the
    /// requested truncation).
    pub s: Vec<f64>,
    /// Right singular vectors (`cols x k`).
    pub v: Matrix,
}

impl Svd {
    /// Numerical rank: number of singular values above
    /// `tol * max(s) * max(rows, cols)`-style threshold. `tol` defaults to a
    /// scaled machine epsilon when `None`.
    pub fn rank(&self, tol: Option<f64>) -> usize {
        let smax = self.s.first().copied().unwrap_or(0.0);
        if smax == 0.0 {
            return 0;
        }
        let t = tol.unwrap_or(f64::EPSILON * self.s.len().max(1) as f64 * 16.0) * smax;
        self.s.iter().take_while(|&&x| x > t).count()
    }

    /// Reconstructs `U diag(s) V^T` (testing helper).
    pub fn reconstruct(&self) -> Matrix {
        let mut us = self.u.clone();
        for (j, &sv) in self.s.iter().enumerate() {
            for x in us.col_mut(j) {
                *x *= sv;
            }
        }
        // INVARIANT: `us` is rows x k and `v^T` is k x cols by construction.
        us.matmul(&self.v.transpose())
            .expect("shapes agree by construction")
    }
}

/// Thin SVD via the smaller Gram matrix.
///
/// When `rows >= cols`, forms `A^T A` (cols x cols), eigendecomposes it to
/// get `V` and `s^2`, and recovers `U = A V diag(1/s)`. When `rows < cols`
/// the roles are swapped. Zero singular directions get zero-padded singular
/// vectors (they never contribute to a basis).
pub fn svd_gram(a: &Matrix) -> Result<Svd> {
    top_svd_gram(a, a.rows().min(a.cols()))
}

/// The top `k` singular triplets by [`svd_gram`]'s route. The dense solver
/// forms only the Gram's `k` largest eigenvectors, so the first `j`
/// triplets are bitwise the same for every `k >= j`.
fn top_svd_gram(a: &Matrix, k: usize) -> Result<Svd> {
    let (m, n) = a.shape();
    if m == 0 || n == 0 {
        return Ok(Svd {
            u: Matrix::zeros(m, 0),
            s: vec![],
            v: Matrix::zeros(n, 0),
        });
    }
    if m >= n {
        let g = a.gram(); // n x n
        let eig = eigh_largest(&g, k)?;
        // Descending singular values from the ascending eigenvalues.
        let s: Vec<f64> = eig.eigenvalues[n - k..]
            .iter()
            .rev()
            .map(|&l| l.max(0.0).sqrt())
            .collect();
        let v = eig.eigenvectors;
        let mut u = a.matmul(&v)?;
        for (j, &sv) in s.iter().enumerate() {
            let col = u.col_mut(j);
            if sv > f64::EPSILON * 16.0 {
                vector::scale(col, 1.0 / sv);
            } else {
                col.fill(0.0);
            }
        }
        Ok(Svd { u, s, v })
    } else {
        let sw = top_svd_gram(&a.transpose(), k)?;
        Ok(Svd {
            u: sw.v,
            s: sw.s,
            v: sw.u,
        })
    }
}

/// One-sided Jacobi SVD (Hestenes): orthogonalizes the columns of a working
/// copy by plane rotations until all pairs are numerically orthogonal.
pub fn svd_jacobi(a: &Matrix) -> Result<Svd> {
    let (m, n) = a.shape();
    if m < n {
        let sw = svd_jacobi(&a.transpose())?;
        return Ok(Svd {
            u: sw.v,
            s: sw.s,
            v: sw.u,
        });
    }
    if n == 0 {
        return Ok(Svd {
            u: Matrix::zeros(m, 0),
            s: vec![],
            v: Matrix::zeros(n, 0),
        });
    }
    let mut u = a.clone();
    let mut v = Matrix::identity(n);
    let eps = f64::EPSILON;
    let max_sweeps = 60;
    let mut converged = false;
    for _ in 0..max_sweeps {
        let mut off = 0.0f64;
        for p in 0..n {
            for q in p + 1..n {
                let (cp, cq) = split_two_cols(&mut u, p, q, m);
                let alpha = vector::dot(cp, cp);
                let beta = vector::dot(cq, cq);
                let gamma = vector::dot(cp, cq);
                if alpha * beta == 0.0 {
                    continue;
                }
                let ortho = gamma.abs() / (alpha * beta).sqrt();
                off = off.max(ortho);
                if ortho <= eps {
                    continue;
                }
                // Jacobi rotation zeroing the (p,q) Gram entry.
                let zeta = (beta - alpha) / (2.0 * gamma);
                let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                for i in 0..m {
                    let up = cp[i];
                    let uq = cq[i];
                    cp[i] = c * up - s * uq;
                    cq[i] = s * up + c * uq;
                }
                let (vp, vq) = split_two_cols(&mut v, p, q, n);
                for i in 0..n {
                    let a0 = vp[i];
                    let b0 = vq[i];
                    vp[i] = c * a0 - s * b0;
                    vq[i] = s * a0 + c * b0;
                }
            }
        }
        if off <= eps * 4.0 {
            converged = true;
            break;
        }
    }
    if !converged {
        return Err(LinalgError::NoConvergence {
            routine: "svd_jacobi",
            iterations: max_sweeps,
        });
    }
    // Column norms of the rotated U are the singular values.
    let mut pairs: Vec<(f64, usize)> = (0..n).map(|j| (vector::norm2(u.col(j)), j)).collect();
    pairs.sort_by(|a, b| b.0.total_cmp(&a.0));
    let order: Vec<usize> = pairs.iter().map(|&(_, j)| j).collect();
    let s: Vec<f64> = pairs.iter().map(|&(sv, _)| sv).collect();
    let mut u = u.select_columns(&order);
    let v = v.select_columns(&order);
    for (j, &sv) in s.iter().enumerate() {
        let col = u.col_mut(j);
        if sv > 0.0 {
            vector::scale(col, 1.0 / sv);
        }
    }
    Ok(Svd { u, s, v })
}

/// Borrows two distinct columns of `m` mutably.
fn split_two_cols(m: &mut Matrix, p: usize, q: usize, rows: usize) -> (&mut [f64], &mut [f64]) {
    debug_assert!(p < q);
    let data = m.as_mut_slice();
    let (head, tail) = data.split_at_mut(q * rows);
    (&mut head[p * rows..p * rows + rows], &mut tail[..rows])
}

/// Truncated SVD keeping the top `k` singular triplets (paper footnote 3:
/// "we use truncate SVD instead of standard SVD to reduce the computational
/// complexity"). Only the `k` wanted triplets are formed, and the first
/// `j` are bitwise the same for every `k >= j`. Returns an error when `k`
/// exceeds `min(rows, cols)`.
pub fn truncated_svd(a: &Matrix, k: usize) -> Result<Svd> {
    let kmax = a.rows().min(a.cols());
    if k > kmax {
        return Err(LinalgError::InvalidArgument(
            "truncation k exceeds min(rows, cols)",
        ));
    }
    let svd = top_svd_gram(a, k)?;
    crate::vector::debug_assert_finite(&svd.s, "truncated_svd singular values");
    Ok(svd)
}

/// Orthonormal basis of the dominant `dim`-dimensional column space of `a`
/// (the first `dim` left singular vectors). This is exactly the paper's
/// `U_{d_t}^{(z)}` basis estimate for a local cluster.
pub fn dominant_basis(a: &Matrix, dim: usize) -> Result<Matrix> {
    let k = dim.min(a.rows().min(a.cols()));
    Ok(truncated_svd(a, k)?.u)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag_test_matrix() -> Matrix {
        Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0], &[0.0, 0.0]]).unwrap()
    }

    #[test]
    fn gram_svd_singular_values_of_diagonal() {
        let svd = svd_gram(&diag_test_matrix()).unwrap();
        assert!((svd.s[0] - 4.0).abs() < 1e-10);
        assert!((svd.s[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn gram_svd_reconstructs() {
        let a = Matrix::from_rows(&[
            &[1.0, 2.0, 0.5],
            &[-1.0, 0.0, 2.0],
            &[3.0, 1.0, 1.0],
            &[0.0, -2.0, 1.0],
        ])
        .unwrap();
        let svd = svd_gram(&a).unwrap();
        assert!(svd.reconstruct().sub(&a).unwrap().max_abs() < 1e-8);
    }

    #[test]
    fn jacobi_svd_reconstructs_to_machine_precision() {
        let a = Matrix::from_rows(&[
            &[1.0, 2.0, 0.5],
            &[-1.0, 0.0, 2.0],
            &[3.0, 1.0, 1.0],
            &[0.0, -2.0, 1.0],
        ])
        .unwrap();
        let svd = svd_jacobi(&a).unwrap();
        assert!(svd.reconstruct().sub(&a).unwrap().max_abs() < 1e-12);
        // U and V orthonormal.
        let utu = svd.u.gram();
        let vtv = svd.v.gram();
        for i in 0..3 {
            for j in 0..3 {
                let e = if i == j { 1.0 } else { 0.0 };
                assert!((utu[(i, j)] - e).abs() < 1e-12);
                assert!((vtv[(i, j)] - e).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn gram_and_jacobi_agree_on_singular_values() {
        let a = Matrix::from_rows(&[
            &[2.0, 0.0, 1.0, 3.0],
            &[0.0, 1.0, -1.0, 1.0],
            &[1.0, 1.0, 1.0, 0.0],
        ])
        .unwrap();
        let g = svd_gram(&a).unwrap();
        let j = svd_jacobi(&a).unwrap();
        for (x, y) in g.s.iter().zip(&j.s) {
            assert!((x - y).abs() < 1e-8, "{x} vs {y}");
        }
    }

    #[test]
    fn wide_matrix_is_handled() {
        let a = Matrix::from_rows(&[&[1.0, 0.0, 0.0, 2.0], &[0.0, 3.0, 0.0, 0.0]]).unwrap();
        let svd = svd_gram(&a).unwrap();
        assert_eq!(svd.u.shape(), (2, 2));
        assert_eq!(svd.v.shape(), (4, 2));
        assert!(svd.reconstruct().sub(&a).unwrap().max_abs() < 1e-10);
    }

    #[test]
    fn rank_detects_deficiency() {
        // Two identical columns -> rank 1.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]).unwrap();
        let svd = svd_gram(&a).unwrap();
        assert_eq!(svd.rank(Some(1e-8)), 1);
    }

    #[test]
    fn truncated_svd_keeps_top_k() {
        let a = diag_test_matrix();
        let t = truncated_svd(&a, 1).unwrap();
        assert_eq!(t.s.len(), 1);
        assert!((t.s[0] - 4.0).abs() < 1e-10);
        assert_eq!(t.u.cols(), 1);
        assert!(truncated_svd(&a, 5).is_err());
    }

    #[test]
    fn dominant_basis_spans_column_space() {
        // Columns live in span{e1, e2}.
        let a =
            Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[1.0, -1.0, 0.5], &[0.0, 0.0, 0.0]]).unwrap();
        let b = dominant_basis(&a, 2).unwrap();
        assert_eq!(b.shape(), (3, 2));
        // Third coordinate of the basis must vanish.
        assert!(b.row(2).iter().all(|v| v.abs() < 1e-10));
    }

    #[test]
    fn empty_matrix() {
        let svd = svd_gram(&Matrix::zeros(0, 0)).unwrap();
        assert!(svd.s.is_empty());
    }
}
