//! The symmetric-operator abstraction ([`SymOp`]) and the dense Lanczos
//! entry point.
//!
//! For the pooled-sample graphs of large federated runs (`N` in the
//! thousands) a full Householder reduction costs `O(N^3)` while Lanczos
//! costs `O(m N^2)` for a Krylov dimension `m` far below `N`.
//! [`lanczos_smallest`] routes to the **thick-restart block Lanczos**
//! solver in [`crate::thick_restart`] — block expansion tuned to
//! multi-vector operator products ([`SymOp::apply_block`]), selective
//! reorthogonalization via the ω-recurrence, and restart that retains
//! converged and nearly-converged Ritz vectors.

use crate::eigh::SymmetricEig;
use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;
use crate::thick_restart::{self, ThickRestartOptions};

/// A symmetric linear operator — everything the Lanczos iteration actually
/// touches. Implemented by dense [`Matrix`] here and by the CSR matrix in
/// `fedsc-sparse`, so the spectral stage can consume sparse Laplacians
/// without densifying.
pub trait SymOp {
    /// Operator dimension `n` (the operator is `n x n`).
    fn dim(&self) -> usize;

    /// `A x` for a length-`dim` vector.
    fn apply(&self, x: &[f64]) -> Result<Vec<f64>>;

    /// `A X` for `ncols` vectors stored **interleaved**: `x[i * ncols + j]`
    /// is row `i` of vector `j`, and the result uses the same layout. This
    /// is the block solver's hot call: implementations amortize one pass
    /// over the operator's data across all `ncols` vectors (the CSR impl
    /// traverses the matrix once and fans row ranges out over the
    /// persistent pool). `threads` is a parallelism hint; implementations
    /// must return bitwise-identical results for every value of it.
    ///
    /// The default de-interleaves and calls [`SymOp::apply`] per vector —
    /// correct for any operator, with no traversal amortization.
    fn apply_block(&self, x: &[f64], ncols: usize, threads: usize) -> Result<Vec<f64>> {
        let _ = threads;
        let n = self.dim();
        if ncols == 0 {
            return Ok(vec![]);
        }
        if x.len() != n * ncols {
            return Err(LinalgError::ShapeMismatch {
                expected: (n * ncols, 1),
                got: (x.len(), 1),
            });
        }
        let mut y = vec![0.0; n * ncols];
        let mut col = vec![0.0; n];
        for j in 0..ncols {
            for i in 0..n {
                col[i] = x[i * ncols + j];
            }
            let aj = self.apply(&col)?;
            for i in 0..n {
                y[i * ncols + j] = aj[i];
            }
        }
        Ok(y)
    }

    /// `(sigma, scale)`: a Gershgorin upper bound on the spectrum
    /// (`max_i (a_ii + sum_{j != i} |a_ij|)`) and the largest absolute
    /// entry (for residual tolerances).
    fn gershgorin(&self) -> (f64, f64);
}

impl SymOp for Matrix {
    fn dim(&self) -> usize {
        self.rows()
    }

    fn apply(&self, x: &[f64]) -> Result<Vec<f64>> {
        self.matvec(x)
    }

    fn apply_block(&self, x: &[f64], ncols: usize, threads: usize) -> Result<Vec<f64>> {
        let n = self.rows();
        if ncols == 0 {
            return Ok(vec![]);
        }
        if x.len() != n * ncols {
            return Err(LinalgError::ShapeMismatch {
                expected: (n * ncols, 1),
                got: (x.len(), 1),
            });
        }
        // Marshal into a column-major panel and use the blocked matmul
        // kernel: one pass over `self` per register block instead of
        // `ncols` full matvec traversals.
        let mut xm = Matrix::zeros(n, ncols);
        for j in 0..ncols {
            let c = xm.col_mut(j);
            for i in 0..n {
                c[i] = x[i * ncols + j];
            }
        }
        let ym = self.matmul_threaded(&xm, threads.max(1))?;
        let mut y = vec![0.0; n * ncols];
        for j in 0..ncols {
            let c = ym.col(j);
            for i in 0..n {
                y[i * ncols + j] = c[i];
            }
        }
        Ok(y)
    }

    fn gershgorin(&self) -> (f64, f64) {
        let n = self.rows();
        let mut sigma = f64::NEG_INFINITY;
        let mut scale = 0.0f64;
        for i in 0..n {
            let mut row_sum = 0.0;
            for j in 0..n {
                let v = self[(i, j)];
                row_sum += if i == j { v } else { v.abs() };
                scale = scale.max(v.abs());
            }
            sigma = sigma.max(row_sum);
        }
        (sigma, scale)
    }
}

/// Computes the `k` smallest eigenpairs of symmetric `a`. Returns
/// eigenvalues ascending.
///
/// Routes to the thick-restart block Lanczos solver
/// ([`crate::thick_restart::thick_restart_smallest`]); `extra` bounds the
/// retained basis dimension (`m = k + extra`, capped by the matrix size);
/// 40–60 is ample for Laplacian spectra.
pub fn lanczos_smallest(a: &Matrix, k: usize, extra: usize) -> Result<SymmetricEig> {
    let (n, nc) = a.shape();
    if n != nc {
        return Err(LinalgError::ShapeMismatch {
            expected: (n, n),
            got: (n, nc),
        });
    }
    let opts = ThickRestartOptions {
        max_basis: k.saturating_add(extra),
        ..ThickRestartOptions::default()
    };
    thick_restart::thick_restart_smallest(a, k, &opts)
}

/// Deterministic pseudo-random start vector varying by `salt`, so the
/// thick-restart solver and the dense eigensolver's inverse iteration stay
/// RNG-free and their runs reproducible.
pub(crate) fn start_vector(n: usize, salt: usize) -> Vec<f64> {
    let mut state = (salt as u64)
        .wrapping_mul(0x9e3779b97f4a7c15)
        .wrapping_add(0x2545f491);
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) - 0.5
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eigh::eigh;

    fn random_symmetric(n: usize, seed: u64) -> Matrix {
        let mut a = Matrix::zeros(n, n);
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) - 0.5
        };
        for i in 0..n {
            for j in 0..=i {
                let v = next();
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        a
    }

    #[test]
    fn matches_dense_eig_on_random_matrix() {
        let a = random_symmetric(60, 42);
        let dense = eigh(&a).unwrap();
        let lz = lanczos_smallest(&a, 5, 45).unwrap();
        for i in 0..5 {
            assert!(
                (dense.eigenvalues[i] - lz.eigenvalues[i]).abs() < 1e-7,
                "eigenvalue {i}: {} vs {}",
                dense.eigenvalues[i],
                lz.eigenvalues[i]
            );
        }
        for i in 0..5 {
            let v = lz.eigenvectors.col(i);
            let av = a.matvec(v).unwrap();
            let r: f64 = av
                .iter()
                .zip(v)
                .map(|(&x, &y)| (x - lz.eigenvalues[i] * y).abs())
                .fold(0.0, f64::max);
            assert!(r < 1e-6, "residual {r}");
        }
    }

    #[test]
    fn finds_all_copies_of_degenerate_zero() {
        // Block-diagonal Laplacian of FIVE components: eigenvalue 0 with
        // multiplicity 5 — the case plain Lanczos cannot handle.
        let blocks = 5;
        let bs = 4;
        let n = blocks * bs;
        let mut a = Matrix::zeros(n, n);
        for b in 0..blocks {
            let off = b * bs;
            for i in 0..bs {
                for j in 0..bs {
                    a[(off + i, off + j)] = if i == j { (bs - 1) as f64 } else { -1.0 };
                }
            }
        }
        let lz = lanczos_smallest(&a, blocks + 1, 10).unwrap();
        for i in 0..blocks {
            assert!(
                lz.eigenvalues[i].abs() < 1e-8,
                "eigenvalue {i} = {}",
                lz.eigenvalues[i]
            );
        }
        assert!((lz.eigenvalues[blocks] - bs as f64).abs() < 1e-7);
    }

    #[test]
    fn near_degenerate_cluster_is_fully_resolved() {
        // Diagonal with a tight cluster near zero plus a bulk: all cluster
        // members must be found.
        let n = 300;
        let mut a = Matrix::zeros(n, n);
        for i in 0..20 {
            a[(i, i)] = 1e-4 * (i as f64 + 1.0);
        }
        for i in 20..n {
            a[(i, i)] = 1.0 + 0.01 * i as f64;
        }
        let lz = lanczos_smallest(&a, 20, 40).unwrap();
        for i in 0..20 {
            let expect = 1e-4 * (i as f64 + 1.0);
            // Every copy must be resolved within half the 1e-4 cluster
            // spacing.
            assert!(
                (lz.eigenvalues[i] - expect).abs() < 5e-5,
                "eigenvalue {i}: {} vs {expect}",
                lz.eigenvalues[i]
            );
        }
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let a = random_symmetric(40, 7);
        let lz = lanczos_smallest(&a, 4, 36).unwrap();
        let g = lz.eigenvectors.gram();
        for i in 0..4 {
            for j in 0..4 {
                let e = if i == j { 1.0 } else { 0.0 };
                assert!((g[(i, j)] - e).abs() < 1e-7, "G[{i},{j}] = {}", g[(i, j)]);
            }
        }
    }

    #[test]
    fn k_zero_and_empty() {
        let a = Matrix::identity(3);
        assert!(lanczos_smallest(&a, 0, 10).unwrap().eigenvalues.is_empty());
        let e = lanczos_smallest(&Matrix::zeros(0, 0), 2, 10).unwrap();
        assert!(e.eigenvalues.is_empty());
    }

    #[test]
    fn k_equal_n_degenerates_gracefully() {
        let a = random_symmetric(10, 3);
        let lz = lanczos_smallest(&a, 10, 0).unwrap();
        let dense = eigh(&a).unwrap();
        for i in 0..10 {
            assert!((dense.eigenvalues[i] - lz.eigenvalues[i]).abs() < 1e-6);
        }
    }
}
