//! Lanczos iteration for the smallest eigenpairs of a symmetric matrix.
//!
//! Spectral clustering only needs the `k` smallest eigenvectors of the
//! (dense, PSD) normalized Laplacian; for the pooled-sample graphs of large
//! federated runs (`N` in the thousands) the dense path's Householder
//! reduction costs `O(N^3)` while Lanczos costs `O(m N^2)` for a Krylov dimension `m` far
//! below `N`.
//!
//! The production entry points ([`lanczos_smallest`] /
//! [`lanczos_smallest_op`]) route to the **thick-restart block Lanczos**
//! solver in [`crate::thick_restart`] — block expansion tuned to multi-vector
//! operator products ([`SymOp::apply_block`]), selective reorthogonalization
//! via the ω-recurrence, and restart that retains converged and
//! nearly-converged Ritz vectors. The original **lock-and-restart deflated**
//! solver is kept as [`deflated_lanczos_smallest_op`]: it is the measured
//! baseline in the perf harness head-to-head, and documents the failure mode
//! (degenerate-cluster misses, restart-bound wall clock) the thick-restart
//! solver exists to fix.
//!
//! The legacy iteration reaches the *smallest* eigenvalues with a recurrence
//! that converges to extremes by running on `B = sigma I - A`, `sigma` a
//! Gershgorin upper bound on `A`'s spectrum.

use crate::eigh::{eigh, SymmetricEig};
use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;
use crate::thick_restart::{self, ThickRestartOptions};
use crate::vector;

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
    lanczos_smallest_op(a, k, extra)
}

/// [`lanczos_smallest`] over any [`SymOp`] — the matrix-free entry point
/// the CSR spectral path uses.
pub fn lanczos_smallest_op<A: SymOp + ?Sized>(
    a: &A,
    k: usize,
    extra: usize,
) -> Result<SymmetricEig> {
    let opts = ThickRestartOptions {
        max_basis: k.saturating_add(extra),
        ..ThickRestartOptions::default()
    };
    thick_restart::thick_restart_smallest(a, k, &opts)
}

/// The pre-PR-10 **lock-and-restart deflated** Lanczos solver, kept as the
/// measured baseline for the `spectral_sparse` head-to-head bench rows (and
/// as a second, independent implementation the tests can cross-check).
///
/// Runs Lanczos with full two-pass reorthogonalization every step, locks
/// Ritz pairs whose true residual `||A y - lambda y||` is below tolerance,
/// restarts with a fresh start vector deflated against everything locked,
/// and repeats until `k` pairs are locked. Known limitation (the reason it
/// was replaced): on disconnected Laplacians past the dense cutover the
/// restart budget can run out before every copy of the degenerate zero
/// eigenvalue is dug out, silently locking near-zero bulk Ritz values
/// instead.
pub fn deflated_lanczos_smallest_op<A: SymOp + ?Sized>(
    a: &A,
    k: usize,
    extra: usize,
) -> Result<SymmetricEig> {
    let n = a.dim();
    if k == 0 || n == 0 {
        return Ok(SymmetricEig {
            eigenvalues: vec![],
            eigenvectors: Matrix::zeros(n, 0),
        });
    }
    let k = k.min(n);

    // Gershgorin bound: sigma >= lambda_max(A).
    let (mut sigma, scale) = a.gershgorin();
    if !sigma.is_finite() {
        return Err(LinalgError::InvalidArgument(
            "matrix entries must be finite",
        ));
    }
    sigma += 1.0;
    let resid_tol = 1e-6 * scale.max(1.0);

    let mut locked_vals: Vec<f64> = Vec::with_capacity(k);
    let mut locked_vecs: Vec<Vec<f64>> = Vec::with_capacity(k);
    let max_restarts = 4 * k + 8;
    let mut restart = 0usize;
    while locked_vals.len() < k && restart < max_restarts {
        let remaining = k - locked_vals.len();
        let room = n - locked_vecs.len();
        if room == 0 {
            break;
        }
        let m = (remaining + extra).min(room).max(1);
        let (thetas, ritz) = lanczos_run(a, sigma, m, &locked_vecs, restart)?;
        // Lock converged Ritz pairs (true residual check), best first. Each
        // restart must make progress, so if nothing converged we lock the
        // single most-converged pair anyway — this matches what a plain
        // Lanczos caller would have received.
        let mut any = false;
        let mut best: Option<(f64, f64, Vec<f64>)> = None; // (resid, val, vec)
                                                           // Only the top `remaining` Ritz pairs of B are candidates for the
                                                           // still-missing smallest eigenvalues of A. Lock the *converged
                                                           // prefix* only: locking a converged pair past an unconverged smaller
                                                           // one would let bulk eigenvalues steal slots from slow-converging
                                                           // copies of the degenerate cluster.
        for (theta, y) in thetas.into_iter().zip(ritz).take(remaining) {
            if locked_vals.len() >= k {
                break;
            }
            let lambda = sigma - theta;
            let ay = a.apply(&y)?;
            crate::thick_restart::MATVECS.inc();
            let resid = ay
                .iter()
                .zip(&y)
                .map(|(&av, &yv)| (av - lambda * yv).abs())
                .fold(0.0f64, f64::max);
            if resid <= resid_tol {
                lock(&mut locked_vals, &mut locked_vecs, lambda, y);
                any = true;
            } else {
                best = Some((resid, lambda, y));
                break;
            }
        }
        if !any {
            // Stagnation guard: no converged prefix — lock the best
            // available estimate of the smallest remaining eigenpair so
            // every restart makes progress.
            if let Some((_, lambda, y)) = best {
                lock(&mut locked_vals, &mut locked_vecs, lambda, y);
            } else {
                break;
            }
        }
        restart += 1;
    }

    // Sort ascending and truncate to k.
    let mut order: Vec<usize> = (0..locked_vals.len()).collect();
    order.sort_by(|&i, &j| locked_vals[i].total_cmp(&locked_vals[j]));
    order.truncate(k);
    let eigenvalues: Vec<f64> = order.iter().map(|&i| locked_vals[i]).collect();
    let cols: Vec<&[f64]> = order.iter().map(|&i| locked_vecs[i].as_slice()).collect();
    let eigenvectors = Matrix::from_columns(&cols)?;
    Ok(SymmetricEig {
        eigenvalues,
        eigenvectors,
    })
}

/// Re-orthogonalizes a candidate eigenvector against the locked set and
/// appends it (guards against duplicates slipping through numerically).
fn lock(vals: &mut Vec<f64>, vecs: &mut Vec<Vec<f64>>, lambda: f64, mut y: Vec<f64>) {
    for v in vecs.iter() {
        let c = vector::dot(v, &y);
        vector::axpy(-c, v, &mut y);
    }
    if vector::normalize(&mut y, 1e-8) > 1e-8 {
        vals.push(lambda);
        vecs.push(y);
    }
}

/// One Lanczos run on `B = sigma I - A`, deflated against `locked`.
/// Returns the Ritz values of `B` (descending, i.e. best candidates for
/// `A`'s smallest first) and their Ritz vectors.
fn lanczos_run<A: SymOp + ?Sized>(
    a: &A,
    sigma: f64,
    m: usize,
    locked: &[Vec<f64>],
    restart: usize,
) -> Result<(Vec<f64>, Vec<Vec<f64>>)> {
    let n = a.dim();
    let mut q: Vec<Vec<f64>> = Vec::with_capacity(m);
    let mut alpha: Vec<f64> = Vec::with_capacity(m);
    let mut beta: Vec<f64> = Vec::with_capacity(m);

    let mut v0 = start_vector(n, restart);
    deflate(&mut v0, locked, &q);
    if vector::normalize(&mut v0, 1e-12) <= 1e-12 {
        return Ok((vec![], vec![]));
    }
    q.push(v0);

    for j in 0..m {
        let qj = &q[j];
        let aq = a.apply(qj)?;
        crate::thick_restart::MATVECS.inc();
        let mut w: Vec<f64> = qj.iter().zip(&aq).map(|(&x, &ax)| sigma * x - ax).collect();
        let aj = vector::dot(&w, qj);
        alpha.push(aj);
        // Full reorthogonalization against the Krylov basis and the locked
        // vectors (twice for numerical safety).
        for _ in 0..2 {
            deflate(&mut w, locked, &q);
        }
        if j + 1 == m {
            break;
        }
        let bnorm = vector::norm2(&w);
        if bnorm <= 1e-12 {
            // Krylov space exhausted (exact invariant subspace): restart
            // inside the run with a fresh deflated direction, recorded as a
            // zero coupling in T.
            let mut fresh = start_vector(n, restart + j + 1);
            deflate(&mut fresh, locked, &q);
            if vector::normalize(&mut fresh, 1e-10) <= 1e-10 {
                break;
            }
            beta.push(0.0);
            q.push(fresh);
            continue;
        }
        vector::scale(&mut w, 1.0 / bnorm);
        beta.push(bnorm);
        q.push(w);
    }

    let mm = alpha.len();
    if mm == 0 {
        return Ok((vec![], vec![]));
    }
    let mut t = Matrix::zeros(mm, mm);
    for i in 0..mm {
        t[(i, i)] = alpha[i];
        if i + 1 < mm {
            t[(i, i + 1)] = beta[i];
            t[(i + 1, i)] = beta[i];
        }
    }
    let teig = eigh(&t)?;
    // Top of B's spectrum = bottom of A's; report all Ritz pairs, best
    // (largest theta) first — the caller decides what to lock.
    let mut thetas = Vec::with_capacity(mm);
    let mut ritz = Vec::with_capacity(mm);
    for idx in (0..mm).rev() {
        let s = teig.eigenvectors.col(idx);
        let mut y = vec![0.0; n];
        for (row, &si) in q.iter().zip(s) {
            vector::axpy(si, row, &mut y);
        }
        if vector::normalize(&mut y, 1e-12) <= 1e-12 {
            continue;
        }
        thetas.push(teig.eigenvalues[idx]);
        ritz.push(y);
    }
    Ok((thetas, ritz))
}

/// Deterministic pseudo-random start vector varying by `salt` (keeps the
/// whole solver RNG-free and runs reproducible). Shared with the
/// thick-restart solver so both draw from the same stream shape.
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

/// Orthogonalizes `w` against the locked vectors and the Krylov basis.
fn deflate(w: &mut [f64], locked: &[Vec<f64>], q: &[Vec<f64>]) {
    for v in locked.iter().chain(q.iter()) {
        let c = vector::dot(v, w);
        if c != 0.0 {
            vector::axpy(-c, v, w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            // Stagnation-guard locks may carry a few 1e-5 of error; what
            // matters is that every copy is resolved within half the 1e-4
            // cluster spacing.
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
