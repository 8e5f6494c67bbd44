//! Symmetric eigendecomposition that computes only the pairs a caller reads.
//!
//! This is the dense solver behind every spectral step in the workspace:
//! the devices' eigengap and normalized spectral clustering, their
//! truncated-SVD bases, the server's segmentation below the Lanczos
//! cutover, the Rayleigh–Ritz projections of the iterative solvers, and the
//! CONN connectivity metric. Callers read all eigenvalues at most, but
//! rarely more than a few eigenvectors, so [`eigh_partial`] forms only
//! those:
//!
//! 1. Householder reduction to tridiagonal form `A = Q T Qᵀ` (the reduction
//!    phase of EISPACK `tred2`). `Q` is never formed: its reflectors stay in
//!    the strict upper triangle of the working copy.
//! 2. All eigenvalues of `T` by implicit-shift QL without vectors (EISPACK
//!    `tql2` minus its rotation accumulation), `O(n²)`.
//! 3. The wanted eigenvectors of `T` by inverse iteration in the style of
//!    LAPACK `dstein`: a pivoted tridiagonal LU per shift, a `10·ε·‖T‖`
//!    shift perturbation between equal eigenvalues, and modified
//!    Gram–Schmidt against the earlier vectors of the same cluster
//!    (eigenvalues chained by gaps below `1e-3·‖T‖`). `O(n)` per vector and
//!    iteration.
//! 4. The reflectors applied to those `k` vectors: `2n²k` flops instead of
//!    the `O(n³)` accumulation of `Q` and of the QL rotations.
//!
//! Each vector keeps the orientation `tred2`/`tql2` would have given it:
//! step 2 carries a seeded probe `yᵀ` through its rotations at `O(1)` per
//! rotation, and step 3 flips each vector so that its product with `y`
//! has the probe's sign. A QL step can flip a column's sign, so this
//! needs `T` and the eigenvalues bitwise equal to `tred2`/`tql2`'s; steps
//! 1 and 2 keep their arithmetic for that. Orientation matters downstream:
//! a device samples `U α / ‖U α‖` from its truncated-SVD basis `U`.
//!
//! Eigenvalues come in **ascending** order, the order spectral clustering
//! consumes them in. Vector `j` is computed from the eigenvalues, a start
//! vector seeded by `j` and the vectors before it, never the ones after, so
//! the first `j` columns of a request are bitwise the same for every
//! requested count `≥ j`. That keeps an eigengap caller, which asks for
//! vectors up to its count cap, bitwise consistent with a fixed-count
//! caller that asks for exactly its count.

use crate::error::{LinalgError, Result};
use crate::lanczos::start_vector;
use crate::matrix::Matrix;
use crate::vector;
use fedsc_obs::LazyCounter;

/// Inverse-iteration solves, summed over every computed eigenvector.
static INVERSE_ITERATIONS: LazyCounter = LazyCounter::new("eigh.inverse_iterations");
/// Eigenvectors whose inverse iteration hit [`MAX_INVERSE_ITERS`] before
/// passing the growth test. Zero on every well-posed solve.
static UNCONVERGED: LazyCounter = LazyCounter::new("eigh.unconverged");

/// Eigendecomposition `A = V diag(w) V^T` of a symmetric matrix, or the
/// part of it a caller asked for.
#[derive(Debug, Clone)]
#[must_use = "dropping an eigendecomposition discards the factorization work"]
pub struct SymmetricEig {
    /// Eigenvalues in ascending order.
    pub eigenvalues: Vec<f64>,
    /// Orthonormal eigenvectors as columns: column `j` belongs to
    /// `eigenvalues[j]`. A partial solve holds fewer columns than
    /// eigenvalues — the eigenvectors of the smallest ones.
    pub eigenvectors: Matrix,
}

/// Maximum implicit-QL iterations per eigenvalue before reporting failure.
const MAX_QL_ITERS: usize = 50;
/// Inverse-iteration solves per eigenvector before it counts as
/// unconverged (LAPACK `dstein`'s `MAXITS`).
const MAX_INVERSE_ITERS: usize = 5;
/// Solves after the first one that passes the growth test (`dstein`'s
/// `EXTRA`): they refine the vector and its orthogonality to the cluster.
const EXTRA_INVERSE_ITERS: usize = 2;
/// Eigenvalues closer than this fraction of `‖T‖` form one cluster whose
/// vectors are orthogonalized against each other (`dstein`'s `ORTOL`).
const CLUSTER_GAP: f64 = 1e-3;
/// Seed of the unit probe that carries `tql2`'s eigenvector orientation
/// through the QL rotations (see [`ql_eigenvalues`]). Inverse iteration
/// seeds its start vectors below `7n`, so the probe is drawn apart.
const PROBE_SALT: usize = usize::MAX;
/// Smallest `|yᵀ w|` whose sign orients a vector: far above the rounding
/// of the probe's `O(n²)` rotations, far below its typical `1/√n`.
const ORIENT_TOL: f64 = 1e-8;

/// Computes the full eigendecomposition of a symmetric matrix:
/// [`eigh_partial`] with every eigenvector.
pub fn eigh(a: &Matrix) -> Result<SymmetricEig> {
    eigh_partial(a, a.cols())
}

/// All eigenvalues of a symmetric matrix (ascending) and the eigenvectors
/// of its `vectors` smallest ones (clamped to `n`; `0` computes eigenvalues
/// only).
///
/// Only the lower triangle of `a` is read; the strict upper triangle is
/// assumed to mirror it. Returns an error for non-square input, when the
/// QL iteration fails to converge, or when an eigenvector's inverse
/// iteration fails its growth test within 5 solves (LAPACK `dstein`
/// reports the same through `INFO > 0`); for symmetric
/// input neither happens in practice. The first `j` eigenvector columns
/// are bitwise independent of `vectors ≥ j`.
pub fn eigh_partial(a: &Matrix, vectors: usize) -> Result<SymmetricEig> {
    dense_eig(a, vectors, false)
}

/// All eigenvalues of a symmetric matrix (ascending) and the eigenvectors
/// of its `vectors` largest ones in **descending** order: column `j`
/// belongs to `eigenvalues[n - 1 - j]`. Otherwise as [`eigh_partial`],
/// including the prefix invariant for the leading columns.
pub(crate) fn eigh_largest(a: &Matrix, vectors: usize) -> Result<SymmetricEig> {
    dense_eig(a, vectors, true)
}

/// The shared body of [`eigh_partial`] and [`eigh_largest`].
fn dense_eig(a: &Matrix, vectors: usize, largest: bool) -> Result<SymmetricEig> {
    let (m, n) = a.shape();
    if m != n {
        return Err(LinalgError::ShapeMismatch {
            expected: (m, m),
            got: (m, n),
        });
    }
    let mut v = a.clone();
    let (d, e, h) = tridiagonalize(&mut v);
    let (mut values, mut work) = (d.clone(), e.clone());
    let mut probe = start_vector(n, PROBE_SALT);
    let pnorm = vector::norm2(&probe);
    vector::scale(&mut probe, 1.0 / pnorm);
    let mut oriented = probe.clone();
    ql_eigenvalues(&mut values, &mut work, &mut oriented)?;
    // Stable ascending order, ties kept in QL order.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| values[i].total_cmp(&values[j]));
    let k = vectors.min(n);
    // The largest pairs of `T` are the smallest of `-T`, with the same
    // eigenvectors; solving them first keeps the prefix invariant.
    let (wanted, sign): (Vec<usize>, f64) = if largest {
        (order.iter().rev().take(k).copied().collect(), -1.0)
    } else {
        (order[..k].to_vec(), 1.0)
    };
    let scaled = |x: &[f64]| x.iter().map(|v| sign * v).collect::<Vec<f64>>();
    let shifts: Vec<f64> = wanted.iter().map(|&i| sign * values[i]).collect();
    let signs: Vec<f64> = wanted.iter().map(|&i| oriented[i]).collect();
    let (mut eigenvectors, solves, unconverged) =
        tridiagonal_eigenvectors(&scaled(&d), &scaled(&e), &shifts, &probe, &signs);
    INVERSE_ITERATIONS.add(solves);
    UNCONVERGED.add(unconverged);
    if unconverged > 0 {
        return Err(LinalgError::NoConvergence {
            routine: "eigh inverse iteration",
            iterations: MAX_INVERSE_ITERS,
        });
    }
    apply_reflectors(&v, &h, &mut eigenvectors);
    Ok(SymmetricEig {
        eigenvalues: order.iter().map(|&i| values[i]).collect(),
        eigenvectors,
    })
}

/// Computes only the `k` smallest eigenpairs.
///
/// Selects the backend by size: the dense [`eigh_partial`] for small
/// matrices or near-full requests, Lanczos (see [`crate::lanczos`]) when the
/// matrix is large and `k` is a small fraction of it — the
/// spectral-clustering hot path at federated scale.
pub fn k_smallest(a: &Matrix, k: usize) -> Result<SymmetricEig> {
    let n = a.rows();
    if lanczos_beats_dense(n, k) {
        return crate::lanczos::lanczos_smallest(a, k, k + 40);
    }
    let mut eig = eigh_partial(a, k)?;
    eig.eigenvalues.truncate(k);
    Ok(eig)
}

/// Shared dense-vs-Lanczos cutover: `true` when the thick-restart Lanczos
/// path (see [`crate::thick_restart`]) is expected to beat the dense solver
/// for the `k` smallest eigenpairs of an `n × n` symmetric operator.
///
/// The thresholds were set from measurement after the thick-restart
/// rewrite (see DESIGN.md §13), when the dense arm still formed every
/// eigenvector: dense is O(n³) with a small constant, the iterative path
/// roughly O(restarts · m · nnz + m²n), so the crossover depends on how
/// small `k` is relative to `n`. On the bench instances (block affinities,
/// k = #clusters) the iterative path won from a few hundred rows whenever
/// `k` stayed under ~n/6; we keep a margin and require `n > 400` and
/// `k·6 < n`. Both `eigh::k_smallest` and the sparse spectral pipeline in
/// `fedsc-clustering` consult this single predicate so the two layers can
/// never disagree about which backend ran.
#[must_use]
pub fn lanczos_beats_dense(n: usize, k: usize) -> bool {
    n > 400 && k.saturating_mul(6) < n
}

/// Householder reduction of the symmetric `v` (lower triangle) to
/// tridiagonal form — the reduction phase of EISPACK/JAMA `tred2`.
///
/// Returns the diagonal `d`, the subdiagonal `e` (`e[i] = T[i+1][i]`,
/// `e[n-1] = 0`) and the reflector scales `h`: reflector `i ≥ 1` is
/// `P_i = I - u uᵀ / h[i]` with `u = v[0..i, i]` (identity when
/// `h[i] == 0`), and `A = P_{n-1} ⋯ P_1 T P_1 ⋯ P_{n-1}`.
fn tridiagonalize(v: &mut Matrix) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let n = v.rows();
    // `d` is the working row of the step, `e` its scratch vector.
    let mut d: Vec<f64> = (0..n).map(|j| v[(n - 1, j)]).collect();
    let mut e = vec![0.0; n];
    let mut hs = vec![0.0; n];
    for i in (1..n).rev() {
        // Scale to avoid under/overflow.
        let scale: f64 = d[..i].iter().map(|x| x.abs()).sum();
        let mut h = 0.0;
        if scale == 0.0 {
            e[i] = d[i - 1];
            for j in 0..i {
                d[j] = v[(i - 1, j)];
                v[(i, j)] = 0.0;
                v[(j, i)] = 0.0;
            }
        } else {
            // Generate the Householder vector.
            for dk in &mut d[..i] {
                *dk /= scale;
                h += *dk * *dk;
            }
            let f = d[i - 1];
            let mut g = h.sqrt();
            if f > 0.0 {
                g = -g;
            }
            e[i] = scale * g;
            h -= f * g;
            d[i - 1] = f - g;
            e[..i].fill(0.0);

            // Apply similarity transformation to remaining columns.
            for j in 0..i {
                let f = d[j];
                v[(j, i)] = f;
                // Symmetric matvec from the lower triangle. The dot keeps
                // `tred2`'s left-to-right summation: `T` then matches it
                // bitwise, and with it the QL rotations that orient the
                // eigenvectors. The axpy is order-free and vectorizes.
                let col = &v.col(j)[j..i];
                let g = col[1..]
                    .iter()
                    .zip(&d[j + 1..i])
                    .fold(e[j] + col[0] * f, |g, (&vk, &dk)| g + vk * dk);
                vector::axpy(f, &col[1..], &mut e[j + 1..i]);
                e[j] = g;
            }
            let mut f = 0.0;
            for j in 0..i {
                e[j] /= h;
                f += e[j] * d[j];
            }
            let hh = f / (h + h);
            for j in 0..i {
                e[j] -= hh * d[j];
            }
            for j in 0..i {
                let (f, g) = (d[j], e[j]);
                let col = &mut v.col_mut(j)[j..i];
                for (x, (&ek, &dk)) in col.iter_mut().zip(e[j..i].iter().zip(&d[j..i])) {
                    *x -= f * ek + g * dk;
                }
                d[j] = v[(i - 1, j)];
                v[(i, j)] = 0.0;
            }
        }
        hs[i] = h;
    }
    let diag = (0..n).map(|i| v[(i, i)]).collect();
    let mut sub = vec![0.0; n];
    sub[..n.saturating_sub(1)].copy_from_slice(&e[1.min(n)..]);
    (diag, sub, hs)
}

/// Eigenvalues of the symmetric tridiagonal `tridiag(e, d, e)` by
/// implicit-shift QL (EISPACK `tql2` without the rotation accumulation).
/// On return `d` holds the eigenvalues, unsorted; `e` is destroyed.
///
/// `probe` is a row vector `yᵀ` carried through the rotations `tql2`
/// accumulates, at `O(1)` per rotation: on return entry `i` is `yᵀ w_i`
/// for the eigenvector `w_i` of `d[i]` that `tql2` would have formed,
/// sign included. [`tridiagonal_eigenvectors`] orients its vectors by it.
fn ql_eigenvalues(d: &mut [f64], e: &mut [f64], probe: &mut [f64]) -> Result<()> {
    let n = d.len();
    let mut f = 0.0f64;
    let mut tst1 = 0.0f64;
    let eps = f64::EPSILON;
    for l in 0..n {
        tst1 = tst1.max(d[l].abs() + e[l].abs());
        let mut m = l;
        while m < n {
            if e[m].abs() <= eps * tst1 {
                break;
            }
            m += 1;
        }
        if m == n {
            m = n - 1;
        }

        if m > l {
            let mut iter = 0;
            loop {
                iter += 1;
                if iter > MAX_QL_ITERS {
                    return Err(LinalgError::NoConvergence {
                        routine: "eigh",
                        iterations: MAX_QL_ITERS,
                    });
                }
                // Compute implicit shift.
                let mut g = d[l];
                let mut p = (d[l + 1] - g) / (2.0 * e[l]);
                let mut r = p.hypot(1.0);
                if p < 0.0 {
                    r = -r;
                }
                d[l] = e[l] / (p + r);
                d[l + 1] = e[l] * (p + r);
                let dl1 = d[l + 1];
                let h = g - d[l];
                for di in &mut d[l + 2..n] {
                    *di -= h;
                }
                f += h;

                // Implicit QL transformation.
                p = d[m];
                let mut c = 1.0;
                let mut c2 = c;
                let mut c3 = c;
                let el1 = e[l + 1];
                let mut s = 0.0;
                let mut s2 = 0.0;
                for i in (l..m).rev() {
                    c3 = c2;
                    c2 = c;
                    s2 = s;
                    g = c * e[i];
                    let h = c * p;
                    r = p.hypot(e[i]);
                    e[i + 1] = s * r;
                    s = e[i] / r;
                    c = p / r;
                    p = c * d[i] - s * g;
                    d[i + 1] = h + s * (c * g + s * d[i]);
                    let (y0, y1) = (probe[i], probe[i + 1]);
                    probe[i + 1] = s * y0 + c * y1;
                    probe[i] = c * y0 - s * y1;
                }
                p = -s * s2 * c3 * el1 * e[l] / dl1;
                e[l] = s * p;
                d[l] = c * p;

                if e[l].abs() <= eps * tst1 {
                    break;
                }
            }
        }
        d[l] += f;
        e[l] = 0.0;
    }
    Ok(())
}

/// Pivoted LU of the shifted tridiagonal `T - λI` (LAPACK `dlagtf`), kept
/// in reusable buffers: `u0`, `u1`, `u2` are the diagonal and the two
/// superdiagonals of `U`, `mult` the multipliers of `L`, and `swap[k]`
/// records whether rows `k` and `k+1` were interchanged.
struct ShiftedLu {
    u0: Vec<f64>,
    u1: Vec<f64>,
    u2: Vec<f64>,
    mult: Vec<f64>,
    swap: Vec<bool>,
}

impl ShiftedLu {
    fn new(n: usize) -> Self {
        Self {
            u0: vec![0.0; n],
            u1: vec![0.0; n],
            u2: vec![0.0; n],
            mult: vec![0.0; n],
            swap: vec![false; n],
        }
    }

    /// Factors `tridiag(e, d, e) - lambda I` with partial pivoting.
    fn factor(&mut self, d: &[f64], e: &[f64], lambda: f64) {
        let n = d.len();
        for k in 0..n {
            self.u0[k] = d[k] - lambda;
            self.u1[k] = e[k];
            self.u2[k] = 0.0;
        }
        let mut scale1 = self.u0[0].abs() + self.u1[0].abs();
        for k in 0..n - 1 {
            let sub = e[k];
            let mut scale2 = sub.abs() + self.u0[k + 1].abs();
            if k + 2 < n {
                scale2 += self.u1[k + 1].abs();
            }
            let piv1 = if self.u0[k] == 0.0 {
                0.0
            } else {
                self.u0[k].abs() / scale1
            };
            if sub == 0.0 || sub.abs() / scale2 <= piv1 {
                // No interchange.
                self.swap[k] = false;
                scale1 = scale2;
                self.mult[k] = if sub == 0.0 { 0.0 } else { sub / self.u0[k] };
                self.u0[k + 1] -= self.mult[k] * self.u1[k];
            } else {
                // Interchange rows k and k+1.
                self.swap[k] = true;
                let mult = self.u0[k] / sub;
                self.u0[k] = sub;
                let t = self.u0[k + 1];
                self.u0[k + 1] = self.u1[k] - mult * t;
                if k + 2 < n {
                    self.u2[k] = self.u1[k + 1];
                    self.u1[k + 1] = -mult * self.u2[k];
                }
                self.u1[k] = t;
                self.mult[k] = mult;
            }
        }
    }

    /// Solves `(T - λI) x = y` in place (LAPACK `dlagts`, job `-1`):
    /// diagonal entries of `U` that would overflow the quotient are
    /// perturbed by `tol`, doubling, so a singular shift still yields a
    /// finite, hugely grown vector — which is what inverse iteration wants.
    fn solve(&self, y: &mut [f64], tol: f64) {
        let n = y.len();
        for k in 1..n {
            if self.swap[k - 1] {
                let t = y[k - 1];
                y[k - 1] = y[k];
                y[k] = t - self.mult[k - 1] * y[k];
            } else {
                y[k] -= self.mult[k - 1] * y[k - 1];
            }
        }
        for k in (0..n).rev() {
            let mut t = y[k];
            if k + 1 < n {
                t -= self.u1[k] * y[k + 1];
            }
            if k + 2 < n {
                t -= self.u2[k] * y[k + 2];
            }
            let mut ak = self.u0[k];
            let mut pert = tol.copysign(ak);
            while t.is_finite() && (ak == 0.0 || t.abs() > ak.abs() * OVERFLOW_GUARD) {
                ak += pert;
                pert *= 2.0;
            }
            y[k] = t / ak;
        }
    }
}

/// Largest growth a single back-substitution quotient may take; larger
/// quotients perturb the pivot instead, keeping every iterate finite.
const OVERFLOW_GUARD: f64 = 1e200;

/// Eigenvectors of the symmetric tridiagonal `tridiag(e, d, e)` for the
/// ascending eigenvalues `w` (a prefix of its spectrum), by inverse
/// iteration in the style of LAPACK `dstein`. Returns them as the columns
/// of an `n × w.len()` matrix, with the number of solves and of vectors
/// that hit [`MAX_INVERSE_ITERS`] before passing the growth test.
///
/// Each vector has unit 2-norm and the orientation `tql2` gives it:
/// `yᵀ z_j` takes the sign of `signs[j]`, the unit probe `y` carried
/// through the QL rotations by [`ql_eigenvalues`]. Where that is below
/// [`ORIENT_TOL`] (the probe nearly orthogonal to the vector) its
/// largest-magnitude entry is made positive instead. Inside a cluster of
/// equal eigenvalues the basis is not unique, and it need not be
/// `tql2`'s.
///
/// Every tolerance is in units of `‖T‖`, so the iteration behaves the
/// same on `cT` for any scale `c`.
fn tridiagonal_eigenvectors(
    d: &[f64],
    e: &[f64],
    w: &[f64],
    y: &[f64],
    signs: &[f64],
) -> (Matrix, u64, u64) {
    let n = d.len();
    let mut z = Matrix::zeros(n, w.len());
    if w.is_empty() {
        return (z, 0, 0);
    }
    if n == 1 {
        z[(0, 0)] = 1.0;
        return (z, 0, 0);
    }
    let eps = f64::EPSILON;
    let tnorm = (0..n)
        .map(|i| d[i].abs() + e[i].abs() + if i > 0 { e[i - 1].abs() } else { 0.0 })
        .fold(0.0f64, f64::max);
    let pertol = 10.0 * eps * tnorm;
    let ortol = CLUSTER_GAP * tnorm;
    // Growth threshold of the unit-scaled iterate (`dstein`'s `DTPCRT`).
    let growth = (0.1 / n as f64).sqrt();
    let mut lu = ShiftedLu::new(n);
    let mut x = vec![0.0; n];
    let (mut iterations, mut unconverged) = (0u64, 0u64);
    let mut xjm = 0.0;
    let mut cluster = 0usize;
    for (j, &wj) in w.iter().enumerate() {
        let mut xj = wj;
        if j > 0 {
            // Separate equal eigenvalues so each shift factors differently.
            if xj - xjm < pertol {
                xj = xjm + pertol;
            }
            if xj - xjm > ortol {
                cluster = j;
            }
        }
        lu.factor(d, e, xj);
        // Smallest pivot perturbation (`dlagts`): `ε` times the largest
        // entry of `U` or `‖T‖`, or `ε` itself when both vanish.
        let umax = lu
            .u0
            .iter()
            .chain(&lu.u1)
            .chain(&lu.u2)
            .fold(tnorm, |m, v| m.max(v.abs()));
        let tol = if umax > 0.0 { umax * eps } else { eps };
        // Scale of the right-hand side: growth is measured against
        // `ε‖T‖` or the last pivot, whichever is larger (`dstein`, which
        // takes `‖T‖` as the unit). A zero matrix takes unit scale.
        let target = match n as f64 * (eps * tnorm).max(lu.u0[n - 1].abs()) {
            t if t > 0.0 => t,
            _ => 1.0,
        };
        x.copy_from_slice(&start_vector(n, j));
        let mut passes = 0usize;
        let mut its = 0usize;
        while passes <= EXTRA_INVERSE_ITERS {
            if its == MAX_INVERSE_ITERS {
                unconverged += 1;
                break;
            }
            its += 1;
            let asum: f64 = x.iter().map(|v| v.abs()).sum();
            if !(asum > 0.0 && asum.is_finite()) {
                // A fresh start no other index draws (`j < n`).
                x.copy_from_slice(&start_vector(n, j + n * its));
                continue;
            }
            vector::scale(&mut x, target / asum);
            lu.solve(&mut x, tol);
            for i in cluster..j {
                let zi = z.col(i);
                let c = vector::dot(zi, &x);
                vector::axpy(-c, zi, &mut x);
            }
            let nrm = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            if nrm >= growth {
                passes += 1;
            }
        }
        iterations += its as u64;
        let (jmax, _) = x.iter().enumerate().fold((0, 0.0f64), |(bi, bv), (i, v)| {
            if v.abs() > bv {
                (i, v.abs())
            } else {
                (bi, bv)
            }
        });
        let flip = if signs[j].abs() > ORIENT_TOL {
            (vector::dot(y, &x) < 0.0) != (signs[j] < 0.0)
        } else {
            x[jmax] < 0.0
        };
        let norm = vector::norm2(&x);
        let s = if flip { -1.0 / norm } else { 1.0 / norm };
        for (zk, &xk) in z.col_mut(j).iter_mut().zip(&x) {
            *zk = xk * s;
        }
        xjm = xj;
    }
    (z, iterations, unconverged)
}

/// Back-transforms tridiagonal eigenvectors to eigenvectors of `A`:
/// `z ← P_{n-1} ⋯ P_1 z` with the reflectors [`tridiagonalize`] left in
/// `v`.
fn apply_reflectors(v: &Matrix, h: &[f64], z: &mut Matrix) {
    for i in 1..v.rows() {
        if h[i] == 0.0 {
            continue;
        }
        let u = &v.col(i)[..i];
        for c in 0..z.cols() {
            let y = &mut z.col_mut(c)[..i];
            let g = vector::dot(u, y) / h[i];
            vector::axpy(-g, u, y);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn residual(a: &Matrix, eig: &SymmetricEig) -> f64 {
        // max_i || A v_i - w_i v_i ||
        let mut worst = 0.0f64;
        for (i, &w) in eig.eigenvalues.iter().enumerate() {
            let v = eig.eigenvectors.col(i);
            let av = a.matvec(v).unwrap();
            let r: f64 = av
                .iter()
                .zip(v)
                .map(|(&avk, &vk)| (avk - w * vk).abs())
                .fold(0.0, f64::max);
            worst = worst.max(r);
        }
        worst
    }

    #[test]
    fn diagonal_matrix_eigenvalues_sorted() {
        let a = Matrix::from_rows(&[&[3.0, 0.0, 0.0], &[0.0, 1.0, 0.0], &[0.0, 0.0, 2.0]]).unwrap();
        let eig = eigh(&a).unwrap();
        assert!((eig.eigenvalues[0] - 1.0).abs() < 1e-12);
        assert!((eig.eigenvalues[1] - 2.0).abs() < 1e-12);
        assert!((eig.eigenvalues[2] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn two_by_two_hand_checked() {
        // [[2, 1], [1, 2]] has eigenvalues 1 and 3.
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).unwrap();
        let eig = eigh(&a).unwrap();
        assert!((eig.eigenvalues[0] - 1.0).abs() < 1e-12);
        assert!((eig.eigenvalues[1] - 3.0).abs() < 1e-12);
        assert!(residual(&a, &eig) < 1e-12);
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let a = Matrix::from_rows(&[
            &[4.0, 1.0, -2.0, 2.0],
            &[1.0, 2.0, 0.0, 1.0],
            &[-2.0, 0.0, 3.0, -2.0],
            &[2.0, 1.0, -2.0, -1.0],
        ])
        .unwrap();
        let eig = eigh(&a).unwrap();
        let g = eig.eigenvectors.gram();
        for i in 0..4 {
            for j in 0..4 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!(
                    (g[(i, j)] - expect).abs() < 1e-10,
                    "G[{i},{j}] = {}",
                    g[(i, j)]
                );
            }
        }
        assert!(residual(&a, &eig) < 1e-9);
    }

    #[test]
    fn trace_equals_eigenvalue_sum() {
        let a =
            Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[2.0, 5.0, -1.0], &[3.0, -1.0, 0.0]]).unwrap();
        let eig = eigh(&a).unwrap();
        let trace = 1.0 + 5.0 + 0.0;
        let sum: f64 = eig.eigenvalues.iter().sum();
        assert!((trace - sum).abs() < 1e-10);
    }

    #[test]
    fn laplacian_of_two_components_has_two_zero_eigenvalues() {
        // Path graph on {0,1} plus isolated pair {2,3}: Laplacian blocks.
        let a = Matrix::from_rows(&[
            &[1.0, -1.0, 0.0, 0.0],
            &[-1.0, 1.0, 0.0, 0.0],
            &[0.0, 0.0, 1.0, -1.0],
            &[0.0, 0.0, -1.0, 1.0],
        ])
        .unwrap();
        let eig = eigh(&a).unwrap();
        assert!(eig.eigenvalues[0].abs() < 1e-12);
        assert!(eig.eigenvalues[1].abs() < 1e-12);
        assert!((eig.eigenvalues[2] - 2.0).abs() < 1e-12);
        assert!((eig.eigenvalues[3] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn k_smallest_truncates() {
        let a = Matrix::from_rows(&[&[3.0, 0.0, 0.0], &[0.0, 1.0, 0.0], &[0.0, 0.0, 2.0]]).unwrap();
        let eig = k_smallest(&a, 2).unwrap();
        assert_eq!(eig.eigenvalues.len(), 2);
        assert_eq!(eig.eigenvectors.cols(), 2);
        assert!((eig.eigenvalues[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_matrix_is_fine() {
        let eig = eigh(&Matrix::zeros(0, 0)).unwrap();
        assert!(eig.eigenvalues.is_empty());
    }

    #[test]
    fn one_by_one() {
        let a = Matrix::from_rows(&[&[7.0]]).unwrap();
        let eig = eigh(&a).unwrap();
        assert_eq!(eig.eigenvalues, vec![7.0]);
        assert!((eig.eigenvectors[(0, 0)].abs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_non_square() {
        assert!(eigh(&Matrix::zeros(2, 3)).is_err());
    }

    /// Deterministic pseudo-random symmetric `n × n` matrix, entries in
    /// `[-0.5, 0.5]`.
    fn xorshift_symmetric(n: usize) -> Matrix {
        let mut a = Matrix::zeros(n, n);
        let mut state = 0x9e3779b97f4a7c15u64;
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
    fn moderately_large_random_symmetric() {
        // Checks residual and ordering at n = 40.
        let a = xorshift_symmetric(40);
        let eig = eigh(&a).unwrap();
        assert!(residual(&a, &eig) < 1e-9);
        for w in eig.eigenvalues.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
    }

    #[test]
    fn eigenvectors_keep_the_tql2_orientation() {
        // Signs of the first row of every eigenvector of the n = 40
        // fixture as the rotation-accumulating `tred2`/`tql2` solver
        // returned them (smallest |entry| 1.3e-3, so no sign is
        // ambiguous). Both the bottom-up and the top-down solve must
        // reproduce them.
        const TQL2_SIGNS: &str = "++-++---+++--++-+---+-+--+-++-++-----+++";
        let a = xorshift_symmetric(40);
        let sign = |x: f64| if x > 0.0 { '+' } else { '-' };
        let eig = eigh(&a).unwrap();
        let bottom_up: String = (0..40).map(|j| sign(eig.eigenvectors[(0, j)])).collect();
        assert_eq!(bottom_up, TQL2_SIGNS);
        let top = eigh_largest(&a, 40).unwrap();
        assert_eq!(top.eigenvalues, eig.eigenvalues);
        // Column `c` of the top-down solve belongs to eigenvalue `39 - c`.
        let top_down: String = (0..40)
            .map(|j| sign(top.eigenvectors[(0, 39 - j)]))
            .collect();
        assert_eq!(top_down, TQL2_SIGNS);
    }

    #[test]
    fn rank_deficient_grams_keep_the_tql2_orientation() {
        // Gram matrices of 20 × 9 products of rank 5, the shape of a
        // device's truncated-SVD input. A QL sweep flips column signs, so
        // an ulp change in `T` (a reordered dot in the reduction) flips
        // some of these; the signs are first-row signs of the top 5
        // eigenvectors as `tred2`/`tql2` returned them.
        for (seed, tql2_signs) in [(12u64, "+---+"), (60, "+-++-")] {
            let mut state = 0x2545f4914f6cdd1du64 ^ seed.wrapping_mul(0x9e3779b97f4a7c15);
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state as f64 / u64::MAX as f64) - 0.5
            };
            let (mut b, mut c) = (Matrix::zeros(20, 5), Matrix::zeros(5, 9));
            for x in b.as_mut_slice().iter_mut().chain(c.as_mut_slice()) {
                *x = next();
            }
            let g = b.matmul(&c).unwrap().gram();
            let top = eigh_largest(&g, 5).unwrap();
            let signs: String = (0..5)
                .map(|j| {
                    if top.eigenvectors[(0, j)] > 0.0 {
                        '+'
                    } else {
                        '-'
                    }
                })
                .collect();
            assert_eq!(signs, tql2_signs, "seed {seed}");
        }
    }

    /// Eigenvalues of `tridiag(e, d, e)`, ascending.
    fn tridiagonal_spectrum(d: &[f64], e: &[f64]) -> Vec<f64> {
        let (mut w, mut work) = (d.to_vec(), e.to_vec());
        ql_eigenvalues(&mut w, &mut work, &mut vec![0.0; d.len()]).unwrap();
        w.sort_by(f64::total_cmp);
        w
    }

    #[test]
    fn inverse_iteration_converges_at_every_scale() {
        // Tolerances are in units of ‖T‖: a scaled identity (one cluster
        // of equal eigenvalues, the shape of a converged Rayleigh–Ritz
        // block), a scaled path Laplacian (distinct eigenvalues) and a
        // scaled block of decoupled pairs must converge whatever the scale.
        let n = 24;
        for scale in [1e-18, 1e-8, 1.0, 1e8, 1e18] {
            let identity = (vec![scale; n], vec![0.0; n]);
            let mut path = (vec![2.0 * scale; n], vec![-scale; n]);
            path.1[n - 1] = 0.0;
            let mut pairs = (vec![scale; n], vec![0.0; n]);
            for i in (0..n).step_by(2) {
                pairs.1[i] = -scale;
            }
            for (d, e) in [identity, path, pairs] {
                let w = tridiagonal_spectrum(&d, &e);
                let zeros = vec![0.0; n];
                let (z, solves, unconverged) = tridiagonal_eigenvectors(&d, &e, &w, &zeros, &zeros);
                assert_eq!(unconverged, 0, "scale {scale}");
                assert!(solves >= n as u64);
                let g = z.gram();
                for j in 0..n {
                    for i in 0..n {
                        let target = if i == j { 1.0 } else { 0.0 };
                        assert!((g[(i, j)] - target).abs() < 1e-12, "scale {scale}");
                    }
                }
            }
        }
    }
}
