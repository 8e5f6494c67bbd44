//! Lasso solver: one exact homotopy path per problem over the live
//! dictionary, a coordinate-descent certificate, and reusable per-thread
//! workspaces.
//!
//! Solves the paper's Eq. (2), the noisy-SSC self-expression problem
//!
//! ```text
//!   min_c  (lambda / 2) ||X c - x||_2^2 + ||c||_1     s.t.  c_i = 0
//! ```
//!
//! in the Gram-precomputed form used by SSC: for a dictionary `X` with Gram
//! matrix `G = X^T X` and correlations `b = X^T x`, the coordinate update is
//!
//! ```text
//!   c_j  <-  soft(b_j - sum_{k != j} G_jk c_k, 1/lambda) / G_jj
//! ```
//!
//! Precomputing `G` once per device and reusing it across the device's `N`
//! per-point problems is what makes local SSC `O(N^2 d)` instead of
//! `O(N^3)` per point.
//!
//! ## Solver structure (DESIGN.md §9.3)
//!
//! Each solve follows the Lasso's piecewise-linear regularization path
//! (Osborne, Presnell & Turlach 2000; the Lasso variant of LARS, Efron et
//! al. 2004) once, from `c = 0` down to `1/lambda`, over every live atom.
//! A step reads the active atoms' contiguous Gram columns for the slope of
//! the correlations and keeps an `O(k^2)`-updated Cholesky factor of the
//! active sub-Gram, whose size follows the active set (at most the
//! dictionary's rank), not `n`. One cyclic CD sweep over the live atoms
//! then certifies the path solution with the coordinate stopping test; it
//! only sweeps again when the path stopped early at its step cap.

use crate::vec::SparseVec;
use fedsc_linalg::{vector, LinalgError, Matrix, Result};
use fedsc_obs::LazyCounter;

/// Coordinate-descent sweeps executed (one pass over the live atoms each).
static LASSO_SWEEPS: LazyCounter = LazyCounter::new("lasso.sweeps");
/// Breakpoints followed by the homotopy (one entry or drop each).
static LASSO_HOMOTOPY_STEPS: LazyCounter = LazyCounter::new("lasso.homotopy_steps");
/// Path entries refused because the atom lies in the active atoms' span.
static LASSO_HOMOTOPY_SINGULAR: LazyCounter = LazyCounter::new("lasso.homotopy_singular");

/// An atom joins the homotopy's active set only when its Schur complement
/// against the active sub-Gram exceeds this fraction of its own `G_pp`;
/// below it the atom lies in the active atoms' span, and appending it would
/// make the factor singular.
const SINGULAR_SCHUR: f64 = 1e-10;

/// Two atoms are exactly parallel when `|G_pq| >= (1 - PARALLEL_TOL) *
/// sqrt(G_pp G_qq)`; they are interchangeable when their norms also agree
/// to this relative tolerance.
const PARALLEL_TOL: f64 = 1e-12;

/// The CD certificate stops once the largest coordinate change in a sweep
/// falls below this.
const CD_TOL: f64 = 1e-6;

/// Entries with `|c_j|` below this are dropped from the reported support.
const SUPPORT_TOL: f64 = 1e-8;

/// Options for the Lasso solver.
///
/// The homotopy solves each problem exactly, so the CD certificate normally
/// stops after one sweep. Cyclic CD alone would not: on the self-expression
/// workloads this solver serves (unit-norm samples from low-dimensional
/// subspaces, nearly basis pursuit at the paper's lambda) it was measured
/// at ~860 sweeps per point. `max_iters` bounds the sweeps for the rare
/// path that ends early (step cap); callers that need worst-case KKT
/// optimality there should raise it explicitly (the property tests do).
#[derive(Debug, Clone)]
pub struct LassoOptions {
    /// Maximum coordinate-descent sweeps per solve.
    pub max_iters: usize,
    /// Worker threads for *batches* of independent solves (one per point in
    /// SSC's self-expression sweep). A single `solve` call is always
    /// sequential; batch drivers such as `Ssc::codes` fan the per-point
    /// problems out over `fedsc_linalg::par` with this many workers. `1`
    /// (the default) keeps everything on the caller's thread. Results are
    /// index-ordered and bitwise independent of this knob.
    pub threads: usize,
}

impl Default for LassoOptions {
    fn default() -> Self {
        Self {
            max_iters: 2000,
            threads: 1,
        }
    }
}

/// Reusable scratch buffers for a sequence of Lasso solves over Grams of
/// (possibly varying) size.
///
/// Batch drivers keep one workspace per worker thread and pass it to every
/// [`LassoSolver::solve_in`] call: the allocations persist, while every
/// value is re-initialized per solve, so results never depend on what the
/// workspace previously computed (this is what keeps batch solves bitwise
/// thread-invariant).
#[derive(Debug, Default)]
pub struct LassoWorkspace {
    /// Dense coefficients, length `n`.
    c: Vec<f64>,
    /// Residual correlations `r = b - G c`, length `n`.
    r: Vec<f64>,
    /// Path state per atom, length `n`.
    state: Vec<PathAtom>,
    /// The homotopy's active atoms, in factor order.
    active: Vec<usize>,
    /// Signs of the active atoms' correlations, in factor order.
    signs: Vec<f64>,
    /// Packed row-major lower Cholesky factor of the active sub-Gram: row
    /// `i` holds `i + 1` entries from offset `i (i + 1) / 2`.
    chol: Vec<f64>,
    /// Path direction of the active coefficients, in factor order.
    dir: Vec<f64>,
    /// Rate of change of the correlations along the path, length `n`.
    slope: Vec<f64>,
    /// Atoms refused as singular since the last drop; reused as the
    /// parallel group buffer once the path is over.
    held: Vec<usize>,
    /// Atoms already covered by a parallel group, length `n`.
    grouped: Vec<bool>,
}

/// Where an atom stands on the homotopy path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PathAtom {
    /// The excluded coordinate or a zero-curvature atom: never moves.
    Dead,
    /// Zero coefficient, free to enter.
    Free,
    /// In the active set.
    Active,
    /// Refused entry: in the span of the active set until an atom drops.
    Singular,
    /// Just dropped: still on the boundary it left, so for one step it may
    /// only cross to the other side.
    Left,
}

/// The breakpoint that ends a homotopy step.
enum Breakpoint {
    /// The path reached `1/lambda`.
    End,
    /// Atom `p` joins with correlation sign `s`.
    Enter(usize, f64),
    /// The `i`-th active atom's coefficient crosses zero.
    Drop(usize),
}

impl LassoWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Offset of row `i` in a packed lower-triangular factor.
fn row_start(i: usize) -> usize {
    i * (i + 1) / 2
}

/// A Lasso solver bound to one dictionary Gram matrix.
///
/// `gram` must be `X^T X` for a column dictionary `X`; the same solver is
/// then used for every column's self-expression problem.
pub struct LassoSolver<'a> {
    gram: &'a Matrix,
    /// `G_jj`, read contiguously by every solve.
    diag: Vec<f64>,
    opts: LassoOptions,
}

impl<'a> LassoSolver<'a> {
    /// Creates a solver over a Gram matrix (must be square; checked).
    pub fn new(gram: &'a Matrix, opts: LassoOptions) -> Self {
        assert_eq!(gram.rows(), gram.cols(), "Gram matrix must be square");
        let diag = (0..gram.cols()).map(|j| gram[(j, j)]).collect();
        Self { gram, diag, opts }
    }

    /// Solves `min (lambda/2)||X c - x||^2 + ||c||_1` given `b = X^T x`,
    /// forcing `c[excluded] = 0` when `excluded` is in range (pass
    /// `usize::MAX` for no exclusion).
    ///
    /// Returns the solution as a sparse vector. Errors on a correlation
    /// vector of the wrong length or a non-positive `lambda`.
    pub fn solve(&self, b: &[f64], lambda: f64, excluded: usize) -> Result<SparseVec> {
        self.solve_in(b, lambda, excluded, &mut LassoWorkspace::new())
    }

    /// [`LassoSolver::solve`] with caller-owned scratch buffers, the
    /// warm-start entry point for batch drivers: allocations in `ws` are
    /// reused across solves while every value is re-initialized, so the
    /// result is bitwise identical to a fresh [`LassoSolver::solve`].
    pub fn solve_in(
        &self,
        b: &[f64],
        lambda: f64,
        excluded: usize,
        ws: &mut LassoWorkspace,
    ) -> Result<SparseVec> {
        let n = self.gram.cols();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                expected: (n, 1),
                got: (b.len(), 1),
            });
        }
        if lambda <= 0.0 {
            return Err(LinalgError::InvalidArgument(
                "lasso lambda must be positive",
            ));
        }
        let thresh = 1.0 / lambda;

        ws.c.clear();
        ws.c.resize(n, 0.0);
        ws.r.clear();
        ws.r.extend_from_slice(b);
        // Zero-diagonal atoms can never move off zero, so leaving them out
        // of the path is exact.
        ws.state.clear();
        ws.state.extend(self.diag.iter().enumerate().map(|(j, &g)| {
            if j == excluded || g <= 0.0 {
                PathAtom::Dead
            } else {
                PathAtom::Free
            }
        }));
        ws.grouped.clear();
        ws.grouped.resize(n, false);

        self.homotopy(thresh, ws);
        self.certify(thresh, ws);
        self.spread_parallel(ws);
        Ok(SparseVec::from_dense(&ws.c, SUPPORT_TOL))
    }

    /// Follows the solution path of `min 0.5 c^T G c - b^T c + t ||c||_1`
    /// over the live atoms from `t = max |b_j|` (where `c = 0`) down to
    /// `t = thresh`, leaving the solution in `ws.c` and its residual
    /// correlations in `ws.r`.
    ///
    /// Along the path the active atoms keep `r_j = t s_j` with `r = b - G c`,
    /// so the active coefficients move along `d = G_AA^{-1} s` and every
    /// correlation along `G_{:,A} d`. Each step runs to the next breakpoint:
    /// a free atom's correlation reaching `±t` (it enters), or an active
    /// coefficient crossing zero (it drops). The Cholesky factor of `G_AA`
    /// is updated in `O(k^2)` on each entry and drop. An atom whose Schur
    /// complement shows it in the active span is refused
    /// (`PathAtom::Singular`) until the next drop shrinks the span; it stays
    /// on the boundary with a zero coefficient, which is optimal there. A
    /// step cap of `4 |live| + 8` guards against degenerate cycling.
    fn homotopy(&self, thresh: f64, ws: &mut LassoWorkspace) {
        ws.active.clear();
        ws.signs.clear();
        ws.chol.clear();
        ws.held.clear();
        ws.slope.resize(ws.r.len(), 0.0);
        let (mut t, mut live) = (0.0f64, 0u64);
        let mut entering = None;
        for (j, (&r, &state)) in ws.r.iter().zip(&ws.state).enumerate() {
            if state == PathAtom::Free {
                live += 1;
                if r.abs() > t {
                    t = r.abs();
                    entering = Some((j, r.signum()));
                }
            }
        }
        if t <= thresh {
            return;
        }

        let (mut steps, mut singular) = (0u64, 0u64);
        let cap = 4 * live + 8;
        // The atom that just dropped (`PathAtom::Left`) and the side it left.
        let mut dropped: Option<(usize, f64)> = None;
        while steps < cap {
            steps += 1;
            if let Some((p, sign)) = entering.take() {
                let col = self.gram.col(p);
                if chol_append(col, self.diag[p], &ws.active, &mut ws.chol) {
                    ws.state[p] = PathAtom::Active;
                    ws.active.push(p);
                    ws.signs.push(sign);
                } else {
                    ws.state[p] = PathAtom::Singular;
                    ws.held.push(p);
                    singular += 1;
                }
            }
            let k = ws.active.len();
            if k == 0 {
                break;
            }

            // d = G_AA^{-1} s: forward substitution along the factor's rows,
            // then back substitution as row-wise axpys.
            ws.dir.clear();
            for i in 0..k {
                let row = &ws.chol[row_start(i)..row_start(i + 1)];
                let y = (ws.signs[i] - vector::dot(&row[..i], &ws.dir)) / row[i];
                ws.dir.push(y);
            }
            for i in (0..k).rev() {
                let row = &ws.chol[row_start(i)..row_start(i + 1)];
                let y = ws.dir[i] / row[i];
                ws.dir[i] = y;
                vector::axpy(-y, &row[..i], &mut ws.dir[..i]);
            }
            combine_columns(self.gram, &ws.active, &ws.dir, &mut ws.slope);

            let mut gamma = t - thresh;
            let mut next = Breakpoint::End;
            let atoms = ws.state.iter().zip(&ws.r).zip(&ws.slope).enumerate();
            for (j, ((&state, &r), &a)) in atoms {
                // Either side is reached within `gamma` only if
                // `|r - gamma a| > t - gamma`: one test screens both signs.
                if state != PathAtom::Free || (r - gamma * a).abs() <= t - gamma {
                    continue;
                }
                for sign in [1.0, -1.0] {
                    if let Some(g) = entry_step(t, r, a, sign, gamma) {
                        gamma = g;
                        next = Breakpoint::Enter(j, sign);
                    }
                }
            }
            if let Some((q, left)) = dropped.take() {
                ws.state[q] = PathAtom::Free;
                if let Some(g) = entry_step(t, ws.r[q], ws.slope[q], -left, gamma) {
                    gamma = g;
                    next = Breakpoint::Enter(q, -left);
                }
            }
            for (i, (&p, &d)) in ws.active.iter().zip(&ws.dir).enumerate() {
                if ws.c[p] * d < 0.0 {
                    let g = -ws.c[p] / d;
                    if g < gamma {
                        gamma = g;
                        next = Breakpoint::Drop(i);
                    }
                }
            }

            for (&p, &d) in ws.active.iter().zip(&ws.dir) {
                ws.c[p] += gamma * d;
            }
            vector::axpy(-gamma, &ws.slope, &mut ws.r);
            t -= gamma;
            match next {
                Breakpoint::End => break,
                Breakpoint::Enter(p, sign) => entering = Some((p, sign)),
                Breakpoint::Drop(i) => {
                    let p = ws.active.remove(i);
                    dropped = Some((p, ws.signs.remove(i)));
                    chol_drop(i, k, &mut ws.chol);
                    ws.c[p] = 0.0;
                    ws.state[p] = PathAtom::Left;
                    for &q in &ws.held {
                        ws.state[q] = PathAtom::Free;
                    }
                    ws.held.clear();
                }
            }
        }
        LASSO_HOMOTOPY_STEPS.add(steps);
        LASSO_HOMOTOPY_SINGULAR.add(singular);
    }

    /// Cyclic CD sweeps over the live atoms from the path solution until
    /// the largest coordinate change falls below `CD_TOL`: after a complete
    /// path this is one sweep, a KKT certificate that moves no coefficient
    /// beyond round-off. A path stopped at its step cap keeps sweeping, up
    /// to `max_iters`, from where it stopped.
    fn certify(&self, thresh: f64, ws: &mut LassoWorkspace) {
        let n = ws.c.len();
        let mut sweeps = 0u64;
        for _ in 0..self.opts.max_iters.max(1) {
            sweeps += 1;
            let mut max_delta = 0.0f64;
            for j in 0..n {
                if ws.state[j] == PathAtom::Dead {
                    continue;
                }
                let (old, g) = (ws.c[j], self.diag[j]);
                // Correlation with atom j excluding its own contribution.
                let rho = ws.r[j] + g * old;
                // A zero coefficient inside the threshold stays zero.
                if old == 0.0 && rho.abs() <= thresh {
                    continue;
                }
                let new = vector::soft_threshold(rho, thresh) / g;
                let delta = new - old;
                if delta != 0.0 {
                    ws.c[j] = new;
                    vector::axpy(-delta, self.gram.col(j), &mut ws.r);
                    max_delta = max_delta.max(delta.abs());
                }
            }
            if max_delta < CD_TOL {
                break;
            }
        }
        LASSO_SWEEPS.add(sweeps);
    }

    /// Makes the solution canonical on exactly parallel atoms.
    ///
    /// Interchangeable atoms (`x_q = ±x_p`) make the optimum a whole face:
    /// any split of their signed mass is optimal, and a solver returns one
    /// vertex, which in SSC links a point to a single peer on its line.
    /// Each support atom's group of parallel, equal-norm live atoms gets
    /// its signed mass spread evenly instead. The fit, the ℓ1 norm and
    /// every residual correlation are unchanged, so the result is still an
    /// exact optimum.
    fn spread_parallel(&self, ws: &mut LassoWorkspace) {
        let near = (1.0 - PARALLEL_TOL) * (1.0 - PARALLEL_TOL);
        for p in 0..ws.c.len() {
            if ws.c[p] == 0.0 || ws.grouped[p] {
                continue;
            }
            let col = self.gram.col(p);
            let gpp = self.diag[p];
            // `|G_pq| >= (1 - tol)^2 G_pp` follows from both tests below, so
            // it filters candidates before the squared comparison.
            let floor = near * gpp;
            ws.held.clear();
            let mut mass = 0.0;
            for (q, &gpq) in col.iter().enumerate() {
                if gpq.abs() < floor || ws.state[q] == PathAtom::Dead {
                    continue;
                }
                let gqq = self.diag[q];
                if (gqq - gpp).abs() <= PARALLEL_TOL * gpp && gpq * gpq >= near * gpp * gqq {
                    ws.held.push(q);
                    mass += gpq.signum() * ws.c[q];
                }
            }
            if ws.held.len() > 1 {
                let share = mass / ws.held.len() as f64;
                for &q in &ws.held {
                    ws.c[q] = col[q].signum() * share;
                    ws.grouped[q] = true;
                }
            }
        }
    }

    /// Maximum absolute KKT violation of a candidate solution — `0` at the
    /// optimum. Exposed for tests and for solver cross-validation:
    /// stationarity demands `lambda * (G c - b)_j + sign(c_j) = 0` on the
    /// support and `|lambda * (G c - b)_j| <= 1` off it. Errors when the
    /// candidate's dimension does not match the Gram matrix.
    pub fn kkt_violation(
        &self,
        b: &[f64],
        lambda: f64,
        excluded: usize,
        c: &SparseVec,
    ) -> Result<f64> {
        let n = self.gram.cols();
        let dense = c.to_dense();
        let gc = self.gram.matvec(&dense)?;
        let mut worst = 0.0f64;
        for j in 0..n {
            if j == excluded {
                continue;
            }
            let grad = lambda * (gc[j] - b[j]);
            let v = if dense[j] != 0.0 {
                (grad + dense[j].signum()).abs()
            } else {
                (grad.abs() - 1.0).max(0.0)
            };
            worst = worst.max(v);
        }
        Ok(worst)
    }
}

/// The paper's lambda rule (after Proposition 1 of Elhamifar & Vidal):
/// `lambda = alpha / max_{j != i} |x_j^T x_i|` would make the all-zero
/// solution optimal at `alpha = 1`, so SSC uses a multiple of the critical
/// value. The paper sets `lambda` such that the threshold `1/lambda` is
/// `max_j |x_j^T x_i| / alpha` with `alpha = 50`.
///
/// Given the correlation vector `b = X^T x_i` (with the self-correlation at
/// `excluded`), returns that lambda.
pub fn ssc_lambda(b: &[f64], excluded: usize, alpha: f64) -> f64 {
    let mu = b
        .iter()
        .enumerate()
        .filter(|&(j, _)| j != excluded)
        .map(|(_, &v)| v.abs())
        .fold(0.0f64, f64::max);
    if mu <= 0.0 {
        // Degenerate point orthogonal to every other point: any lambda
        // yields the zero code; pick 1 to stay finite.
        return 1.0;
    }
    alpha / mu
}

/// The step length at which a free atom's correlation `r - g a` meets the
/// boundary `sign (t - g)`, when that is shorter than `gamma`. The
/// division-free pre-test rejects almost every atom of a step.
#[inline]
fn entry_step(t: f64, r: f64, a: f64, sign: f64, gamma: f64) -> Option<f64> {
    let (num, den) = (t - sign * r, 1.0 - sign * a);
    if den <= 0.0 || num >= gamma * den {
        return None;
    }
    let g = (num / den).max(0.0);
    (g < gamma).then_some(g)
}

/// `out = G[:, cols] w`, four contiguous Gram columns per pass over `out`.
fn combine_columns(gram: &Matrix, cols: &[usize], w: &[f64], out: &mut [f64]) {
    out.fill(0.0);
    let mut blocks = cols.chunks_exact(4).zip(w.chunks_exact(4));
    for (c, w) in &mut blocks {
        let [c0, c1, c2, c3] = [c[0], c[1], c[2], c[3]].map(|j| gram.col(j));
        for ((((o, &x0), &x1), &x2), &x3) in out.iter_mut().zip(c0).zip(c1).zip(c2).zip(c3) {
            *o += w[0] * x0 + w[1] * x1 + w[2] * x2 + w[3] * x3;
        }
    }
    let tail = cols.len() / 4 * 4;
    for (&c, &wc) in cols[tail..].iter().zip(&w[tail..]) {
        vector::axpy(wc, gram.col(c), out);
    }
}

/// Appends atom `p` (Gram column `col`, diagonal `gpp`) to the packed
/// Cholesky factor of the `active` atoms' sub-Gram: one forward
/// substitution for the new row, `O(k^2)`. Returns `false`, leaving the
/// factor unchanged, when the Schur complement shows `p` in the span of the
/// active atoms.
fn chol_append(col: &[f64], gpp: f64, active: &[usize], chol: &mut Vec<f64>) -> bool {
    let start = chol.len();
    for (i, &q) in active.iter().enumerate() {
        let (done, new_row) = chol.split_at(start);
        let row = &done[row_start(i)..row_start(i + 1)];
        let v = (col[q] - vector::dot(&row[..i], new_row)) / row[i];
        chol.push(v);
    }
    let new_row = &chol[start..];
    let schur = gpp - vector::dot(new_row, new_row);
    if schur <= SINGULAR_SCHUR * gpp {
        chol.truncate(start);
        return false;
    }
    chol.push(schur.sqrt());
    true
}

/// Removes row and column `i` from the packed `k x k` Cholesky factor in
/// `O(k^2)`. Without row `i` the rows below reach one column past the
/// diagonal; Givens rotations on column pairs `(j, j + 1)` zero that entry
/// row by row, then the rows shift up one slot.
fn chol_drop(i: usize, k: usize, chol: &mut Vec<f64>) {
    for j in i..k - 1 {
        let lead = row_start(j + 1);
        let (a, b) = (chol[lead + j], chol[lead + j + 1]);
        let h = a.hypot(b);
        let (c, s) = (a / h, b / h);
        for r in j + 1..k {
            let at = row_start(r) + j;
            let (x, y) = (chol[at], chol[at + 1]);
            chol[at] = c * x + s * y;
            chol[at + 1] = c * y - s * x;
        }
    }
    for r in i + 1..k {
        let from = row_start(r);
        chol.copy_within(from..from + r, row_start(r - 1));
    }
    chol.truncate(row_start(k - 1));
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Dictionary: identity-ish columns in R^3.
    fn simple_dictionary() -> Matrix {
        Matrix::from_rows(&[&[1.0, 0.0, 0.6], &[0.0, 1.0, 0.8], &[0.0, 0.0, 0.0]]).unwrap()
    }

    #[test]
    fn zero_lambda_threshold_gives_zero_solution() {
        // With a huge threshold (tiny lambda) the solution collapses to 0.
        let x = simple_dictionary();
        let g = x.gram();
        let solver = LassoSolver::new(&g, LassoOptions::default());
        let b = x.tr_matvec(&[1.0, 1.0, 0.0]).unwrap();
        let c = solver.solve(&b, 1e-9, usize::MAX).unwrap();
        assert_eq!(c.nnz(), 0);
    }

    #[test]
    fn large_lambda_recovers_exact_representation() {
        // x = first column exactly; huge lambda forces a faithful fit.
        let x = simple_dictionary();
        let g = x.gram();
        let solver = LassoSolver::new(&g, LassoOptions::default());
        let target = [1.0, 0.0, 0.0];
        let b = x.tr_matvec(&target).unwrap();
        let c = solver.solve(&b, 1e6, usize::MAX).unwrap();
        let dense = c.to_dense();
        let fit = x.matvec(&dense).unwrap();
        let err: f64 = fit
            .iter()
            .zip(&target)
            .map(|(f, t)| (f - t).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-3, "fit error {err}");
    }

    #[test]
    fn kkt_conditions_hold_at_solution() {
        let x = Matrix::from_rows(&[
            &[1.0, 0.2, -0.3, 0.5],
            &[0.1, 1.0, 0.4, -0.2],
            &[-0.2, 0.3, 1.0, 0.6],
        ])
        .unwrap();
        let g = x.gram();
        let solver = LassoSolver::new(&g, LassoOptions::default());
        let target = [0.7, -0.4, 0.9];
        let b = x.tr_matvec(&target).unwrap();
        for &lambda in &[0.5, 2.0, 10.0, 100.0] {
            let c = solver.solve(&b, lambda, usize::MAX).unwrap();
            let viol = solver.kkt_violation(&b, lambda, usize::MAX, &c).unwrap();
            // The coordinate tolerance translates to a KKT residual of
            // roughly lambda * CD_TOL, so scale the acceptance accordingly.
            assert!(
                viol < 1e-6 * lambda.max(10.0) * 2.0,
                "lambda {lambda}: KKT violation {viol}"
            );
        }
    }

    #[test]
    fn excluded_coordinate_stays_zero() {
        let x = simple_dictionary();
        let g = x.gram();
        let solver = LassoSolver::new(&g, LassoOptions::default());
        // Target equal to column 0; with column 0 excluded the solver must
        // lean on the others.
        let b = x.tr_matvec(&[0.6, 0.8, 0.0]).unwrap();
        let c = solver.solve(&b, 1e4, 2).unwrap();
        assert!(c.to_dense()[2] == 0.0);
        assert!(c.nnz() > 0);
    }

    #[test]
    fn self_expression_prefers_same_direction() {
        // Two nearly parallel columns and one orthogonal: the code for a
        // point near the pair should be supported on the pair.
        let x =
            Matrix::from_rows(&[&[1.0, 0.99, 0.0], &[0.0, 0.14, 0.0], &[0.0, 0.0, 1.0]]).unwrap();
        let g = x.gram();
        let solver = LassoSolver::new(&g, LassoOptions::default());
        let target = [1.0, 0.05, 0.0];
        let b = x.tr_matvec(&target).unwrap();
        let lambda = ssc_lambda(&b, usize::MAX, 50.0);
        let c = solver.solve(&b, lambda, usize::MAX).unwrap();
        let dense = c.to_dense();
        assert!(
            dense[2].abs() < 1e-9,
            "orthogonal atom must stay out: {dense:?}"
        );
        assert!(dense[0].abs() + dense[1].abs() > 0.1);
    }

    #[test]
    fn ssc_lambda_rule() {
        let b = [0.3, -0.8, 0.5];
        assert!((ssc_lambda(&b, usize::MAX, 50.0) - 50.0 / 0.8).abs() < 1e-12);
        // Excluding the max changes the rule.
        assert!((ssc_lambda(&b, 1, 50.0) - 50.0 / 0.5).abs() < 1e-12);
        // Degenerate all-zero correlations.
        assert_eq!(ssc_lambda(&[0.0, 0.0], usize::MAX, 50.0), 1.0);
    }

    #[test]
    fn warm_active_set_reaches_an_optimum() {
        // With more atoms than ambient dimensions the Lasso optimum need not
        // be unique, so we verify optimality (KKT), not a particular
        // solution: active-set shrinking must still land on *an* optimum.
        let x = Matrix::from_rows(&[
            &[1.0, 0.9, 0.1, -0.4, 0.3],
            &[0.0, 0.3, 1.0, 0.5, -0.2],
            &[0.2, -0.1, 0.0, 0.8, 0.9],
        ])
        .unwrap();
        let g = x.gram();
        let b = x.tr_matvec(&[0.5, 0.5, 0.5]).unwrap();
        let solver = LassoSolver::new(&g, LassoOptions::default());
        let fast = solver.solve(&b, 20.0, usize::MAX).unwrap();
        let viol = solver.kkt_violation(&b, 20.0, usize::MAX, &fast).unwrap();
        assert!(viol < 1e-5, "KKT violation {viol}");
    }

    #[test]
    fn workspace_reuse_is_bitwise_identical_to_fresh_solves() {
        // The warm-start contract: reused allocations, re-initialized
        // values. Solving a batch through one workspace must reproduce
        // fresh per-solve results bit for bit, in any order.
        let x = Matrix::from_rows(&[
            &[1.0, 0.9, 0.1, -0.4, 0.3, 0.2],
            &[0.0, 0.3, 1.0, 0.5, -0.2, -0.7],
            &[0.2, -0.1, 0.0, 0.8, 0.9, 0.4],
        ])
        .unwrap();
        let g = x.gram();
        let solver = LassoSolver::new(&g, LassoOptions::default());
        let mut ws = LassoWorkspace::new();
        for i in 0..g.cols() {
            let b = g.col(i);
            let lambda = ssc_lambda(b, i, 50.0);
            let fresh = solver.solve(b, lambda, i).unwrap();
            let warm = solver.solve_in(b, lambda, i, &mut ws).unwrap();
            assert_eq!(fresh.to_dense(), warm.to_dense(), "point {i}");
        }
    }

    /// Plain cyclic CD over the full Gram, independent of the panel code:
    /// the reference optimum for the homotopy tests.
    fn reference_cd(g: &Matrix, b: &[f64], lambda: f64, excluded: usize) -> Vec<f64> {
        let n = g.cols();
        let thresh = 1.0 / lambda;
        let mut c = vec![0.0; n];
        let mut r = b.to_vec();
        for _ in 0..200_000 {
            let mut max_delta = 0.0f64;
            for j in (0..n).filter(|&j| j != excluded && g[(j, j)] > 0.0) {
                let new = vector::soft_threshold(r[j] + g[(j, j)] * c[j], thresh) / g[(j, j)];
                let delta = new - c[j];
                if delta != 0.0 {
                    c[j] = new;
                    vector::axpy(-delta, g.col(j), &mut r);
                    max_delta = max_delta.max(delta.abs());
                }
            }
            if max_delta < 1e-12 {
                break;
            }
        }
        c
    }

    /// `(lambda/2)||x - Xc||^2 + ||c||_1` in Gram form.
    fn objective(g: &Matrix, b: &[f64], x_sq: f64, lambda: f64, c: &[f64]) -> f64 {
        let gc = g.matvec(c).unwrap();
        let quad = x_sq - 2.0 * vector::dot(b, c) + vector::dot(c, &gc);
        lambda / 2.0 * quad + c.iter().map(|v| v.abs()).sum::<f64>()
    }

    fn counter(name: &str) -> u64 {
        fedsc_obs::metrics::snapshot()
            .counters
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn homotopy_panel_matches_reference_cd(
            seed in 0u64..5000,
            rows in 2usize..6,
            cols in 3usize..11,
            copy in 0usize..3,
            target in 0usize..2,
            alpha in 0.5f64..100.0,
        ) {
            // Random Grams, rank-deficient whenever cols > rows, optionally
            // with an exactly duplicated or negated column; the target is
            // either a dictionary column (excluded, as in SSC) or a fresh
            // vector. alpha < 1 puts lambda below the critical value.
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut x = fedsc_linalg::random::gaussian_matrix(&mut rng, rows, cols);
            if copy > 0 {
                let sign = if copy == 1 { 1.0 } else { -1.0 };
                let src: Vec<f64> = x.col(1).iter().map(|v| sign * v).collect();
                x.col_mut(cols - 1).copy_from_slice(&src);
            }
            let g = x.gram();
            let (b, x_sq, excluded) = if target == 0 {
                (g.col(0).to_vec(), g[(0, 0)], 0)
            } else {
                let target = fedsc_linalg::random::gaussian_vector(&mut rng, rows);
                (x.tr_matvec(&target).unwrap(), vector::dot(&target, &target), usize::MAX)
            };
            let lambda = ssc_lambda(&b, excluded, alpha);
            let solver = LassoSolver::new(&g, LassoOptions::default());
            let c = solver.solve(&b, lambda, excluded).unwrap();
            let viol = solver.kkt_violation(&b, lambda, excluded, &c).unwrap();
            prop_assert!(viol <= 1e-9 * lambda, "KKT violation {viol} at lambda {lambda}");
            if alpha < 1.0 {
                prop_assert_eq!(c.nnz(), 0);
            }
            let dense = c.to_dense();
            if excluded < cols {
                prop_assert_eq!(dense[excluded], 0.0);
            }
            // Plain CD can stall short of the optimum on these coherent,
            // rank-deficient Grams: the path solution must never be worse,
            // and must match whenever the reference certifies its own
            // optimality.
            let reference = reference_cd(&g, &b, lambda, excluded);
            let reference_viol = solver
                .kkt_violation(&b, lambda, excluded, &SparseVec::from_dense(&reference, 0.0))
                .unwrap();
            let (ours, theirs) = (
                objective(&g, &b, x_sq, lambda, &dense),
                objective(&g, &b, x_sq, lambda, &reference),
            );
            let slack = 1e-9 * theirs.abs().max(1.0);
            prop_assert!(ours <= theirs + slack, "objective {ours} above reference {theirs}");
            if reference_viol <= 1e-9 * lambda {
                prop_assert!((ours - theirs).abs() <= slack, "objective {ours} vs reference {theirs}");
            }
        }
    }

    /// A coherent, unit-norm, rank-deficient dictionary in R^30: each
    /// column is a point of one of four subspaces of dimension 2 to 4 plus
    /// `shared` times one common direction plus Gaussian noise of scale
    /// `noise`, and the last tenth of the columns repeat earlier ones, every
    /// other one negated.
    fn coherent_dictionary(seed: u64, n: usize, shared: f64, noise: f64) -> Matrix {
        use fedsc_linalg::random::{
            gaussian_vector, random_orthonormal_basis, sample_on_subspace, unit_sphere,
        };
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let dim = 30;
        let common = unit_sphere(&mut rng, dim);
        let bases: Vec<Matrix> = (0..4)
            .map(|s| random_orthonormal_basis(&mut rng, dim, 2 + s % 3))
            .collect();
        let fresh = n - n / 10;
        let mut x = Matrix::zeros(dim, n);
        for j in 0..fresh {
            let mut col = sample_on_subspace(&mut rng, &bases[j % bases.len()]);
            vector::axpy(shared, &common, &mut col);
            vector::axpy(noise, &gaussian_vector(&mut rng, dim), &mut col);
            x.col_mut(j).copy_from_slice(&col);
        }
        for j in fresh..n {
            let sign = if j % 2 == 0 { 1.0 } else { -1.0 };
            let src: Vec<f64> = x.col((j * 7) % fresh).iter().map(|v| sign * v).collect();
            x.col_mut(j).copy_from_slice(&src);
        }
        x.normalize_columns(1e-12);
        x
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn one_path_is_optimal_on_coherent_dictionaries(
            seed in 0u64..5000,
            n in 60usize..200,
            shared in 0.2f64..1.5,
            noise in 0.0f64..0.2,
            point in 0usize..60,
            alpha in 5.0f64..100.0,
        ) {
            // Self-expression over many coherent atoms: the regime where a
            // small working set had to grow for several rounds.
            let x = coherent_dictionary(seed, n, shared, noise);
            let g = x.gram();
            let b = g.col(point);
            let lambda = ssc_lambda(b, point, alpha);
            let solver = LassoSolver::new(&g, LassoOptions::default());
            let c = solver.solve(b, lambda, point).unwrap();
            let viol = solver.kkt_violation(b, lambda, point, &c).unwrap();
            prop_assert!(viol <= 1e-9 * lambda, "KKT violation {viol} at lambda {lambda}");
            let reference = reference_cd(&g, b, lambda, point);
            let (ours, theirs) = (
                objective(&g, b, g[(point, point)], lambda, &c.to_dense()),
                objective(&g, b, g[(point, point)], lambda, &reference),
            );
            let slack = 1e-9 * theirs.abs().max(1.0);
            prop_assert!(ours <= theirs + slack, "objective {ours} above reference {theirs}");
        }
    }

    #[test]
    fn singular_entry_is_skipped_and_still_optimal() {
        // Two unit atoms 4.5e-7 rad apart (G_01 = 1 - 1e-13): atom 1's
        // correlation reaches the boundary at t ~ 0.1 with a Schur
        // complement of ~2e-13 against atom 0, i.e. in the active span to
        // working precision. Its entry must be refused, and the solution
        // must still be optimal to far below the coordinate tolerance.
        let near = 1.0 - 1e-13;
        let g = Matrix::from_rows(&[&[1.0, near], &[near, 1.0]]).unwrap();
        let b = [1.0, near + 1e-14];
        let solver = LassoSolver::new(&g, LassoOptions::default());
        let before = counter("lasso.homotopy_singular");
        let c = solver.solve(&b, 50.0, usize::MAX).unwrap();
        let after = counter("lasso.homotopy_singular");
        assert!(after > before, "no singular entry: {before} -> {after}");
        let viol = solver.kkt_violation(&b, 50.0, usize::MAX, &c).unwrap();
        assert!(viol <= 1e-9 * 50.0, "KKT violation {viol}");
        assert!((c.norm1() - 0.98).abs() < 1e-9, "{:?}", c.to_dense());
    }

    #[test]
    fn duplicate_atoms_share_their_mass() {
        // Column 3 duplicates column 0 and column 2 is the midpoint of
        // columns 0 and 1, so the optimum is a face. The duplicate pair
        // must split its mass evenly and the result stay KKT-optimal.
        let x = Matrix::from_rows(&[
            &[1.0, 0.0, 0.5, 1.0, 0.0],
            &[0.0, 1.0, 0.5, 0.0, 0.0],
            &[0.0, 0.0, 0.0, 0.0, 1.0],
        ])
        .unwrap();
        let g = x.gram();
        let b = x.tr_matvec(&[0.6, 0.5, 0.3]).unwrap();
        let solver = LassoSolver::new(&g, LassoOptions::default());
        let c = solver.solve(&b, 10.0, usize::MAX).unwrap();
        let viol = solver.kkt_violation(&b, 10.0, usize::MAX, &c).unwrap();
        assert!(viol <= 1e-9 * 10.0, "KKT violation {viol}");
        let dense = c.to_dense();
        assert!(dense[0] > 0.0 && dense[0] == dense[3], "{dense:?}");
    }

    #[test]
    fn cholesky_drop_matches_the_reduced_gram() {
        // Factor a 5x5 SPD Gram through appends, drop a middle atom, and
        // check L L^T against the Gram with that row and column removed.
        let x = Matrix::from_rows(&[
            &[1.0, 0.9, 0.1, -0.4, 0.3],
            &[0.0, 0.3, 1.0, 0.5, -0.2],
            &[0.2, -0.1, 0.0, 0.8, 0.9],
            &[0.5, 0.2, -0.3, 0.1, 0.4],
            &[0.1, 0.0, 0.7, -0.6, 0.2],
        ])
        .unwrap();
        let g = x.gram();
        let m = g.cols();
        let mut chol = Vec::new();
        let mut active = Vec::new();
        for p in 0..m {
            assert!(
                chol_append(g.col(p), g[(p, p)], &active, &mut chol),
                "atom {p} refused"
            );
            active.push(p);
        }
        chol_drop(2, m, &mut chol);
        let kept = [0, 1, 3, 4];
        assert_eq!(chol.len(), row_start(kept.len()));
        for (i, &gi) in kept.iter().enumerate() {
            for (j, &gj) in kept.iter().enumerate() {
                let llt: f64 = (0..=i.min(j))
                    .map(|t| chol[row_start(i) + t] * chol[row_start(j) + t])
                    .sum();
                assert!(
                    (llt - g[(gi, gj)]).abs() < 1e-12,
                    "({i},{j}): {llt} vs {}",
                    g[(gi, gj)]
                );
            }
        }
    }
}
