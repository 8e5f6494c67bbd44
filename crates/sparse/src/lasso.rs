//! Lasso solver: exact homotopy on compact working-set panels, a
//! coordinate-descent polish, gap-safe atom screening, and reusable
//! per-thread workspaces.
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
//! Each working-set round copies the active atoms into a compact `m x m`
//! sub-Gram panel and solves the panel Lasso exactly by following its
//! piecewise-linear regularization path (Osborne, Presnell & Turlach 2000;
//! the Lasso variant of LARS, Efron et al. 2004) from `c = 0` down to
//! `1/lambda`, with an `O(k^2)`-updated Cholesky factor of the active
//! sub-Gram. One cyclic CD sweep over the panel then polishes the path
//! solution and applies the coordinate stopping test. Between rounds the
//! full residual `r = b - G c` is rebuilt from the (small) support, KKT
//! violators re-enter in a batch, and — when the caller supplies `||x||^2`
//! via [`LassoSolver::solve_screened`] — a gap-safe sphere test permanently
//! discards atoms that provably cannot enter any optimal support at this
//! `lambda`. Screening is exact: it only removes atoms whose optimal
//! coefficient is zero, so screened and unscreened solves agree within the
//! coordinate tolerance.

use crate::vec::SparseVec;
use fedsc_linalg::{vector, LinalgError, Matrix, Result};
use fedsc_obs::LazyCounter;

/// Coordinate-descent sweeps executed (one panel pass each).
static LASSO_SWEEPS: LazyCounter = LazyCounter::new("lasso.sweeps");
/// Breakpoints followed by the panel homotopy (one entry or drop each).
static LASSO_HOMOTOPY_STEPS: LazyCounter = LazyCounter::new("lasso.homotopy_steps");
/// Path entries refused because the atom lies in the active atoms' span.
static LASSO_HOMOTOPY_SINGULAR: LazyCounter = LazyCounter::new("lasso.homotopy_singular");
/// Atoms permanently discarded by the gap-safe screening rule.
static LASSO_ATOMS_SCREENED: LazyCounter = LazyCounter::new("lasso.atoms_screened");
/// Working-set growth rounds across all solves.
static LASSO_WS_ROUNDS: LazyCounter = LazyCounter::new("lasso.ws_rounds");

/// Relative slack that makes the screening inequality strictly conservative
/// under floating-point evaluation: an atom is only discarded when its bound
/// clears the threshold by this margin.
const SCREEN_SLACK: f64 = 1e-9;

/// An atom joins the homotopy's active set only when its Schur complement
/// against the active sub-Gram exceeds this fraction of its own `G_pp`;
/// below it the atom lies in the active atoms' span, and appending it would
/// make the factor singular.
const SINGULAR_SCHUR: f64 = 1e-10;

/// Two atoms are exactly parallel when `|G_pq| >= (1 - PARALLEL_TOL) *
/// sqrt(G_pp G_qq)`; they are interchangeable when their norms also agree
/// to this relative tolerance.
const PARALLEL_TOL: f64 = 1e-12;

/// Options for the Lasso solver.
///
/// Each working-set panel is solved exactly by the homotopy, so the CD
/// polish normally stops after one sweep. Cyclic CD alone would not: on the
/// self-expression workloads this solver serves (unit-norm samples from
/// low-dimensional subspaces, nearly basis pursuit at the paper's lambda)
/// it was measured at ~860 sweeps per point. `max_iters` bounds the polish
/// for the rare panel whose path ends early (step cap or a numerically
/// singular active set); callers that need worst-case KKT optimality there
/// should raise it explicitly (the property tests do).
#[derive(Debug, Clone)]
pub struct LassoOptions {
    /// Maximum coordinate-descent polish sweeps per working-set round.
    pub max_iters: usize,
    /// Stop when the largest coordinate change in a sweep falls below this.
    pub tol: f64,
    /// Entries with `|c_j|` below this are dropped from the reported support.
    pub support_tol: f64,
    /// Initial working-set size (most-correlated atoms). The working set
    /// grows with KKT violators until optimality, so this only tunes speed.
    pub working_set: usize,
    /// Maximum working-set growth rounds.
    pub max_rounds: usize,
    /// Worker threads for *batches* of independent solves (one per point in
    /// SSC's self-expression sweep). A single `solve` call is always
    /// sequential; batch drivers such as `Ssc::coefficients` fan the
    /// per-point problems out over `fedsc_linalg::par` with this many
    /// workers. `1` (the default) keeps everything on the caller's thread.
    /// Results are index-ordered and bitwise independent of this knob.
    pub threads: usize,
}

impl Default for LassoOptions {
    fn default() -> Self {
        Self {
            max_iters: 2000,
            tol: 1e-6,
            support_tol: 1e-8,
            working_set: 48,
            max_rounds: 20,
            threads: 1,
        }
    }
}

/// Reusable scratch buffers for a sequence of Lasso solves over Grams of
/// (possibly varying) size.
///
/// Batch drivers keep one workspace per worker thread and pass it to every
/// [`LassoSolver::solve_in`] / [`LassoSolver::solve_screened`] call: the
/// allocations persist, while every value is re-initialized per solve, so
/// results never depend on what the workspace previously computed (this is
/// what keeps batch solves bitwise thread-invariant).
#[derive(Debug, Default)]
pub struct LassoWorkspace {
    /// Dense coefficients, length `n`.
    c: Vec<f64>,
    /// Residual correlations `r = b - G c`, length `n` (exact on all live
    /// atoms at round boundaries; maintained only on the panel inside a
    /// round).
    r: Vec<f64>,
    /// Unscreened candidate atoms (global indices).
    live: Vec<usize>,
    /// Working set (global indices).
    active: Vec<usize>,
    /// Membership mask for `active`, length `n`.
    in_active: Vec<bool>,
    /// Column-major `m x m` sub-Gram over the active atoms.
    panel: Vec<f64>,
    /// Residual restricted to the active atoms.
    rc: Vec<f64>,
    /// Coefficients restricted to the active atoms.
    cc: Vec<f64>,
    /// Gram diagonal restricted to the active atoms.
    diag: Vec<f64>,
    /// KKT violators found in the current round; reused as the parallel
    /// group buffer once the rounds are over.
    violators: Vec<usize>,
    /// Homotopy path state per panel atom.
    path: Vec<PathAtom>,
    /// Panel positions of the homotopy's active atoms, in factor order.
    path_set: Vec<usize>,
    /// Signs of the active atoms' correlations, in factor order.
    signs: Vec<f64>,
    /// Row-major lower Cholesky factor of the active sub-Gram, stride `m`.
    chol: Vec<f64>,
    /// Path direction of the active coefficients, in factor order.
    dir: Vec<f64>,
    /// Rate of change of the panel correlations along the path.
    slope: Vec<f64>,
    /// Atoms already covered by a parallel group, length `n`.
    grouped: Vec<bool>,
}

/// Where a panel atom stands on the homotopy path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PathAtom {
    /// Zero coefficient, free to enter.
    Free,
    /// In the active set.
    Active,
    /// Refused entry: in the span of the active set until an atom drops.
    Singular,
}

/// The breakpoint that ends a homotopy step.
enum Breakpoint {
    /// The path reached `1/lambda`.
    End,
    /// Panel atom `p` joins with correlation sign `s`.
    Enter(usize, f64),
    /// The `i`-th active atom's coefficient crosses zero.
    Drop(usize),
}

impl LassoWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Re-initializes every per-solve value for a problem of size `n`.
    fn reset(&mut self, n: usize, b: &[f64]) {
        self.c.clear();
        self.c.resize(n, 0.0);
        self.r.clear();
        self.r.extend_from_slice(b);
        self.live.clear();
        self.active.clear();
        self.in_active.clear();
        self.in_active.resize(n, false);
        self.violators.clear();
        self.grouped.clear();
        self.grouped.resize(n, false);
    }
}

/// A Lasso solver bound to one dictionary Gram matrix.
///
/// `gram` must be `X^T X` for a column dictionary `X`; the same solver is
/// then used for every column's self-expression problem.
pub struct LassoSolver<'a> {
    gram: &'a Matrix,
    opts: LassoOptions,
}

impl<'a> LassoSolver<'a> {
    /// Creates a solver over a Gram matrix (must be square; checked).
    pub fn new(gram: &'a Matrix, opts: LassoOptions) -> Self {
        assert_eq!(gram.rows(), gram.cols(), "Gram matrix must be square");
        Self { gram, opts }
    }

    /// Solves `min (lambda/2)||X c - x||^2 + ||c||_1` given `b = X^T x`,
    /// forcing `c[excluded] = 0` when `excluded` is in range (pass
    /// `usize::MAX` for no exclusion).
    ///
    /// Returns the solution as a sparse vector. Errors on a correlation
    /// vector of the wrong length or a non-positive `lambda`.
    pub fn solve(&self, b: &[f64], lambda: f64, excluded: usize) -> Result<SparseVec> {
        let mut ws = LassoWorkspace::new();
        self.solve_impl(b, lambda, excluded, None, &mut ws)
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
        self.solve_impl(b, lambda, excluded, None, ws)
    }

    /// [`LassoSolver::solve_in`] plus gap-safe atom screening.
    ///
    /// `x_norm_sq` must be `||x||^2` for the target `x` behind
    /// `b = X^T x` — for SSC self-expression of point `i` that is simply
    /// `gram[(i, i)]`. Knowing `||x||^2` lets the solver evaluate the duality
    /// gap in Gram form and permanently discard atoms that provably take no
    /// part in any optimal support at this `lambda` (DESIGN.md §9 has the
    /// exactness argument), which shrinks every later KKT scan and keeps the
    /// working set small. Errors when `x_norm_sq` is negative or non-finite.
    pub fn solve_screened(
        &self,
        b: &[f64],
        lambda: f64,
        excluded: usize,
        x_norm_sq: f64,
        ws: &mut LassoWorkspace,
    ) -> Result<SparseVec> {
        if !x_norm_sq.is_finite() || x_norm_sq < 0.0 {
            return Err(LinalgError::InvalidArgument(
                "lasso x_norm_sq must be finite and non-negative",
            ));
        }
        self.solve_impl(b, lambda, excluded, Some(x_norm_sq), ws)
    }

    fn solve_impl(
        &self,
        b: &[f64],
        lambda: f64,
        excluded: usize,
        x_norm_sq: Option<f64>,
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
        ws.reset(n, b);

        // Candidate atoms: everything with a usable curvature, minus the
        // excluded coordinate. Zero-diagonal atoms can never move off zero,
        // so dropping them up front is exact.
        ws.live
            .extend((0..n).filter(|&j| j != excluded && self.gram[(j, j)] > 0.0));

        // Working-set seeding (ORGEN-style): the most-correlated atoms — the
        // Lasso support is contained in high-correlation atoms for the
        // self-expression problems this solver serves — converge there, then
        // grow with KKT violators until none remain. Starting small avoids
        // the first-sweep blowup where every coordinate above the threshold
        // goes transiently nonzero.
        let seed = self.opts.working_set.max(1).min(ws.live.len());
        ws.active.extend_from_slice(&ws.live);
        let by_corr_desc = |&i: &usize, &j: &usize| b[j].abs().total_cmp(&b[i].abs());
        if seed < ws.active.len() {
            ws.active.select_nth_unstable_by(seed - 1, by_corr_desc);
            ws.active.truncate(seed);
        }
        ws.active.sort_unstable_by(by_corr_desc);
        for &j in &ws.active {
            ws.in_active[j] = true;
        }

        let mut rounds = 0u64;
        for _round in 0..self.opts.max_rounds.max(1) {
            rounds += 1;
            self.solve_panel(b, thresh, ws);

            // Rebuild the exact residual from the support: `r = b - G c`,
            // one contiguous column axpy per nonzero coefficient.
            ws.r.copy_from_slice(b);
            for p in 0..ws.active.len() {
                let cj = ws.cc[p];
                if cj != 0.0 {
                    vector::axpy(-cj, self.gram.col(ws.active[p]), &mut ws.r);
                }
            }

            if let Some(x_sq) = x_norm_sq {
                self.screen(b, thresh, x_sq, ws);
            }

            // Batched KKT re-entry: every remaining dormant atom whose
            // gradient escapes the subdifferential joins the working set at
            // once.
            ws.violators.clear();
            for &j in &ws.live {
                if !ws.in_active[j] && ws.r[j].abs() > thresh * (1.0 + 1e-9) {
                    ws.violators.push(j);
                }
            }
            if ws.violators.is_empty() {
                break;
            }
            for i in 0..ws.violators.len() {
                let j = ws.violators[i];
                ws.in_active[j] = true;
                ws.active.push(j);
            }
        }
        LASSO_WS_ROUNDS.add(rounds);
        self.spread_parallel(ws);
        Ok(SparseVec::from_dense(&ws.c, self.opts.support_tol))
    }

    /// Copies the active atoms into a compact column-major panel, solves
    /// the panel Lasso along its homotopy path, then runs cyclic CD sweeps
    /// from that solution until the largest coordinate change falls below
    /// `tol` (one sweep when the path was followed to the end). Inside the
    /// panel every residual update is a contiguous length-`m` axpy;
    /// converged coefficients are scattered back to `ws.c`.
    fn solve_panel(&self, b: &[f64], thresh: f64, ws: &mut LassoWorkspace) {
        let m = ws.active.len();
        ws.panel.resize(m * m, 0.0);
        ws.rc.resize(m, 0.0);
        ws.cc.resize(m, 0.0);
        ws.diag.resize(m, 0.0);
        for q in 0..m {
            let col = self.gram.col(ws.active[q]);
            let dst = &mut ws.panel[q * m..(q + 1) * m];
            for (p, slot) in dst.iter_mut().enumerate() {
                *slot = col[ws.active[p]];
            }
        }
        for p in 0..m {
            let j = ws.active[p];
            ws.diag[p] = self.gram[(j, j)];
        }

        homotopy(b, thresh, ws);
        // Exact panel residual of the path solution for the polish.
        for p in 0..m {
            ws.rc[p] = b[ws.active[p]];
        }
        for &p in &ws.path_set {
            vector::axpy(-ws.cc[p], &ws.panel[p * m..(p + 1) * m], &mut ws.rc);
        }

        let mut sweeps = 0u64;
        for _ in 0..self.opts.max_iters {
            sweeps += 1;
            let mut max_delta = 0.0f64;
            for p in 0..m {
                let old = ws.cc[p];
                // Correlation with atom p excluding its own contribution.
                let rho = ws.rc[p] + ws.diag[p] * old;
                let new = vector::soft_threshold(rho, thresh) / ws.diag[p];
                let delta = new - old;
                if delta != 0.0 {
                    ws.cc[p] = new;
                    vector::axpy(-delta, &ws.panel[p * m..(p + 1) * m], &mut ws.rc);
                    max_delta = max_delta.max(delta.abs());
                }
            }
            if max_delta < self.opts.tol {
                break;
            }
        }
        LASSO_SWEEPS.add(sweeps);

        for p in 0..m {
            ws.c[ws.active[p]] = ws.cc[p];
        }
    }

    /// Makes the solution canonical on exactly parallel atoms.
    ///
    /// Interchangeable atoms (`x_q = ±x_p`) make the optimum a whole face:
    /// any split of their signed mass is optimal, and a solver returns one
    /// vertex, which in SSC links a point to a single peer on its line.
    /// Each support atom's group of parallel, equal-norm live atoms gets
    /// its signed mass spread evenly instead. The fit, the ℓ1 norm and
    /// every residual correlation are unchanged, so the result is still an
    /// exact optimum; screening never removes such atoms, since they are
    /// nonzero in some optimum.
    fn spread_parallel(&self, ws: &mut LassoWorkspace) {
        for a in 0..ws.active.len() {
            let p = ws.active[a];
            if ws.c[p] == 0.0 || ws.grouped[p] {
                continue;
            }
            let col = self.gram.col(p);
            let gpp = col[p];
            ws.violators.clear();
            let mut mass = 0.0;
            for &q in &ws.live {
                let gqq = self.gram[(q, q)];
                if (gqq - gpp).abs() <= PARALLEL_TOL * gpp
                    && col[q].abs() >= (1.0 - PARALLEL_TOL) * (gpp * gqq).sqrt()
                {
                    ws.violators.push(q);
                    mass += col[q].signum() * ws.c[q];
                }
            }
            if ws.violators.len() > 1 {
                let share = mass / ws.violators.len() as f64;
                for &q in &ws.violators {
                    ws.c[q] = col[q].signum() * share;
                    ws.grouped[q] = true;
                }
            }
        }
    }

    /// Gap-safe sphere screening over the dormant live atoms.
    ///
    /// In the standard Lasso scaling (`min 0.5||x - Xc||^2 + t||c||_1` with
    /// `t = 1/lambda`) the dual point `theta = (x - Xc)/s` with
    /// `s = max(1, ||r||_inf / t)` over the live atoms is feasible for the
    /// reduced problem, and strong concavity of the dual gives
    /// `||theta - theta*|| <= sqrt(2 * gap)`. Any dormant atom `j` with
    ///
    /// ```text
    ///   |r_j| / s + sqrt(G_jj) * sqrt(2 * gap)  <  t
    /// ```
    ///
    /// therefore satisfies `|x_j^T theta*| < t` strictly, which forces
    /// `c*_j = 0` in every optimum — the atom is removed from `live` for
    /// good. All quantities are computed in Gram form:
    /// `||x - Xc||^2 = ||x||^2 - b.c - r.c` and `(x - Xc).x = ||x||^2 - b.c`.
    fn screen(&self, b: &[f64], thresh: f64, x_sq: f64, ws: &mut LassoWorkspace) {
        let mut b_dot_c = 0.0;
        let mut r_dot_c = 0.0;
        let mut l1 = 0.0;
        for p in 0..ws.active.len() {
            let cj = ws.cc[p];
            if cj != 0.0 {
                let j = ws.active[p];
                b_dot_c += b[j] * cj;
                r_dot_c += ws.r[j] * cj;
                l1 += cj.abs();
            }
        }
        let rho_sq = (x_sq - b_dot_c - r_dot_c).max(0.0);
        let r_inf = ws
            .live
            .iter()
            .fold(0.0f64, |acc, &j| acc.max(ws.r[j].abs()));
        let s = (r_inf / thresh).max(1.0);
        let gap =
            (0.5 * rho_sq * (1.0 + 1.0 / (s * s)) + thresh * l1 - (x_sq - b_dot_c) / s).max(0.0);
        let radius = (2.0 * gap).sqrt();

        let before = ws.live.len();
        let (gram, in_active, r) = (self.gram, &ws.in_active, &ws.r);
        ws.live.retain(|&j| {
            in_active[j]
                || r[j].abs() / s + gram[(j, j)].sqrt() * radius >= thresh * (1.0 - SCREEN_SLACK)
        });
        LASSO_ATOMS_SCREENED.add((before - ws.live.len()) as u64);
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

/// Solves the panel Lasso `min 0.5 c^T P c - b_A^T c + t ||c||_1` exactly
/// by following its solution path from `t = max |b_A|` (where `c = 0`) down
/// to `t = thresh`, leaving the solution in `ws.cc`.
///
/// Along the path the active atoms keep `r_j = t s_j` with `r = b_A - P c`,
/// so the active coefficients move along `d = P_AA^{-1} s` and every
/// correlation along `P d`. Each step runs to the next breakpoint: a free
/// atom's correlation reaching `±t` (it enters), or an active coefficient
/// crossing zero (it drops). The Cholesky factor of `P_AA` is updated in
/// `O(k^2)` on each entry and drop. An atom whose Schur complement shows it
/// in the active span is refused (`PathAtom::Singular`) until the next drop
/// shrinks the span; it stays on the boundary with a zero coefficient,
/// which is optimal there. A step cap guards against degenerate cycling;
/// the caller's CD polish finishes any path that stops early.
fn homotopy(b: &[f64], thresh: f64, ws: &mut LassoWorkspace) {
    let m = ws.active.len();
    ws.path.clear();
    ws.path.resize(m, PathAtom::Free);
    ws.path_set.clear();
    ws.signs.clear();
    ws.chol.resize(m * m, 0.0);
    ws.slope.resize(m, 0.0);
    let mut t = 0.0f64;
    let mut entering = None;
    for p in 0..m {
        ws.cc[p] = 0.0;
        ws.rc[p] = b[ws.active[p]];
        if ws.rc[p].abs() > t {
            t = ws.rc[p].abs();
            entering = Some((p, ws.rc[p].signum()));
        }
    }
    if t <= thresh {
        return;
    }

    let (mut steps, mut singular) = (0u64, 0u64);
    // The atom that just dropped still sits on the boundary it left; it
    // may cross to the other side on the next step, but not re-enter here.
    let mut dropped = (usize::MAX, 0.0);
    while steps < 4 * m as u64 + 8 {
        steps += 1;
        if let Some((p, sign)) = entering.take() {
            if chol_append(p, ws) {
                ws.path[p] = PathAtom::Active;
                ws.path_set.push(p);
                ws.signs.push(sign);
            } else {
                ws.path[p] = PathAtom::Singular;
                singular += 1;
            }
        }
        let k = ws.path_set.len();
        if k == 0 {
            break;
        }

        // d = P_AA^{-1} s by forward then back substitution, in place.
        ws.dir.clear();
        for i in 0..k {
            let row = &ws.chol[i * m..i * m + i + 1];
            let y = (ws.signs[i] - vector::dot(&row[..i], &ws.dir[..i])) / row[i];
            ws.dir.push(y);
        }
        for i in (0..k).rev() {
            let mut y = ws.dir[i];
            for j in i + 1..k {
                y -= ws.chol[j * m + i] * ws.dir[j];
            }
            ws.dir[i] = y / ws.chol[i * m + i];
        }
        ws.slope.fill(0.0);
        for (i, &p) in ws.path_set.iter().enumerate() {
            vector::axpy(ws.dir[i], &ws.panel[p * m..(p + 1) * m], &mut ws.slope);
        }

        let mut gamma = t - thresh;
        let mut next = Breakpoint::End;
        for p in 0..m {
            if ws.path[p] != PathAtom::Free {
                continue;
            }
            let (r, a) = (ws.rc[p], ws.slope[p]);
            if a < 1.0 && dropped != (p, 1.0) {
                let g = ((t - r) / (1.0 - a)).max(0.0);
                if g < gamma {
                    gamma = g;
                    next = Breakpoint::Enter(p, 1.0);
                }
            }
            if a > -1.0 && dropped != (p, -1.0) {
                let g = ((t + r) / (1.0 + a)).max(0.0);
                if g < gamma {
                    gamma = g;
                    next = Breakpoint::Enter(p, -1.0);
                }
            }
        }
        for (i, &p) in ws.path_set.iter().enumerate() {
            if ws.cc[p] * ws.dir[i] < 0.0 {
                let g = -ws.cc[p] / ws.dir[i];
                if g < gamma {
                    gamma = g;
                    next = Breakpoint::Drop(i);
                }
            }
        }

        for (i, &p) in ws.path_set.iter().enumerate() {
            ws.cc[p] += gamma * ws.dir[i];
        }
        vector::axpy(-gamma, &ws.slope, &mut ws.rc);
        t -= gamma;
        dropped = (usize::MAX, 0.0);
        match next {
            Breakpoint::End => break,
            Breakpoint::Enter(p, sign) => entering = Some((p, sign)),
            Breakpoint::Drop(i) => {
                let p = ws.path_set.remove(i);
                dropped = (p, ws.signs.remove(i));
                chol_drop(i, k, m, &mut ws.chol);
                ws.cc[p] = 0.0;
                for state in ws.path.iter_mut() {
                    if *state == PathAtom::Singular {
                        *state = PathAtom::Free;
                    }
                }
                ws.path[p] = PathAtom::Free;
            }
        }
    }
    LASSO_HOMOTOPY_STEPS.add(steps);
    LASSO_HOMOTOPY_SINGULAR.add(singular);
}

/// Appends panel atom `p` to the Cholesky factor of the active sub-Gram:
/// one forward substitution for the new row, `O(k^2)`. Returns `false`,
/// leaving the factor unchanged, when the Schur complement shows `p` in
/// the span of the active atoms.
fn chol_append(p: usize, ws: &mut LassoWorkspace) -> bool {
    let m = ws.active.len();
    let k = ws.path_set.len();
    let col = &ws.panel[p * m..(p + 1) * m];
    let (done, rest) = ws.chol.split_at_mut(k * m);
    let new_row = &mut rest[..k + 1];
    for i in 0..k {
        let row = &done[i * m..i * m + i + 1];
        new_row[i] = (col[ws.path_set[i]] - vector::dot(&row[..i], &new_row[..i])) / row[i];
    }
    let gpp = col[p];
    let schur = gpp - vector::dot(&new_row[..k], &new_row[..k]);
    if schur <= SINGULAR_SCHUR * gpp {
        return false;
    }
    new_row[k] = schur.sqrt();
    true
}

/// Removes row and column `i` from the `k x k` Cholesky factor (row-major,
/// stride `m`) in `O(k^2)`: drop row `i`, then Givens rotations on column
/// pairs `(j, j+1)` restore the lower-triangular shape of the rows below.
fn chol_drop(i: usize, k: usize, m: usize, chol: &mut [f64]) {
    for r in i + 1..k {
        chol.copy_within(r * m..r * m + r + 1, (r - 1) * m);
    }
    for j in i..k - 1 {
        let (a, b) = (chol[j * m + j], chol[j * m + j + 1]);
        let h = a.hypot(b);
        let (c, s) = (a / h, b / h);
        for r in j..k - 1 {
            let (x, y) = (chol[r * m + j], chol[r * m + j + 1]);
            chol[r * m + j] = c * x + s * y;
            chol[r * m + j + 1] = c * y - s * x;
        }
    }
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
            // roughly lambda * tol, so scale the acceptance accordingly.
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

    #[test]
    fn screened_solve_matches_unscreened() {
        // Self-expression over a small dictionary: screening must not move
        // a single coefficient beyond the coordinate tolerance.
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
            for factor in [0.5, 1.0, 2.0] {
                let lambda = ssc_lambda(b, i, 50.0) * factor;
                let plain = solver.solve(b, lambda, i).unwrap().to_dense();
                let screened = solver
                    .solve_screened(b, lambda, i, g[(i, i)], &mut ws)
                    .unwrap()
                    .to_dense();
                for (j, (p, s)) in plain.iter().zip(&screened).enumerate() {
                    assert!(
                        (p - s).abs() < 1e-6,
                        "point {i} lambda x{factor} coef {j}: {p} vs {s}"
                    );
                }
            }
        }
    }

    #[test]
    fn screening_fires_on_self_expression() {
        // A deterministic 40-atom self-expression instance must actually
        // discard atoms (the exactness tests alone would pass even if the
        // screening rule never fired). Counters are global and monotone, so
        // a strict increase is safe to assert under parallel test threads.
        let mut x = Matrix::zeros(8, 40);
        for j in 0..40 {
            for i in 0..8 {
                x[(i, j)] = ((i * 13 + j * 5 + 1) % 11) as f64 - 5.0;
            }
        }
        x.normalize_columns(1e-12);
        let g = x.gram();
        // Seed below the atom count so dormant atoms exist: only dormant
        // atoms are screening candidates (active ones stay live).
        let opts = LassoOptions {
            working_set: 8,
            ..Default::default()
        };
        let solver = LassoSolver::new(&g, opts);
        let mut ws = LassoWorkspace::new();
        let before = fedsc_obs::metrics::snapshot()
            .counters
            .get("lasso.atoms_screened")
            .copied()
            .unwrap_or(0);
        let b = g.col(0);
        let lambda = ssc_lambda(b, 0, 50.0);
        let _ = solver
            .solve_screened(b, lambda, 0, g[(0, 0)], &mut ws)
            .unwrap();
        let after = fedsc_obs::metrics::snapshot()
            .counters
            .get("lasso.atoms_screened")
            .copied()
            .unwrap_or(0);
        assert!(after > before, "screening never fired: {before} -> {after}");
    }

    #[test]
    fn solve_screened_rejects_bad_norm() {
        let x = simple_dictionary();
        let g = x.gram();
        let solver = LassoSolver::new(&g, LassoOptions::default());
        let b = vec![0.0; g.cols()];
        let mut ws = LassoWorkspace::new();
        assert!(solver
            .solve_screened(&b, 1.0, usize::MAX, -1.0, &mut ws)
            .is_err());
        assert!(solver
            .solve_screened(&b, 1.0, usize::MAX, f64::NAN, &mut ws)
            .is_err());
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
        // Factor a 5x5 SPD panel through appends, drop a middle atom, and
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
        let mut ws = LassoWorkspace::new();
        ws.active.extend(0..m);
        ws.panel = (0..m).flat_map(|q| g.col(q).to_vec()).collect();
        ws.chol.resize(m * m, 0.0);
        for p in 0..m {
            assert!(chol_append(p, &mut ws), "atom {p} refused");
            ws.path_set.push(p);
        }
        chol_drop(2, m, m, &mut ws.chol);
        let kept = [0, 1, 3, 4];
        for (i, &gi) in kept.iter().enumerate() {
            for (j, &gj) in kept.iter().enumerate() {
                let llt: f64 = (0..=i.min(j))
                    .map(|t| ws.chol[i * m + t] * ws.chol[j * m + t])
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
