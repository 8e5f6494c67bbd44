//! Thick-restart **block** Lanczos for the `k` smallest eigenpairs.
//!
//! This is the workspace's one Krylov eigensolver, behind
//! [`lanczos_smallest`](crate::lanczos::lanczos_smallest) and the sparse
//! spectral stage. Compared to a one-vector lock-and-restart deflation
//! (Lanczos with full reorthogonalization, one restart per locked pair) it
//! does three things, each aimed at the CSR Laplacian workload:
//!
//! 1. **Block expansion.** The basis grows `b` vectors at a time through
//!    [`SymOp::apply_block`], so one traversal of the operator's data is
//!    amortized across `b` matvecs (an SpMM for the CSR impl, a blocked
//!    matmul for dense). A width-`b` block also converges all `b` copies of
//!    a `b`-fold (near-)degenerate eigenvalue in a single pass, where a
//!    one-vector solver needs one full restart per copy.
//! 2. **Selective reorthogonalization.** Instead of two full Gram–Schmidt
//!    passes against the whole basis on every step, the solver tracks a
//!    per-block bound on orthogonality loss with Simon's ω-recurrence and
//!    only runs a full pass when the bound crosses `sqrt(ε)` — the
//!    semi-orthogonality threshold below which Ritz values are provably
//!    unaffected at the working tolerance.
//! 3. **Thick restarting.** When the basis hits `m_max`, the `l` smallest
//!    Ritz pairs (converged *and* nearly-converged) are retained together
//!    with the residual block, giving an exact compressed factorization
//!    `A Q = Q H + residual` to continue from — no information from prior
//!    restarts is thrown away.
//!
//! The solver also accepts **seed vectors** ([`ThickRestartOptions::seeds`]):
//! the spectral pipeline passes the per-component indicator vectors
//! `D^{1/2} 1_c`, which are *exact* kernel vectors of the normalized
//! Laplacian, so the degenerate zero eigenvalue of disconnected graphs is
//! captured by construction instead of hoped-for by iteration.
//!
//! Everything is deterministic (xorshift start vectors, no RNG) and
//! runs on the calling thread.

use crate::eigh::{eigh_partial, SymmetricEig};
use crate::error::{LinalgError, Result};
use crate::lanczos::{start_vector, SymOp};
use crate::matrix::Matrix;
use crate::vector;
use fedsc_obs::LazyCounter;

/// Thick restarts taken (one per basis rebuild after a Rayleigh–Ritz pass
/// that left unconverged wanted pairs).
pub(crate) static RESTARTS: LazyCounter = LazyCounter::new("spectral.restarts");
/// Operator applications, counted per *vector* (an `apply_block` of width
/// `b` adds `b`), so solves at different block widths are directly
/// comparable.
pub(crate) static MATVECS: LazyCounter = LazyCounter::new("spectral.matvecs");
/// Full reorthogonalization passes triggered by the ω-recurrence (or forced
/// by rank repair / full-space mode). The selective-reorth win is this
/// staying far below the step count.
pub(crate) static REORTH_PASSES: LazyCounter = LazyCounter::new("spectral.reorth_passes");
/// Ritz pairs accepted by the final true-residual verification.
pub(crate) static RITZ_LOCKED: LazyCounter = LazyCounter::new("spectral.ritz_locked");
/// Wanted pairs that failed the final true-residual verification when the
/// restart budget or the Krylov space ran out; such a solve returns
/// [`LinalgError::NoConvergence`]. Zero on every solve that returned `Ok`.
pub(crate) static UNCONVERGED: LazyCounter = LazyCounter::new("spectral.unconverged");

/// `sqrt(f64::EPSILON)` — Simon's semi-orthogonality threshold.
const SQRT_EPS: f64 = 1.490_116_119_384_765_6e-8;
/// Block width `b`; multi-vector operator kernels amortize one data
/// traversal across this many vectors. A narrower block reaches a higher
/// Krylov degree per restart within the same basis bound, which is what
/// resolves the near-degenerate tails of real central Laplacians: on the
/// seeded fig5/fig6 round graphs width 8 could exhaust the restart budget
/// (`λ25/λ26 = 0.995`), width 4 converged within 15 restarts on every
/// measured draw and roughly halved the solve (DESIGN.md §13).
const BLOCK: usize = 4;
/// Convergence tolerance on the residual `||A y - θ y||`, relative to
/// `max(scale, 1)` with `scale` the operator's largest absolute entry.
const RESIDUAL_TOL: f64 = 1e-6;
/// Default restart budget. Each restart is one full basis expansion, so
/// this bounds total work at roughly `max_restarts * m_max` matvecs.
const DEFAULT_MAX_RESTARTS: usize = 120;

/// Tuning knobs for [`thick_restart_smallest`]. `0` / empty mean
/// "pick the documented default". The block width `b` is fixed at 4,
/// clamped to `[1, n]` and widened to the seed count so all seeds form the
/// first block.
#[derive(Debug, Clone, Default)]
pub struct ThickRestartOptions {
    /// Retained basis bound `m_max` (default `k + max(4b, 32)`, raised to at
    /// least `k + b`, rounded up to a block multiple, capped at `n`).
    pub max_basis: usize,
    /// Restart budget (default 120). A solve whose returned pairs do not
    /// all pass the final true-residual check, once the budget or the
    /// Krylov space runs out, fails with [`LinalgError::NoConvergence`];
    /// the failing pairs are counted in `spectral.unconverged`.
    pub max_restarts: usize,
    /// Optional start vectors (length `n` each) folded into the first
    /// block — e.g. exact kernel vectors of a disconnected Laplacian.
    /// Orthonormalized on entry; degenerate seeds are dropped; at most `k`
    /// are used.
    pub seeds: Vec<Vec<f64>>,
}

/// Computes the `k` smallest eigenpairs of the symmetric operator `a` by
/// thick-restart block Lanczos. Eigenvalues ascending; eigenvectors
/// orthonormal columns.
pub fn thick_restart_smallest<A: SymOp + ?Sized>(
    a: &A,
    k: usize,
    opts: &ThickRestartOptions,
) -> Result<SymmetricEig> {
    let n = a.dim();
    if k == 0 || n == 0 {
        return Ok(SymmetricEig {
            eigenvalues: vec![],
            eigenvectors: Matrix::zeros(n, 0),
        });
    }
    let k = k.min(n);

    // Register the stage's telemetry up front: a seeded solve can converge
    // with zero restarts / reorth passes, and consumers (the bench metrics
    // contract) expect the keys to exist even at zero.
    RESTARTS.add(0);
    MATVECS.add(0);
    REORTH_PASSES.add(0);
    RITZ_LOCKED.add(0);
    UNCONVERGED.add(0);

    let (sigma, scale) = a.gershgorin();
    if !sigma.is_finite() || !scale.is_finite() {
        return Err(LinalgError::InvalidArgument(
            "matrix entries must be finite",
        ));
    }
    let anorm = sigma.abs().max(scale).max(1.0);
    let tol = RESIDUAL_TOL * scale.max(1.0);
    let max_restarts = if opts.max_restarts > 0 {
        opts.max_restarts
    } else {
        DEFAULT_MAX_RESTARTS
    };

    let mut solver = Solver {
        a,
        n,
        k,
        anorm,
        b_eff: 0,
        full_reorth: false,
        m_max: 0,
        q: Vec::new(),
        h: Matrix::zeros(0, 0),
        blocks: Vec::new(),
        omega: Vec::new(),
        omega_prev: Vec::new(),
        beta_hi_prev: 0.0,
        reorth_next: false,
        salt: 0,
        probe_collapse: false,
    };

    // Seeds form the front of the first block: orthonormalize, drop
    // degenerate ones, cap at k (more seeds than wanted pairs add nothing).
    let mut init: Vec<Vec<f64>> = Vec::new();
    for s in opts.seeds.iter().take(k) {
        if s.len() != n {
            return Err(LinalgError::InvalidArgument(
                "seed vector length must equal the operator dimension",
            ));
        }
        let mut v = s.clone();
        for _ in 0..2 {
            for b in &init {
                let c = vector::dot(b, &v);
                if c != 0.0 {
                    vector::axpy(-c, b, &mut v);
                }
            }
        }
        if vector::normalize(&mut v, 1e-8) > 1e-8 {
            init.push(v);
        }
    }

    let init_len = init.len();
    let b_eff = BLOCK.max(init_len).clamp(1, n);
    let mut m_max = if opts.max_basis > 0 {
        opts.max_basis
    } else {
        k + (4 * b_eff).max(32)
    };
    m_max = m_max.max(k + b_eff);
    // Round up to a block multiple so expansion fills the basis exactly.
    m_max = b_eff * m_max.div_ceil(b_eff);
    if m_max >= n {
        // Full-space regime: the basis saturates R^n, where rank decisions
        // must see the whole basis — force full reorthogonalization.
        m_max = n;
        solver.full_reorth = true;
    }
    solver.b_eff = b_eff;
    solver.m_max = m_max;
    solver.h = Matrix::zeros(m_max, m_max);
    solver.q = init;
    while solver.q.len() < b_eff.min(m_max) {
        match solver.fresh_vector(&[]) {
            Some(v) => solver.q.push(v),
            None => break,
        }
    }
    if solver.q.is_empty() {
        return Err(LinalgError::InvalidArgument(
            "could not construct a start block",
        ));
    }
    let w0 = solver.q.len();
    solver.blocks.push((0, w0));
    solver.omega = vec![f64::EPSILON];
    solver.omega_prev = vec![f64::EPSILON];

    let inner_tol = 0.5 * tol;
    // Kernel-capture fast path: when the seeds already span k directions
    // (e.g. one indicator vector per component of a k-component graph),
    // run Rayleigh–Ritz on the seed block alone before growing the basis
    // to m_max — exact seeds converge right there, and the full expansion
    // happens only when the seeds were not enough. Without this check a
    // wide seed block inflates m_max and the solver would pay a full
    // expansion for an answer it was handed at the start.
    let seeded_check = init_len >= k;
    for attempt in 0..=max_restarts {
        let (fp, fr) = if attempt == 0 && seeded_check {
            solver.probe_collapse = true;
            let step = solver.block_step();
            solver.probe_collapse = false;
            step?
        } else {
            solver.expand()?
        };
        let m = solver.q.len();
        let mut hm = Matrix::zeros(m, m);
        for j in 0..m {
            for i in 0..m {
                hm[(i, j)] = solver.h[(i, j)];
            }
        }
        // Only the pairs this pass reads: the `k` wanted ones and the `l`
        // a restart keeps.
        let he = eigh_partial(&hm, k.min(m).max(solver.kept(m)))?;

        // Residual estimates: for Ritz pair (θ_i, s_i) the residual factors
        // through the frontier block, ||A y_i - θ_i y_i|| = ||R s_i[F]||.
        // INVARIANT: `blocks` is seeded non-empty at construction and every
        // restart/append keeps at least one entry, so `last()` never fails.
        let (f0, fwidth) = *solver
            .blocks
            .last()
            .expect("basis always holds at least one block");
        let mut resid = vec![0.0f64; k.min(m)];
        if !fp.is_empty() {
            for (i, r) in resid.iter_mut().enumerate() {
                let mut acc = 0.0f64;
                for row in &fr {
                    let mut c = 0.0f64;
                    for (s, &rv) in row.iter().enumerate().take(fwidth) {
                        c += rv * he.eigenvectors[(f0 + s, i)];
                    }
                    acc += c * c;
                }
                *r = acc.sqrt();
            }
        }
        let nconv = resid.iter().filter(|&&r| r <= inner_tol).count();

        let exhausted = fp.is_empty();
        if nconv >= k || exhausted || attempt == max_restarts {
            let (evals, y) = solver.ritz_vectors(&he, k)?;
            // True-residual verification: one block apply over the k
            // candidates; accept on the ∞-norm residual contract.
            let mut x = vec![0.0; n * k];
            for (j, _) in evals.iter().enumerate() {
                let col = y.col(j);
                for i in 0..n {
                    x[i * k + j] = col[i];
                }
            }
            let ay = a.apply_block(&x, k)?;
            MATVECS.add(k as u64);
            let mut passed = 0usize;
            let mut all_ok = true;
            for (j, &ev) in evals.iter().enumerate() {
                let col = y.col(j);
                let mut worst = 0.0f64;
                for i in 0..n {
                    worst = worst.max((ay[i * k + j] - ev * col[i]).abs());
                }
                if worst <= tol {
                    passed += 1;
                } else {
                    all_ok = false;
                }
            }
            if all_ok || exhausted || attempt == max_restarts {
                RITZ_LOCKED.add(passed as u64);
                UNCONVERGED.add((evals.len() - passed) as u64);
                if !all_ok {
                    return Err(LinalgError::NoConvergence {
                        routine: "thick-restart Lanczos",
                        iterations: attempt,
                    });
                }
                return Ok(SymmetricEig {
                    eigenvalues: evals,
                    eigenvectors: y,
                });
            }
        }

        RESTARTS.inc();
        solver.restart(&he, fp, fr)?;
    }
    // INVARIANT: the `attempt == max_restarts` arm above returns
    // unconditionally, so control cannot fall out of the loop.
    unreachable!("loop returns on its final attempt")
}

/// A frontier factor `(P, R)`: `P` is a column block continuing the basis,
/// `R` the coupling rows `H[new, cur]` that tie it to the current block.
type BlockFactor = (Vec<Vec<f64>>, Vec<Vec<f64>>);

/// Expansion / restart state. `q` is the orthonormal basis, `h` the
/// projected operator (`H = Q^T A Q` on all recurrence-known entries),
/// `blocks` the contiguous block structure of `q` (after a restart the
/// kept Ritz prefix is the pseudo-block `(0, l)`).
struct Solver<'a, A: SymOp + ?Sized> {
    a: &'a A,
    n: usize,
    k: usize,
    anorm: f64,
    b_eff: usize,
    full_reorth: bool,
    m_max: usize,
    q: Vec<Vec<f64>>,
    h: Matrix,
    blocks: Vec<(usize, usize)>,
    /// ω-recurrence state: `omega[t]` bounds the inner products between the
    /// *latest* block and block `t`; `omega_prev` the same for the
    /// previous block.
    omega: Vec<f64>,
    omega_prev: Vec<f64>,
    /// `||B_{j-1}||_F` of the previous coupling block, feeding the
    /// recurrence.
    beta_hi_prev: f64,
    /// Simon's rule: after a triggered full pass, reorthogonalize the next
    /// step too.
    reorth_next: bool,
    /// Deterministic-start-vector counter (never reused, so replacement
    /// vectors differ from every earlier one).
    salt: usize,
    /// True only during the kernel-seeded first pass, where a collapsed
    /// residual block is provably the global optimum (see `block_step`).
    probe_collapse: bool,
}

impl<A: SymOp + ?Sized> Solver<'_, A> {
    /// A deterministic pseudo-random vector orthonormalized against the
    /// whole basis plus `extra`; `None` once the span is exhausted.
    fn fresh_vector(&mut self, extra: &[Vec<f64>]) -> Option<Vec<f64>> {
        for _ in 0..4 {
            self.salt += 1;
            let mut v = start_vector(self.n, self.salt);
            for _ in 0..2 {
                for b in self.q.iter().chain(extra.iter()) {
                    let c = vector::dot(b, &v);
                    if c != 0.0 {
                        vector::axpy(-c, b, &mut v);
                    }
                }
            }
            if vector::normalize(&mut v, 1e-8) > 1e-8 {
                return Some(v);
            }
        }
        None
    }

    /// One block step on the *last* block `C`: applies the operator, fills
    /// `H`'s diagonal block, forms the residual
    /// `Z = A C - C A_j - C_prev B^T`, reorthogonalizes (locally always;
    /// fully when the ω-recurrence demands it) and QR-factors
    /// `Z = P R`. Returns `(P, R)` — the caller appends it or uses it as
    /// the frontier residual factor. Rank-deficient columns are repaired
    /// with fresh fully-deflated directions (zero coupling row, which is
    /// exact to rounding because the repair vector is orthogonal to the
    /// whole basis) or dropped once the span is exhausted.
    fn block_step(&mut self) -> Result<BlockFactor> {
        // INVARIANT: `blocks` is seeded non-empty at construction and every
        // restart/append keeps at least one entry, so `last()` never fails.
        let (c0, w) = *self
            .blocks
            .last()
            .expect("basis always holds at least one block");
        let n = self.n;

        // One operator traversal for the whole block.
        let mut x = vec![0.0; n * w];
        for s in 0..w {
            let col = &self.q[c0 + s];
            for (i, &ci) in col.iter().enumerate() {
                x[i * w + s] = ci;
            }
        }
        let ac = self.a.apply_block(&x, w)?;
        MATVECS.add(w as u64);
        let mut z: Vec<Vec<f64>> = (0..w)
            .map(|s| (0..n).map(|i| ac[i * w + s]).collect())
            .collect();

        // Diagonal block A_j = C^T (A C), filled symmetrically.
        for s in 0..w {
            for t in 0..=s {
                let v = vector::dot(&self.q[c0 + t], &z[s]);
                self.h[(c0 + t, c0 + s)] = v;
                self.h[(c0 + s, c0 + t)] = v;
            }
        }

        // Three-term block recurrence + one local reorthogonalization pass
        // against prev ∪ current (coefficients are rounding-level there, so
        // they are discarded rather than folded into H).
        let prev = if self.blocks.len() >= 2 {
            Some(self.blocks[self.blocks.len() - 2])
        } else {
            None
        };
        for s in 0..w {
            let zs = &mut z[s];
            for t in 0..w {
                let c = self.h[(c0 + t, c0 + s)];
                if c != 0.0 {
                    vector::axpy(-c, &self.q[c0 + t], zs);
                }
            }
            if let Some((p0, pw)) = prev {
                for t in 0..pw {
                    let c = self.h[(c0 + s, p0 + t)];
                    if c != 0.0 {
                        vector::axpy(-c, &self.q[p0 + t], zs);
                    }
                }
            }
            let lo = prev.map_or(c0, |(p0, _)| p0);
            for t in lo..c0 + w {
                let c = vector::dot(&self.q[t], zs);
                if c != 0.0 {
                    vector::axpy(-c, &self.q[t], zs);
                }
            }
        }

        // Modified Gram–Schmidt QR with rank repair.
        let rank_tol = 1e-11 * self.anorm;

        // Seeded-probe short-circuit: on the kernel-seeded first pass
        // (`probe_collapse`, set only when the seeds already span the k
        // requested directions), a residual block at rounding level means
        // the seed span is A-invariant — and since the seeds are kernel
        // vectors of a PSD operator, its k smallest Ritz pairs are the
        // global optimum. Repairing all w deficient columns (each fresh
        // vector deflated against the full basis — the single most
        // expensive non-apply step) buys nothing: hand back one fresh
        // probe direction with an exact zero coupling row and let the
        // caller's true-residual verification accept. Everywhere else the
        // full-width repair below must run: a collapsed random-start block
        // also spans an invariant subspace, but possibly the *wrong* one
        // (two-eigenvalue operators saturate span{v, Av} instantly), and
        // injecting w fresh directions per collapse is what digs out the
        // remaining copies of a degenerate eigenvalue fast enough.
        if self.probe_collapse
            && self.q.len() >= self.k
            && z.iter().all(|zs| vector::norm2(zs) <= rank_tol)
        {
            return match self.fresh_vector(&[]) {
                Some(f) => Ok((vec![f], vec![vec![0.0; w]])),
                // The whole space is spanned — genuine exhaustion.
                None => Ok((Vec::new(), Vec::new())),
            };
        }

        let mut p: Vec<Vec<f64>> = Vec::new();
        let mut r: Vec<Vec<f64>> = Vec::new();
        let mut beta_lo = f64::INFINITY;
        let mut repaired = false;
        for s in 0..w {
            let mut zs = std::mem::take(&mut z[s]);
            for (t, pt) in p.iter().enumerate() {
                let c = vector::dot(pt, &zs);
                r[t][s] = c;
                if c != 0.0 {
                    vector::axpy(-c, pt, &mut zs);
                }
            }
            let nrm = vector::norm2(&zs);
            if nrm > rank_tol {
                vector::scale(&mut zs, 1.0 / nrm);
                let mut row = vec![0.0; w];
                row[s] = nrm;
                r.push(row);
                p.push(zs);
                beta_lo = beta_lo.min(nrm);
            } else if let Some(fresh) = self.fresh_vector(&p) {
                r.push(vec![0.0; w]);
                p.push(fresh);
                repaired = true;
            }
            // else: span exhausted — drop the column.
        }
        let beta_hi = r
            .iter()
            .flat_map(|row| row.iter())
            .map(|v| v * v)
            .sum::<f64>()
            .sqrt();

        // ω-recurrence update (Simon): bound the new block's inner products
        // with every block at least two steps back; prev and self are
        // locally orthogonalized, hence at ε.
        let eps = f64::EPSILON;
        let nb = self.blocks.len();
        let blo = if beta_lo.is_finite() {
            beta_lo.max(eps * self.anorm)
        } else {
            eps * self.anorm
        };
        let mut omega_new = vec![eps; nb + 1];
        let mut trigger = false;
        for t in 0..nb.saturating_sub(1) {
            let est = (2.0 * self.anorm * self.omega[t]
                + self.beta_hi_prev * self.omega_prev[t]
                + eps * self.anorm * (w as f64).sqrt())
                / blo;
            let est = est.clamp(eps, 1.0);
            omega_new[t] = est;
            if est > SQRT_EPS {
                trigger = true;
            }
        }

        if !p.is_empty() && (trigger || self.reorth_next || repaired || self.full_reorth) {
            REORTH_PASSES.inc();
            let mut kept: Vec<Vec<f64>> = Vec::with_capacity(p.len());
            let mut kept_rows: Vec<Vec<f64>> = Vec::with_capacity(r.len());
            for (mut v, row) in p.into_iter().zip(r) {
                for b in self.q.iter().chain(kept.iter()) {
                    let c = vector::dot(b, &v);
                    if c != 0.0 {
                        vector::axpy(-c, b, &mut v);
                    }
                }
                let nrm = vector::norm2(&v);
                if nrm > 0.5 {
                    vector::scale(&mut v, 1.0 / nrm);
                    kept.push(v);
                    kept_rows.push(row);
                } else if let Some(fresh) = self.fresh_vector(&kept) {
                    // The column collapsed onto the existing basis: its
                    // claimed couplings are stale, so the replacement
                    // carries a zero row.
                    kept.push(fresh);
                    kept_rows.push(vec![0.0; w]);
                }
                // else: drop — the span is exhausted.
            }
            p = kept;
            r = kept_rows;
            for o in omega_new.iter_mut() {
                *o = eps;
            }
            self.reorth_next = trigger && !self.full_reorth;
        } else {
            self.reorth_next = false;
        }

        self.omega_prev = std::mem::replace(&mut self.omega, omega_new);
        self.omega_prev.push(eps);
        self.beta_hi_prev = beta_hi;
        Ok((p, r))
    }

    /// Appends `(P, R)` as a new block: basis vectors plus the coupling
    /// rows `H[new, cur] = R`.
    fn append_block(&mut self, p: Vec<Vec<f64>>, r: Vec<Vec<f64>>) {
        let m = self.q.len();
        // INVARIANT: `blocks` is seeded non-empty at construction and every
        // restart/append keeps at least one entry, so `last()` never fails.
        let (c0, _) = *self
            .blocks
            .last()
            .expect("basis always holds at least one block");
        let wnew = p.len();
        for (t, (pt, row)) in p.into_iter().zip(r).enumerate() {
            for (s, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    self.h[(m + t, c0 + s)] = v;
                    self.h[(c0 + s, m + t)] = v;
                }
            }
            self.q.push(pt);
        }
        self.blocks.push((m, wnew));
    }

    /// Grows the basis to `m_max` and returns the frontier residual factor
    /// `(P, R)` (empty when the Krylov space is exhausted — every Ritz
    /// residual is then at rounding level).
    fn expand(&mut self) -> Result<BlockFactor> {
        loop {
            let m = self.q.len();
            if m >= self.m_max {
                return self.block_step();
            }
            let (mut p, mut r) = self.block_step()?;
            if p.is_empty() {
                return Ok((p, r));
            }
            let room = self.m_max - m;
            if p.len() > room {
                if m >= self.k {
                    // Enough basis for Rayleigh–Ritz: use (P, R) as the
                    // frontier instead of truncating it (truncation drops
                    // residual rows, which would bias the estimates).
                    return Ok((p, r));
                }
                p.truncate(room);
                r.truncate(room);
            }
            self.append_block(p, r);
        }
    }

    /// Assembles the first `k` Ritz vectors `Y = Q S_k` and polishes them
    /// to orthonormality (one MGS sweep — `S` is orthonormal and `Q`
    /// semi-orthogonal, so corrections are rounding-level).
    fn ritz_vectors(&self, he: &SymmetricEig, k: usize) -> Result<(Vec<f64>, Matrix)> {
        let m = self.q.len();
        let kk = k.min(m);
        let qrefs: Vec<&[f64]> = self.q.iter().map(|v| v.as_slice()).collect();
        let qmat = Matrix::from_columns(&qrefs)?;
        let mut smat = Matrix::zeros(m, kk);
        for j in 0..kk {
            for i in 0..m {
                smat[(i, j)] = he.eigenvectors[(i, j)];
            }
        }
        let y = qmat.matmul(&smat)?;
        let mut cols: Vec<Vec<f64>> = (0..kk).map(|j| y.col(j).to_vec()).collect();
        for j in 0..kk {
            let (done, rest) = cols.split_at_mut(j);
            let v = &mut rest[0];
            for d in done.iter() {
                let c = vector::dot(d, v);
                if c != 0.0 {
                    vector::axpy(-c, d, v);
                }
            }
            vector::normalize(v, 1e-300);
        }
        let colrefs: Vec<&[f64]> = cols.iter().map(|v| v.as_slice()).collect();
        Ok((
            he.eigenvalues[..kk].to_vec(),
            Matrix::from_columns(&colrefs)?,
        ))
    }

    /// Ritz pairs a thick restart of an `m`-vector basis retains: the `k`
    /// wanted plus one block, leaving room for a frontier block.
    fn kept(&self, m: usize) -> usize {
        (self.k + self.b_eff)
            .min(self.m_max.saturating_sub(self.b_eff))
            .min(m)
            .max(1)
    }

    /// Thick restart: retain the `l` smallest Ritz pairs plus the frontier
    /// block. The new basis is `[Y_l | P]` with
    /// `H = [[Θ, B^T], [B, ·]]`, `B = R S_l` restricted to the frontier
    /// rows — an exact compressed factorization, so no accuracy is lost
    /// across the restart. The frontier block is padded back to full
    /// width with fresh fully-deflated vectors (zero coupling).
    fn restart(&mut self, he: &SymmetricEig, fp: Vec<Vec<f64>>, fr: Vec<Vec<f64>>) -> Result<()> {
        let m = self.q.len();
        // INVARIANT: `blocks` is seeded non-empty at construction and every
        // restart/append keeps at least one entry, so `last()` never fails.
        let (f0, fwidth) = *self
            .blocks
            .last()
            .expect("basis always holds at least one block");
        let l = self.kept(m);

        let qrefs: Vec<&[f64]> = self.q.iter().map(|v| v.as_slice()).collect();
        let qmat = Matrix::from_columns(&qrefs)?;
        let mut smat = Matrix::zeros(m, l);
        for j in 0..l {
            for i in 0..m {
                smat[(i, j)] = he.eigenvectors[(i, j)];
            }
        }
        let y = qmat.matmul(&smat)?;

        let wf = fp.len();
        let mut coupling = vec![vec![0.0f64; l]; wf];
        for (t, row) in fr.iter().enumerate() {
            for (j, slot) in coupling[t].iter_mut().enumerate() {
                let mut acc = 0.0f64;
                for (s, &rv) in row.iter().enumerate().take(fwidth) {
                    acc += rv * he.eigenvectors[(f0 + s, j)];
                }
                *slot = acc;
            }
        }

        self.q.clear();
        for j in 0..l {
            self.q.push(y.col(j).to_vec());
        }
        self.h = Matrix::zeros(self.m_max, self.m_max);
        for (j, &ev) in he.eigenvalues.iter().enumerate().take(l) {
            self.h[(j, j)] = ev;
        }
        for (t, row) in coupling.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                self.h[(l + t, j)] = v;
                self.h[(j, l + t)] = v;
            }
        }
        // The frontier was orthogonalized only locally while the basis
        // grew, so its loss against the kept Ritz vectors is whatever the
        // ω-recurrence tolerated. Left alone, that loss compounds from one
        // restart to the next: on a 490-node central Laplacian at k = 11 it
        // grew ~50x per restart until the Ritz values fell to -0.26 for a
        // PSD operator. Two full passes keep it at rounding level; the
        // coupling rows stay exact to that level.
        for mut v in fp {
            for _ in 0..2 {
                for b in &self.q {
                    let c = vector::dot(b, &v);
                    if c != 0.0 {
                        vector::axpy(-c, b, &mut v);
                    }
                }
            }
            vector::normalize(&mut v, 1e-300);
            self.q.push(v);
        }
        let target = (l + self.b_eff).min(self.m_max);
        while self.q.len() < target {
            match self.fresh_vector(&[]) {
                Some(v) => self.q.push(v),
                None => break,
            }
        }
        let w1 = self.q.len() - l;
        if w1 == 0 {
            return Err(LinalgError::InvalidArgument(
                "thick restart could not form a frontier block",
            ));
        }
        self.blocks = vec![(0, l), (l, w1)];
        self.omega = vec![f64::EPSILON, f64::EPSILON];
        self.omega_prev = vec![f64::EPSILON, f64::EPSILON];
        self.beta_hi_prev = fr
            .iter()
            .flat_map(|row| row.iter())
            .map(|v| v * v)
            .sum::<f64>()
            .sqrt();
        self.reorth_next = false;
        Ok(())
    }
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

    /// Block-diagonal unnormalized Laplacian of `blocks` complete graphs.
    fn component_laplacian(blocks: usize, bs: usize) -> Matrix {
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
        a
    }

    #[test]
    fn kernel_seeds_capture_degenerate_zero_first_pass() {
        // 7-fold zero eigenvalue, seeded with the exact component
        // indicators: every copy must come out, with restarts == 0 extra
        // work beyond one expansion (we only assert correctness here; the
        // counter deltas are exercised by the bench harness).
        let blocks = 7;
        let bs = 5;
        let a = component_laplacian(blocks, bs);
        let n = blocks * bs;
        let seeds: Vec<Vec<f64>> = (0..blocks)
            .map(|b| {
                let mut v = vec![0.0; n];
                for i in 0..bs {
                    v[b * bs + i] = 1.0;
                }
                v
            })
            .collect();
        let opts = ThickRestartOptions {
            seeds,
            ..ThickRestartOptions::default()
        };
        let out = thick_restart_smallest(&a, blocks + 2, &opts).unwrap();
        for i in 0..blocks {
            assert!(
                out.eigenvalues[i].abs() < 1e-8,
                "eigenvalue {i} = {}",
                out.eigenvalues[i]
            );
        }
        assert!((out.eigenvalues[blocks] - bs as f64).abs() < 1e-7);
    }

    #[test]
    fn seed_widened_and_clamped_blocks_still_converge() {
        // The block leaves its fixed width 4 in two ways: six seeds widen
        // it to 6, and a 3 x 3 operator clamps it to 3 (the full space).
        let sine_seeds = |count: usize, n: usize| -> Vec<Vec<f64>> {
            (0..count)
                .map(|s| (0..n).map(|i| ((i * (s + 1) + s) as f64).sin()).collect())
                .collect()
        };
        for (n, k, seeds) in [(50, 6, sine_seeds(6, 50)), (3, 2, Vec::new())] {
            let a = random_symmetric(n, 99);
            let dense = eigh(&a).unwrap();
            let opts = ThickRestartOptions {
                seeds,
                ..ThickRestartOptions::default()
            };
            let out = thick_restart_smallest(&a, k, &opts).unwrap();
            for i in 0..k {
                assert!(
                    (dense.eigenvalues[i] - out.eigenvalues[i]).abs() < 1e-7,
                    "n {n}, eigenvalue {i}: {} vs {}",
                    dense.eigenvalues[i],
                    out.eigenvalues[i]
                );
            }
        }
    }

    #[test]
    fn exhausted_restart_budget_is_an_error() {
        // Ten wanted pairs of a dense random spectrum, a basis of two
        // blocks past them and one restart: the budget runs out with pairs
        // failing the residual check, which must not come back as `Ok`.
        let a = random_symmetric(120, 7);
        let opts = ThickRestartOptions {
            max_basis: 18,
            max_restarts: 1,
            ..ThickRestartOptions::default()
        };
        let before = UNCONVERGED.get();
        let err = thick_restart_smallest(&a, 10, &opts).unwrap_err();
        assert!(
            matches!(err, LinalgError::NoConvergence { iterations: 1, .. }),
            "{err:?}"
        );
        assert!(UNCONVERGED.get() > before, "failing pairs are counted");
    }

    #[test]
    fn seed_validation_rejects_bad_length() {
        let a = Matrix::identity(6);
        let opts = ThickRestartOptions {
            seeds: vec![vec![1.0; 4]],
            ..ThickRestartOptions::default()
        };
        assert!(thick_restart_smallest(&a, 2, &opts).is_err());
    }
}
