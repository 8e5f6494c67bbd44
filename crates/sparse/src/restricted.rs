//! Restricted-Gram Lasso with an **exact** full-dictionary certificate —
//! the solver half of the subquadratic SSC pipeline.
//!
//! The dense SSC path builds the full `n x n` Gram and solves every
//! self-expression Lasso over all `n - 1` atoms. Here each point `i` is
//! solved over a small **candidate neighborhood** `C_i` (`|C_i| = k << n`,
//! pre-selected upstream from a Johnson–Lindenstrauss sketch, see
//! `fedsc_linalg::sketch`): the `k x k` Gram and `b_C = X_C^T x_i` are
//! computed on the *exact* data, the per-point lambda rule uses the exact
//! restricted correlation maximum, and the solve itself is the standard
//! homotopy Lasso solver ([`crate::lasso::LassoSolver`]) on the exact
//! restricted Gram.
//!
//! ## Why the certificate must scan the full dictionary
//!
//! A restricted optimum is the *global* optimum iff every out-of-set atom
//! satisfies the KKT bound `|x_j^T r_i| <= lambda_i^{-1}`, and the paper's
//! lambda rule itself needs `mu_i = max_{j != i} |x_j^T x_i|` over the full
//! dictionary. Cheap certificates fail here: the Cauchy–Schwarz bound
//! `|x_j^T r_i| <= ||r_i||` collapses to exactly the KKT threshold whenever
//! the dual scaling is active, and a sketched residual scan cannot resolve
//! correlations at threshold precision (`O(sqrt(ln n / s))` sketch error
//! dwarfs the `1/lambda` margin). So the certificate is computed **exactly**
//! and amortized: points are verified in panels, one blocked
//! `X^T [U | F]` product per panel (`U` = residuals, `F` = fitted vectors),
//! which yields both the full residual correlations `X^T r_i` (KKT scan)
//! and the full `b_i = X^T x_i = X^T r_i + X^T f_i` (exact `mu_i`) at
//! `O(n d)` per point — the same flop class as one Gram *row* of the dense
//! path, with `O(n * panel)` memory instead of the `n x n` Gram.
//!
//! Points whose scan is clean are **certified**: their restricted problem
//! provably shares its optimum with the dense path's problem (same lambda
//! rule, no violated atom). Anything else **escalates** deterministically:
//! the violators (plus the true correlation argmax when the restricted
//! lambda was wrong) join the candidate set, the point re-solves at the
//! exact lambda, and re-verifies against the full dictionary (`O(n d)`
//! matvec per round) until clean — the ORGEN oracle loop, so escalated
//! points are exact too, they just paid more rounds. The candidate set
//! grows strictly every round, so termination is structural.
//!
//! Because the certificate reads every atom, certified-exact mode costs
//! `Theta(n^2 d)` overall — the dense Gram's flop class — and buys
//! exactness, not asymptotics. [`solve_candidates`] therefore also offers
//! **screening-only** mode (`verify = false`): skip the certificate and
//! the escalation loop, return the restricted optima as-is with every
//! `certified` flag `false`. That is the classical neighborhood-screened
//! SSC trade (exactness for a genuinely subquadratic solve stage), and it
//! is what the large-`n` bench rows run; see `DESIGN.md` §9.5 for when
//! each mode wins.
//!
//! Everything is bitwise thread-invariant: per-point arithmetic never
//! depends on the fan-out, panels are assembled in fixed order, and the
//! blocked products are the pool's thread-invariant kernels.

use crate::lasso::{LassoOptions, LassoSolver, LassoWorkspace};
use crate::vec::SparseVec;
use fedsc_linalg::{par, span, vector, LinalgError, Matrix, Result};
use fedsc_obs::LazyCounter;

/// Candidate atoms offered to the restricted solves, summed over points
/// (final sets, after any escalation growth); divide by the point count for
/// the mean neighborhood size.
static LASSO_CANDIDATES: LazyCounter = LazyCounter::new("lasso.candidates_per_point");
/// Escalation rounds taken because the certificate found KKT violators or a
/// wrong restricted lambda (one count per point per round).
static LASSO_ESCALATIONS: LazyCounter = LazyCounter::new("lasso.escalations");

/// Points verified per blocked `X^T [U | F]` slab.
const VERIFY_PANEL: usize = 128;

/// Relative slack on the KKT threshold before an out-of-set atom counts as
/// a violator, as a multiple of the coordinate tolerance (with a floor).
/// Coordinate descent converges the *coefficients* to `LassoOptions::tol`,
/// so residual correlations carry solver-tolerance noise — a slack below it
/// would make the certificate chase phantom violators forever, while a
/// slack far above it would silently drop borderline atoms the dense path
/// activates. Coupling the two keeps the certificate exactly as tight as
/// the solve: default `tol = 1e-6` gives a `1e-4` band; tightening `tol`
/// tightens the certificate with it.
fn escalate_slack(tol: f64) -> f64 {
    (100.0 * tol).max(1e-7)
}

/// Relative slack when comparing the restricted correlation maximum against
/// the exact one — covers summation-order rounding between the plain-dot
/// restricted quantities and the blocked verification product.
const MU_SLACK: f64 = 1e-12;

/// Result of a candidate-restricted batch solve.
#[derive(Debug)]
pub struct CandidateOutcome {
    /// Per-point self-expression codes over the full `n` atoms. With
    /// verification on, every code is exact — the optimum of the
    /// full-dictionary problem at its lambda; with verification off the
    /// codes are the restricted optima over the offered candidates.
    pub codes: Vec<SparseVec>,
    /// Per point: `true` when the first verification pass was already clean
    /// (restricted solve + exact full-dictionary scan found no
    /// violator and the restricted lambda was exact). `false` means the
    /// point escalated — its code is still exact, it just took extra rounds.
    pub certified: Vec<bool>,
    /// Points that needed at least one escalation round.
    pub escalated_points: usize,
}

/// Per-point working state across the verify/escalate rounds.
struct PointState {
    /// Ascending candidate atoms (never contains the point itself).
    cand: Vec<usize>,
    /// Lambda the current code was solved at.
    lambda: f64,
    /// Best known correlation maximum: restricted after the first solve,
    /// exact after the first verification.
    mu: f64,
    /// Current code, local `(candidate-position, value)` pairs sorted by
    /// position.
    local: Vec<(usize, f64)>,
}

/// Solves the SSC self-expression Lasso for every column of `x` over its
/// candidate neighborhood, certifies each solution against the **full**
/// dictionary, and escalates until every code is a full-dictionary optimum.
///
/// `candidates[i]` are the atoms offered to point `i` (strictly ascending,
/// without `i` itself). `alpha` is the paper's lambda-rule multiplier;
/// `opts.threads` fans both the per-point solves and the blocked
/// verification products out over the shared pool. Codes are bitwise
/// identical for every thread count.
///
/// `verify = false` skips the certificate and the escalation loop: every
/// point keeps its restricted optimum and reports `certified = false`. The
/// certificate is exact and therefore costs `O(n d)` per point — the same
/// flop class as one dense Gram row — so screening-only mode is the one
/// whose *solve* cost is genuinely subquadratic; use it when the sketched
/// neighborhoods are trusted (or checked at the clustering level) and the
/// full-dictionary guarantee is not worth a Gram-sized pass.
pub fn solve_candidates(
    x: &Matrix,
    candidates: &[Vec<usize>],
    alpha: f64,
    opts: &LassoOptions,
    verify: bool,
) -> Result<CandidateOutcome> {
    let n = x.cols();
    let d = x.rows();
    if candidates.len() != n {
        return Err(LinalgError::ShapeMismatch {
            expected: (n, 1),
            got: (candidates.len(), 1),
        });
    }
    for (i, cand) in candidates.iter().enumerate() {
        let ascending = cand.windows(2).all(|w| w[0] < w[1]);
        let in_range = cand.iter().all(|&c| c < n && c != i);
        if !ascending || !in_range {
            return Err(LinalgError::InvalidArgument(
                "candidate sets must be strictly ascending atoms excluding the point itself",
            ));
        }
    }
    // Touch both counters so a fully-certified run still exports them.
    LASSO_CANDIDATES.add(0);
    LASSO_ESCALATIONS.add(0);
    let threads = opts.threads.max(1);
    let slack = escalate_slack(opts.tol);

    // Round 0: restricted solves over the candidate sets.
    let solved = {
        let _s = span("fedsc", "ssc.lasso");
        par::par_map_with(n, threads, LassoWorkspace::new, |ws, i| {
            solve_restricted(x, i, &candidates[i], alpha, None, opts, ws)
        })
    };
    let mut states: Vec<PointState> = Vec::with_capacity(n);
    for (i, s) in solved.into_iter().enumerate() {
        let (local, lambda, mu) = s?;
        states.push(PointState {
            cand: candidates[i].clone(),
            lambda,
            mu,
            local,
        });
    }

    // Verification: one blocked X^T [U | F] product per panel of points,
    // then exact per-point KKT + lambda-rule scans.
    let certify_span = verify.then(|| span("fedsc", "ssc.certify"));
    let mut certified = vec![false; n];
    // (point, violators, exact mu, index attaining it)
    let mut pending: Vec<(usize, Vec<usize>, f64, usize)> = Vec::new();
    let panels = if verify { n.div_ceil(VERIFY_PANEL) } else { 0 };
    for panel in 0..panels {
        let p0 = panel * VERIFY_PANEL;
        let p1 = ((panel + 1) * VERIFY_PANEL).min(n);
        let p = p1 - p0;
        let mut slab = Matrix::zeros(d, 2 * p);
        for q in 0..p {
            let i = p0 + q;
            let f = fitted(x, &states[i]);
            let u: Vec<f64> = x.col(i).iter().zip(&f).map(|(&xv, &fv)| xv - fv).collect();
            slab.col_mut(q).copy_from_slice(&u);
            slab.col_mut(p + q).copy_from_slice(&f);
        }
        let w = x.tr_matmul_threaded(&slab, threads)?;
        let scans = par::par_map_heavy(p, threads, |q| {
            scan_point(p0 + q, &states[p0 + q], w.col(q), w.col(p + q), slack)
        });
        for (q, outcome) in scans.into_iter().enumerate() {
            let i = p0 + q;
            match outcome {
                None => certified[i] = true,
                Some((violators, mu_exact, mu_idx)) => {
                    pending.push((i, violators, mu_exact, mu_idx));
                }
            }
        }
    }
    let escalated_points = pending.len();

    // Escalation: grow the candidate set by the violators (and the exact
    // correlation argmax), re-solve at the exact lambda, re-verify against
    // the full dictionary — per point, O(n d) per round, until clean.
    while !pending.is_empty() {
        LASSO_ESCALATIONS.add(pending.len() as u64);
        let rounds = par::par_map_with(pending.len(), threads, LassoWorkspace::new, |ws, e| {
            let (i, ref violators, mu_exact, mu_idx) = pending[e];
            let state = &states[i];
            let mut cand = state.cand.clone();
            for &v in violators.iter().chain(std::iter::once(&mu_idx)) {
                if v != i && cand.binary_search(&v).is_err() {
                    let pos = cand.partition_point(|&c| c < v);
                    cand.insert(pos, v);
                }
            }
            let lambda = if mu_exact > 0.0 {
                alpha / mu_exact
            } else {
                1.0
            };
            let (local, lambda, _) = solve_restricted(x, i, &cand, alpha, Some(lambda), opts, ws)?;
            // Re-verify: full residual correlations via one exact matvec.
            let next = PointState {
                cand,
                lambda,
                mu: mu_exact,
                local,
            };
            let f = fitted(x, &next);
            let u: Vec<f64> = x.col(i).iter().zip(&f).map(|(&xv, &fv)| xv - fv).collect();
            let r = x.tr_matvec(&u)?;
            let t = 1.0 / next.lambda;
            let bound = t * (1.0 + slack);
            let violators: Vec<usize> = (0..x.cols())
                .filter(|&j| j != i && next.cand.binary_search(&j).is_err() && r[j].abs() > bound)
                .collect();
            Ok::<_, LinalgError>((next, violators))
        });
        let mut still = Vec::new();
        for (e, round) in rounds.into_iter().enumerate() {
            let (i, _, mu_exact, mu_idx) = pending[e];
            let (next, violators) = round?;
            states[i] = next;
            if !violators.is_empty() {
                still.push((i, violators, mu_exact, mu_idx));
            }
        }
        pending = still;
    }
    drop(certify_span);

    // Assemble global codes; count the final neighborhood sizes.
    let mut codes = Vec::with_capacity(n);
    let mut offered = 0u64;
    for state in &states {
        offered += state.cand.len() as u64;
        let indices: Vec<usize> = state.local.iter().map(|&(p, _)| state.cand[p]).collect();
        let values: Vec<f64> = state.local.iter().map(|&(_, v)| v).collect();
        codes.push(SparseVec::from_parts(n, indices, values));
    }
    LASSO_CANDIDATES.add(offered);
    Ok(CandidateOutcome {
        codes,
        certified,
        escalated_points,
    })
}

/// A restricted solve's outcome: the code as sorted local
/// `(candidate-position, value)` pairs, the lambda used, and the restricted
/// correlation maximum.
type RestrictedSolve = (Vec<(usize, f64)>, f64, f64);

/// One restricted solve: exact `b_C` / `G_C` / restricted lambda rule plus
/// the Lasso solve.
fn solve_restricted(
    x: &Matrix,
    i: usize,
    cand: &[usize],
    alpha: f64,
    lambda_override: Option<f64>,
    opts: &LassoOptions,
    ws: &mut LassoWorkspace,
) -> Result<RestrictedSolve> {
    let k = cand.len();
    let xi = x.col(i);
    let b: Vec<f64> = cand.iter().map(|&c| vector::dot(x.col(c), xi)).collect();
    let mu = b.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
    // Mirrors `crate::lasso::ssc_lambda`, restricted to the candidates.
    let lambda = lambda_override.unwrap_or(if mu <= 0.0 { 1.0 } else { alpha / mu });
    let mut gram = Matrix::zeros(k, k);
    for p in 0..k {
        let cp = x.col(cand[p]);
        for q in p..k {
            let g = vector::dot(cp, x.col(cand[q]));
            gram[(p, q)] = g;
            gram[(q, p)] = g;
        }
    }
    let solver = LassoSolver::new(&gram, opts.clone());
    let code = solver.solve_in(&b, lambda, usize::MAX, ws)?;
    let mut local: Vec<(usize, f64)> = code.iter().collect();
    local.sort_unstable_by_key(|&(p, _)| p);
    Ok((local, lambda, mu))
}

/// `X_C c` for the point's current code, accumulated in ascending candidate
/// order (fixed order keeps the fitted vector bitwise thread-invariant).
fn fitted(x: &Matrix, state: &PointState) -> Vec<f64> {
    let mut f = vec![0.0f64; x.rows()];
    for &(p, v) in &state.local {
        vector::axpy(v, x.col(state.cand[p]), &mut f);
    }
    f
}

/// Exact certificate scan for one point given its slab columns
/// `r = X^T (x_i - X_C c)` and `xf = X^T X_C c`. Returns `None` when
/// certified, else the KKT violators plus the exact correlation maximum
/// and its argmax atom.
fn scan_point(
    i: usize,
    state: &PointState,
    r: &[f64],
    xf: &[f64],
    slack: f64,
) -> Option<(Vec<usize>, f64, usize)> {
    let t = 1.0 / state.lambda;
    let bound = t * (1.0 + slack);
    let mut violators = Vec::new();
    let mut mu_exact = 0.0f64;
    let mut mu_idx = i;
    for j in 0..r.len() {
        if j == i {
            continue;
        }
        let bj = (r[j] + xf[j]).abs();
        if bj > mu_exact {
            mu_exact = bj;
            mu_idx = j;
        }
        if r[j].abs() > bound && state.cand.binary_search(&j).is_err() {
            violators.push(j);
        }
    }
    let mu_ok = mu_exact <= state.mu * (1.0 + MU_SLACK);
    if violators.is_empty() && mu_ok {
        None
    } else {
        Some((violators, mu_exact, mu_idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lasso::ssc_lambda;

    /// Deterministic data: three 2-dim subspaces in R^12, 10 points each.
    fn subspace_mix(n_per: usize) -> Matrix {
        let d = 12usize;
        let l = 3usize;
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) - 0.5
        };
        let bases: Vec<Vec<Vec<f64>>> = (0..l)
            .map(|_| {
                (0..2)
                    .map(|_| {
                        let mut v: Vec<f64> = (0..d).map(|_| next()).collect();
                        let norm = v.iter().map(|a| a * a).sum::<f64>().sqrt();
                        v.iter_mut().for_each(|a| *a /= norm);
                        v
                    })
                    .collect()
            })
            .collect();
        let mut m = Matrix::zeros(d, l * n_per);
        for s in 0..l {
            for p in 0..n_per {
                let (a, b) = (next(), next());
                for r in 0..d {
                    m[(r, s * n_per + p)] = a * bases[s][0][r] + b * bases[s][1][r];
                }
            }
        }
        m.normalize_columns(1e-12);
        m
    }

    fn dense_codes(x: &Matrix, alpha: f64, opts: &LassoOptions) -> Vec<SparseVec> {
        let n = x.cols();
        let gram = x.gram();
        let solver = LassoSolver::new(&gram, opts.clone());
        let mut ws = LassoWorkspace::new();
        (0..n)
            .map(|i| {
                let b = gram.col(i);
                let lambda = ssc_lambda(b, i, alpha);
                solver.solve_in(b, lambda, i, &mut ws).unwrap()
            })
            .collect()
    }

    fn all_candidates(n: usize) -> Vec<Vec<usize>> {
        (0..n)
            .map(|i| (0..n).filter(|&j| j != i).collect())
            .collect()
    }

    #[test]
    fn full_candidate_set_matches_dense_path() {
        // With C_i = everything, the restricted problem *is* the dense
        // problem; codes must agree to solver tolerance and every point must
        // certify on the first scan.
        let x = subspace_mix(10);
        let n = x.cols();
        let opts = LassoOptions::default();
        let out = solve_candidates(&x, &all_candidates(n), 50.0, &opts, true).unwrap();
        assert!(out.certified.iter().all(|&c| c), "all must certify");
        assert_eq!(out.escalated_points, 0);
        let dense = dense_codes(&x, 50.0, &opts);
        for i in 0..n {
            let a = out.codes[i].to_dense();
            let b = dense[i].to_dense();
            for j in 0..n {
                assert!(
                    (a[j] - b[j]).abs() < 1e-6,
                    "code[{i}][{j}]: {} vs {}",
                    a[j],
                    b[j]
                );
            }
        }
    }

    #[test]
    fn starved_candidates_escalate_to_exact_codes() {
        // Give every point only 2 (mostly wrong) candidates: the certificate
        // must catch the violations and the escalation loop must still land
        // on the dense-path codes.
        let x = subspace_mix(8);
        let n = x.cols();
        let opts = LassoOptions::default();
        let starved: Vec<Vec<usize>> = (0..n)
            .map(|i| {
                let a = (i + 1) % n;
                let b = (i + n / 2) % n;
                let mut c: Vec<usize> = [a, b].into_iter().filter(|&j| j != i).collect();
                c.sort_unstable();
                c.dedup();
                c
            })
            .collect();
        let out = solve_candidates(&x, &starved, 50.0, &opts, true).unwrap();
        assert!(out.escalated_points > 0, "starved sets must escalate");
        let dense = dense_codes(&x, 50.0, &opts);
        for i in 0..n {
            let a = out.codes[i].to_dense();
            let b = dense[i].to_dense();
            for j in 0..n {
                assert!(
                    (a[j] - b[j]).abs() < 1e-4,
                    "code[{i}][{j}]: {} vs {}",
                    a[j],
                    b[j]
                );
            }
        }
    }

    #[test]
    fn thread_invariance() {
        let x = subspace_mix(8);
        let n = x.cols();
        let cands = all_candidates(n);
        let serial = solve_candidates(&x, &cands, 50.0, &LassoOptions::default(), true).unwrap();
        for threads in [2usize, 8] {
            let opts = LassoOptions {
                threads,
                ..Default::default()
            };
            let par = solve_candidates(&x, &cands, 50.0, &opts, true).unwrap();
            for i in 0..n {
                assert_eq!(
                    par.codes[i].to_dense(),
                    serial.codes[i].to_dense(),
                    "threads = {threads}, point {i}"
                );
            }
            assert_eq!(par.certified, serial.certified);
        }
    }

    #[test]
    fn screening_only_skips_certificate_but_keeps_restricted_optima() {
        // verify = false: nothing certifies, nothing escalates, and with the
        // full candidate set the restricted optimum *is* the dense optimum —
        // so the codes still match the dense path even though no certificate
        // ran.
        let x = subspace_mix(10);
        let n = x.cols();
        let opts = LassoOptions::default();
        let out = solve_candidates(&x, &all_candidates(n), 50.0, &opts, false).unwrap();
        assert!(out.certified.iter().all(|&c| !c), "nothing may certify");
        assert_eq!(out.escalated_points, 0);
        let dense = dense_codes(&x, 50.0, &opts);
        for i in 0..n {
            let a = out.codes[i].to_dense();
            let b = dense[i].to_dense();
            for j in 0..n {
                assert!(
                    (a[j] - b[j]).abs() < 1e-6,
                    "code[{i}][{j}]: {} vs {}",
                    a[j],
                    b[j]
                );
            }
        }
    }

    #[test]
    fn rejects_malformed_candidates() {
        let x = subspace_mix(4);
        let bad = vec![vec![0usize]; 3]; // wrong length
        assert!(solve_candidates(&x, &bad, 50.0, &LassoOptions::default(), true).is_err());
        let n = x.cols();
        let mut self_ref = all_candidates(n);
        self_ref[3] = vec![3]; // contains the point itself
        assert!(solve_candidates(&x, &self_ref, 50.0, &LassoOptions::default(), true).is_err());
    }
}
