//! Candidate-restricted SSC Lasso — the solver half of the sketched
//! screening pipeline.
//!
//! The exact SSC path builds the full `n x n` Gram and solves every
//! self-expression Lasso over all `n - 1` atoms. Here each point `i` is
//! solved over a small **candidate neighborhood** `C_i` (`|C_i| = k << n`,
//! pre-selected upstream from a Johnson–Lindenstrauss sketch, see
//! `fedsc_linalg::sketch`): the `k x k` Gram and `b_C = X_C^T x_i` are
//! computed on the *exact* data, the per-point lambda rule uses the
//! restricted correlation maximum, and the solve itself is the standard
//! homotopy Lasso solver ([`crate::lasso::LassoSolver`]) on the restricted
//! Gram. Each point costs `O(k^2 d)`, independent of `n`.
//!
//! The codes are the restricted optima: the classical neighborhood-screened
//! SSC trade, exactness for a subquadratic solve stage. When `C_i` holds
//! every other atom the restricted problem *is* the full one. Nothing here
//! checks a code against the full dictionary; an exact certificate reads
//! every atom, `O(n d)` per point, and measured slower than the exact path
//! at every size from 2,048 to 16,384 points (`DESIGN.md` §9.5), so exact
//! codes come from the exact path instead.
//!
//! Everything is bitwise thread-invariant: per-point arithmetic never
//! depends on the fan-out and codes are assembled in point order.

use crate::lasso::{LassoOptions, LassoSolver, LassoWorkspace};
use crate::vec::SparseVec;
use fedsc_linalg::{par, span, vector, LinalgError, Matrix, Result};
use fedsc_obs::LazyCounter;

/// Candidate atoms offered to the restricted solves, summed over points;
/// divide by the point count for the mean neighborhood size.
static LASSO_CANDIDATES: LazyCounter = LazyCounter::new("lasso.candidates_per_point");

/// Solves the SSC self-expression Lasso for every column of `x` over its
/// candidate neighborhood and returns the per-point codes over the full
/// `n` atoms.
///
/// `candidates[i]` are the atoms offered to point `i` (strictly ascending,
/// without `i` itself). `alpha` is the paper's lambda-rule multiplier;
/// `opts.threads` fans the per-point solves out over the shared pool.
/// Codes are bitwise identical for every thread count. The solves record
/// the `ssc.lasso` span.
pub fn solve_candidates(
    x: &Matrix,
    candidates: &[Vec<usize>],
    alpha: f64,
    opts: &LassoOptions,
) -> Result<Vec<SparseVec>> {
    let n = x.cols();
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
    let codes = {
        let _s = span("fedsc", "ssc.lasso");
        par::par_map_with(n, opts.threads.max(1), LassoWorkspace::new, |ws, i| {
            solve_restricted(x, i, &candidates[i], alpha, opts, ws)
        })
    };
    let offered: usize = candidates.iter().map(Vec::len).sum();
    LASSO_CANDIDATES.add(offered as u64);
    codes.into_iter().collect()
}

/// One restricted solve: exact `b_C` / `G_C` / restricted lambda rule plus
/// the Lasso solve, with the code mapped back to global atom indices.
fn solve_restricted(
    x: &Matrix,
    i: usize,
    cand: &[usize],
    alpha: f64,
    opts: &LassoOptions,
    ws: &mut LassoWorkspace,
) -> Result<SparseVec> {
    let k = cand.len();
    let xi = x.col(i);
    let b: Vec<f64> = cand.iter().map(|&c| vector::dot(x.col(c), xi)).collect();
    let mu = b.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
    // Mirrors `crate::lasso::ssc_lambda`, restricted to the candidates.
    let lambda = if mu <= 0.0 { 1.0 } else { alpha / mu };
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
    // Candidates ascend, so position order is atom order.
    let (indices, values) = code.iter().map(|(p, v)| (cand[p], v)).unzip();
    Ok(SparseVec::from_parts(x.cols(), indices, values))
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
        // problem; codes must agree to solver tolerance.
        let x = subspace_mix(10);
        let n = x.cols();
        let opts = LassoOptions::default();
        let codes = solve_candidates(&x, &all_candidates(n), 50.0, &opts).unwrap();
        let dense = dense_codes(&x, 50.0, &opts);
        for i in 0..n {
            let a = codes[i].to_dense();
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
    fn thread_invariance() {
        let x = subspace_mix(8);
        let n = x.cols();
        let cands = all_candidates(n);
        let serial = solve_candidates(&x, &cands, 50.0, &LassoOptions::default()).unwrap();
        for threads in [2usize, 8] {
            let opts = LassoOptions {
                threads,
                ..Default::default()
            };
            let par = solve_candidates(&x, &cands, 50.0, &opts).unwrap();
            for i in 0..n {
                assert_eq!(
                    par[i].to_dense(),
                    serial[i].to_dense(),
                    "threads = {threads}, point {i}"
                );
            }
        }
    }

    #[test]
    fn screening_only_skips_certificate_but_keeps_restricted_optima() {
        // Starve every point to 2 (mostly wrong) candidates: nothing widens
        // the sets, so each code stays on its candidates and satisfies the
        // KKT conditions of its restricted problem at the restricted lambda.
        let x = subspace_mix(8);
        let n = x.cols();
        let starved: Vec<Vec<usize>> = (0..n)
            .map(|i| {
                let mut c = vec![(i + 1) % n, (i + n / 2) % n];
                c.sort_unstable();
                c
            })
            .collect();
        let codes = solve_candidates(&x, &starved, 50.0, &LassoOptions::default()).unwrap();
        for (i, (code, cand)) in codes.iter().zip(&starved).enumerate() {
            assert!(
                code.iter().all(|(j, _)| cand.contains(&j)),
                "point {i} left its candidates"
            );
            let mut r = x.col(i).to_vec();
            for (j, v) in code.iter() {
                vector::axpy(-v, x.col(j), &mut r);
            }
            let mu = cand
                .iter()
                .map(|&c| vector::dot(x.col(c), x.col(i)).abs())
                .fold(0.0f64, f64::max);
            let t = mu / 50.0;
            let dense = code.to_dense();
            for &c in cand {
                let corr = vector::dot(x.col(c), &r);
                if dense[c] != 0.0 {
                    assert!(
                        (corr - t * dense[c].signum()).abs() < 1e-6,
                        "point {i}, active atom {c}: {corr} vs {t}"
                    );
                } else {
                    assert!(corr.abs() <= t + 1e-6, "point {i}, atom {c}: {corr} > {t}");
                }
            }
        }
    }

    #[test]
    fn rejects_malformed_candidates() {
        let x = subspace_mix(4);
        let bad = vec![vec![0usize]; 3]; // wrong length
        assert!(solve_candidates(&x, &bad, 50.0, &LassoOptions::default()).is_err());
        let n = x.cols();
        let mut self_ref = all_candidates(n);
        self_ref[3] = vec![3]; // contains the point itself
        assert!(solve_candidates(&x, &self_ref, 50.0, &LassoOptions::default()).is_err());
    }
}
