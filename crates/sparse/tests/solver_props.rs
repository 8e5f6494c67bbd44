//! Property-based tests for the sparse solvers: optimality conditions and
//! cross-backend agreement on random instances.

// Test code: a panic is a test failure, so unwrap is the idiom here
// (clippy's allow-unwrap-in-tests does not reach integration-test helpers).
#![allow(clippy::unwrap_used)]

use fedsc_linalg::random::gaussian_matrix;
use fedsc_linalg::Matrix;
use fedsc_sparse::admm::{AdmmLasso, AdmmOptions};
use fedsc_sparse::lasso::{LassoOptions, LassoSolver};
use fedsc_sparse::omp::{omp, OmpOptions};
use fedsc_sparse::SparseVec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn instance(seed: u64, rows: usize, cols: usize) -> (Matrix, Matrix) {
    let mut rng = StdRng::seed_from_u64(seed);
    let x = gaussian_matrix(&mut rng, rows, cols);
    let gram = x.gram();
    (x, gram)
}

/// The KKT property of `lasso_cd_satisfies_kkt` at one input.
fn check_lasso_cd_kkt(seed: u64, cols: usize, lambda: f64) {
    let (_, gram) = instance(seed, 4, cols);
    // Worst-case budget: see LassoOptions docs.
    let opts = LassoOptions {
        max_iters: 100_000,
        ..Default::default()
    };
    let solver = LassoSolver::new(&gram, opts);
    let b = gram.col(0);
    let c = solver.solve(b, lambda, 0).unwrap();
    let viol = solver.kkt_violation(b, lambda, 0, &c).unwrap();
    // The certificate the homotopy's own proptests in `lasso.rs` hold.
    assert!(viol <= 1e-9 * lambda, "violation {viol} at lambda {lambda}");
    assert_eq!(c.to_dense()[0], 0.0);
}

/// The shrunken counterexample recorded in
/// `solver_props.proptest-regressions`, pinned as a plain test: the
/// vendored proptest does not replay regression files.
#[test]
fn lasso_cd_satisfies_kkt_at_recorded_counterexample() {
    check_lasso_cd_kkt(509, 7, 0.657004936229317);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lasso_cd_satisfies_kkt(seed in 0u64..2000, cols in 3usize..9, lambda in 0.5f64..50.0) {
        check_lasso_cd_kkt(seed, cols, lambda);
    }

    #[test]
    fn cd_and_admm_reach_equal_objective(seed in 0u64..2000, cols in 3usize..8) {
        let (x, gram) = instance(seed, 5, cols);
        let lambda = 5.0;
        let b = gram.col(0);
        let cd = LassoSolver::new(&gram, LassoOptions::default()).solve(b, lambda, 0).unwrap();
        let admm = AdmmLasso::new(&gram, lambda, AdmmOptions::default())
            .unwrap()
            .solve(b, 0)
            .unwrap();
        // Objectives agree even when the minimizer is non-unique.
        let obj = |c: &SparseVec| {
            let dense = c.to_dense();
            let fit = x.matvec(&dense).unwrap();
            let target = x.col(0);
            let resid: f64 = fit.iter().zip(target).map(|(f, t)| (f - t) * (f - t)).sum();
            lambda / 2.0 * resid + c.norm1()
        };
        let diff = (obj(&cd) - obj(&admm)).abs();
        prop_assert!(diff < 1e-3, "objective gap {diff}");
    }

    #[test]
    fn omp_residual_orthogonal_to_support(seed in 0u64..2000, cols in 4usize..9) {
        let (x, _) = instance(seed, 6, cols);
        let target = x.col(0).to_vec();
        let code = omp(&x, &target, 0, &OmpOptions { k_max: 3, tol: 1e-10 }).unwrap();
        // Least-squares refit implies the residual is orthogonal to every
        // selected atom.
        let dense = code.to_dense();
        let fit = x.matvec(&dense).unwrap();
        let resid: Vec<f64> = target.iter().zip(&fit).map(|(t, f)| t - f).collect();
        for (j, _) in code.iter() {
            let ip = fedsc_linalg::vector::dot(x.col(j), &resid);
            prop_assert!(ip.abs() < 1e-8, "atom {j} correlation {ip}");
        }
    }

    #[test]
    fn sparse_vec_dense_round_trip(values in proptest::collection::vec(-3.0f64..3.0, 0..16)) {
        let sv = SparseVec::from_dense(&values, 0.0);
        prop_assert_eq!(sv.to_dense(), values);
    }
}
