//! The Lasso's work counters on clean solves. Alone in its test binary: the
//! counters are process-global, so no other test may solve concurrently.

// Test code: a panic is a test failure, so unwrap is the idiom here
// (clippy's allow-unwrap-in-tests does not reach integration-test helpers).
#![allow(clippy::unwrap_used)]

use fedsc_linalg::random::{random_orthonormal_basis, sample_on_subspace};
use fedsc_linalg::Matrix;
use fedsc_obs::metrics::counter;
use fedsc_sparse::lasso::{ssc_lambda, LassoOptions, LassoSolver, LassoWorkspace};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn each_clean_solve_takes_exactly_one_sweep() {
    // SSC self-expression of 60 unit samples from three planes in R^12:
    // every path runs to 1/lambda, so the CD certificate stops after its
    // first sweep on every point.
    let mut rng = StdRng::seed_from_u64(5);
    let bases: Vec<Matrix> = (0..3)
        .map(|_| random_orthonormal_basis(&mut rng, 12, 2))
        .collect();
    let mut x = Matrix::zeros(12, 60);
    for j in 0..60 {
        let col = sample_on_subspace(&mut rng, &bases[j % 3]);
        x.col_mut(j).copy_from_slice(&col);
    }
    x.normalize_columns(1e-12);
    let g = x.gram();
    let solver = LassoSolver::new(&g, LassoOptions::default());
    let mut ws = LassoWorkspace::new();
    let (sweeps, steps) = (counter("lasso.sweeps"), counter("lasso.homotopy_steps"));
    for i in 0..g.cols() {
        let b = g.col(i);
        let lambda = ssc_lambda(b, i, 50.0);
        let (before, steps_before) = (sweeps.get(), steps.get());
        let code = solver.solve_in(b, lambda, i, &mut ws).unwrap();
        assert!(code.nnz() > 0, "point {i}: empty code");
        assert_eq!(sweeps.get() - before, 1, "point {i}");
        assert!(steps.get() > steps_before, "point {i}: no homotopy step");
    }
}
