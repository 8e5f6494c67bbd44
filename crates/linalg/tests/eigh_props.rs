//! Property tests for the dense symmetric eigensolver: residual,
//! orthogonality and eigenvalue accuracy against the one-sided Jacobi SVD
//! oracle, plus the prefix invariant (the first `j` eigenvectors of a
//! request do not depend on how many were requested), over random,
//! block-Laplacian, fully degenerate and near-degenerate inputs.

// Test code: a panic is a test failure, so unwrap is the idiom here
// (clippy's allow-unwrap-in-tests does not reach integration-test helpers).
#![allow(clippy::unwrap_used)]

use fedsc_linalg::eigh::{eigh_partial, SymmetricEig};
use fedsc_linalg::random::random_orthonormal_basis;
use fedsc_linalg::svd::svd_jacobi;
use fedsc_linalg::{vector, Matrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// `max_j sum_i |a_ij|`, an upper bound on the spectral radius.
fn norm1(a: &Matrix) -> f64 {
    (0..a.cols())
        .map(|j| a.col(j).iter().map(|x| x.abs()).sum::<f64>())
        .fold(0.0, f64::max)
}

fn random_symmetric(rng: &mut StdRng, n: usize) -> Matrix {
    let mut a = Matrix::zeros(n, n);
    for j in 0..n {
        for i in j..n {
            let v = rng.random_range(-1.0..1.0);
            a[(i, j)] = v;
            a[(j, i)] = v;
        }
    }
    a
}

/// Normalized Laplacian `I - D^{-1/2} W D^{-1/2}` of a weighted graph.
fn normalized_laplacian(w: &Matrix) -> Matrix {
    let n = w.rows();
    let deg: Vec<f64> = (0..n).map(|j| w.col(j).iter().sum()).collect();
    let mut l = Matrix::identity(n);
    for j in 0..n {
        for i in 0..n {
            if deg[i] > 0.0 && deg[j] > 0.0 {
                l[(i, j)] -= w[(i, j)] / (deg[i] * deg[j]).sqrt();
            }
        }
    }
    l
}

/// Laplacian of `blocks` disconnected dense components with random
/// weights: a `blocks`-fold zero eigenvalue.
fn block_laplacian(rng: &mut StdRng, blocks: usize, max_size: usize) -> Matrix {
    let sizes: Vec<usize> = (0..blocks)
        .map(|_| rng.random_range(2..max_size + 1))
        .collect();
    let n: usize = sizes.iter().sum();
    let mut w = Matrix::zeros(n, n);
    let mut start = 0;
    for &s in &sizes {
        for j in start..start + s {
            for i in start..j {
                let v = rng.random_range(0.1..1.0);
                w[(i, j)] = v;
                w[(j, i)] = v;
            }
        }
        start += s;
    }
    normalized_laplacian(&w)
}

/// Normalized Laplacian of the complete graph `K_n`: eigenvalue 0 once
/// and `n / (n - 1)` with multiplicity `n - 1`.
fn complete_laplacian(n: usize) -> Matrix {
    let mut w = Matrix::zeros(n, n);
    for j in 0..n {
        for i in 0..n {
            if i != j {
                w[(i, j)] = 1.0;
            }
        }
    }
    normalized_laplacian(&w)
}

/// `Q diag(λ) Qᵀ` with a random orthogonal `Q`, random eigenvalues in
/// `[-1, 1]`, and one pair separated by exactly `gap`.
fn near_degenerate(rng: &mut StdRng, n: usize, gap: f64) -> Matrix {
    let q = random_orthonormal_basis(rng, n, n);
    let mut lambda: Vec<f64> = (0..n).map(|_| rng.random_range(-1.0..1.0)).collect();
    if n >= 2 {
        let at = rng.random_range(0..n - 1);
        lambda[at + 1] = lambda[at] + gap;
    }
    let mut qd = q.clone();
    for (j, &l) in lambda.iter().enumerate() {
        vector::scale(qd.col_mut(j), l);
    }
    let a = qd.matmul(&q.transpose()).unwrap();
    // Symmetrize the rounding of the product.
    let mut s = Matrix::zeros(n, n);
    for j in 0..n {
        for i in 0..n {
            s[(i, j)] = 0.5 * (a[(i, j)] + a[(j, i)]);
        }
    }
    s
}

/// Checks one input: residual, orthogonality, eigenvalues against the
/// Jacobi oracle, and bitwise prefix stability for the counts in `counts`.
fn check(a: &Matrix, counts: &[usize]) {
    let n = a.rows();
    let anorm = norm1(a).max(f64::MIN_POSITIVE);
    let full = eigh_partial(a, n).unwrap();
    assert_eq!(full.eigenvalues.len(), n);
    assert_eq!(full.eigenvectors.shape(), (n, n));
    for w in full.eigenvalues.windows(2) {
        assert!(w[0] <= w[1], "eigenvalues not ascending");
    }
    let resid = residual(a, &full);
    assert!(
        resid <= 1e-10 * anorm,
        "residual {resid} at n = {n}, ‖A‖ = {anorm}"
    );
    let ortho = orthogonality(&full.eigenvectors);
    assert!(ortho <= 1e-10, "orthogonality defect {ortho} at n = {n}");

    // Oracle: the PSD shift `A + ‖A‖ I` has singular values equal to its
    // eigenvalues, which one-sided Jacobi computes to machine precision.
    let mut shifted = a.clone();
    for i in 0..n {
        shifted[(i, i)] += anorm;
    }
    let mut oracle: Vec<f64> = svd_jacobi(&shifted)
        .unwrap()
        .s
        .iter()
        .map(|s| s - anorm)
        .collect();
    oracle.sort_by(f64::total_cmp);
    for (x, y) in full.eigenvalues.iter().zip(&oracle) {
        assert!(
            (x - y).abs() <= 1e-10 * anorm,
            "eigenvalue {x} vs oracle {y} at n = {n}"
        );
    }

    for &k in counts {
        let part = eigh_partial(a, k).unwrap();
        let k = k.min(n);
        assert_eq!(part.eigenvectors.shape(), (n, k));
        assert!(
            part.eigenvalues
                .iter()
                .zip(&full.eigenvalues)
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "eigenvalues depend on the vector count"
        );
        for j in 0..k {
            assert!(
                part.eigenvectors
                    .col(j)
                    .iter()
                    .zip(full.eigenvectors.col(j))
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "column {j} of a {k}-vector request differs from the full solve"
            );
        }
    }
}

/// `max_i ‖A v_i − w_i v_i‖_∞`.
fn residual(a: &Matrix, eig: &SymmetricEig) -> f64 {
    let mut worst = 0.0f64;
    for j in 0..eig.eigenvectors.cols() {
        let v = eig.eigenvectors.col(j);
        let av = a.matvec(v).unwrap();
        for (x, y) in av.iter().zip(v) {
            worst = worst.max((x - eig.eigenvalues[j] * y).abs());
        }
    }
    worst
}

/// `max |VᵀV − I|`.
fn orthogonality(v: &Matrix) -> f64 {
    let g = v.gram();
    let mut worst = 0.0f64;
    for j in 0..g.cols() {
        for i in 0..g.rows() {
            let target = if i == j { 1.0 } else { 0.0 };
            worst = worst.max((g[(i, j)] - target).abs());
        }
    }
    worst
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_symmetric_matrices(seed in 0u64..u64::MAX, n in 1usize..81, k in 0usize..81) {
        let mut rng = StdRng::seed_from_u64(seed);
        check(&random_symmetric(&mut rng, n), &[0, k, n / 2]);
    }

    #[test]
    fn block_graph_laplacians(seed in 0u64..u64::MAX, blocks in 1usize..7, k in 0usize..20) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = block_laplacian(&mut rng, blocks, 13);
        // Asking for exactly the kernel, one past it, and an arbitrary
        // count straddles the repeated zero eigenvalue.
        check(&a, &[blocks, blocks + 1, k]);
    }

    #[test]
    fn identity_and_complete_graphs(n in 1usize..81, k in 0usize..81) {
        check(&Matrix::identity(n), &[k, 1]);
        check(&complete_laplacian(n), &[k, 1, 2]);
    }

    #[test]
    fn near_degenerate_pairs(seed in 0u64..u64::MAX, n in 2usize..61, exp in 3.0f64..12.0) {
        let mut rng = StdRng::seed_from_u64(seed);
        let gap = 10f64.powf(-exp);
        check(&near_degenerate(&mut rng, n, gap), &[1, n / 2]);
    }
}

/// Forty disconnected two-node components: a 40-fold zero and a 40-fold
/// two, the degenerate clusters a fragmented affinity graph hands the
/// device-side spectral step.
#[test]
fn forty_disconnected_blocks() {
    let n = 80;
    let mut w = Matrix::zeros(n, n);
    for b in 0..n / 2 {
        w[(2 * b, 2 * b + 1)] = 1.0;
        w[(2 * b + 1, 2 * b)] = 1.0;
    }
    let a = normalized_laplacian(&w);
    check(&a, &[40, 41, 5]);
    let eig = eigh_partial(&a, 0).unwrap();
    assert_eq!(
        eig.eigenvalues.iter().filter(|v| v.abs() < 1e-12).count(),
        40
    );
}
