//! Property-based tests (proptest) on the invariants the workspace's
//! correctness rests on: linear-algebra factorizations, solver optimality,
//! metric axioms, partitioner bookkeeping, and the sampling step of
//! Algorithm 2.

// Test code: a panic is a test failure, so unwrap is the idiom here
// (clippy's allow-unwrap-in-tests does not reach integration-test helpers).
#![allow(clippy::unwrap_used)]

use fed_sc::clustering::{adjusted_rand_index, clustering_accuracy, normalized_mutual_information};
use fed_sc::federated::partition::{partition_dataset, Partition};
use fed_sc::linalg::eigh::eigh;
use fed_sc::linalg::qr::Qr;
use fed_sc::linalg::random::{random_orthonormal_basis, sample_on_subspace};
use fed_sc::linalg::svd::svd_gram;
use fed_sc::linalg::{vector, Matrix};
use fed_sc::sparse::lasso::{ssc_lambda, LassoOptions, LassoSolver};
use fed_sc::subspace::model::{LabeledData, SubspaceModel};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_matrix() -> impl Strategy<Value = Matrix> {
    (2usize..6, 2usize..6).prop_flat_map(|(r, c)| {
        let r = r.max(c); // tall or square for QR
        proptest::collection::vec(-5.0f64..5.0, r * c)
            .prop_map(move |data| Matrix::from_col_major(r, c, data).unwrap())
    })
}

fn labeling(k: usize, n: usize) -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..k, n)
}

/// The KKT property of `lasso_kkt_optimality` at one input.
fn check_lasso_kkt(seed: u64, cols: usize, lambda_scale: f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let x = fed_sc::linalg::random::gaussian_matrix(&mut rng, 5, cols);
    let gram = x.gram();
    // Worst-case optimality check: random Gaussian dictionaries are far
    // more ill-conditioned than SSC's unit-norm inputs, so give CD the
    // sweep budget it needs to actually reach the KKT point.
    let opts = LassoOptions {
        max_iters: 100_000,
        ..Default::default()
    };
    let solver = LassoSolver::new(&gram, opts);
    let b = gram.col(0);
    let lambda = ssc_lambda(b, 0, lambda_scale);
    let c = solver
        .solve(b, lambda, 0)
        .expect("well-formed lasso instance");
    let viol = solver
        .kkt_violation(b, lambda, 0, &c)
        .expect("well-formed lasso instance");
    assert!(
        viol < 1e-4 * lambda.max(1.0),
        "KKT violation {viol} at lambda {lambda}"
    );
    // Exclusion respected.
    assert!(c.to_dense()[0] == 0.0);
}

/// The shrunken counterexamples recorded in
/// `properties.proptest-regressions`, pinned as plain tests: the vendored
/// proptest does not replay regression files.
#[test]
fn lasso_kkt_optimality_at_recorded_counterexamples() {
    check_lasso_kkt(244, 7, 63.501946647301715);
    check_lasso_kkt(356, 8, 95.7131825584087);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn qr_reconstructs_and_q_is_orthonormal(a in small_matrix()) {
        let qr = Qr::new(a.clone()).unwrap();
        let q = qr.thin_q();
        let r = qr.r();
        let back = q.matmul(&r).unwrap();
        prop_assert!(back.sub(&a).unwrap().max_abs() < 1e-9 * a.max_abs().max(1.0));
        let g = q.gram();
        for i in 0..q.cols() {
            for j in 0..q.cols() {
                let e = if i == j { 1.0 } else { 0.0 };
                prop_assert!((g[(i, j)] - e).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn svd_reconstructs_and_matches_gram_spectrum(a in small_matrix()) {
        let svd = svd_gram(&a).unwrap();
        prop_assert!(svd.reconstruct().sub(&a).unwrap().max_abs() < 1e-6 * a.max_abs().max(1.0));
        // Singular values squared = eigenvalues of A^T A (descending).
        let eig = eigh(&a.gram()).unwrap();
        let mut evals: Vec<f64> = eig.eigenvalues.iter().rev().map(|&v| v.max(0.0)).collect();
        evals.truncate(svd.s.len());
        for (s, ev) in svd.s.iter().zip(&evals) {
            prop_assert!((s * s - ev).abs() < 1e-6 * (1.0 + ev.abs()));
        }
    }

    #[test]
    fn eigh_residual_and_ordering(a in small_matrix()) {
        // Symmetrize.
        let s = {
            let t = a.transpose();
            let sq = if a.rows() == a.cols() { a.clone() } else { a.gram() };
            let _ = t;
            sq
        };
        let sym = s.add(&s.transpose()).unwrap();
        let eig = eigh(&sym).unwrap();
        for w in eig.eigenvalues.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-12);
        }
        for (i, &w) in eig.eigenvalues.iter().enumerate() {
            let v = eig.eigenvectors.col(i);
            let av = sym.matvec(v).unwrap();
            let r: f64 = av.iter().zip(v).map(|(&x, &y)| (x - w * y).abs()).fold(0.0, f64::max);
            prop_assert!(r < 1e-7 * sym.max_abs().max(1.0), "residual {r}");
        }
    }

    #[test]
    fn lasso_kkt_optimality(
        seed in 0u64..1000,
        cols in 4usize..10,
        lambda_scale in 1.0f64..100.0,
    ) {
        check_lasso_kkt(seed, cols, lambda_scale);
    }

    #[test]
    fn metrics_axioms(truth in labeling(4, 24), perm_seed in 0u64..24) {
        // Identity scores 100 / 1.
        prop_assert_eq!(clustering_accuracy(&truth, &truth), 100.0);
        prop_assert!((normalized_mutual_information(&truth, &truth) - 100.0).abs() < 1e-9
            || truth.iter().all(|&l| l == truth[0]));
        prop_assert!((adjusted_rand_index(&truth, &truth) - 1.0).abs() < 1e-12);
        // Permutation invariance: relabel via a fixed permutation.
        let perm: Vec<usize> = {
            let mut p: Vec<usize> = (0..4).collect();
            p.rotate_left((perm_seed % 4) as usize);
            p
        };
        let relabeled: Vec<usize> = truth.iter().map(|&l| perm[l]).collect();
        prop_assert_eq!(clustering_accuracy(&truth, &relabeled), 100.0);
        // Bounds.
        let other = [0usize].repeat(truth.len());
        let acc = clustering_accuracy(&truth, &other);
        prop_assert!((0.0..=100.0).contains(&acc));
    }

    #[test]
    fn accuracy_is_symmetric(a in labeling(3, 18), b in labeling(4, 18)) {
        let ab = clustering_accuracy(&a, &b);
        let ba = clustering_accuracy(&b, &a);
        prop_assert!((ab - ba).abs() < 1e-9, "{ab} vs {ba}");
    }

    #[test]
    fn partitioner_invariants(
        seed in 0u64..500,
        devices in 1usize..8,
        l_prime in 1usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let model = SubspaceModel::random(&mut rng, 8, 2, 4);
        let ds = model.sample_dataset(&mut rng, &[6, 6, 6, 6], 0.0);
        let fed = partition_dataset(&ds, devices, Partition::NonIid { l_prime }, &mut rng);
        // Every point exactly once.
        let mut seen = [false; 24];
        for idx in &fed.global_index {
            for &i in idx {
                prop_assert!(!seen[i]);
                seen[i] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
        // Truth round-trips.
        prop_assert_eq!(fed.global_truth(), ds.labels.clone());
        // Pooled reconstruction is exact.
        let pooled: LabeledData = fed.pooled();
        prop_assert_eq!(&pooled.labels, &ds.labels);
        // Coverage: every cluster present somewhere.
        let mut present = [false; 4];
        for dev in &fed.devices {
            for &l in &dev.labels {
                present[l] = true;
            }
        }
        prop_assert!(present.iter().all(|&p| p));
    }

    #[test]
    fn subspace_sampler_invariants(seed in 0u64..500, n in 4usize..12, d in 1usize..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = d.min(n);
        let u = random_orthonormal_basis(&mut rng, n, d);
        let theta = sample_on_subspace(&mut rng, &u);
        // Unit norm.
        prop_assert!((vector::norm2(&theta) - 1.0).abs() < 1e-10);
        // In span: projection reproduces the sample.
        let coeff = u.tr_matvec(&theta).unwrap();
        let proj = u.matvec(&coeff).unwrap();
        let err: f64 = proj.iter().zip(&theta).map(|(p, t)| (p - t).abs()).fold(0.0, f64::max);
        prop_assert!(err < 1e-9);
    }
}
