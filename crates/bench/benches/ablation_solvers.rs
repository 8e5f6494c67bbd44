//! Timing ablations for the design choices DESIGN.md calls out:
//!
//! * Lasso backend — working-set coordinate descent vs ADMM (same Eq. (2)
//!   objective; the paper swapped SPAMS CD in for ADMM for exactly this
//!   reason).
//! * Spectral solver — the full dense eigendecomposition vs thick-restart
//!   Lanczos at the pooled-sample sizes the central server actually sees.

use criterion::{criterion_group, criterion_main, Criterion};
use fedsc_graph::laplacian::normalized_laplacian;
use fedsc_linalg::eigh::eigh;
use fedsc_linalg::lanczos::lanczos_smallest;
use fedsc_linalg::random::{random_orthonormal_basis, sample_on_subspace};
use fedsc_linalg::Matrix;
use fedsc_sparse::admm::{AdmmLasso, AdmmOptions};
use fedsc_sparse::lasso::{ssc_lambda, LassoOptions, LassoSolver};
use fedsc_subspace::{Ssc, SubspaceClusterer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn union_of_subspaces(n: usize, d: usize, l: usize, per: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cols = Vec::new();
    for _ in 0..l {
        let basis = random_orthonormal_basis(&mut rng, n, d);
        for _ in 0..per {
            cols.push(sample_on_subspace(&mut rng, &basis));
        }
    }
    let refs: Vec<&[f64]> = cols.iter().map(|c| c.as_slice()).collect();
    Matrix::from_columns(&refs).expect("bench setup")
}

fn bench_lasso_backends(c: &mut Criterion) {
    let data = union_of_subspaces(20, 5, 8, 50, 1);
    let gram = data.gram();
    let lambda = ssc_lambda(gram.col(0), 0, 50.0);
    let mut g = c.benchmark_group("ablation_lasso_backend");
    g.sample_size(10);
    g.bench_function("coordinate_descent_20pts", |b| {
        let solver = LassoSolver::new(&gram, LassoOptions::default());
        b.iter(|| {
            for i in 0..20 {
                let li = ssc_lambda(gram.col(i), i, 50.0);
                let _ = black_box(solver.solve(gram.col(i), li, i));
            }
        })
    });
    g.bench_function("admm_20pts", |b| {
        // ADMM factors (lambda G + rho I) once; reuse across points with a
        // representative lambda, matching how a production ADMM-SSC batches.
        let admm = AdmmLasso::new(&gram, lambda, AdmmOptions::default()).expect("bench setup");
        b.iter(|| {
            for i in 0..20 {
                let _ = black_box(admm.solve(gram.col(i), i).expect("bench setup"));
            }
        })
    });
    g.finish();
}

fn bench_spectral_backends(c: &mut Criterion) {
    let data = union_of_subspaces(20, 5, 10, 60, 2);
    let graph = Ssc::default().affinity(&data).expect("bench setup");
    let lap = normalized_laplacian(&graph);
    let mut g = c.benchmark_group("ablation_spectral_backend");
    g.sample_size(10);
    g.bench_function("dense_full_eig_n600", |b| {
        b.iter(|| black_box(eigh(&lap).expect("bench setup")))
    });
    g.bench_function("lanczos_k10_n600", |b| {
        b.iter(|| black_box(lanczos_smallest(&lap, 10, 50).expect("bench setup")))
    });
    g.finish();
}

criterion_group!(benches, bench_lasso_backends, bench_spectral_backends);
criterion_main!(benches);
