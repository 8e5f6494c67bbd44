//! Criterion micro-benchmarks for the numerical kernels every experiment
//! leans on: symmetric eigendecomposition (dense and Lanczos), SVD (Gram
//! and Jacobi backends), the SSC Lasso coordinate descent, OMP, and
//! end-to-end spectral clustering.

use criterion::{criterion_group, criterion_main, Criterion};
use fedsc_clustering::spectral::{spectral_clustering, ClusterCountPolicy, SpectralOptions};
use fedsc_linalg::eigh::eigh;
use fedsc_linalg::lanczos::lanczos_smallest;
use fedsc_linalg::random::{gaussian_matrix, random_orthonormal_basis, sample_on_subspace};
use fedsc_linalg::svd::{svd_gram, svd_jacobi};
use fedsc_linalg::Matrix;
use fedsc_sparse::lasso::{ssc_lambda, LassoOptions, LassoSolver};
use fedsc_sparse::omp::{omp, OmpOptions};
use fedsc_subspace::{Ssc, SubspaceClusterer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn symmetric_matrix(n: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = gaussian_matrix(&mut rng, n, n);
    let mut s = g.add(&g.transpose()).expect("bench setup");
    s.scale(0.5);
    s
}

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

fn bench_eig(c: &mut Criterion) {
    let a200 = symmetric_matrix(200, 1);
    let a800 = symmetric_matrix(800, 2);
    let mut g = c.benchmark_group("eig");
    g.sample_size(10);
    g.bench_function("dense_eigh_n200", |b| {
        b.iter(|| black_box(eigh(&a200).expect("bench setup")))
    });
    g.bench_function("lanczos_k10_n800", |b| {
        b.iter(|| black_box(lanczos_smallest(&a800, 10, 50).expect("bench setup")))
    });
    g.finish();
}

fn bench_svd(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let tall = gaussian_matrix(&mut rng, 500, 40);
    let mut g = c.benchmark_group("svd");
    g.sample_size(20);
    g.bench_function("gram_500x40", |b| {
        b.iter(|| black_box(svd_gram(&tall).expect("bench setup")))
    });
    g.bench_function("jacobi_500x40", |b| {
        b.iter(|| black_box(svd_jacobi(&tall).expect("bench setup")))
    });
    g.finish();
}

fn bench_sparse_coding(c: &mut Criterion) {
    let data = union_of_subspaces(20, 5, 10, 60, 4);
    let gram = data.gram();
    let solver = LassoSolver::new(&gram, LassoOptions::default());
    let mut g = c.benchmark_group("sparse_coding");
    g.sample_size(20);
    g.bench_function("lasso_cd_one_point_n600", |b| {
        b.iter(|| {
            let bvec = gram.col(0);
            let lambda = ssc_lambda(bvec, 0, 50.0);
            black_box(solver.solve(bvec, lambda, 0))
        })
    });
    g.bench_function("omp_one_point_n600", |b| {
        let x = data.col(0).to_vec();
        b.iter(|| {
            black_box(omp(
                &data,
                &x,
                0,
                &OmpOptions {
                    k_max: 8,
                    tol: 1e-6,
                },
            ))
        })
    });
    g.finish();
}

fn bench_pipeline(c: &mut Criterion) {
    let data = union_of_subspaces(20, 5, 6, 40, 5);
    let mut g = c.benchmark_group("pipeline");
    g.sample_size(10);
    g.bench_function("ssc_affinity_240pts", |b| {
        b.iter(|| black_box(Ssc::default().sparse_affinity(&data).expect("bench setup")))
    });
    let graph = Ssc::default().sparse_affinity(&data).expect("bench setup");
    g.bench_function("spectral_clustering_240pts_k6", |b| {
        let mut rng = StdRng::seed_from_u64(6);
        b.iter(|| {
            black_box(
                spectral_clustering(
                    &graph,
                    ClusterCountPolicy::Fixed(6),
                    &SpectralOptions::default(),
                    &mut rng,
                )
                .expect("bench setup"),
            )
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_eig,
    bench_svd,
    bench_sparse_coding,
    bench_pipeline
);
criterion_main!(benches);
