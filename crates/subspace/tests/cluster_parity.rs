//! `SubspaceClusterer::cluster` segments the CSR graph; the labels must be
//! exactly those of the dense-graph route it replaced, for all five
//! baselines, on one pool below the spectral cutover and one above it.
//!
//! The oracle builds each baseline's dense `n x n` graph the way the dense
//! route did (scattered codes through `AffinityGraph::from_coefficients`,
//! NSN's 0/1 picks through `from_symmetric`) and segments it like the dense
//! route: `normalized_laplacian` -> `eigh_partial` -> NJW below the cutover,
//! the kernel-seeded CSR solve of the same graph above it.

// Test code: a panic is a test failure, so unwrap is the idiom here
// (clippy's allow-unwrap-in-tests does not reach integration-test helpers).
#![allow(clippy::unwrap_used)]

use fedsc_clustering::kmeans::{kmeans, KMeansOptions};
use fedsc_clustering::spectral::{sparse_spectrum, SpectralOptions};
use fedsc_graph::laplacian::normalized_laplacian;
use fedsc_graph::sparse::sparse_normalized_laplacian;
use fedsc_graph::{AffinityGraph, SparseAffinity};
use fedsc_linalg::eigh::{eigh_partial, lanczos_beats_dense, SymmetricEig};
use fedsc_linalg::{vector, Matrix};
use fedsc_sparse::SparseVec;
use fedsc_subspace::algo::normalize_data;
use fedsc_subspace::{Ensc, Nsn, Ssc, SscOmp, SubspaceClusterer, SubspaceModel, Tsc};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The dense `|C| + |C|^T` of per-point codes.
fn from_codes(codes: &[SparseVec]) -> AffinityGraph {
    let n = codes.len();
    let mut c = Matrix::zeros(n, n);
    for (i, code) in codes.iter().enumerate() {
        for (j, v) in code.iter() {
            c[(j, i)] = v;
        }
    }
    AffinityGraph::from_coefficients(&c)
}

/// NSN's dense graph: the 0/1 pick matrix, symmetrized.
fn from_picks(picks: &[Vec<usize>]) -> AffinityGraph {
    let n = picks.len();
    let mut w = Matrix::zeros(n, n);
    for (i, chosen) in picks.iter().enumerate() {
        for &j in chosen {
            w[(i, j)] = 1.0;
        }
    }
    AffinityGraph::from_symmetric(&w)
}

/// The dense-graph segmentation into `k` clusters.
fn dense_route(g: &AffinityGraph, k: usize, seed: u64) -> Vec<usize> {
    let n = g.len();
    let eig: SymmetricEig = if lanczos_beats_dense(n, k) {
        let w = SparseAffinity::from_graph(g);
        sparse_spectrum(&w, &sparse_normalized_laplacian(&w), k, 1).unwrap()
    } else {
        eigh_partial(&normalized_laplacian(g), k).unwrap()
    };
    let mut emb = Matrix::zeros(k, n);
    for node in 0..n {
        for c in 0..k {
            emb[(c, node)] = eig.eigenvectors[(node, c)];
        }
        vector::normalize(emb.col_mut(node), 1e-12);
    }
    let opts = KMeansOptions {
        k,
        ..SpectralOptions::default().kmeans
    };
    kmeans(&emb, &opts, &mut StdRng::seed_from_u64(seed)).labels
}

/// Checks all five baselines on `l` subspaces of dimension 3 in R^30 with
/// `per` points each.
fn check_pool(l: usize, per: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let model = SubspaceModel::random(&mut rng, 30, 3, l);
    let ds = model.sample_dataset(&mut rng, &vec![per; l], 0.01);
    let x = &ds.data;
    let (ssc, tsc, omp) = (Ssc::default(), Tsc::new(5), SscOmp::with_sparsity(3));
    let (ensc, nsn) = (Ensc::default(), Nsn::new(6, 3));
    let run = |algo: &dyn Fn(&mut StdRng) -> Vec<usize>| algo(&mut StdRng::seed_from_u64(seed));
    let cases: [(&str, AffinityGraph, AffinityGraph, Vec<usize>); 5] = [
        (
            "SSC",
            from_codes(&ssc.codes(x).unwrap()),
            ssc.affinity(x).unwrap(),
            run(&|r| ssc.cluster(x, l, r).unwrap()),
        ),
        (
            "TSC",
            tsc.affinity(x).unwrap(),
            tsc.affinity(x).unwrap(),
            run(&|r| tsc.cluster(x, l, r).unwrap()),
        ),
        (
            "SSC-OMP",
            from_codes(&omp.codes(x).unwrap()),
            omp.affinity(x).unwrap(),
            run(&|r| omp.cluster(x, l, r).unwrap()),
        ),
        (
            "EnSC",
            from_codes(&ensc.codes(x).unwrap()),
            ensc.affinity(x).unwrap(),
            run(&|r| ensc.cluster(x, l, r).unwrap()),
        ),
        (
            "NSN",
            from_picks(&nsn.neighbor_sets(&normalize_data(x))),
            nsn.affinity(x).unwrap(),
            run(&|r| nsn.cluster(x, l, r).unwrap()),
        ),
    ];
    for (name, dense, csr, labels) in &cases {
        // The CSR graph `cluster` segments, densified, is the dense graph.
        assert_eq!(csr.matrix().as_slice(), dense.matrix().as_slice(), "{name}");
        assert_eq!(*labels, dense_route(dense, l, seed), "{name}");
    }
}

#[test]
fn cluster_labels_match_the_dense_route_below_the_cutover() {
    assert!(!lanczos_beats_dense(75, 3));
    check_pool(3, 25, 41);
}

#[test]
fn cluster_labels_match_the_dense_route_above_the_cutover() {
    assert!(lanczos_beats_dense(450, 5));
    check_pool(5, 90, 42);
}
