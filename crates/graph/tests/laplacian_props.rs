//! Property-based tests for the spectral-graph layer: normalized-Laplacian
//! spectral bounds and the component-counting identity the eigengap logic
//! rests on.

use fedsc_graph::laplacian::{laplacian_spectrum, normalized_laplacian, unnormalized_laplacian};
use fedsc_graph::{AffinityGraph, SparseAffinity};
use fedsc_linalg::Matrix;
use proptest::prelude::*;

/// Random symmetric non-negative affinity on `n` nodes with edge
/// probability ~ density.
fn graph(n: usize, edges: Vec<(usize, usize, f64)>) -> AffinityGraph {
    let mut m = Matrix::zeros(n, n);
    for (i, j, w) in edges {
        let (i, j) = (i % n, j % n);
        if i != j {
            m[(i, j)] = w.abs();
            m[(j, i)] = w.abs();
        }
    }
    AffinityGraph::from_symmetric(&m)
}

fn graph_strategy() -> impl Strategy<Value = AffinityGraph> {
    (3usize..10).prop_flat_map(|n| {
        proptest::collection::vec(((0usize..n), (0usize..n), 0.1f64..5.0), 0..(n * 2))
            .prop_map(move |edges| graph(n, edges))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn normalized_spectrum_is_in_zero_two(g in graph_strategy()) {
        let spec = laplacian_spectrum(&g).unwrap();
        for &ev in &spec.eigenvalues {
            prop_assert!(ev > -1e-9, "negative eigenvalue {ev}");
            prop_assert!(ev < 2.0 + 1e-9, "eigenvalue above 2: {ev}");
        }
    }

    #[test]
    fn zero_eigenvalue_multiplicity_counts_nontrivial_components(g in graph_strategy()) {
        // Isolated (degree-zero) nodes contribute eigenvalue 1 under our
        // documented normalized-Laplacian convention, so the classical
        // "zero multiplicity = component count" identity holds for the
        // components that actually contain edges.
        let comp = SparseAffinity::from_graph(&g).component_labels(0.0);
        let max = comp.iter().copied().max().unwrap_or(0);
        let nontrivial = (0..=max)
            .filter(|&c| (0..g.len()).filter(|&i| comp[i] == c).count() >= 2)
            .count();
        let spec = laplacian_spectrum(&g).unwrap();
        let zeros = spec.eigenvalues.iter().filter(|&&e| e.abs() < 1e-8).count();
        prop_assert_eq!(
            zeros, nontrivial,
            "{} zero eigenvalues vs {} non-trivial components", zeros, nontrivial
        );
    }

    #[test]
    fn unnormalized_laplacian_is_psd_with_zero_row_sums(g in graph_strategy()) {
        let l = unnormalized_laplacian(&g);
        let n = l.rows();
        for i in 0..n {
            let s: f64 = l.row(i).iter().sum();
            prop_assert!(s.abs() < 1e-9, "row {i} sums to {s}");
        }
        // x^T L x = sum_{ij} w_ij (x_i - x_j)^2 / 2 >= 0 for a probe vector.
        let x: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let lx = l.matvec(&x).unwrap();
        let quad: f64 = x.iter().zip(&lx).map(|(a, b)| a * b).sum();
        prop_assert!(quad > -1e-9, "quadratic form {quad}");
    }

    #[test]
    fn laplacian_is_symmetric(g in graph_strategy()) {
        let l = normalized_laplacian(&g);
        for i in 0..l.rows() {
            for j in 0..i {
                prop_assert!((l[(i, j)] - l[(j, i)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn subgraph_of_component_is_connected(g in graph_strategy()) {
        let g = SparseAffinity::from_graph(&g);
        let comp = g.component_labels(0.0);
        let max = comp.iter().copied().max().unwrap_or(0);
        for c in 0..=max {
            let nodes: Vec<usize> =
                (0..g.len()).filter(|&i| comp[i] == c).collect();
            let sub = g.subgraph(&nodes);
            prop_assert_eq!(sub.connected_components(0.0), 1);
        }
    }
}
