//! Graph Laplacians and spectral quantities.
//!
//! The paper uses the *normalized* Laplacian
//! `L = I - D^{-1/2} W D^{-1/2}` everywhere: for normalized spectral
//! clustering, for the eigengap estimate of the local cluster count
//! (Eq. (3)), and for the CONN connectivity metric (second-smallest
//! eigenvalue per ground-truth cluster).
//!
//! The pipeline builds the Laplacian in CSR
//! (`crate::sparse::sparse_normalized_laplacian`). The dense
//! [`normalized_laplacian`] of an [`AffinityGraph`] is the oracle that CSR
//! form is pinned to bitwise.

use crate::affinity::AffinityGraph;
use crate::sparse::{sparse_normalized_laplacian, SparseAffinity};
use fedsc_linalg::eigh::{eigh_partial, SymmetricEig};
use fedsc_linalg::{Matrix, Result};

/// Builds the normalized Laplacian `I - D^{-1/2} W D^{-1/2}`.
///
/// Isolated nodes (zero degree) contribute an identity row/column, i.e. an
/// eigenvalue of exactly 1 with that node's indicator as eigenvector — the
/// conventional choice that keeps the matrix well defined.
pub fn normalized_laplacian(g: &AffinityGraph) -> Matrix {
    let n = g.len();
    let deg = g.degrees();
    let inv_sqrt: Vec<f64> = deg
        .iter()
        .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 })
        .collect();
    let mut l = Matrix::identity(n);
    for j in 0..n {
        for i in 0..n {
            let w = g.weight(i, j);
            if w != 0.0 {
                l[(i, j)] -= inv_sqrt[i] * w * inv_sqrt[j];
            }
        }
    }
    l
}

/// Full spectrum of the normalized Laplacian (ascending), eigenvalues
/// only: the returned decomposition holds no eigenvector columns. The CSR
/// Laplacian is densified for the dense solver.
pub fn laplacian_spectrum(g: &SparseAffinity) -> Result<SymmetricEig> {
    eigh_partial(&sparse_normalized_laplacian(g).to_dense(), 0)
}

/// The paper's Eq. (3): estimates the number of clusters as the position of
/// the largest gap in the ascending normalized-Laplacian spectrum,
/// `r = argmax_{i in [n-1]} (sigma_{i+1} - sigma_i)` (1-based `i`, so the
/// returned count is in `1..n`).
///
/// `max_clusters` caps the search range (pass `None` to search the full
/// spectrum); capping matters in practice because trailing-spectrum gaps are
/// meaningless for cluster counting.
pub fn eigengap_cluster_count(eigenvalues: &[f64], max_clusters: Option<usize>) -> usize {
    let n = eigenvalues.len();
    if n <= 1 {
        return n;
    }
    let hi = max_clusters.map_or(n - 1, |m| m.min(n - 1));
    let mut best_i = 1usize;
    let mut best_gap = f64::NEG_INFINITY;
    for i in 1..=hi {
        let gap = eigenvalues[i] - eigenvalues[i - 1];
        if gap > best_gap {
            best_gap = gap;
            best_i = i;
        }
    }
    best_i
}

/// Relative-eigengap cluster count:
/// `r = argmax_i (sigma_{i+1} - sigma_i) / (sigma_{i+1} + eps)` with
/// `eps = 0.01 * sigma_max`, where `sigma_max` is the spectrum's largest
/// eigenvalue. `eigenvalues` are the smallest ones, ascending: all of them
/// when `max_clusters` is `None`, else at least `max_clusters + 1`.
///
/// The plain difference rule (Eq. (3), [`eigengap_cluster_count`]) can be
/// fooled by gaps in the bulk of the spectrum when within-cluster
/// connectivity is weak; dividing by `sigma_{i+1}` exploits the fact that
/// the first `r` eigenvalues of an `r`-component graph are (near) zero, so
/// the gap *at the component boundary* has relative size ~1. The `eps`
/// regularizer keeps eigenvalues below graph-noise scale (weak false
/// connections make the leading eigenvalues small-but-nonzero) from winning
/// on relative size alone. This is the robust variant Fed-SC uses by default
/// (Remark 1 motivates robustness of the eigenspectrum analysis); the
/// ablation bench compares both.
pub fn relative_eigengap_cluster_count(
    eigenvalues: &[f64],
    sigma_max: f64,
    max_clusters: Option<usize>,
) -> usize {
    let n = eigenvalues.len();
    if n <= 1 {
        return n;
    }
    let hi = max_clusters.map_or(n - 1, |m| m.min(n - 1));
    let eps = 1e-2 * sigma_max.abs().max(f64::EPSILON);
    let mut best_i = 1usize;
    let mut best_gap = f64::NEG_INFINITY;
    for i in 1..=hi {
        let gap = (eigenvalues[i] - eigenvalues[i - 1]) / (eigenvalues[i].abs() + eps);
        if gap > best_gap {
            best_gap = gap;
            best_i = i;
        }
    }
    best_i
}

/// Algebraic connectivity: the second-smallest eigenvalue of the normalized
/// Laplacian. Zero iff the graph is disconnected; used by the paper's CONN
/// metric. Graphs with fewer than two nodes return 0.
pub fn algebraic_connectivity(g: &SparseAffinity) -> Result<f64> {
    if g.len() < 2 {
        return Ok(0.0);
    }
    let spec = laplacian_spectrum(g)?;
    Ok(spec.eigenvalues[1].max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_triangles() -> AffinityGraph {
        // Nodes 0-2 fully connected, nodes 3-5 fully connected, no cross
        // edges.
        let mut m = Matrix::zeros(6, 6);
        for &(i, j) in &[(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)] {
            m[(i, j)] = 1.0;
            m[(j, i)] = 1.0;
        }
        AffinityGraph::from_symmetric(&m)
    }

    #[test]
    fn normalized_laplacian_of_regular_graph() {
        let g = two_triangles();
        let l = normalized_laplacian(&g);
        // Diagonal is 1, within-triangle entries are -1/2 (degree 2).
        assert!((l[(0, 0)] - 1.0).abs() < 1e-12);
        assert!((l[(0, 1)] + 0.5).abs() < 1e-12);
        assert_eq!(l[(0, 3)], 0.0);
    }

    #[test]
    fn zero_eigenvalue_multiplicity_counts_components() {
        let g = SparseAffinity::from_graph(&two_triangles());
        let spec = laplacian_spectrum(&g).unwrap();
        assert!(spec.eigenvalues[0].abs() < 1e-10);
        assert!(spec.eigenvalues[1].abs() < 1e-10);
        assert!(spec.eigenvalues[2] > 0.1);
    }

    #[test]
    fn eigengap_detects_two_clusters() {
        let g = SparseAffinity::from_graph(&two_triangles());
        let ev = laplacian_spectrum(&g).unwrap().eigenvalues;
        assert_eq!(eigengap_cluster_count(&ev, None), 2);
        assert_eq!(relative_eigengap_cluster_count(&ev, ev[5], None), 2);
    }

    #[test]
    fn eigengap_with_cap() {
        // Spectrum with the largest gap at position 4, capped to 2.
        let ev = [0.0, 0.01, 0.02, 0.03, 1.0];
        assert_eq!(eigengap_cluster_count(&ev, None), 4);
        assert_eq!(eigengap_cluster_count(&ev, Some(2)), 1);
    }

    #[test]
    fn eigengap_single_node() {
        assert_eq!(eigengap_cluster_count(&[0.0], None), 1);
        assert_eq!(eigengap_cluster_count(&[], None), 0);
    }

    #[test]
    fn algebraic_connectivity_zero_iff_disconnected() {
        let g = SparseAffinity::from_graph(&two_triangles());
        assert!(algebraic_connectivity(&g).unwrap() < 1e-10);
        // A single triangle is connected.
        let mut m = Matrix::zeros(3, 3);
        for &(i, j) in &[(0, 1), (0, 2), (1, 2)] {
            m[(i, j)] = 1.0;
            m[(j, i)] = 1.0;
        }
        let tri = SparseAffinity::from_graph(&AffinityGraph::from_symmetric(&m));
        assert!(algebraic_connectivity(&tri).unwrap() > 0.5);
    }

    #[test]
    fn isolated_node_is_handled() {
        let mut m = Matrix::zeros(3, 3);
        m[(0, 1)] = 1.0;
        m[(1, 0)] = 1.0;
        let g = AffinityGraph::from_symmetric(&m);
        let l = normalized_laplacian(&g);
        assert_eq!(l[(2, 2)], 1.0);
        assert_eq!(l[(2, 0)], 0.0);
        // Still symmetric PSD: spectrum computes fine.
        let spec = laplacian_spectrum(&SparseAffinity::from_graph(&g)).unwrap();
        assert!(spec.eigenvalues[0] > -1e-12);
    }
}
