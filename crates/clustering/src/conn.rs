//! The paper's CONN connectivity metric.
//!
//! For each ground-truth cluster `l`, take the subgraph of the affinity
//! graph restricted to that cluster's points and compute the second-smallest
//! eigenvalue `lambda_l^(2)` of its normalized Laplacian. The paper reports
//! `c = min_l lambda_l^(2)` and the average `c-bar = (1/L) sum_l
//! lambda_l^(2)`: larger values mean each true cluster forms a more tightly
//! connected component (no over-segmentation risk).
//!
//! The graph stays CSR: each cluster's subgraph is cut out sparse and
//! densified on its own, only for its `lambda^(2)` eigendecomposition.

use fedsc_graph::laplacian::algebraic_connectivity;
use fedsc_graph::SparseAffinity;
use fedsc_linalg::Result;

/// CONN summary over ground-truth clusters.
#[derive(Debug, Clone, PartialEq)]
pub struct Connectivity {
    /// `min_l lambda_l^(2)` — the paper's `c`.
    pub min: f64,
    /// `(1/L) sum_l lambda_l^(2)` — the paper's `c-bar`.
    pub mean: f64,
    /// Per-cluster second eigenvalues, indexed by compacted cluster id.
    pub per_cluster: Vec<f64>,
}

/// Computes CONN for an affinity graph under a ground-truth labeling.
///
/// # Panics
///
/// Panics when `truth.len() != graph.len()`.
pub fn connectivity(graph: &SparseAffinity, truth: &[usize]) -> Result<Connectivity> {
    assert_eq!(truth.len(), graph.len(), "labeling must cover every node");
    let max_label = truth.iter().copied().max().map_or(0, |m| m + 1);
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); max_label];
    for (i, &l) in truth.iter().enumerate() {
        members[l].push(i);
    }
    let mut per_cluster = Vec::new();
    for nodes in members.into_iter().filter(|m| !m.is_empty()) {
        let sub = graph.subgraph(&nodes).to_graph();
        per_cluster.push(algebraic_connectivity(&sub)?);
    }
    if per_cluster.is_empty() {
        return Ok(Connectivity {
            min: 0.0,
            mean: 0.0,
            per_cluster,
        });
    }
    let min = per_cluster.iter().copied().fold(f64::INFINITY, f64::min);
    let mean = per_cluster.iter().sum::<f64>() / per_cluster.len() as f64;
    Ok(Connectivity {
        min,
        mean,
        per_cluster,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedsc_linalg::Matrix;

    fn graph_from_edges(n: usize, edges: &[(usize, usize)]) -> SparseAffinity {
        let mut m = Matrix::zeros(n, n);
        for &(i, j) in edges {
            m[(i, j)] = 1.0;
            m[(j, i)] = 1.0;
        }
        SparseAffinity::from_graph(&fedsc_graph::AffinityGraph::from_symmetric(&m))
    }

    #[test]
    fn connected_clusters_have_positive_conn() {
        // Two triangles, labels match the triangles.
        let g = graph_from_edges(6, &[(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]);
        let c = connectivity(&g, &[0, 0, 0, 1, 1, 1]).unwrap();
        assert!(c.min > 0.5);
        assert!(c.mean >= c.min);
        assert_eq!(c.per_cluster.len(), 2);
    }

    #[test]
    fn split_cluster_scores_zero_min() {
        // Cluster 0 is two disconnected pairs (over-segmentation): its
        // lambda^(2) is 0; cluster 1 is a connected edge.
        let g = graph_from_edges(6, &[(0, 1), (2, 3), (4, 5)]);
        let c = connectivity(&g, &[0, 0, 0, 0, 1, 1]).unwrap();
        assert!(c.min < 1e-10);
        assert!(c.mean > 0.0); // cluster 1 is connected
    }

    #[test]
    fn empty_clusters_are_skipped() {
        let g = graph_from_edges(2, &[(0, 1)]);
        // Labels 0 and 5: intermediate ids unused.
        let c = connectivity(&g, &[5, 5]).unwrap();
        assert_eq!(c.per_cluster.len(), 1);
        assert!(c.min > 0.0);
    }

    #[test]
    fn singleton_cluster_contributes_zero() {
        let g = graph_from_edges(3, &[(0, 1)]);
        let c = connectivity(&g, &[0, 0, 1]).unwrap();
        assert_eq!(c.per_cluster.len(), 2);
        assert!(c.min < 1e-12);
    }
}
