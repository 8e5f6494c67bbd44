//! NSN — greedy Nearest Subspace Neighbor (Park, Caramanis & Sanghavi,
//! NeurIPS 2014).
//!
//! For each point, greedily grows a neighborhood: maintain an orthonormal
//! basis `U` of the span of the neighbors collected so far (seeded with the
//! point itself), and repeatedly add the point with the largest projection
//! norm `||U^T x_j||` onto that span, extending the basis while its
//! dimension is below `k_max`. The affinity graph connects each point to its
//! collected neighbors: weight 1 where two points picked each other, 1/2
//! where one picked the other.

use crate::algo::{normalize_data, SubspaceClusterer};
use fedsc_graph::SparseAffinity;
use fedsc_linalg::{par, vector, Matrix, Result};

/// NSN configuration.
#[derive(Debug, Clone)]
pub struct Nsn {
    /// Number of neighbors to collect per point.
    pub num_neighbors: usize,
    /// Maximum dimension of the greedy subspace (typically the expected
    /// subspace dimension).
    pub max_subspace_dim: usize,
    /// Normalize columns first.
    pub normalize: bool,
    /// Worker threads for the per-point greedy neighbor searches. Each
    /// point's search carries its own basis workspace, so the graph is
    /// bitwise identical for every value.
    pub threads: usize,
}

impl Nsn {
    /// NSN collecting `num_neighbors` neighbors with subspace dimension cap
    /// `max_subspace_dim`.
    pub fn new(num_neighbors: usize, max_subspace_dim: usize) -> Self {
        Self {
            num_neighbors,
            max_subspace_dim,
            normalize: true,
            threads: 1,
        }
    }
}

impl Default for Nsn {
    fn default() -> Self {
        Self::new(5, 5)
    }
}

impl SubspaceClusterer for Nsn {
    fn name(&self) -> &'static str {
        "NSN"
    }

    fn sparse_affinity(&self, data: &Matrix) -> Result<SparseAffinity> {
        let x = if self.normalize {
            normalize_data(data)
        } else {
            data.clone()
        };
        // Each pick adds 0.5 both ways, so entry (i, j) sums to
        // `0.5 * (p_ij + p_ji)` over the 0/1 picks: exactly the
        // symmetrization `AffinityGraph::from_symmetric` applies.
        let triplets: Vec<(usize, usize, f64)> = self
            .neighbor_sets(&x)
            .iter()
            .enumerate()
            .flat_map(|(i, chosen)| chosen.iter().flat_map(move |&j| [(i, j, 0.5), (j, i, 0.5)]))
            .collect();
        Ok(SparseAffinity::from_triplets(x.cols(), &triplets))
    }
}

impl Nsn {
    /// The greedy neighbor set of every column of `x` (assumed already
    /// normalized if desired) — the selection stage of
    /// [`SubspaceClusterer::sparse_affinity`], exposed so pipelines can
    /// reuse NSN's search without building the graph.
    ///
    /// Per-point greedy searches are independent, so they fan out over the
    /// worker pool; each worker carries its own basis/projection workspace
    /// and reports the point's picks for sequential assembly, keeping the
    /// result bitwise identical for every thread count.
    pub fn neighbor_sets(&self, x: &Matrix) -> Vec<Vec<usize>> {
        let n = x.cols();
        let dim = x.rows();
        let k = self.num_neighbors.min(n.saturating_sub(1));
        par::par_map(n, self.threads.max(1), |i| {
            // Orthonormal basis vectors of the greedy subspace.
            let mut basis: Vec<Vec<f64>> = Vec::with_capacity(self.max_subspace_dim);
            // Squared projection norms onto the current span, updated
            // incrementally as basis vectors are appended.
            let mut proj_sq = vec![0.0f64; n];
            let mut selected = vec![false; n];
            selected[i] = true;
            let mut chosen = Vec::with_capacity(k);
            // Seed the basis with the point itself.
            push_orthonormalized(&mut basis, x.col(i), dim, x, &mut proj_sq);
            for _ in 0..k {
                // Point with the largest projection norm onto span(basis).
                let mut best = usize::MAX;
                let mut best_p = f64::NEG_INFINITY;
                for (j, &sel) in selected.iter().enumerate() {
                    if !sel && proj_sq[j] > best_p {
                        best_p = proj_sq[j];
                        best = j;
                    }
                }
                if best == usize::MAX {
                    break;
                }
                selected[best] = true;
                chosen.push(best);
                if basis.len() < self.max_subspace_dim {
                    push_orthonormalized(&mut basis, x.col(best), dim, x, &mut proj_sq);
                }
            }
            chosen
        })
    }
}

/// Orthonormalizes `v` against `basis`, appends it if independent, and adds
/// its contribution to every point's squared projection norm.
fn push_orthonormalized(
    basis: &mut Vec<Vec<f64>>,
    v: &[f64],
    dim: usize,
    x: &Matrix,
    proj_sq: &mut [f64],
) {
    let mut u = v.to_vec();
    for b in basis.iter() {
        let c = vector::dot(b, &u);
        vector::axpy(-c, b, &mut u);
    }
    if vector::normalize(&mut u, 1e-10) <= 1e-10 || basis.len() >= dim {
        return;
    }
    for (j, p) in proj_sq.iter_mut().enumerate() {
        let c = vector::dot(&u, x.col(j));
        *p += c * c;
    }
    basis.push(u);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SubspaceModel;
    use fedsc_clustering::clustering_accuracy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn neighbors_stay_in_subspace_for_orthogonal_planes() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = SubspaceModel::random(&mut rng, 40, 3, 2);
        let ds = model.sample_dataset(&mut rng, &[15, 15], 0.0);
        let g = Nsn::new(5, 3).affinity(&ds.data).unwrap();
        let mut cross = 0usize;
        let mut total = 0usize;
        for i in 0..30 {
            for j in 0..30 {
                if g.weight(i, j) > 0.0 {
                    total += 1;
                    if ds.labels[i] != ds.labels[j] {
                        cross += 1;
                    }
                }
            }
        }
        assert!(total > 0);
        assert!(
            (cross as f64) < 0.1 * total as f64,
            "{cross}/{total} cross edges"
        );
    }

    #[test]
    fn clusters_well_separated_subspaces() {
        let mut rng = StdRng::seed_from_u64(2);
        let model = SubspaceModel::random(&mut rng, 30, 3, 3);
        let ds = model.sample_dataset(&mut rng, &[15, 15, 15], 0.0);
        let labels = Nsn::new(6, 3).cluster(&ds.data, 3, &mut rng).unwrap();
        let acc = clustering_accuracy(&ds.labels, &labels);
        assert!(acc > 90.0, "accuracy {acc}");
    }

    #[test]
    fn neighbor_count_respected() {
        let mut rng = StdRng::seed_from_u64(3);
        let model = SubspaceModel::random(&mut rng, 10, 2, 1);
        let ds = model.sample_dataset(&mut rng, &[8], 0.0);
        let g = Nsn::new(3, 2).affinity(&ds.data).unwrap();
        // Each row has at most 3 outgoing picks; symmetrization can add
        // more, but the graph stays sparse relative to complete.
        let n = g.len();
        let edges: usize = (0..n)
            .map(|i| (0..n).filter(|&j| g.weight(i, j) > 0.0).count())
            .sum();
        assert!(edges < n * (n - 1));
    }

    #[test]
    fn tiny_dataset_is_defined() {
        let mut rng = StdRng::seed_from_u64(4);
        let model = SubspaceModel::random(&mut rng, 5, 1, 1);
        let ds = model.sample_dataset(&mut rng, &[2], 0.0);
        let g = Nsn::new(5, 2).affinity(&ds.data).unwrap();
        assert_eq!(g.len(), 2);
    }
}
