//! Thresholding-based Subspace Clustering (Heckel & Bölcskei, IT 2015).
//!
//! Connects each point to its `q` nearest neighbors in *spherical* distance
//! (largest `|<x_i, x_j>|` for unit-norm points), with edge weight
//! `exp(-2 acos(|<x_i, x_j>|))`. Effective under the semi-random model
//! (uniform points on each subspace) — which is exactly why Fed-SC can run
//! TSC at the central server over its uniformly-sampled `theta`s.

use crate::algo::{normalize_data, SubspaceClusterer};
use crate::neighbors::ranked_neighbors;
use fedsc_graph::SparseAffinity;
use fedsc_linalg::{par, vector, Matrix, Result};

/// TSC configuration.
#[derive(Debug, Clone)]
pub struct Tsc {
    /// Number of nearest neighbors `q`.
    pub q: usize,
    /// Normalize columns before computing spherical distances.
    pub normalize: bool,
    /// Worker threads for the Gram product and the per-point neighbor
    /// searches. The affinity graph is bitwise identical for every value.
    pub threads: usize,
}

impl Tsc {
    /// TSC with the given neighbor count.
    pub fn new(q: usize) -> Self {
        Self {
            q,
            normalize: true,
            threads: 1,
        }
    }

    /// The paper's parameter rules: `q = max(3, ceil(Z / L))` for the
    /// central clustering inside Fed-SC…
    pub fn fed_sc_q(num_devices: usize, num_clusters: usize) -> usize {
        3usize.max(num_devices.div_ceil(num_clusters.max(1)))
    }

    /// …and `q = max(3, ceil(N / (100 L)))` for the centralized baseline.
    pub fn centralized_q(num_points: usize, num_clusters: usize) -> usize {
        3usize.max(num_points.div_ceil(100 * num_clusters.max(1)))
    }

    /// The `q` nearest spherical neighbors of every column (descending
    /// similarity) — TSC's selection stage via the shared deterministic
    /// ranking in [`crate::neighbors`], exposed so pipelines can reuse the
    /// search without building the affinity. The per-point scans fan
    /// out over `self.threads`; results are identical for every value.
    pub fn neighbor_sets(&self, data: &Matrix) -> Vec<Vec<usize>> {
        let x = if self.normalize {
            normalize_data(data)
        } else {
            data.clone()
        };
        let n = x.cols();
        let gram = x.gram_threaded(self.threads.max(1));
        par::par_map(n, self.threads.max(1), |i| {
            ranked_neighbors(n, self.q, i, |j| gram[(i, j)].abs().min(1.0))
                .into_iter()
                .map(|(_, j)| j)
                .collect()
        })
    }
}

impl Default for Tsc {
    fn default() -> Self {
        Self::new(3)
    }
}

impl SubspaceClusterer for Tsc {
    fn name(&self) -> &'static str {
        "TSC"
    }

    /// The CSR k-NN affinity: each point keeps its `q` nearest spherical
    /// neighbors with weight `exp(-2 acos(|cos|))`, symmetrized by max —
    /// what the server's Phase 2 segments, with no `n x n` dense matrix
    /// beyond the Gram. Bitwise identical for every `self.threads`.
    fn sparse_affinity(&self, data: &Matrix) -> Result<SparseAffinity> {
        let x = if self.normalize {
            normalize_data(data)
        } else {
            data.clone()
        };
        let n = x.cols();
        // Precompute |cos| similarities once; the kNN constructor consults
        // them O(n^2 log n) times otherwise.
        let gram = x.gram_threaded(self.threads.max(1));
        Ok(SparseAffinity::from_knn_similarity_threaded(
            n,
            self.q,
            self.threads.max(1),
            |i, j| {
                let c = gram[(i, j)].abs().min(1.0);
                (-2.0 * c.acos()).exp()
            },
        ))
    }
}

/// Spherical distance helper exposed for tests: `acos(|cos|)` in `[0, pi/2]`.
pub fn spherical_distance(a: &[f64], b: &[f64]) -> f64 {
    vector::abs_cosine(a, b).acos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SubspaceModel;
    use fedsc_clustering::clustering_accuracy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn q_rules_match_paper() {
        assert_eq!(Tsc::fed_sc_q(400, 20), 20);
        assert_eq!(Tsc::fed_sc_q(10, 20), 3);
        assert_eq!(Tsc::centralized_q(6000, 20), 3);
        assert_eq!(Tsc::centralized_q(100_000, 20), 50);
    }

    #[test]
    fn neighbors_prefer_same_subspace() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = SubspaceModel::random(&mut rng, 30, 3, 2);
        let ds = model.sample_dataset(&mut rng, &[20, 20], 0.0);
        let g = Tsc::new(4).affinity(&ds.data).unwrap();
        // Count cross-subspace edges: should be rare for near-orthogonal
        // subspaces with plenty of same-subspace neighbors.
        let mut cross = 0usize;
        let mut total = 0usize;
        for i in 0..40 {
            for j in 0..40 {
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
            (cross as f64) < 0.05 * total as f64,
            "{cross} cross edges out of {total}"
        );
    }

    #[test]
    fn clusters_uniform_subspace_data() {
        let mut rng = StdRng::seed_from_u64(2);
        let model = SubspaceModel::random(&mut rng, 30, 3, 3);
        let ds = model.sample_dataset(&mut rng, &[25, 25, 25], 0.0);
        let labels = Tsc::new(5).cluster(&ds.data, 3, &mut rng).unwrap();
        let acc = clustering_accuracy(&ds.labels, &labels);
        assert!(acc > 90.0, "accuracy {acc}");
    }

    #[test]
    fn spherical_distance_extremes() {
        assert!(spherical_distance(&[1.0, 0.0], &[2.0, 0.0]) < 1e-9);
        let d = spherical_distance(&[1.0, 0.0], &[0.0, 1.0]);
        assert!((d - std::f64::consts::FRAC_PI_2).abs() < 1e-9);
        // Antipodal points are spherically identical (|cos| symmetry).
        assert!(spherical_distance(&[1.0, 0.0], &[-1.0, 0.0]) < 1e-9);
    }

    #[test]
    fn neighbor_sets_agree_with_affinity_edges() {
        // The extracted selection stage must pick exactly the outgoing
        // edges the affinity constructor keeps (before max-symmetrization).
        let mut rng = StdRng::seed_from_u64(5);
        let model = SubspaceModel::random(&mut rng, 20, 2, 2);
        let ds = model.sample_dataset(&mut rng, &[12, 12], 0.0);
        let tsc = Tsc::new(4);
        let sets = tsc.neighbor_sets(&ds.data);
        let g = tsc.affinity(&ds.data).unwrap();
        for (i, set) in sets.iter().enumerate() {
            assert_eq!(set.len(), 4);
            for &j in set {
                assert!(g.weight(i, j) > 0.0, "pick ({i},{j}) missing from graph");
            }
        }
        // Thread fan-out must not change the picks.
        let mut threaded = Tsc::new(4);
        threaded.threads = 4;
        assert_eq!(threaded.neighbor_sets(&ds.data), sets);
    }

    #[test]
    fn q_larger_than_n_is_clamped() {
        let mut rng = StdRng::seed_from_u64(3);
        let model = SubspaceModel::random(&mut rng, 10, 2, 1);
        let ds = model.sample_dataset(&mut rng, &[4], 0.0);
        let g = Tsc::new(100).affinity(&ds.data).unwrap();
        assert_eq!(g.len(), 4);
    }
}
