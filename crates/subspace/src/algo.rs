//! The common interface all subspace-clustering algorithms implement.

use fedsc_clustering::spectral::{spectral_clustering, ClusterCountPolicy, SpectralOptions};
use fedsc_graph::{AffinityGraph, SparseAffinity};
use fedsc_linalg::{Matrix, Result};
use rand::Rng;

/// A spectral-based subspace-clustering algorithm: builds a CSR affinity
/// graph over the columns of a data matrix; segmentation is the shared
/// normalized spectral clustering on that graph.
pub trait SubspaceClusterer {
    /// Algorithm name for reports and benches.
    fn name(&self) -> &'static str;

    /// Builds the CSR affinity graph over the columns of `data`.
    fn sparse_affinity(&self, data: &Matrix) -> Result<SparseAffinity>;

    /// [`Self::sparse_affinity`], densified (`to_graph` is lossless): the
    /// dense graph, for callers that replay the spectral layers on it and
    /// for test oracles. Nothing in the pipeline reads it.
    fn affinity(&self, data: &Matrix) -> Result<AffinityGraph> {
        Ok(self.sparse_affinity(data)?.to_graph())
    }

    /// Clusters the columns of `data` into `k` groups: the CSR affinity
    /// plus normalized spectral clustering.
    fn cluster<R: Rng + ?Sized>(&self, data: &Matrix, k: usize, rng: &mut R) -> Result<Vec<usize>> {
        let w = self.sparse_affinity(data)?;
        let count = ClusterCountPolicy::Fixed(k);
        Ok(spectral_clustering(&w, count, &SpectralOptions::default(), rng)?.0)
    }
}

/// Returns a column-normalized copy of `data` (unit `l2` columns), the
/// standing preprocessing step of every SC method here.
pub fn normalize_data(data: &Matrix) -> Matrix {
    let mut d = data.clone();
    d.normalize_columns(1e-12);
    d
}
