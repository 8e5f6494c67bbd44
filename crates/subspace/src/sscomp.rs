//! SSC-OMP (You, Robinson & Vidal, CVPR 2016): sparse self-expression by
//! Orthogonal Matching Pursuit instead of the Lasso — the scalability
//! baseline in the paper's Table III.

use crate::algo::{normalize_data, SubspaceClusterer};
use fedsc_graph::SparseAffinity;
use fedsc_linalg::{Matrix, Result};
use fedsc_sparse::omp::{omp, OmpOptions};
use fedsc_sparse::SparseVec;

/// OMP stops once the residual norm falls to this.
const OMP_TOL: f64 = 1e-6;

/// SSC-OMP configuration.
#[derive(Debug, Clone)]
pub struct SscOmp {
    /// Support budget per point; OMP stops earlier once the residual norm
    /// falls to `1e-6`.
    pub k_max: usize,
}

impl Default for SscOmp {
    fn default() -> Self {
        Self { k_max: 10 }
    }
}

impl SscOmp {
    /// Per-point OMP self-expression codes: `codes[i]` is column `i` of
    /// the coefficient matrix `C` (no entry at `i`).
    pub fn codes(&self, data: &Matrix) -> Result<Vec<SparseVec>> {
        let x = normalize_data(data);
        let opts = OmpOptions {
            k_max: self.k_max,
            tol: OMP_TOL,
        };
        (0..x.cols()).map(|i| omp(&x, x.col(i), i, &opts)).collect()
    }
}

impl SubspaceClusterer for SscOmp {
    fn name(&self) -> &'static str {
        "SSC-OMP"
    }

    fn sparse_affinity(&self, data: &Matrix) -> Result<SparseAffinity> {
        Ok(SparseAffinity::from_codes(&self.codes(data)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SubspaceModel;
    use fedsc_clustering::clustering_accuracy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn codes_have_bounded_support() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = SubspaceModel::random(&mut rng, 20, 3, 2);
        let ds = model.sample_dataset(&mut rng, &[10, 10], 0.0);
        let algo = SscOmp { k_max: 3 };
        let codes = algo.codes(&ds.data).unwrap();
        for (i, code) in codes.iter().enumerate() {
            let nnz = code.iter().filter(|&(_, v)| v != 0.0).count();
            assert!(nnz <= 3, "column {i} has support {nnz}");
            assert!(code.iter().all(|(j, _)| j != i), "code {i} uses itself");
        }
    }

    #[test]
    fn clusters_well_separated_subspaces() {
        let mut rng = StdRng::seed_from_u64(2);
        let model = SubspaceModel::random(&mut rng, 30, 3, 3);
        let ds = model.sample_dataset(&mut rng, &[15, 15, 15], 0.0);
        let labels = SscOmp { k_max: 3 }.cluster(&ds.data, 3, &mut rng).unwrap();
        let acc = clustering_accuracy(&ds.labels, &labels);
        assert!(acc > 90.0, "accuracy {acc}");
    }

    #[test]
    fn sep_approximately_holds_for_near_orthogonal_subspaces() {
        let mut rng = StdRng::seed_from_u64(3);
        let model = SubspaceModel::random(&mut rng, 40, 3, 2);
        let ds = model.sample_dataset(&mut rng, &[12, 12], 0.0);
        let g = SscOmp { k_max: 3 }.affinity(&ds.data).unwrap();
        let mut cross = 0.0f64;
        for i in 0..24 {
            for j in 0..24 {
                if ds.labels[i] != ds.labels[j] {
                    cross = cross.max(g.weight(i, j));
                }
            }
        }
        assert!(cross < 0.05, "max cross-subspace affinity {cross}");
    }
}
