//! The paper's Section VI-A synthetic workload.
//!
//! "We randomly generate `L` subspaces (adjustable) each of the same
//! dimension `d = 5` by drawing i.i.d. orthonormal basis matrices in
//! `R^20`. The synthetic data is obtained by multiplying random gaussian
//! coefficients with each basis matrix."

use fedsc_subspace::model::{LabeledData, SubspaceModel};
use rand::Rng;

/// Parameters of the synthetic generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticConfig {
    /// Ambient dimension `n` (paper: 20).
    pub ambient_dim: usize,
    /// Subspace dimension `d` (paper: 5).
    pub subspace_dim: usize,
    /// Number of subspaces `L`.
    pub num_subspaces: usize,
    /// Points drawn per subspace.
    pub points_per_subspace: usize,
    /// Additive noise standard deviation (0 for the noiseless theory
    /// setting).
    pub noise_std: f64,
}

impl SyntheticConfig {
    /// The paper's defaults with `L` subspaces and the given size.
    pub fn paper(num_subspaces: usize, points_per_subspace: usize) -> Self {
        Self {
            ambient_dim: 20,
            subspace_dim: 5,
            num_subspaces,
            points_per_subspace,
            noise_std: 0.0,
        }
    }
}

/// A generated synthetic dataset with its ground-truth model.
#[derive(Debug, Clone)]
pub struct SyntheticDataset {
    /// The labeled points.
    pub data: LabeledData,
    /// The ground-truth subspace model (for theory diagnostics).
    pub model: SubspaceModel,
}

/// Generates the paper's synthetic dataset.
pub fn generate<R: Rng + ?Sized>(cfg: &SyntheticConfig, rng: &mut R) -> SyntheticDataset {
    assert!(
        cfg.subspace_dim <= cfg.ambient_dim,
        "subspace dimension must not exceed ambient dimension"
    );
    let model = SubspaceModel::random(rng, cfg.ambient_dim, cfg.subspace_dim, cfg.num_subspaces);
    let counts = vec![cfg.points_per_subspace; cfg.num_subspaces];
    let data = model.sample_dataset(rng, &counts, cfg.noise_std);
    SyntheticDataset { data, model }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_defaults() {
        let cfg = SyntheticConfig::paper(20, 10);
        assert_eq!(cfg.ambient_dim, 20);
        assert_eq!(cfg.subspace_dim, 5);
        let mut rng = StdRng::seed_from_u64(1);
        let ds = generate(&cfg, &mut rng);
        assert_eq!(ds.data.len(), 200);
        assert_eq!(ds.data.data.shape(), (20, 200));
        assert_eq!(ds.model.num_subspaces(), 20);
    }

    #[test]
    fn labels_are_grouped_and_complete() {
        let mut rng = StdRng::seed_from_u64(2);
        let ds = generate(&SyntheticConfig::paper(3, 5), &mut rng);
        assert_eq!(
            ds.data.labels,
            vec![0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2]
        );
    }

    #[test]
    #[should_panic(expected = "must not exceed")]
    fn invalid_dims_rejected() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = SyntheticConfig {
            ambient_dim: 3,
            subspace_dim: 5,
            num_subspaces: 2,
            points_per_subspace: 4,
            noise_std: 0.0,
        };
        generate(&cfg, &mut rng);
    }
}
