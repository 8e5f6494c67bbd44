//! Surrogate high-dimensional datasets standing in for the paper's
//! real-world benchmarks (EMNIST scatter features and augmented COIL100).
//!
//! We cannot ship the 814k-image EMNIST corpus, a scattering convolution
//! network, or COIL100 with its augmentation pipeline. What Table III and
//! Table IV actually exercise, though, is the *structure* those pipelines
//! produce: each class concentrates near a low-dimensional subspace of a
//! very high-dimensional feature space, classes share some common feature
//! directions (scatter features share low-order coefficients; images share
//! a brightness/DC direction), class sizes are imbalanced (EMNIST's 62
//! classes are famously unbalanced), and augmentation adds within-class
//! jitter. The surrogates reproduce exactly those properties:
//!
//! * **emnist-like** — 62 classes in `R^3472`, subspace dimension 6, a
//!   shared 2-dimensional common component mixed into every class basis,
//!   class sizes drawn from a 3:1 imbalanced profile, noise 0.02.
//! * **coil100-like** — 100 classes in `R^1024`, subspace dimension 4
//!   plus a *shared* DC direction in every class (brightness changes move
//!   points along it, so augmentation keeps classes near their subspaces
//!   while coupling all of them), noise 0.02.
//!
//! Both generators accept a scale factor so tests run in milliseconds and
//! benches can approach paper scale.

use fedsc_linalg::qr::orthonormal_basis;
use fedsc_linalg::random::{gaussian_matrix, standard_normal};
use fedsc_linalg::{vector, Matrix};
use fedsc_subspace::model::{LabeledData, SubspaceModel};
use rand::Rng;

/// Specification of a surrogate union-of-subspaces dataset.
#[derive(Debug, Clone)]
pub struct SurrogateSpec {
    /// Dataset name for reports.
    pub name: &'static str,
    /// Ambient feature dimension.
    pub ambient_dim: usize,
    /// Number of classes.
    pub num_classes: usize,
    /// Per-class private subspace dimension.
    pub subspace_dim: usize,
    /// Dimensions of the common component shared by all classes.
    pub shared_dims: usize,
    /// Mixing weight of the common component in each class basis (0 = fully
    /// independent classes).
    pub shared_weight: f64,
    /// Points per class before imbalance scaling.
    pub base_class_size: usize,
    /// Class-size imbalance ratio (largest / smallest class).
    pub imbalance: f64,
    /// Additive noise standard deviation.
    pub noise_std: f64,
    /// In-subspace mean offset: coefficients are drawn `N(mu_c, I)` with
    /// `||mu_c|| = mean_offset` along a per-class direction. Keeps every
    /// point exactly on its linear subspace while giving classes distinct
    /// Euclidean means — real feature embeddings (scatter coefficients,
    /// image statistics) have exactly this property, and it is what gives
    /// k-means-based baselines their partial traction in the paper's
    /// tables.
    pub mean_offset: f64,
}

impl SurrogateSpec {
    /// EMNIST-scatter-features surrogate (62 classes, 3472-dim).
    /// `scale in (0, 1]` shrinks ambient dimension and class sizes
    /// proportionally (1.0 = paper-scale structure).
    pub fn emnist_like(scale: f64) -> Self {
        let scale = scale.clamp(0.01, 1.0);
        Self {
            name: "EMNIST-like",
            ambient_dim: ((3472.0 * scale) as usize).max(64),
            num_classes: 62,
            subspace_dim: 6,
            shared_dims: 2,
            shared_weight: 0.3,
            base_class_size: ((160.0 * scale) as usize).max(12),
            imbalance: 3.0,
            noise_std: 0.02,
            mean_offset: 1.5,
        }
    }

    /// Augmented-COIL100 surrogate (100 classes, 1024-dim).
    pub fn coil100_like(scale: f64) -> Self {
        let scale = scale.clamp(0.01, 1.0);
        Self {
            name: "COIL100-like",
            ambient_dim: ((1024.0 * scale) as usize).max(64),
            num_classes: 100,
            subspace_dim: 4,
            shared_dims: 1, // the brightness / DC direction
            shared_weight: 0.4,
            base_class_size: ((100.0 * scale) as usize).max(10),
            imbalance: 1.5,
            noise_std: 0.02,
            mean_offset: 1.2,
        }
    }

    /// Reduces the class count (for quick tests / scaled benches).
    pub fn with_classes(mut self, classes: usize) -> Self {
        self.num_classes = classes.max(2);
        self
    }

    /// Overrides the base class size (for quick benches that shrink the
    /// class count but still need enough points per device).
    pub fn with_class_size(mut self, size: usize) -> Self {
        self.base_class_size = size.max(4);
        self
    }
}

/// A generated surrogate dataset.
#[derive(Debug, Clone)]
pub struct SurrogateDataset {
    /// The labeled points.
    pub data: LabeledData,
    /// The class bases actually used (for diagnostics).
    pub model: SubspaceModel,
    /// Class sizes.
    pub class_sizes: Vec<usize>,
    /// The spec that produced it.
    pub spec: SurrogateSpec,
}

/// Generates a surrogate dataset from a spec.
pub fn generate<R: Rng + ?Sized>(spec: &SurrogateSpec, rng: &mut R) -> SurrogateDataset {
    let n = spec.ambient_dim;
    assert!(
        spec.subspace_dim + spec.shared_dims <= n,
        "subspace + shared dims exceed ambient dimension"
    );
    // Common component shared by every class.
    let shared = if spec.shared_dims > 0 {
        // INVARIANT: Gram-Schmidt over equal-length Gaussian columns cannot
        // produce ragged output.
        orthonormal_basis(&gaussian_matrix(rng, n, spec.shared_dims), 1e-10)
            .expect("gaussian columns share length")
    } else {
        Matrix::zeros(n, 0)
    };
    // Class bases: orthonormalized mixture of a private Gaussian draw and
    // the shared component.
    let mut bases = Vec::with_capacity(spec.num_classes);
    for _ in 0..spec.num_classes {
        let private = gaussian_matrix(rng, n, spec.subspace_dim);
        let mut mix = Matrix::zeros(n, spec.subspace_dim + spec.shared_dims);
        for j in 0..spec.shared_dims {
            let src = shared.col(j);
            let dst = mix.col_mut(j);
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = spec.shared_weight * s;
            }
        }
        for j in 0..spec.subspace_dim {
            // Blend a little of the shared directions into the private ones
            // so classes are coherent, not merely overlapping.
            let dst = mix.col_mut(spec.shared_dims + j);
            dst.copy_from_slice(private.col(j));
            for k in 0..spec.shared_dims {
                let c = spec.shared_weight * 0.5;
                vector::axpy(c, shared.col(k), dst);
            }
        }
        // INVARIANT: `mix` is a dense n x (d + shared) matrix built above.
        bases.push(orthonormal_basis(&mix, 1e-10).expect("mix columns share length"));
    }
    let model = SubspaceModel {
        ambient_dim: n,
        bases,
    };

    // Imbalanced class sizes: geometric interpolation between
    // base_class_size and base_class_size / imbalance.
    let class_sizes: Vec<usize> = (0..spec.num_classes)
        .map(|c| {
            let t = c as f64 / (spec.num_classes.max(2) - 1) as f64;
            let f = spec.imbalance.powf(-t);
            ((spec.base_class_size as f64 * f) as usize).max(4)
        })
        .collect();

    // Sample points with a per-class coefficient mean (kept inside the
    // subspace so linear SC assumptions hold), then add ambient noise and
    // renormalize.
    let total: usize = class_sizes.iter().sum();
    let mut points = Matrix::zeros(n, total);
    let mut labels = Vec::with_capacity(total);
    let mut col = 0usize;
    for (c, (&count, basis)) in class_sizes.iter().zip(&model.bases).enumerate() {
        let d = basis.cols();
        // Deterministic per-class mean direction in coefficient space.
        let mut mu = vec![0.0; d];
        if d > 0 && spec.mean_offset > 0.0 {
            mu[c % d] = spec.mean_offset;
            if d > 1 {
                mu[(c / d) % d] += 0.5 * spec.mean_offset;
            }
        }
        for _ in 0..count {
            let mut alpha = fedsc_linalg::random::gaussian_vector(rng, d);
            for (a, &m) in alpha.iter_mut().zip(&mu) {
                *a += m;
            }
            // INVARIANT: `alpha` is drawn with length `d = basis.cols()`.
            let mut x = basis
                .matvec(&alpha)
                .expect("coefficient length matches basis");
            if spec.noise_std > 0.0 {
                vector::normalize(&mut x, 1e-300);
                for v in &mut x {
                    *v += spec.noise_std * standard_normal(rng);
                }
            }
            vector::normalize(&mut x, 1e-300);
            points.col_mut(col).copy_from_slice(&x);
            labels.push(c);
            col += 1;
        }
    }
    let data = LabeledData {
        data: points,
        labels,
    };
    SurrogateDataset {
        data,
        model,
        class_sizes,
        spec: spec.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn emnist_like_structure() {
        let spec = SurrogateSpec::emnist_like(0.05).with_classes(6);
        let mut rng = StdRng::seed_from_u64(1);
        let ds = generate(&spec, &mut rng);
        assert_eq!(ds.model.num_subspaces(), 6);
        assert_eq!(ds.class_sizes.len(), 6);
        // Imbalance: first class bigger than last.
        assert!(ds.class_sizes[0] > ds.class_sizes[5]);
        // High-dimensional: ambient >= 64 even at tiny scale.
        assert!(ds.data.data.rows() >= 64);
        // Points are unit norm.
        for j in 0..ds.data.len().min(10) {
            assert!((vector::norm2(ds.data.data.col(j)) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn coil_like_classes_share_dc_direction() {
        let spec = SurrogateSpec::coil100_like(0.08).with_classes(5);
        let mut rng = StdRng::seed_from_u64(2);
        let ds = generate(&spec, &mut rng);
        // Every pair of class bases has positive affinity thanks to the
        // shared direction (scatter-like coherence).
        let aff = fedsc_linalg::angles::subspace_affinity(&ds.model.bases[0], &ds.model.bases[1])
            .unwrap();
        assert!(aff > 0.1, "affinity {aff}");
    }

    #[test]
    fn class_sizes_sum_matches_data() {
        let spec = SurrogateSpec::emnist_like(0.03).with_classes(4);
        let mut rng = StdRng::seed_from_u64(3);
        let ds = generate(&spec, &mut rng);
        let total: usize = ds.class_sizes.iter().sum();
        assert_eq!(total, ds.data.len());
    }

    #[test]
    fn scale_controls_size() {
        let small = SurrogateSpec::emnist_like(0.05);
        let large = SurrogateSpec::emnist_like(0.5);
        assert!(large.ambient_dim > small.ambient_dim);
        assert!(large.base_class_size > small.base_class_size);
    }

    #[test]
    fn full_scale_matches_paper_dimensions() {
        let e = SurrogateSpec::emnist_like(1.0);
        assert_eq!(e.ambient_dim, 3472);
        assert_eq!(e.num_classes, 62);
        let c = SurrogateSpec::coil100_like(1.0);
        assert_eq!(c.ambient_dim, 1024);
        assert_eq!(c.num_classes, 100);
    }
}
