//! Algorithm 2: local clustering and sampling on one client device.
//!
//! 1. Solve the SSC Lasso for every local point and form the CSR graph
//!    `W^(z) = |C^(z)| + |C^(z)|^T`.
//! 2. Estimate the local cluster count `r^(z)` — eigengap heuristic
//!    (Eq. (3)) or the fixed upper bound (Remark 1).
//! 3. Normalized spectral clustering into `r^(z)` partitions `T^(z)`.
//!    Steps 2 and 3 are one `fedsc_clustering::spectral_clustering` call,
//!    which reads the count off the solve it embeds with.
//! 4. Per partition: estimate an orthonormal basis `U_{d_t}` by truncated
//!    SVD and draw the uniform unit-sphere sample
//!    `theta = U alpha / ||U alpha||`, `alpha ~ N(0, I)` (Eq. (5)).

use crate::config::{BasisDim, FedScConfig, LocalBackend};
use fedsc_clustering::spectral::{spectral_clustering, SpectralOptions};
use fedsc_linalg::random::sample_on_subspace;
use fedsc_linalg::svd::truncated_svd;
use fedsc_linalg::{par, Matrix, Result};
use fedsc_subspace::{CandidateOptions, Ssc, SubspaceClusterer as _, Tsc};
use rand::Rng;

/// Output of Algorithm 2 on one device.
#[derive(Debug, Clone)]
pub struct LocalOutput {
    /// Local cluster index per local point (`T^(z)` in label form).
    pub local_labels: Vec<usize>,
    /// Number of local clusters `r^(z)` actually produced.
    pub num_local_clusters: usize,
    /// Generated samples `Theta^(z)` as columns
    /// (`n x (r^(z) * samples_per_cluster)`).
    pub samples: Matrix,
    /// `sample_cluster[s]` = local cluster index the `s`-th sample
    /// represents.
    pub sample_cluster: Vec<usize>,
    /// Estimated basis dimension `d_t` per local cluster (diagnostics).
    pub basis_dims: Vec<usize>,
}

/// Runs local clustering and sampling (Algorithm 2) on one device's data.
///
/// The local graph stays CSR; `cfg.cluster_count` sets `r^(z)`. An
/// eigengap count is floored at the graph's connected-component count and
/// capped at the policy's `max`. Records the `local.affinity`,
/// `local.spectral` and `local.basis_sample` spans.
pub fn local_cluster_and_sample<R: Rng + ?Sized>(
    data: &Matrix,
    cfg: &FedScConfig,
    rng: &mut R,
) -> Result<LocalOutput> {
    let n_points = data.cols();
    let dim = data.rows();
    if n_points == 0 {
        return Ok(LocalOutput {
            local_labels: vec![],
            num_local_clusters: 0,
            samples: Matrix::zeros(dim, 0),
            sample_cluster: vec![],
            basis_dims: vec![],
        });
    }

    // Step 1: local affinity graph (SSC per the paper; TSC as ablation).
    // `kernel_threads` governs intra-device numerical parallelism (Gram,
    // per-point Lasso, neighbor search); the device fan-out owns
    // `cfg.threads` one level up.
    let kernel_threads = cfg.kernel_threads.max(1);
    let affinity_span = fedsc_obs::span("fedsc", "local.affinity").field("points", n_points);
    let graph = match cfg.local {
        LocalBackend::Ssc => {
            let mut lasso = cfg.lasso.clone();
            lasso.threads = kernel_threads;
            let ssc = Ssc {
                alpha: cfg.ssc_alpha,
                lasso,
                normalize: true,
                candidates: Some(CandidateOptions {
                    min_points: cfg.candidate_threshold,
                    ..CandidateOptions::default()
                }),
            };
            ssc.sparse_affinity(data)?
        }
        LocalBackend::Tsc { q } => {
            let mut tsc = Tsc::new(q);
            tsc.threads = kernel_threads;
            tsc.sparse_affinity(data)?
        }
    };
    drop(affinity_span);

    // Steps 2-3: estimate r^(z) and segment into r partitions, both off
    // one spectral solve of the graph.
    let spectral_span = fedsc_obs::span("fedsc", "local.spectral");
    let (local_labels, r) =
        spectral_clustering(&graph, cfg.cluster_count, &SpectralOptions::default(), rng)?;
    drop(spectral_span.field("clusters", r));

    // Step 4: per-partition basis estimation and sampling.
    let _basis_span = fedsc_obs::span("fedsc", "local.basis_sample").field("clusters", r);
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); r];
    for (i, &t) in local_labels.iter().enumerate() {
        members[t].push(i);
    }
    // Basis estimation (truncated SVD per partition) is deterministic and
    // rng-free, so the partitions fan out over the kernel pool; sampling
    // stays sequential in partition order below so the rng stream — and
    // therefore every seeded run — is byte-identical to the serial path.
    // The heavy variant: a handful of partitions, each an SVD worth far
    // more than the pool's publish overhead.
    let bases: Vec<Option<Result<Matrix>>> = par::par_map_heavy(r, kernel_threads, |t| {
        let idx = &members[t];
        if idx.is_empty() {
            // Spectral k-means can leave a cluster empty when r was
            // over-estimated; skip it (no sample, no basis).
            return None;
        }
        Some(estimate_basis(&data.select_columns(idx), cfg.basis_dim))
    });
    let mut sample_cols: Vec<Vec<f64>> = Vec::new();
    let mut sample_cluster = Vec::new();
    let mut basis_dims = Vec::new();
    for (t, basis) in bases.into_iter().enumerate() {
        let Some(basis) = basis else {
            basis_dims.push(0);
            continue;
        };
        let basis = basis?;
        basis_dims.push(basis.cols());
        for _ in 0..cfg.samples_per_cluster.max(1) {
            sample_cols.push(sample_on_subspace(rng, &basis));
            sample_cluster.push(t);
        }
    }
    let refs: Vec<&[f64]> = sample_cols.iter().map(|c| c.as_slice()).collect();
    let samples = Matrix::from_columns(&refs)?;
    // An all-empty sample set can only happen when every cluster was empty,
    // which the n_points == 0 guard already excluded.
    let samples = if samples.cols() == 0 && samples.rows() == 0 {
        Matrix::zeros(dim, 0)
    } else {
        samples
    };
    Ok(LocalOutput {
        local_labels,
        num_local_clusters: r,
        samples,
        sample_cluster,
        basis_dims,
    })
}

/// Footnote 3: estimate the basis of `span(cluster)` with a truncated SVD.
/// Under [`BasisDim::Auto`] one SVD both probes the rank and supplies the
/// basis: its leading `d` left singular vectors are bitwise the ones a
/// `d`-truncated SVD returns.
fn estimate_basis(cluster: &Matrix, policy: BasisDim) -> Result<Matrix> {
    let max_rank = cluster.rows().min(cluster.cols());
    let u = match policy {
        BasisDim::Fixed(d) => truncated_svd(cluster, d.clamp(1, max_rank))?.u,
        BasisDim::Auto { rel_tol, max_dim } => {
            let probe = truncated_svd(cluster, max_rank.min(max_dim.max(1)))?;
            let smax = probe.s.first().copied().unwrap_or(0.0);
            let d = if smax <= 0.0 {
                1
            } else {
                probe
                    .s
                    .iter()
                    .take_while(|&&s| s > rel_tol.max(f64::EPSILON) * smax)
                    .count()
                    .clamp(1, max_rank)
            };
            let cols: Vec<usize> = (0..d).collect();
            probe.u.select_columns(&cols)
        }
    };
    // Phase 1 invariant: everything downstream (uniform-on-subspace sampling,
    // the theory diagnostics) assumes U_{d_t} has orthonormal columns.
    debug_assert!(
        orthonormality_defect(&u) < 1e-8,
        "estimated basis is not orthonormal (defect {})",
        orthonormality_defect(&u)
    );
    Ok(u)
}

/// `max_{i,j} |u_i . u_j - delta_ij|` — 0 for an exactly orthonormal basis.
/// Debug-assert helper; not part of the scheme itself.
fn orthonormality_defect(u: &fedsc_linalg::Matrix) -> f64 {
    let k = u.cols();
    let mut worst = 0.0f64;
    for i in 0..k {
        for j in i..k {
            let d = fedsc_linalg::vector::dot(u.col(i), u.col(j));
            let target = if i == j { 1.0 } else { 0.0 };
            worst = worst.max((d - target).abs());
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CentralBackend, ClusterCountPolicy};
    use fedsc_linalg::vector;
    use fedsc_subspace::SubspaceModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> FedScConfig {
        FedScConfig::new(4, CentralBackend::Ssc)
    }

    #[test]
    fn empty_device_produces_empty_output() {
        let mut rng = StdRng::seed_from_u64(1);
        let out = local_cluster_and_sample(&Matrix::zeros(10, 0), &cfg(), &mut rng).unwrap();
        assert_eq!(out.num_local_clusters, 0);
        assert_eq!(out.samples.cols(), 0);
    }

    #[test]
    fn two_orthogonalish_subspaces_give_two_clusters() {
        let mut rng = StdRng::seed_from_u64(2);
        let model = SubspaceModel::random(&mut rng, 30, 3, 2);
        let ds = model.sample_dataset(&mut rng, &[15, 15], 0.0);
        let out = local_cluster_and_sample(&ds.data, &cfg(), &mut rng).unwrap();
        assert_eq!(out.num_local_clusters, 2);
        // Partition must match the ground truth up to relabeling.
        let acc = fedsc_clustering::clustering_accuracy(&ds.labels, &out.local_labels);
        assert!(acc > 95.0, "local accuracy {acc}");
    }

    #[test]
    fn samples_are_unit_norm_and_span_consistent() {
        let mut rng = StdRng::seed_from_u64(3);
        let model = SubspaceModel::random(&mut rng, 20, 3, 2);
        let ds = model.sample_dataset(&mut rng, &[12, 12], 0.0);
        let out = local_cluster_and_sample(&ds.data, &cfg(), &mut rng).unwrap();
        assert_eq!(out.samples.cols(), out.sample_cluster.len());
        for s in 0..out.samples.cols() {
            assert!((vector::norm2(out.samples.col(s)) - 1.0).abs() < 1e-10);
            // The sample lies in the span of its ground-truth subspace: the
            // projection onto the true basis reproduces it.
            let cluster = out.sample_cluster[s];
            // Majority ground-truth label of the local cluster.
            let mut votes = [0usize; 2];
            for (i, &t) in out.local_labels.iter().enumerate() {
                if t == cluster {
                    votes[ds.labels[i]] += 1;
                }
            }
            let true_subspace = if votes[0] >= votes[1] { 0 } else { 1 };
            let basis = &model.bases[true_subspace];
            let coeff = basis.tr_matvec(out.samples.col(s)).unwrap();
            let proj = basis.matvec(&coeff).unwrap();
            let err: f64 = proj
                .iter()
                .zip(out.samples.col(s))
                .map(|(p, t)| (p - t).abs())
                .fold(0.0, f64::max);
            assert!(err < 1e-8, "sample {s} leaves its subspace by {err}");
        }
    }

    #[test]
    fn fixed_cluster_count_is_respected() {
        let mut rng = StdRng::seed_from_u64(4);
        let model = SubspaceModel::random(&mut rng, 20, 2, 2);
        let ds = model.sample_dataset(&mut rng, &[10, 10], 0.0);
        let mut c = cfg();
        c.cluster_count = ClusterCountPolicy::Fixed(3);
        let out = local_cluster_and_sample(&ds.data, &c, &mut rng).unwrap();
        assert_eq!(out.num_local_clusters, 3);
        // At most 3 samples (empty clusters may drop some).
        assert!(out.samples.cols() <= 3);
    }

    #[test]
    fn fixed_basis_dim_one() {
        let mut rng = StdRng::seed_from_u64(5);
        let model = SubspaceModel::random(&mut rng, 20, 3, 2);
        let ds = model.sample_dataset(&mut rng, &[10, 10], 0.0);
        let mut c = cfg();
        c.basis_dim = BasisDim::Fixed(1);
        let out = local_cluster_and_sample(&ds.data, &c, &mut rng).unwrap();
        assert!(out.basis_dims.iter().all(|&d| d == 1));
    }

    #[test]
    fn auto_basis_dim_recovers_subspace_dimension() {
        let mut rng = StdRng::seed_from_u64(6);
        let model = SubspaceModel::random(&mut rng, 25, 4, 1);
        let ds = model.sample_dataset(&mut rng, &[20], 0.0);
        let out = local_cluster_and_sample(&ds.data, &cfg(), &mut rng).unwrap();
        // One subspace of dimension 4: every non-empty cluster basis has
        // dimension 4 (noiseless data has exact rank).
        assert!(
            out.basis_dims.iter().all(|&d| d == 0 || d == 4),
            "{:?}",
            out.basis_dims
        );
    }

    #[test]
    fn multiple_samples_per_cluster() {
        let mut rng = StdRng::seed_from_u64(7);
        let model = SubspaceModel::random(&mut rng, 15, 2, 1);
        let ds = model.sample_dataset(&mut rng, &[10], 0.0);
        let mut c = cfg();
        c.cluster_count = ClusterCountPolicy::Fixed(1);
        c.samples_per_cluster = 3;
        let out = local_cluster_and_sample(&ds.data, &c, &mut rng).unwrap();
        assert_eq!(out.samples.cols(), 3);
        assert_eq!(out.sample_cluster, vec![0, 0, 0]);
    }

    #[test]
    fn tsc_local_backend_runs() {
        // The ablation backend: TSC locally instead of SSC. On uniform
        // synthetic data it still segments well-separated subspaces.
        let mut rng = StdRng::seed_from_u64(21);
        let model = SubspaceModel::random(&mut rng, 30, 3, 2);
        let ds = model.sample_dataset(&mut rng, &[20, 20], 0.0);
        let mut c = cfg();
        c.local = crate::config::LocalBackend::Tsc { q: 5 };
        c.cluster_count = ClusterCountPolicy::Fixed(2);
        let out = local_cluster_and_sample(&ds.data, &c, &mut rng).unwrap();
        let acc = fedsc_clustering::clustering_accuracy(&ds.labels, &out.local_labels);
        assert!(acc > 90.0, "TSC-local accuracy {acc}");
    }

    #[test]
    fn single_point_device() {
        let mut rng = StdRng::seed_from_u64(8);
        let data = Matrix::from_columns(&[&[1.0, 0.0, 0.0]]).unwrap();
        let out = local_cluster_and_sample(&data, &cfg(), &mut rng).unwrap();
        assert_eq!(out.num_local_clusters, 1);
        assert_eq!(out.samples.cols(), 1);
        // The only possible unit sample is +-x itself.
        assert!((out.samples[(0, 0)].abs() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn auto_basis_is_bitwise_the_fixed_basis_at_its_dimension() {
        // One probe SVD serves `Auto`; its leading columns must be exactly
        // what a separate SVD truncated at the chosen dimension returns.
        let mut rng = StdRng::seed_from_u64(31);
        let model = SubspaceModel::random(&mut rng, 40, 4, 1);
        let ds = model.sample_dataset(&mut rng, &[25], 0.01);
        let auto = BasisDim::Auto {
            rel_tol: 0.1,
            max_dim: 10,
        };
        let u_auto = estimate_basis(&ds.data, auto).unwrap();
        let d = u_auto.cols();
        assert!((1..10).contains(&d), "auto dimension {d}");
        let u_fixed = estimate_basis(&ds.data, BasisDim::Fixed(d)).unwrap();
        assert_eq!(u_fixed.shape(), u_auto.shape());
        assert!(u_auto
            .as_slice()
            .iter()
            .zip(u_fixed.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits()));
    }
}
