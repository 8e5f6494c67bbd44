//! k-FED — one-shot federated k-means (Dennis, Li & Smith, ICML 2021), the
//! paper's federated baseline, including the PCA-preprocessed variants of
//! Table III.
//!
//! One round: each device runs k-means locally with `k' = L^(z)` clusters
//! and uploads its centroids; the server pools all centroids and clusters
//! them into `L` groups with farthest-point-seeded k-means (the
//! Awasthi–Sheffet-style aggregation of the original paper); each device
//! then labels its points by their local centroid's global cluster.
//!
//! The PCA variants project each device's data onto its **locally computed**
//! top-`p` principal components before clustering. Local PCA bases differ
//! across devices, so pooled centroids live in incompatible coordinate
//! systems — the mechanism behind the catastrophic accuracies the paper
//! reports for k-FED + PCA on high-dimensional data.

use crate::channel::{account_downlink, ChannelConfig, CommStats};
use crate::parallel::{time_phase, PhaseTiming};
use crate::partition::FederatedDataset;
use fedsc_clustering::kmeans::{kmeans, KMeansInit, KMeansOptions};
use fedsc_linalg::par::par_map_timed;
use fedsc_linalg::svd::truncated_svd;
use fedsc_linalg::{Matrix, Result};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// k-FED configuration.
#[derive(Debug, Clone)]
pub struct KFedConfig {
    /// Global cluster count `L`.
    pub num_clusters: usize,
    /// Local cluster count per device (`k'`); devices with fewer points use
    /// their point count.
    pub local_clusters: usize,
    /// Optional local PCA projection dimension (the paper's PCA-10 /
    /// PCA-100 variants).
    pub pca_dim: Option<usize>,
    /// Channel model for cost accounting.
    pub channel: ChannelConfig,
    /// Worker threads for the device phase.
    pub threads: usize,
    /// Base RNG seed; device `z` derives seed `base + z`.
    pub seed: u64,
}

impl KFedConfig {
    /// Baseline configuration for `l` global clusters and `k'` local ones.
    pub fn new(num_clusters: usize, local_clusters: usize) -> Self {
        Self {
            num_clusters,
            local_clusters,
            pca_dim: None,
            channel: ChannelConfig::default(),
            threads: fedsc_linalg::par::default_threads(),
            seed: 0x5eed,
        }
    }
}

/// k-FED run output.
#[derive(Debug, Clone)]
pub struct KFedOutput {
    /// Predicted label per point, in global-point order.
    pub predictions: Vec<usize>,
    /// Communication cost.
    pub comm: CommStats,
    /// Device-phase timing.
    pub local_timing: PhaseTiming,
    /// Server aggregation wall time.
    pub server_time: Duration,
}

/// Runs one-shot federated k-means over a partitioned dataset.
pub fn kfed(fed: &FederatedDataset, cfg: &KFedConfig) -> Result<KFedOutput> {
    let z_count = fed.devices.len();
    // Phase 1: local k-means (optionally in local PCA coordinates).
    struct LocalOut {
        centroids: Matrix,
        labels: Vec<usize>,
    }
    let locals: Vec<(Result<LocalOut>, Duration)> =
        par_map_timed(z_count, cfg.threads, |z| -> Result<LocalOut> {
            let dev = &fed.devices[z];
            let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(z as u64));
            let data = match cfg.pca_dim {
                Some(p) => local_pca_project(&dev.data, p)?,
                None => dev.data.clone(),
            };
            let k = cfg.local_clusters.clamp(1, dev.len().max(1));
            let km = kmeans(
                &data,
                &KMeansOptions {
                    k,
                    restarts: 3,
                    ..Default::default()
                },
                &mut rng,
            );
            Ok(LocalOut {
                centroids: km.centroids,
                labels: km.labels,
            })
        });

    let local_timing = PhaseTiming::from_durations(locals.iter().map(|(_, d)| *d));
    let mut comm = CommStats::default();
    let mut centroid_cols: Vec<Matrix> = Vec::with_capacity(z_count);
    let mut local_labels: Vec<Vec<usize>> = Vec::with_capacity(z_count);
    let mut centroid_offset = vec![0usize; z_count];
    let mut offset = 0usize;
    for (z, (res, _)) in locals.into_iter().enumerate() {
        let out = res?;
        let (n, r) = out.centroids.shape();
        comm.uplink_bits += (n as u64) * (r as u64) * cfg.channel.bits_per_scalar as u64;
        comm.uplink_messages += 1;
        centroid_offset[z] = offset;
        offset += r;
        centroid_cols.push(out.centroids);
        local_labels.push(out.labels);
    }

    // Phase 2: server clusters the pooled centroids.
    let refs: Vec<&Matrix> = centroid_cols.iter().collect();
    let pooled = Matrix::hcat(&refs)?;
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x7e57_5e4e);
    let (server, server_time) = time_phase(|| {
        kmeans(
            &pooled,
            &KMeansOptions {
                k: cfg.num_clusters.clamp(1, pooled.cols().max(1)),
                init: KMeansInit::FarthestPoint,
                restarts: 3,
            },
            &mut rng,
        )
    });

    // Phase 3: map each point through its local centroid's global label.
    let mut per_device: Vec<Vec<usize>> = Vec::with_capacity(z_count);
    for z in 0..z_count {
        let base = centroid_offset[z];
        let labels: Vec<usize> = local_labels[z]
            .iter()
            .map(|&local_c| server.labels[base + local_c])
            .collect();
        account_downlink(&mut comm, centroid_cols[z].cols(), cfg.num_clusters);
        per_device.push(labels);
    }
    let predictions = fed.scatter_predictions(&per_device);
    Ok(KFedOutput {
        predictions,
        comm,
        local_timing,
        server_time,
    })
}

/// Projects columns onto the device's own top-`p` principal components
/// (centered local PCA). Output is always `min(p, ambient) x N`: devices
/// with fewer points than `p` zero-pad the missing component rows so every
/// device reports centroids of the same dimension.
fn local_pca_project(data: &Matrix, p: usize) -> Result<Matrix> {
    let (n, cols) = data.shape();
    let target = p.min(n);
    if cols == 0 {
        return Ok(Matrix::zeros(target, 0));
    }
    // Center columns.
    let mut mean = vec![0.0; n];
    for j in 0..cols {
        for (m, &v) in mean.iter_mut().zip(data.col(j)) {
            *m += v;
        }
    }
    for m in &mut mean {
        *m /= cols as f64;
    }
    let mut centered = data.clone();
    for j in 0..cols {
        for (v, &m) in centered.col_mut(j).iter_mut().zip(&mean) {
            *v -= m;
        }
    }
    let k = target.min(cols);
    let svd = truncated_svd(&centered, k)?;
    // Coordinates in the local PCA frame: U^T centered, zero-padded to the
    // full target dimension.
    let coords = svd.u.tr_matmul(&centered)?;
    if k == target {
        return Ok(coords);
    }
    let mut padded = Matrix::zeros(target, cols);
    for j in 0..cols {
        padded.col_mut(j)[..k].copy_from_slice(coords.col(j));
    }
    Ok(padded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{partition_dataset, Partition};
    use fedsc_clustering::clustering_accuracy;
    use fedsc_subspace::SubspaceModel;

    /// Low-dimensional well-separated blobs — the regime k-FED is good at.
    fn blob_dataset(rng: &mut StdRng) -> fedsc_subspace::LabeledData {
        // Use subspace points offset by distinct large centers to create
        // genuine Euclidean blobs.
        let model = SubspaceModel::random(rng, 4, 1, 3);
        let mut ds = model.sample_dataset(rng, &[30, 30, 30], 0.0);
        for j in 0..ds.len() {
            let l = ds.labels[j];
            ds.data.col_mut(j)[l] += 10.0 * (l as f64 + 1.0);
        }
        ds
    }

    #[test]
    fn recovers_blobs_under_iid_partition() {
        let mut rng = StdRng::seed_from_u64(1);
        let ds = blob_dataset(&mut rng);
        let fed = partition_dataset(&ds, 6, Partition::Iid, &mut rng);
        let out = kfed(&fed, &KFedConfig::new(3, 3)).unwrap();
        let acc = clustering_accuracy(&fed.global_truth(), &out.predictions);
        assert!(acc > 90.0, "accuracy {acc}");
    }

    #[test]
    fn heterogeneity_helps_kfed() {
        // Dennis et al.'s headline: with L' < L local clustering is easier.
        let mut rng = StdRng::seed_from_u64(2);
        let ds = blob_dataset(&mut rng);
        let fed = partition_dataset(&ds, 6, Partition::NonIid { l_prime: 1 }, &mut rng);
        let out = kfed(&fed, &KFedConfig::new(3, 1)).unwrap();
        let acc = clustering_accuracy(&fed.global_truth(), &out.predictions);
        assert!(acc > 90.0, "accuracy {acc}");
    }

    #[test]
    fn comm_stats_are_populated() {
        let mut rng = StdRng::seed_from_u64(3);
        let ds = blob_dataset(&mut rng);
        let fed = partition_dataset(&ds, 4, Partition::Iid, &mut rng);
        let out = kfed(&fed, &KFedConfig::new(3, 3)).unwrap();
        assert_eq!(out.comm.uplink_messages, 4);
        assert_eq!(out.comm.downlink_messages, 4);
        assert!(out.comm.uplink_bits > 0);
        assert!(out.comm.downlink_bits > 0);
    }

    #[test]
    fn pca_projection_shapes() {
        let data = Matrix::from_rows(&[
            &[1.0, 2.0, 3.0, 4.0],
            &[0.0, 1.0, 0.0, 1.0],
            &[5.0, 5.0, 5.0, 5.0],
        ])
        .unwrap();
        let proj = local_pca_project(&data, 2).unwrap();
        assert_eq!(proj.shape(), (2, 4));
        // The constant row carries no variance: projecting to 1 dim keeps
        // the spread of row 0.
        let p1 = local_pca_project(&data, 1).unwrap();
        let spread: f64 = p1.as_slice().iter().fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(spread > 1.0);
    }

    #[test]
    fn pca_variant_runs_end_to_end() {
        let mut rng = StdRng::seed_from_u64(4);
        let ds = blob_dataset(&mut rng);
        let fed = partition_dataset(&ds, 4, Partition::Iid, &mut rng);
        let mut cfg = KFedConfig::new(3, 3);
        cfg.pca_dim = Some(2);
        let out = kfed(&fed, &cfg).unwrap();
        assert_eq!(out.predictions.len(), fed.total_points);
        assert!(out.predictions.iter().all(|&l| l < 3));
    }

    #[test]
    fn deterministic_given_seed() {
        let mut rng = StdRng::seed_from_u64(5);
        let ds = blob_dataset(&mut rng);
        let fed = partition_dataset(&ds, 4, Partition::Iid, &mut rng);
        let a = kfed(&fed, &KFedConfig::new(3, 3)).unwrap();
        let b = kfed(&fed, &KFedConfig::new(3, 3)).unwrap();
        assert_eq!(a.predictions, b.predictions);
    }
}
