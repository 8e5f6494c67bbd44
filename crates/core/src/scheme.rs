//! Algorithm 1: the full three-phase Fed-SC scheme.
//!
//! * **Phase 1** — every device runs [`crate::round::device_step`] in
//!   parallel: Algorithm 2, optional DP, then the channel (noise +
//!   quantization + cost accounting).
//! * **Phase 2** — the server pools `[Theta^(z)]_z` and clusters the
//!   samples into `L` groups ([`crate::round::merge_step`]).
//! * **Phase 3** — every device relabels its partitions
//!   ([`crate::round::relabel`]):
//!   `T-hat_l^(z) = { i : i in T_t^(z), tau_t^(z) = l }`.
//!
//! The wire round, the aggregation tree and the processes run the same
//! three steps over a transport; this module is the in-process loop.

use crate::config::FedScConfig;
use crate::local::LocalOutput;
use crate::round::{device_step, merge_step, relabel, MergeAt};
use fedsc_federated::channel::{account_downlink, CommStats};
use fedsc_federated::parallel::{time_phase, PhaseTiming};
use fedsc_federated::partition::FederatedDataset;
use fedsc_federated::privacy::PrivacyLedger;
use fedsc_graph::SparseAffinity;
use fedsc_linalg::par::par_map_timed;
use fedsc_linalg::{Matrix, Result};
use std::time::Duration;

/// Everything a Fed-SC run produces.
#[derive(Debug, Clone)]
pub struct FedScOutput {
    /// Predicted global cluster per point, in global-point order.
    pub predictions: Vec<usize>,
    /// Predicted labels per device (local order).
    pub per_device: Vec<Vec<usize>>,
    /// Communication cost of the one-shot round.
    pub comm: CommStats,
    /// Device-phase timing (sequential = `sum_z T^(z)`, parallel = max).
    pub local_timing: PhaseTiming,
    /// Server wall time `T_c`.
    pub server_time: Duration,
    /// `r^(z)` per device.
    pub local_cluster_counts: Vec<usize>,
    /// Pooled samples `Theta` (as received by the server).
    pub samples: Matrix,
    /// Device index of each pooled sample.
    pub sample_device: Vec<usize>,
    /// Global assignment `tau` of each pooled sample.
    pub sample_assignment: Vec<usize>,
    /// The CSR affinity the server segmented the pooled samples on, moved
    /// out of Phase 2 (no dense copy is made).
    pub central_graph: SparseAffinity,
    /// For every global point, the pooled-sample index representing its
    /// local cluster (`usize::MAX` for the rare cluster that produced no
    /// sample).
    pub point_sample: Vec<usize>,
    /// For every global point, its `(device, local cluster)` identity.
    pub point_cluster: Vec<(usize, usize)>,
    /// Differential-privacy ledger (empty default when DP is disabled).
    pub privacy: PrivacyLedger,
}

impl FedScOutput {
    /// The paper's running-time metric `T = sum_z T^(z) + T_c`.
    pub fn sequential_time(&self) -> Duration {
        self.local_timing.sequential + self.server_time
    }

    /// Parallel wall-clock `max_z T^(z) + T_c`.
    pub fn parallel_time(&self) -> Duration {
        self.local_timing.parallel + self.server_time
    }

    /// Induces the global affinity graph on the original points that the
    /// sample-level graph implies: points in the same local cluster are
    /// fully connected (weight 1); points represented by different samples
    /// inherit the sample-to-sample affinity. This is the graph the paper's
    /// connectivity argument (Section IV-E) and CONN comparisons use.
    ///
    /// Built in CSR, with no `N x N` array. All points of a local cluster
    /// share one row pattern: the cluster's own points (weight 1) and the
    /// points of every cluster whose representative sample shares a stored
    /// edge of [`Self::central_graph`] with its own. That row is assembled
    /// once per cluster, one pair of clusters at a time, and sorted; every
    /// `(i, j)` is then emitted once, in row order.
    pub fn induced_global_affinity(&self) -> SparseAffinity {
        let n = self.point_sample.len();
        // Local-cluster groups, each in ascending point order.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| self.point_cluster[i]);
        let groups: Vec<&[usize]> = order
            .chunk_by(|&i, &j| self.point_cluster[i] == self.point_cluster[j])
            .collect();
        // The group of each point, and of each representative sample
        // (`usize::MAX`: none). A sample belongs to one local cluster, so it
        // represents at most one group.
        let mut group_of_point = vec![0; n];
        let mut group_of_sample = vec![usize::MAX; self.central_graph.len()];
        for (a, members) in groups.iter().enumerate() {
            for &i in members.iter() {
                group_of_point[i] = a;
            }
            if let Some(g) = group_of_sample.get_mut(self.point_sample[members[0]]) {
                *g = a;
            }
        }
        let rows: Vec<Vec<(usize, f64)>> = groups
            .iter()
            .map(|members| {
                let mut row: Vec<(usize, f64)> = members.iter().map(|&j| (j, 1.0)).collect();
                let s = self.point_sample[members[0]];
                if s != usize::MAX {
                    for (t, w) in self.central_graph.matrix().row(s) {
                        if let Some(other) = groups.get(group_of_sample[t]) {
                            row.extend(other.iter().map(|&j| (j, w)));
                        }
                    }
                }
                row.sort_by_key(|&(j, _)| j);
                row
            })
            .collect();
        let mut triplets = Vec::new();
        for (i, &a) in group_of_point.iter().enumerate() {
            triplets.extend(
                rows[a]
                    .iter()
                    .filter(|&&(j, _)| j != i)
                    .map(|&(j, w)| (i, j, w)),
            );
        }
        SparseAffinity::from_triplets(n, &triplets)
    }
}

/// The Fed-SC scheme.
#[derive(Debug, Clone)]
pub struct FedSc {
    /// Configuration.
    pub config: FedScConfig,
}

impl FedSc {
    /// Creates the scheme with the given configuration.
    pub fn new(config: FedScConfig) -> Self {
        Self { config }
    }

    /// Runs Algorithm 1 over a partitioned dataset.
    pub fn run(&self, fed: &FederatedDataset) -> Result<FedScOutput> {
        let cfg = &self.config;
        let z_count = fed.devices.len();
        let _run_span = fedsc_obs::span("fedsc", "run").field("devices", z_count);

        // Phase 1: local clustering and sampling, in parallel. Each device
        // seeds its own RNG so results are independent of thread schedule.
        let phase1_span = fedsc_obs::span("fedsc", "phase1.local").field("devices", z_count);
        let steps = par_map_timed(z_count, cfg.threads, |z| {
            let _device_span = fedsc_obs::span("fedsc", "phase1.device").field("device", z);
            device_step(&fed.devices[z].data, z, cfg)
        });
        drop(phase1_span);
        let local_timing = PhaseTiming::from_durations(steps.iter().map(|(_, d)| *d));

        let mut comm = CommStats::default();
        let mut privacy = PrivacyLedger::default();
        let mut locals: Vec<LocalOutput> = Vec::with_capacity(z_count);
        let mut uplinks: Vec<Option<Matrix>> = Vec::with_capacity(z_count);
        for (step, _) in steps {
            let step = step?;
            comm.merge(&step.comm);
            let ledger = step.privacy;
            privacy.max_device_epsilon = privacy.max_device_epsilon.max(ledger.max_device_epsilon);
            privacy.max_device_delta = privacy.max_device_delta.max(ledger.max_device_delta);
            privacy.devices += ledger.devices;
            locals.push(step.local);
            uplinks.push(Some(step.uplink));
        }

        // Phase 2: central clustering.
        let pooled: usize = uplinks.iter().flatten().map(Matrix::cols).sum();
        let (merged, server_time) = time_phase(|| {
            let _span = fedsc_obs::span("fedsc", "phase2.central").field("samples", pooled);
            merge_step(uplinks, cfg, MergeAt::Root)
        });
        let (merge, samples, central_graph) = merged?;

        // Phase 3: local update. Each point also records the first sample
        // representing its local cluster (`usize::MAX` if it produced none).
        let phase3_span = fedsc_obs::span("fedsc", "phase3.update").field("devices", z_count);
        let mut per_device: Vec<Vec<usize>> = Vec::with_capacity(z_count);
        let mut point_sample = vec![usize::MAX; fed.total_points];
        let mut point_cluster = vec![(0usize, 0usize); fed.total_points];
        let mut sample_device = Vec::with_capacity(samples.cols());
        for ((z, down), out) in merge.downlinks().into_iter().zip(&locals) {
            let base = sample_device.len();
            let mut first = vec![usize::MAX; out.num_local_clusters.max(1)];
            // Walking backwards leaves each cluster's first sample.
            for (s, &t) in out.sample_cluster.iter().enumerate().rev() {
                first[t] = base + s;
            }
            for (i, &t) in out.local_labels.iter().enumerate() {
                let g = fed.global_index[z][i];
                point_sample[g] = first[t];
                point_cluster[g] = (z, t);
            }
            sample_device.extend(std::iter::repeat_n(z, out.sample_cluster.len()));
            account_downlink(&mut comm, out.sample_cluster.len(), cfg.num_clusters);
            per_device.push(relabel(out, &down.assignments, cfg.num_clusters)?);
        }
        let predictions = fed.scatter_predictions(&per_device);
        drop(phase3_span);

        Ok(FedScOutput {
            predictions,
            per_device,
            comm,
            local_timing,
            server_time,
            local_cluster_counts: locals.iter().map(|o| o.num_local_clusters).collect(),
            samples,
            sample_device,
            sample_assignment: merge.assignments,
            central_graph,
            point_sample,
            point_cluster,
            privacy,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CentralBackend, FedScConfig};
    use fedsc_clustering::clustering_accuracy;
    use fedsc_federated::partition::{partition_dataset, Partition};
    use fedsc_subspace::SubspaceModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run_synthetic(
        central: CentralBackend,
        l: usize,
        l_prime: usize,
        devices: usize,
        per_cluster: usize,
        seed: u64,
    ) -> (FedScOutput, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let model = SubspaceModel::random(&mut rng, 20, 3, l);
        let ds = model.sample_dataset(&mut rng, &vec![per_cluster; l], 0.0);
        let fed = partition_dataset(&ds, devices, Partition::NonIid { l_prime }, &mut rng);
        let scheme = FedSc::new(FedScConfig::new(l, central));
        let out = scheme.run(&fed).unwrap();
        let truth = fed.global_truth();
        (out, truth)
    }

    #[test]
    fn fed_sc_ssc_clusters_heterogeneous_network() {
        let (out, truth) = run_synthetic(CentralBackend::Ssc, 4, 2, 20, 60, 1);
        let acc = clustering_accuracy(&truth, &out.predictions);
        assert!(acc > 90.0, "accuracy {acc}");
    }

    #[test]
    fn fed_sc_tsc_clusters_heterogeneous_network() {
        let (out, truth) = run_synthetic(CentralBackend::Tsc { q: None }, 4, 2, 24, 72, 2);
        let acc = clustering_accuracy(&truth, &out.predictions);
        assert!(acc > 85.0, "accuracy {acc}");
    }

    #[test]
    fn one_shot_communication_accounting() {
        let (out, _) = run_synthetic(CentralBackend::Ssc, 3, 2, 6, 30, 3);
        // One uplink and one downlink message per device: one-shot.
        assert_eq!(out.comm.uplink_messages, 6);
        assert_eq!(out.comm.downlink_messages, 6);
        // Uplink bits match the Section IV-E formula n * q * sum r^(z),
        // where the sample count actually sent can be below r^(z) when a
        // spectral cluster came back empty.
        let total_samples = out.samples.cols() as u64;
        assert_eq!(out.comm.uplink_bits, 20 * 64 * total_samples);
    }

    #[test]
    fn sample_bookkeeping_is_consistent() {
        let (out, _) = run_synthetic(CentralBackend::Ssc, 3, 2, 6, 30, 4);
        assert_eq!(out.samples.cols(), out.sample_device.len());
        assert_eq!(out.samples.cols(), out.sample_assignment.len());
        // Devices appear in nondecreasing order in the pooled matrix.
        assert!(out.sample_device.windows(2).all(|w| w[0] <= w[1]));
        // Every point's representative sample belongs to its own device.
        for (g, &s) in out.point_sample.iter().enumerate() {
            if s != usize::MAX {
                assert_eq!(out.sample_device[s], out.point_cluster[g].0);
            }
        }
    }

    #[test]
    fn predictions_are_constant_within_local_clusters() {
        // Phase 3 relabels whole partitions: two points of the same local
        // cluster must share a global label.
        let (out, _) = run_synthetic(CentralBackend::Ssc, 3, 2, 6, 24, 5);
        let n = out.predictions.len();
        for i in 0..n {
            for j in 0..n {
                if out.point_cluster[i] == out.point_cluster[j] {
                    assert_eq!(out.predictions[i], out.predictions[j]);
                }
            }
        }
    }

    #[test]
    fn induced_graph_connects_local_clusters() {
        let (out, truth) = run_synthetic(CentralBackend::Ssc, 3, 2, 6, 30, 6);
        let g = out.induced_global_affinity();
        assert_eq!(g.len(), truth.len());
        // Same-cluster points are connected with weight 1.
        let (i, j) = {
            let mut found = (0, 0);
            'outer: for i in 0..truth.len() {
                for j in 0..i {
                    if out.point_cluster[i] == out.point_cluster[j] {
                        found = (i, j);
                        break 'outer;
                    }
                }
            }
            found
        };
        assert_eq!(g.weight(i, j), 1.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let (a, _) = run_synthetic(CentralBackend::Ssc, 3, 2, 6, 24, 7);
        let (b, _) = run_synthetic(CentralBackend::Ssc, 3, 2, 6, 24, 7);
        assert_eq!(a.predictions, b.predictions);
        assert_eq!(a.comm, b.comm);
    }

    #[test]
    fn noise_robustness_small_delta() {
        let mut rng = StdRng::seed_from_u64(8);
        let model = SubspaceModel::random(&mut rng, 20, 3, 3);
        let ds = model.sample_dataset(&mut rng, &[80, 80, 80], 0.0);
        let fed = partition_dataset(&ds, 16, Partition::NonIid { l_prime: 2 }, &mut rng);
        let mut cfg = FedScConfig::new(3, CentralBackend::Ssc);
        cfg.channel.noise_delta = 0.01;
        let out = FedSc::new(cfg).run(&fed).unwrap();
        let acc = clustering_accuracy(&fed.global_truth(), &out.predictions);
        assert!(acc > 85.0, "accuracy under small noise {acc}");
    }

    #[test]
    fn dp_uplink_populates_ledger_and_costs_accuracy() {
        let mut rng = StdRng::seed_from_u64(31);
        let model = SubspaceModel::random(&mut rng, 20, 3, 3);
        let ds = model.sample_dataset(&mut rng, &[60, 60, 60], 0.0);
        let fed = partition_dataset(&ds, 12, Partition::NonIid { l_prime: 2 }, &mut rng);
        let truth = fed.global_truth();
        let clean = {
            let cfg = FedScConfig::new(3, CentralBackend::Ssc);
            let out = FedSc::new(cfg).run(&fed).unwrap();
            assert_eq!(out.privacy.devices, 0); // DP off: empty ledger
            clustering_accuracy(&truth, &out.predictions)
        };
        let private = {
            let mut cfg = FedScConfig::new(3, CentralBackend::Ssc);
            cfg.dp = Some(fedsc_federated::privacy::DpConfig::new(2.0, 1e-5));
            let out = FedSc::new(cfg).run(&fed).unwrap();
            assert_eq!(out.privacy.devices, 12);
            assert!(out.privacy.max_device_epsilon >= 2.0);
            clustering_accuracy(&truth, &out.predictions)
        };
        // Strong privacy (eps = 2 per sample, sigma ~ 4.8 on unit vectors)
        // must cost accuracy.
        assert!(private < clean, "private {private} vs clean {clean}");
    }

    #[test]
    fn timing_fields_are_populated() {
        let (out, _) = run_synthetic(CentralBackend::Ssc, 3, 2, 6, 24, 9);
        assert!(out.sequential_time() >= out.local_timing.sequential);
        assert!(out.parallel_time() <= out.sequential_time() + out.server_time);
        assert_eq!(out.local_cluster_counts.len(), 6);
    }
}
