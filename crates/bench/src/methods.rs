//! Uniform runners for every method in the paper's evaluation: the two
//! Fed-SC variants, k-FED (plus PCA variants), and the five centralized SC
//! baselines — all returning the same metric bundle (ACC, NMI, CONN, time).

use fedsc::{CentralBackend, FedSc, FedScConfig};
use fedsc_clustering::conn::connectivity;
use fedsc_clustering::spectral::{spectral_clustering, ClusterCountPolicy};
use fedsc_clustering::{clustering_accuracy, normalized_mutual_information};
use fedsc_federated::kfed::{kfed, KFedConfig};
use fedsc_federated::partition::FederatedDataset;
use fedsc_obs::Stopwatch;
use fedsc_subspace::model::LabeledData;
use fedsc_subspace::SubspaceClusterer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// The metric bundle every experiment reports.
#[derive(Debug, Clone)]
pub struct MethodResult {
    /// Method name as the paper spells it.
    pub name: String,
    /// Clustering accuracy, percent.
    pub acc: f64,
    /// Normalized mutual information, percent.
    pub nmi: f64,
    /// CONN minimum (`c`); NaN when not computed.
    pub conn_min: f64,
    /// CONN mean (`c-bar`); NaN when not computed.
    pub conn_mean: f64,
    /// The paper's running time `T = sum_z T^(z) + T_c` (or total wall time
    /// for centralized methods).
    pub time: Duration,
}

impl MethodResult {
    /// Time in seconds.
    pub fn secs(&self) -> f64 {
        self.time.as_secs_f64()
    }
}

/// Runs Fed-SC with the paper's upper-bound cluster-count policy
/// `r^(z) = l_prime` (Remark 1's choice for complex data; also the reliable
/// choice when local graphs are too weakly separated for the eigengap
/// heuristic, as in the IID synthetic regime).
pub fn run_fed_sc_fixed(
    fed: &FederatedDataset,
    l: usize,
    l_prime: usize,
    backend: CentralBackend,
    seed: u64,
    compute_conn: bool,
) -> MethodResult {
    let mut cfg = FedScConfig::new(l, backend);
    cfg.cluster_count = fedsc::ClusterCountPolicy::Fixed(l_prime);
    cfg.seed = seed;
    run_fed_sc_with(fed, cfg, compute_conn)
}

/// Runs Fed-SC with a fully custom configuration.
///
/// `compute_conn` toggles the induced-graph CONN computation (it is
/// `O(N^2)` in the total point count, so the big sweeps skip it).
pub fn run_fed_sc_with(
    fed: &FederatedDataset,
    cfg: FedScConfig,
    compute_conn: bool,
) -> MethodResult {
    let name = match cfg.central {
        CentralBackend::Ssc => "Fed-SC (SSC)",
        CentralBackend::Tsc { .. } => "Fed-SC (TSC)",
    };
    let truth = fed.global_truth();
    let out = FedSc::new(cfg).run(fed).expect("Fed-SC run");
    let (conn_min, conn_mean) = if compute_conn {
        let g = out.induced_global_affinity();
        let c = connectivity(&g, &truth).expect("connectivity");
        (c.min, c.mean)
    } else {
        (f64::NAN, f64::NAN)
    };
    MethodResult {
        name: name.to_string(),
        acc: clustering_accuracy(&truth, &out.predictions),
        nmi: normalized_mutual_information(&truth, &out.predictions),
        conn_min,
        conn_mean,
        time: out.sequential_time(),
    }
}

/// Runs k-FED (optionally with local PCA) over a partitioned dataset.
/// `local_k` is the per-device cluster count `k'`.
pub fn run_kfed(
    fed: &FederatedDataset,
    l: usize,
    local_k: usize,
    pca_dim: Option<usize>,
    seed: u64,
) -> MethodResult {
    let mut cfg = KFedConfig::new(l, local_k);
    cfg.pca_dim = pca_dim;
    cfg.seed = seed;
    let truth = fed.global_truth();
    let sw = Stopwatch::start();
    let out = kfed(fed, &cfg).expect("k-FED run");
    let wall = sw.elapsed();
    let name = match pca_dim {
        None => "k-FED".to_string(),
        Some(p) => format!("k-FED + PCA-{p}"),
    };
    MethodResult {
        name,
        acc: clustering_accuracy(&truth, &out.predictions),
        nmi: normalized_mutual_information(&truth, &out.predictions),
        conn_min: f64::NAN, // the paper marks k-FED CONN as '-'
        conn_mean: f64::NAN,
        time: (out.local_timing.sequential + out.server_time).min(wall.max(Duration::ZERO)),
    }
}

/// Runs a centralized SC baseline on the pooled dataset.
pub fn run_centralized<A: SubspaceClusterer>(
    algo: &A,
    data: &LabeledData,
    l: usize,
    seed: u64,
    compute_conn: bool,
) -> MethodResult {
    let mut rng = StdRng::seed_from_u64(seed);
    let sw = Stopwatch::start();
    let graph = algo.sparse_affinity(&data.data).expect("affinity");
    let count = ClusterCountPolicy::Fixed(l);
    let (pred, _) = spectral_clustering(&graph, count, &mut rng).expect("spectral clustering");
    let time = sw.elapsed();
    let (conn_min, conn_mean) = if compute_conn {
        let c = connectivity(&graph, &data.labels).expect("connectivity");
        (c.min, c.mean)
    } else {
        (f64::NAN, f64::NAN)
    };
    MethodResult {
        name: algo.name().to_string(),
        acc: clustering_accuracy(&data.labels, &pred),
        nmi: normalized_mutual_information(&data.labels, &pred),
        conn_min,
        conn_mean,
        time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedsc_federated::partition::{partition_dataset, Partition};
    use fedsc_subspace::{Ssc, SubspaceModel};

    fn small_fed() -> (FederatedDataset, usize) {
        let mut rng = StdRng::seed_from_u64(1);
        let model = SubspaceModel::random(&mut rng, 20, 3, 3);
        let ds = model.sample_dataset(&mut rng, &[48, 48, 48], 0.0);
        let fed = partition_dataset(&ds, 12, Partition::NonIid { l_prime: 2 }, &mut rng);
        (fed, 3)
    }

    #[test]
    fn fed_sc_runner_produces_metrics() {
        let (fed, l) = small_fed();
        let mut cfg = FedScConfig::new(l, CentralBackend::Ssc);
        cfg.seed = 7;
        let r = run_fed_sc_with(&fed, cfg, true);
        assert!(r.acc > 80.0, "acc {}", r.acc);
        assert!(r.nmi > 60.0);
        assert!(r.conn_min.is_finite());
        assert!(r.secs() >= 0.0);
    }

    #[test]
    fn kfed_runner_reports_nan_conn() {
        let (fed, l) = small_fed();
        let r = run_kfed(&fed, l, 2, None, 7);
        assert!(r.conn_min.is_nan());
        assert!(r.acc >= 0.0 && r.acc <= 100.0);
    }

    #[test]
    fn centralized_runner_matches_direct_ssc() {
        let (fed, l) = small_fed();
        let pooled = fed.pooled();
        let r = run_centralized(&Ssc::default(), &pooled, l, 7, false);
        assert_eq!(r.name, "SSC");
        assert!(r.acc > 90.0, "acc {}", r.acc);
    }
}
