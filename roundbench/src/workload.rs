//! The benchmark's workloads: seeded inputs at the paper's experiment
//! configurations, and the Fed-SC configuration each one runs with.

use fedsc::{BasisDim, CentralBackend, ClusterCountPolicy, FedScConfig};
use fedsc_data::realworld::{self, SurrogateSpec};
use fedsc_data::synthetic::SyntheticConfig;
use fedsc_federated::partition::{partition_dataset, FederatedDataset, Partition};
use fedsc_subspace::SubspaceModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One benchmark input: a partitioned dataset, the configuration the round
/// runs with, and the accuracy below which the round counts as wrong.
pub struct Instance {
    pub fed: FederatedDataset,
    pub truth: Vec<usize>,
    pub cfg: FedScConfig,
    pub min_acc: f64,
}

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["fig6_z160", "fig5_z100", "table3_emnist"];

/// Builds draw number `draw` of the named workload from `seed`; `None` for
/// an unknown name. The same seed and draw always yield the same instance.
pub fn build(name: &str, seed: u64, draw: u64) -> Option<Instance> {
    let seed = mix(seed, draw.wrapping_mul(0x5851_f42d_4c95_7f2d));
    match name {
        // Figure 6 at the quick scale: L = 25 subspaces, L' = 3 per device.
        "fig6_z160" => Some(synthetic_round(seed, 25, 3, 160, 85.0)),
        // Figure 5 at L = 10, L'/L = 0.5: 50 points in 5 subspaces per
        // device, so the devices' SSC outweighs the server's in the
        // sequential time.
        "fig5_z100" => Some(synthetic_round(seed, 10, 5, 100, 85.0)),
        "table3_emnist" => Some(emnist_round(seed)),
        _ => None,
    }
}

/// Splits a user seed into independent streams per purpose.
fn mix(seed: u64, salt: u64) -> u64 {
    (seed ^ salt).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// The Section VI-A synthetic generator as `fig5`/`fig6` drive it: ten
/// points per (subspace, owning device) pair, non-IID partition with `L'`
/// subspaces per device, and the fixed `r^(z) = L'` count policy of
/// Remark 1.
///
/// The subspaces themselves are fixed per workload, like a dataset; the
/// seed draws the points, their partition and the devices' sampling. How
/// close the drawn subspaces happen to lie sets how long the Lasso grinds,
/// so a model drawn per seed would make the seed, not the program, the
/// largest source of variation between runs.
fn synthetic_round(seed: u64, l: usize, l_prime: usize, z: usize, min_acc: f64) -> Instance {
    let owners = (z * l_prime).div_ceil(l).max(1);
    let syn = SyntheticConfig::paper(l, 10 * owners);
    let mut model_rng = StdRng::seed_from_u64(0xf16 + (l * 1000 + z) as u64);
    let model = SubspaceModel::random(&mut model_rng, syn.ambient_dim, syn.subspace_dim, l);
    let mut rng = StdRng::seed_from_u64(mix(seed, 0xf16));
    let data = model.sample_dataset(&mut rng, &vec![syn.points_per_subspace; l], syn.noise_std);
    let fed = partition_dataset(&data, z, Partition::NonIid { l_prime }, &mut rng);
    let mut cfg = FedScConfig::new(l, CentralBackend::Ssc);
    cfg.cluster_count = ClusterCountPolicy::Fixed(l_prime);
    finish(fed, cfg, seed, min_acc)
}

/// Table III's EMNIST-like surrogate (coherent classes with a shared
/// component, imbalanced, noisy) with the paper's real-data settings:
/// `r^(z) = L' + 1` and rank-1 bases. As with the real dataset, the data
/// are fixed and the seed draws their partition over the devices. This is
/// the `table3` harness's quick scale (208 dimensions, 12 classes, Z = 40):
/// at a quarter of the paper's scale one round already takes over a
/// minute, nearly all of it the server's Lasso, and which partition a draw
/// lands on moves that time by a third, so a run must average many draws.
fn emnist_round(seed: u64) -> Instance {
    let spec = SurrogateSpec::emnist_like(0.06)
        .with_classes(12)
        .with_class_size(90);
    let ds = realworld::generate(&spec, &mut StdRng::seed_from_u64(0x7ab3));
    let mut rng = StdRng::seed_from_u64(mix(seed, 0x7ab3));
    let l_prime = 3;
    let fed = partition_dataset(&ds.data, 40, Partition::NonIid { l_prime }, &mut rng);
    let mut cfg = FedScConfig::new(spec.num_classes, CentralBackend::Ssc);
    cfg.cluster_count = ClusterCountPolicy::Fixed(l_prime + 1);
    cfg.basis_dim = BasisDim::Fixed(1);
    finish(fed, cfg, seed, 60.0)
}

/// One thread for the device fan-out and one inside each device, so every
/// `T_z` and `T_c` is measured without contention from the round itself.
fn finish(fed: FederatedDataset, mut cfg: FedScConfig, seed: u64, min_acc: f64) -> Instance {
    cfg.threads = 1;
    cfg.kernel_threads = 1;
    cfg.seed = mix(seed, 0xfed5c);
    Instance {
        truth: fed.global_truth(),
        fed,
        cfg,
        min_acc,
    }
}
