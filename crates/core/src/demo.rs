//! Seeded demo fixtures shared by the wire binaries and the loopback
//! end-to-end tests.
//!
//! The `fedsc-server` and `fedsc-device` binaries run as separate
//! processes, so they cannot share a dataset in memory — instead both
//! regenerate it from the same seed. This module is the single definition
//! of that regeneration, so a server and its devices (and the test
//! asserting bit-identity against [`crate::scheme::FedSc`]) can never
//! disagree about the data.

use crate::config::{CentralBackend, FedScConfig};
use fedsc_federated::partition::{partition_dataset, FederatedDataset, Partition};
use fedsc_subspace::SubspaceModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Points sampled per generated subspace cluster.
const POINTS_PER_CLUSTER: usize = 48;
/// Ambient dimension of the generated data.
const AMBIENT_DIM: usize = 20;
/// Dimension of each generated subspace.
const SUBSPACE_DIM: usize = 3;

/// Deterministically regenerates the demo federation: `clusters` random
/// 3-dimensional subspaces in `R^20`, 48 points each, split over
/// `devices` non-IID shards (2 clusters per device). The returned config
/// carries the same `seed`, so every phase of the round is pinned.
pub fn demo_fixture(seed: u64, devices: usize, clusters: usize) -> (FederatedDataset, FedScConfig) {
    let mut rng = StdRng::seed_from_u64(seed);
    let model = SubspaceModel::random(&mut rng, AMBIENT_DIM, SUBSPACE_DIM, clusters);
    let counts = vec![POINTS_PER_CLUSTER; clusters];
    let ds = model.sample_dataset(&mut rng, &counts, 0.0);
    let l_prime = clusters.clamp(1, 2);
    let fed = partition_dataset(&ds, devices, Partition::NonIid { l_prime }, &mut rng);
    let mut cfg = FedScConfig::new(clusters, CentralBackend::Ssc);
    cfg.seed = seed;
    (fed, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regeneration_is_deterministic() {
        let (a, cfg_a) = demo_fixture(11, 6, 3);
        let (b, cfg_b) = demo_fixture(11, 6, 3);
        assert_eq!(a.devices.len(), b.devices.len());
        assert_eq!(cfg_a.seed, cfg_b.seed);
        for (da, db) in a.devices.iter().zip(b.devices.iter()) {
            assert_eq!(da.data.as_slice(), db.data.as_slice());
            assert_eq!(da.labels, db.labels);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let (a, _) = demo_fixture(1, 6, 3);
        let (b, _) = demo_fixture(2, 6, 3);
        assert_ne!(a.devices[0].data.as_slice(), b.devices[0].data.as_slice());
    }
}
