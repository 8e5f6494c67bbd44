//! # fedsc — One-Shot Federated Subspace Clustering
//!
//! Reproduction of **Fed-SC** (Xie et al., ICDE 2023): cluster
//! high-dimensional data distributed over a federated device network,
//! according to the union of low-dimensional subspaces the data lies on,
//! with a *single* round of communication per device.
//!
//! ## The scheme (paper Algorithms 1 and 2)
//!
//! 1. **Local clustering + sampling** ([`local`]): each device runs SSC on
//!    its data, estimates its cluster count by the eigengap heuristic,
//!    segments with normalized spectral clustering, estimates each
//!    cluster's subspace basis with a truncated SVD, and uploads one
//!    uniform unit-sphere sample per cluster.
//! 2. **Central clustering** ([`central`]): the server pools the samples —
//!    which satisfy the semi-random model by construction — and clusters
//!    them with SSC or TSC into `L` global groups.
//! 3. **Local update** ([`round::relabel`]): devices relabel their
//!    partitions by their samples' global assignments.
//!
//! [`round`] holds the three steps. [`wire`] runs each role — device,
//! relaying aggregator, root — over a transport, once; the in-process
//! aggregation tree ([`tree`], whose flat topology is the flat wire round
//! and whose every topology predicts what the flat round predicts) and
//! the process binaries drive those roles, and [`FedSc::run`] loops over
//! the steps directly.
//!
//! ## Quick start
//!
//! ```
//! use fedsc::{CentralBackend, FedSc, FedScConfig};
//! use fedsc_federated::partition::{partition_dataset, Partition};
//! use fedsc_subspace::SubspaceModel;
//! use fedsc_clustering::clustering_accuracy;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(5);
//! // 3 random 3-dimensional subspaces in R^20, 30 points each.
//! let model = SubspaceModel::random(&mut rng, 20, 3, 3);
//! let data = model.sample_dataset(&mut rng, &[30, 30, 30], 0.0);
//! // Distribute over 6 devices, 2 clusters per device (heterogeneity).
//! let fed = partition_dataset(&data, 6, Partition::NonIid { l_prime: 2 }, &mut rng);
//! // One-shot Fed-SC with a central SSC.
//! let out = FedSc::new(FedScConfig::new(3, CentralBackend::Ssc)).run(&fed).unwrap();
//! let acc = clustering_accuracy(&fed.global_truth(), &out.predictions);
//! assert!(acc > 90.0);
//! ```

#![warn(missing_docs)]

pub mod assign;
pub mod central;
pub mod cli;
pub mod config;
pub mod demo;
pub mod local;
pub mod round;
pub mod scheme;
pub mod tree;
pub mod wire;

pub use assign::ClusterAssigner;
pub use config::{BasisDim, CentralBackend, ClusterCountPolicy, FedScConfig, LocalBackend};
pub use round::{device_step, merge_step, relabel, DeviceStep, Fanin, Merge, SERVER_RNG_SALT};
pub use scheme::{FedSc, FedScOutput};
pub use tree::{
    run_hier_round, run_hier_round_with_dead, HierPolicy, HierRunOutput, HierTopology, TierTraffic,
};
pub use wire::{
    aggregator_downlink, aggregator_uplink, device_downlink, device_round, device_uplink,
    run_over_wire, run_round, server_round, AggregatorNode, RoundPolicy, WireRunOutput,
    WireTelemetry,
};
