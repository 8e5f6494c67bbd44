//! # fedsc-federated
//!
//! The federated-network substrate Fed-SC runs in, plus the k-FED baseline.
//!
//! * [`partition`] — IID / Non-IID(L') data partitioners with global-index
//!   bookkeeping (the paper's statistical-heterogeneity knob).
//! * [`channel`] — wire encoding, quantization, communication noise
//!   (Fig. 7), and Section IV-E communication-cost accounting.
//! * [`parallel`] — phase timing ([`parallel::time_phase`],
//!   [`parallel::PhaseTiming`]): the sequential/parallel split of the
//!   scalability analysis.
//! * [`kfed`] — one-shot federated k-means (Dennis et al., ICML 2021) with
//!   the Table III PCA-10 / PCA-100 variants.
//! * [`privacy`] — Gaussian-mechanism differential privacy for the uplink
//!   (the paper's Remark 2 / Section VII future-work direction).

#![warn(missing_docs)]
// Indexed loops over matrix dimensions are the idiom in numerical kernels
// (parallel indexing of several buffers); iterator rewrites obscure them.
#![allow(clippy::needless_range_loop)]

pub mod channel;
pub mod kfed;
pub mod parallel;
pub mod partition;
pub mod privacy;

pub use channel::{ChannelConfig, CommStats};
pub use kfed::{kfed, KFedConfig, KFedOutput};
pub use partition::{partition_dataset, FederatedDataset, Partition};
