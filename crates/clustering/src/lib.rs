//! # fedsc-clustering
//!
//! Generic clustering algorithms and the paper's evaluation metrics.
//!
//! * [`kmeans`](mod@kmeans) — Lloyd's k-means with k-means++ / farthest-point seeding
//!   (spectral embedding step, k-FED local and server clustering).
//! * [`spectral`] — normalized spectral clustering (Ng–Jordan–Weiss) over
//!   a CSR affinity, with the eigengap cluster count: the one segmentation
//!   entry point of every tier and baseline.
//! * [`hungarian`] — exact linear assignment for label alignment.
//! * [`metrics`] — ACC (paper Eq. (10)), NMI (Eq. (11)), ARI.
//! * [`conn`] — the paper's CONN connectivity metric (per-cluster
//!   second-smallest normalized-Laplacian eigenvalue).

#![warn(missing_docs)]
// Indexed loops over matrix dimensions are the idiom in numerical kernels
// (parallel indexing of several buffers); iterator rewrites obscure them.
#![allow(clippy::needless_range_loop)]

pub mod conn;
pub mod hungarian;
pub mod kmeans;
pub mod metrics;
pub mod spectral;

pub use kmeans::{kmeans, KMeansInit, KMeansOptions, KMeansResult};
pub use metrics::{adjusted_rand_index, clustering_accuracy, normalized_mutual_information};
pub use spectral::{spectral_clustering, ClusterCountPolicy, SpectralOptions};
