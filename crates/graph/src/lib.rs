//! # fedsc-graph
//!
//! Spectral-graph machinery for the Fed-SC reproduction.
//!
//! * [`affinity::AffinityGraph`] — dense symmetric non-negative affinity
//!   matrices with the SSC (`|C| + |C|^T`) constructor, formed only where a
//!   dense `eigh` runs on the graph.
//! * [`laplacian`] — normalized/unnormalized Laplacians, spectra, the
//!   paper's Eq. (3) eigengap cluster-count estimate, and algebraic
//!   connectivity for the CONN metric.
//! * [`sparse`] — CSR affinity graphs ([`sparse::SparseAffinity`]) with the
//!   SSC and TSC (k-NN similarity) constructors, subgraphs and connected
//!   components, and the CSR normalized Laplacian; the graph the pipeline
//!   builds and returns, bitwise the dense constructors' arithmetic.

#![warn(missing_docs)]
// Indexed loops over matrix dimensions are the idiom in numerical kernels
// (parallel indexing of several buffers); iterator rewrites obscure them.
#![allow(clippy::needless_range_loop)]

pub mod affinity;
pub mod laplacian;
pub mod sparse;

pub use affinity::AffinityGraph;
pub use sparse::SparseAffinity;
