//! # fedsc-graph
//!
//! Spectral-graph machinery for the Fed-SC reproduction.
//!
//! * [`sparse`] — CSR affinity graphs ([`sparse::SparseAffinity`]) with the
//!   SSC and TSC (k-NN similarity) constructors, subgraphs and connected
//!   components, and the CSR normalized Laplacian: the graph every tier
//!   builds, segments and returns, bitwise the dense constructors'
//!   arithmetic.
//! * [`laplacian`] — the dense normalized Laplacian, spectra, the paper's
//!   Eq. (3) eigengap cluster-count rules, and algebraic connectivity for
//!   the CONN metric.
//! * [`affinity::AffinityGraph`] — dense symmetric non-negative affinity
//!   matrices with the SSC (`|C| + |C|^T`) constructor: the oracle the CSR
//!   graph is pinned to, and the densified graph for callers that replay
//!   the spectral layers on it.

#![warn(missing_docs)]
// Indexed loops over matrix dimensions are the idiom in numerical kernels
// (parallel indexing of several buffers); iterator rewrites obscure them.
#![allow(clippy::needless_range_loop)]

pub mod affinity;
pub mod laplacian;
pub mod sparse;

pub use affinity::AffinityGraph;
pub use sparse::SparseAffinity;
