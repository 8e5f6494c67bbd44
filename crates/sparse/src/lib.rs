//! # fedsc-sparse
//!
//! Sparse data structures and sparse-optimization solvers for the Fed-SC
//! reproduction.
//!
//! * [`vec::SparseVec`] — sparse self-expression codes.
//! * [`csr::CsrMatrix`] — compressed sparse row storage for affinity graphs.
//! * [`lasso`] — one LARS-Lasso homotopy path per problem with a
//!   coordinate-descent certificate for the SSC Lasso (paper Eq. (2)), plus
//!   the paper's `lambda` selection rule. It is the workspace's one sparse
//!   coder: EnSC's elastic net runs on it as a Lasso over the
//!   ridge-shifted Gram (`fedsc_subspace::ensc`).
//! * [`admm`] — ADMM Lasso backend (cross-check oracle / ablation).
//! * [`omp`] — Orthogonal Matching Pursuit for SSC-OMP.
//! * [`restricted`] — candidate-restricted SSC Lasso (the solver half of
//!   the sketched-candidate screening pipeline).

#![warn(missing_docs)]
// Indexed loops over matrix dimensions are the idiom in numerical kernels
// (parallel indexing of several buffers); iterator rewrites obscure them.
#![allow(clippy::needless_range_loop)]

pub mod admm;
pub mod csr;
pub mod lasso;
pub mod omp;
pub mod restricted;
pub mod vec;

pub use csr::CsrMatrix;
pub use vec::SparseVec;
