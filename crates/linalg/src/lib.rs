//! # fedsc-linalg
//!
//! Dense linear-algebra substrate for the Fed-SC reproduction.
//!
//! Subspace clustering leans on a handful of numerical kernels that general
//! Rust array crates don't provide out of the box — symmetric
//! eigendecomposition for spectral clustering and eigengap estimation, thin
//! and truncated SVD for subspace-basis extraction, principal angles for the
//! theory's affinity measure — so this crate implements them from scratch:
//!
//! * [`matrix::Matrix`] — column-major dense matrix (data sets are columns
//!   of points) with cache-blocked, optionally threaded product kernels.
//! * [`vector`] — slice-level kernels (dot, norms, axpy, soft-thresholding).
//! * [`par`] — the shared work-stealing pool every parallel loop in the
//!   workspace (kernels, per-column solver fan-outs, device fan-out) runs
//!   on.
//! * [`qr`] — Householder QR, least squares, rank-revealing orthonormal
//!   bases.
//! * [`eigh`] — dense symmetric eigendecomposition, ascending order, forming
//!   only the eigenvectors a caller asks for (Householder reduction, QL
//!   eigenvalues, inverse iteration).
//! * [`lanczos`] — the `SymOp` operator abstraction (single and blocked
//!   applies) and the dense-matrix Lanczos entry point.
//! * [`thick_restart`] — thick-restart block Lanczos, the production
//!   solver for the k smallest eigenpairs of large (sparse) symmetric
//!   operators: blocked operator applies, ω-recurrence selective
//!   reorthogonalization, kernel-aware seeding.
//! * [`svd`] — thin SVD via Gram eigendecomposition, one-sided Jacobi SVD,
//!   truncated SVD for the paper's basis estimates.
//! * [`solve`] — LU and Cholesky direct solvers.
//! * [`random`] — Gaussian/Stiefel sampling, including the paper's Eq. (5)
//!   uniform-on-subspace sampler.
//! * [`sketch`] — seeded Johnson–Lindenstrauss sign sketch for candidate
//!   pre-selection in the subquadratic SSC pipeline.
//! * [`angles`] — principal angles and the paper's Definition 5 subspace
//!   affinity.

#![warn(missing_docs)]
// Indexed loops over matrix dimensions are the idiom in numerical kernels
// (parallel indexing of several buffers); iterator rewrites obscure them.
#![allow(clippy::needless_range_loop)]

pub mod aligned;
pub mod angles;
pub mod eigh;
pub mod error;
pub mod lanczos;
pub mod matrix;
pub mod par;
pub mod qr;
pub mod random;
pub mod sketch;
pub mod solve;
pub mod svd;
pub mod thick_restart;
pub mod vector;

pub use error::{LinalgError, Result};
/// Span guard of `fedsc_obs::trace`, for dependents that time their own
/// layers without depending on `fedsc-obs` themselves (adding that
/// dependency would change the dependency lists `roundbench/Cargo.lock`
/// pins).
pub use fedsc_obs::span;
pub use matrix::Matrix;
