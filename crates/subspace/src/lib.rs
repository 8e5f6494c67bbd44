//! # fedsc-subspace
//!
//! The union-of-subspaces data model, the five centralized subspace-
//! clustering baselines from the paper's evaluation, and the Section V
//! theory quantities.
//!
//! * [`model`] — union-of-subspaces generator (paper Section VI-A).
//! * [`algo::SubspaceClusterer`] — shared affinity-graph + spectral
//!   interface.
//! * [`ssc`] — Sparse Subspace Clustering (Lasso, paper Eq. (2)).
//! * [`tsc`] — Thresholding-based SC (spherical q-NN), with the paper's `q`
//!   selection rules.
//! * [`sscomp`] — SSC by Orthogonal Matching Pursuit.
//! * [`ensc`] — Elastic-net SC with oracle active sets.
//! * [`nsn`] — greedy Nearest Subspace Neighbor.
//! * [`neighbors`] — deterministic total-order top-`k` selection shared by
//!   the neighborhood methods and the candidate pipeline.
//! * [`candidates`] — sketched candidate neighborhoods for screened SSC
//!   (selection stage; the restricted solves live in `fedsc-sparse`).
//! * [`theory`] — SEP / exact-clustering checkers, active sets,
//!   heterogeneity summaries, inradius and incoherence estimators, and the
//!   closed-form affinity bounds of Corollaries 1–2.

#![warn(missing_docs)]

pub mod algo;
pub mod candidates;
pub mod ensc;
pub mod model;
pub mod neighbors;
pub mod nsn;
pub mod ssc;
pub mod sscomp;
pub mod theory;
pub mod tsc;

pub use algo::SubspaceClusterer;
pub use candidates::CandidateOptions;
pub use ensc::Ensc;
pub use model::{LabeledData, SubspaceModel};
pub use nsn::Nsn;
pub use ssc::Ssc;
pub use sscomp::SscOmp;
pub use tsc::Tsc;
