//! # fedsc-bench
//!
//! Shared harness behind the per-figure/per-table binaries (`fig4`..`fig7`,
//! `table3`, `table4`), the `ablation` and `privacy` harnesses and the
//! kernel-timing bins (`perf`, `cutover`).
//!
//! Every binary prints the same rows/series the paper reports. Absolute
//! numbers differ from the paper's (different hardware, scaled-down sizes);
//! the *shapes* — who wins, by what rough factor, where crossovers fall —
//! are the reproduction target, and `EXPERIMENTS.md` records both sides.
//!
//! Scale is controlled by the `FEDSC_SCALE` environment variable:
//! `quick` (default) finishes each harness in roughly a minute;
//! `full` approaches the paper's grids (long-running).

#![warn(missing_docs)]

pub mod figures;
pub mod harness;
pub mod instances;
pub mod methods;

pub use harness::{scale, Scale};
pub use methods::MethodResult;
