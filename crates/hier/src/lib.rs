//! # fedsc-hier — multi-tier aggregation tree for the Fed-SC round
//!
//! The flat wire round (`fedsc::wire`) has every device talk to a single
//! server, so the root's uplink traffic and Phase-2 clustering both grow
//! with the device count `Z`. This crate runs the same one-shot protocol
//! over an **aggregation tree**: devices upload to first-tier aggregators,
//! each aggregator clusters its children's samples (Phase 2 on the
//! subtree, with the same `candidate_threshold` routing as the server)
//! and forwards **one representative sample per merged cluster** to its
//! parent, and the root clusters only the top tier's representatives.
//! Label broadcasts relay back down with composed relabel maps. Root-side
//! cost therefore grows with the *cluster* count, not the device count.
//!
//! The driver is **staged and single-threaded**: a bottom-up uplink sweep
//! (every node sends before its parent collects) followed by a top-down
//! downlink sweep. All three transports support this shape — the
//! in-memory links buffer unboundedly and TCP completes handshake and
//! uplink on its background endpoint threads — so the tree runs unchanged
//! over lossless, fault-injected, and real TCP links, with no thread
//! spawned by this crate.
//!
//! Guarantees:
//!
//! * **One code path.** Every node runs the flat round's three steps:
//!   devices [`fedsc::device_step`] and [`fedsc::relabel`]; the root and
//!   each aggregator [`fedsc::merge_step`] — the root into `L` clusters,
//!   an aggregator into an eigengap-estimated count of at most `L`, after
//!   which it forwards [`fedsc::Merge::representatives`] and relays
//!   [`fedsc::Merge::compose`]. The `fedsc-agg` process is the same
//!   aggregator over TCP.
//! * **Degenerate tree ≡ flat round.** [`HierTopology::flat`] (no
//!   aggregator tier) runs exactly the flat server's `merge_step`, and the
//!   root seeds its rng with [`fedsc::SERVER_RNG_SALT`], so its output is
//!   bit-identical to [`fedsc::run_over_wire`] (tested).
//! * **Byte-exact per-tier accounting.** [`HierRunOutput`] extends
//!   [`fedsc::WireRunOutput`] with one [`TierTraffic`] row per tier, summed
//!   from the same [`fedsc_transport::LinkStats`] the endpoints keep.
//! * **Per-tier straggler policy.** Each tier runs under its own
//!   [`fedsc::RoundPolicy`] ([`HierPolicy`]); an aggregator that misses
//!   quorum fails its *subtree* (children fall back to cluster 0, reported
//!   in `excluded`), while a root quorum miss fails the round — exactly
//!   the flat semantics at the root.

#![warn(missing_docs)]

pub mod output;
pub mod run;
pub mod topology;

pub use output::{HierRunOutput, TierTraffic};
pub use run::{run_hier_round, run_hier_round_with_dead};
pub use topology::{HierPolicy, HierTopology};
