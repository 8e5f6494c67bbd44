//! # fedsc-obs — observability substrate for the Fed-SC workspace
//!
//! Structured tracing (hierarchical spans with static names and count
//! fields) plus a metrics registry of counters (time lives in
//! spans, counts in counters), with two exporters: Chrome `trace_event`
//! JSON (loadable in Perfetto / `chrome://tracing`) and a flat JSON
//! metrics snapshot.
//!
//! ## Design rules
//!
//! * **Wall-clock confinement.** This crate is the only place in the
//!   workspace (besides the transport deadline helper,
//!   `crates/transport/src/timing.rs`) allowed to read the monotonic
//!   clock. Everything else times itself through [`Stopwatch`] /
//!   [`now_ns`], enforced by `cargo xtask audit` rule 3.
//! * **Determinism is untouched.** Neither spans nor metrics feed back
//!   into any computation: no RNG, no data-dependent branching on time.
//!   A seeded run with tracing enabled is byte-identical to the same
//!   run with tracing disabled.
//! * **Zero cost when disabled.** [`span`] checks one relaxed atomic
//!   and returns an inert guard — no clock read, no allocation — when
//!   no recorder is installed (the default, "no-op recorder" state).
//! * **Lock-minimal recording.** The ring buffer has no global lock:
//!   a relaxed fetch-add claims a slot, and each slot has its own tiny
//!   mutex that is only ever contended when two threads land on the
//!   same slot modulo the capacity.
//!
//! ## Quick start
//!
//! ```
//! fedsc_obs::trace::install_ring(4096);
//! {
//!     let _span = fedsc_obs::span("fedsc", "local.affinity").field("device", 3);
//!     fedsc_obs::metrics::counter("demo.items").add(10);
//! }
//! let events = fedsc_obs::trace::uninstall();
//! let trace = fedsc_obs::export::chrome_trace_json(&events);
//! assert!(fedsc_obs::export::validate_chrome_trace(&trace).is_ok());
//! assert!(trace.contains("\"device\":3"));
//! let snap = fedsc_obs::metrics::snapshot();
//! assert_eq!(snap.counters.get("demo.items"), Some(&10));
//! ```

pub mod clock;
pub mod export;
pub mod fleet;
pub mod metrics;
pub mod trace;

pub use clock::{now_ns, Stopwatch};
pub use fleet::{Envelope, FleetCollector, FleetSpan, TraceContext};
pub use metrics::{LazyCounter, MetricsSnapshot};
pub use trace::{span, Span, SpanEvent};
