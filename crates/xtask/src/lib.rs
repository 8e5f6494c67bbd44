//! Library surface of the `xtask` static-analysis driver, exposed so the
//! golden-file integration tests can exercise the engine without shelling
//! out to the binary.
//!
//! * [`lexer`] — the dependency-free Rust lexer / delimiter matcher.
//! * [`rules`] — the token-level rule engine (rules 1–9) behind `audit`.
//! * [`report`] — the diagnostic type and the SARIF 2.1.0 report writer
//!   for `--report-out`.

pub mod lexer;
pub mod report;
pub mod rules;
