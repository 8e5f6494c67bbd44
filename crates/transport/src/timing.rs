//! Deadline and retry primitives.
//!
//! This is the transport crate's **only** module allowed to observe the
//! wall clock (`cargo xtask audit` pins `Instant::now` to this file), so
//! deadline arithmetic stays out of the protocol code: callers hold a
//! [`Deadline`] and ask it for the remaining budget.

use crate::error::Result;
use std::time::{Duration, Instant};

/// A fixed point in the future against which receive budgets are measured.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    end: Instant,
}

impl Deadline {
    /// A deadline `budget` from now.
    pub fn after(budget: Duration) -> Self {
        Deadline {
            end: Instant::now() + budget,
        }
    }

    /// Time left before the deadline (zero once passed).
    pub fn remaining(&self) -> Duration {
        self.end.saturating_duration_since(Instant::now())
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        self.remaining().is_zero()
    }
}

/// Runs `attempt` up to `1 + max_retries` times, sleeping an exponentially
/// growing backoff (`base`, `2*base`, `4*base`, … capped at one second)
/// between tries. Only [transient](crate::TransportError::is_transient)
/// errors are retried; terminal errors — and the last transient error once
/// the budget is exhausted — are returned as-is.
pub fn with_retry<T>(
    max_retries: u32,
    base: Duration,
    mut attempt: impl FnMut() -> Result<T>,
) -> Result<T> {
    let cap = Duration::from_secs(1);
    let mut backoff = base;
    let mut tries = 0;
    loop {
        match attempt() {
            Ok(v) => return Ok(v),
            Err(e) if e.is_transient() && tries < max_retries => {
                tries += 1;
                crate::metrics::RETRIES.inc();
                if !backoff.is_zero() {
                    std::thread::sleep(backoff.min(cap));
                }
                backoff = backoff.saturating_mul(2);
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::TransportError;

    #[test]
    fn deadline_counts_down() {
        let d = Deadline::after(Duration::from_millis(200));
        assert!(!d.expired());
        assert!(d.remaining() <= Duration::from_millis(200));
        let d = Deadline::after(Duration::ZERO);
        assert!(d.expired());
        assert_eq!(d.remaining(), Duration::ZERO);
    }

    #[test]
    fn retry_succeeds_within_budget() {
        let mut calls = 0;
        let out = with_retry(3, Duration::ZERO, || {
            calls += 1;
            if calls < 3 {
                Err(TransportError::Dropped)
            } else {
                Ok(calls)
            }
        });
        assert_eq!(out, Ok(3));
    }

    #[test]
    fn retry_budget_exhausts() {
        let mut calls = 0;
        let out: Result<()> = with_retry(2, Duration::ZERO, || {
            calls += 1;
            Err(TransportError::Dropped)
        });
        assert_eq!(out, Err(TransportError::Dropped));
        assert_eq!(calls, 3); // 1 attempt + 2 retries
    }

    #[test]
    fn terminal_errors_are_not_retried() {
        let mut calls = 0;
        let out: Result<()> = with_retry(5, Duration::ZERO, || {
            calls += 1;
            Err(TransportError::VersionMismatch { ours: 1, theirs: 2 })
        });
        assert!(out.is_err());
        assert_eq!(calls, 1);
    }
}
