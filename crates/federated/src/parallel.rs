//! Phase timing for the per-device fan-out.
//!
//! Device-local clustering dominates every federated run and devices are
//! independent, so the simulator fans the per-device work out with
//! `fedsc_linalg::par::par_map_timed`, one scoped fan-out per phase.
//! [`PhaseTiming`] folds its per-item times into the sequential sum and
//! the *parallel* wall time the paper's scalability analysis quotes
//! (`max_z T^(z)` instead of `sum_z T^(z)`).
//!
//! Ownership rule (DESIGN.md §9): this device-level fan-out owns
//! `FedScConfig::threads`; the numerical kernels inside a device own
//! `FedScConfig::kernel_threads`; nothing nests beyond that product.

use fedsc_obs::Stopwatch;
use std::time::Duration;

/// Times one closure, returning its result and wall time. Together with
/// `fedsc_linalg::par::par_map_timed` this is the sanctioned way to
/// observe the clock in library code: the actual clock read lives in
/// `fedsc_obs` (`cargo xtask audit`, rule 3, confines `Instant`/`SystemTime`
/// to that crate).
pub fn time_phase<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let sw = Stopwatch::start();
    let r = f();
    (r, sw.elapsed())
}

/// Wall-time summary of a federated phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTiming {
    /// `sum_z T^(z)` — the paper's sequential client time.
    pub sequential: Duration,
    /// `max_z T^(z)` — the parallel client time.
    pub parallel: Duration,
}

impl PhaseTiming {
    /// Aggregates per-item durations.
    pub fn from_durations(durations: impl IntoIterator<Item = Duration>) -> Self {
        let mut seq = Duration::ZERO;
        let mut par = Duration::ZERO;
        for d in durations {
            seq += d;
            par = par.max(d);
        }
        Self {
            sequential: seq,
            parallel: par,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_aggregation() {
        let t = PhaseTiming::from_durations([
            Duration::from_millis(10),
            Duration::from_millis(30),
            Duration::from_millis(20),
        ]);
        assert_eq!(t.sequential, Duration::from_millis(60));
        assert_eq!(t.parallel, Duration::from_millis(30));
    }

    #[test]
    fn time_phase_returns_value_and_duration() {
        let (v, dt) = time_phase(|| {
            std::thread::sleep(Duration::from_millis(5));
            42
        });
        assert_eq!(v, 42);
        assert!(dt >= Duration::from_millis(5));
    }
}
