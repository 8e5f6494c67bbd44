//! Tracing must be a pure observer: a seeded `FedSc::run` with the ring
//! recorder installed must produce byte-identical results to the same run
//! under the default no-op recorder, at both 1 and 8 kernel threads. Any
//! divergence would mean a span or metric site leaked into the numerics.

#![allow(clippy::unwrap_used)]

use fed_sc::demo::demo_fixture;
use fed_sc::FedSc;
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// The trace recorder is process-global; serialize so one case's
/// `install_ring`/`uninstall` pair cannot interleave with another's.
fn guard() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Runs the seeded demo federation and returns everything an observer
/// could perturb: the global predictions, per-device labels, and the raw
/// pooled-sample matrix bytes.
fn run_case(
    seed: u64,
    kernel_threads: usize,
    traced: bool,
) -> (Vec<usize>, Vec<Vec<usize>>, Vec<u8>) {
    let (fed, mut cfg) = demo_fixture(seed, 6, 3);
    cfg.threads = kernel_threads.min(4);
    cfg.kernel_threads = kernel_threads;
    if traced {
        fed_sc::obs::trace::install_ring(1 << 14);
    }
    let out = FedSc::new(cfg).run(&fed).expect("fed-sc run");
    if traced {
        let events = fed_sc::obs::trace::uninstall();
        assert!(!events.is_empty(), "traced run recorded no spans");
    }
    let sample_bytes: Vec<u8> = out
        .samples
        .as_slice()
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    (out.predictions, out.per_device, sample_bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Byte-identity of traced vs. untraced runs across seeds and thread
    /// counts (the acceptance pins 1 and 8 kernel threads explicitly).
    #[test]
    fn traced_run_is_byte_identical_to_untraced(seed in 0u64..1000) {
        let _g = guard();
        for kernel_threads in [1usize, 8] {
            let plain = run_case(seed, kernel_threads, false);
            let traced = run_case(seed, kernel_threads, true);
            prop_assert_eq!(&plain.0, &traced.0, "predictions diverged at {} threads", kernel_threads);
            prop_assert_eq!(&plain.1, &traced.1, "per-device labels diverged at {} threads", kernel_threads);
            prop_assert_eq!(&plain.2, &traced.2, "pooled samples diverged at {} threads", kernel_threads);
        }
    }
}

/// The wire path must hold the same invariant plus exact byte
/// accounting: with the ring installed every uplink carries a ctx-only
/// telemetry envelope in-band, and the server's declared
/// `envelope_bytes` is exactly the uplink delta — so
/// `uplink_bytes - envelope_bytes` (and the downlink) are invariant
/// under tracing, and the clustering output is bitwise unchanged.
#[test]
fn traced_wire_round_is_identical_and_byte_exact() {
    let _g = guard();
    let (fed, cfg) = demo_fixture(42, 6, 3);
    let plain = fed_sc::run_over_wire(&fed, &cfg).expect("untraced wire round");
    fed_sc::obs::trace::install_ring(1 << 14);
    let traced = fed_sc::run_over_wire(&fed, &cfg);
    let events = fed_sc::obs::trace::uninstall();
    let traced = traced.expect("traced wire round");
    assert!(!events.is_empty(), "traced wire round recorded no spans");
    assert_eq!(plain.predictions, traced.predictions);
    assert_eq!(plain.excluded(), traced.excluded());
    // The flat round's one tier is the root's accounting.
    let (plain, traced) = (&plain.tiers[0], &traced.tiers[0]);
    assert_eq!(plain.envelope_bytes, 0, "untraced uplinks must ship bare");
    assert!(
        traced.envelope_bytes > 0,
        "traced uplinks carried no envelope"
    );
    assert_eq!(
        traced.uplink_bytes,
        plain.uplink_bytes + traced.envelope_bytes,
        "uplink delta must be exactly the declared envelope bytes"
    );
    assert_eq!(traced.downlink_bytes, plain.downlink_bytes);
}

/// Thread count itself must not change the answer either — the traced
/// 1-thread and traced 8-thread runs agree, so the recorder is invariant
/// to scheduling as well as to presence.
#[test]
fn traced_runs_agree_across_thread_counts() {
    let _g = guard();
    let a = run_case(42, 1, true);
    let b = run_case(42, 8, true);
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
}
