//! Observability of the wire layer, asserted end-to-end:
//!
//! * TCP loopback byte accounting — the global `transport.tcp.*` counters
//!   must agree with the wire-true `WireRunOutput` byte totals, i.e. the
//!   metrics are the same numbers the protocol itself reports.
//! * Trace coverage — a traced round must emit spans for all three Fed-SC
//!   phases plus a `wire.device_uplink` and a `wire.device_downlink` span
//!   per device, and the exported Chrome trace must pass the
//!   `xtask validate-trace` validator.
//! * Root coverage in a tree — the root of a two-tier round records the
//!   same three phase spans inside its `wire.server_round`.

use fedsc::demo::demo_fixture;
use fedsc::{run_hier_round, run_round, HierPolicy, HierTopology, RoundPolicy};
use fedsc_obs::metrics::snapshot;
use fedsc_transport::{InMemoryTransport, TcpTransport};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Serializes tests in this binary: the metrics registry and the trace
/// recorder are process-global, so deltas are only exact when one round
/// runs at a time.
fn guard() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn counter(name: &str) -> u64 {
    snapshot().counters.get(name).copied().unwrap_or(0)
}

#[test]
fn tcp_loopback_byte_counters_match_wire_true_accounting() {
    let _g = guard();
    let (fed, cfg) = demo_fixture(21, 5, 3);
    let before = (
        counter("transport.tcp.bytes_sent"),
        counter("transport.tcp.bytes_received"),
    );
    let out = run_round(
        &fed,
        &cfg,
        &TcpTransport::loopback(),
        &RoundPolicy::default(),
    )
    .expect("tcp loopback round");
    assert!(out.excluded.is_empty(), "clean run excluded devices");

    let sent = counter("transport.tcp.bytes_sent") - before.0;
    let received = counter("transport.tcp.bytes_received") - before.1;
    let wire_true = (out.uplink_bytes + out.downlink_bytes) as u64;
    // Loopback loses nothing: every byte one side put on the socket was
    // read by the other, and both equal the server-observed totals
    // (handshake and framing overhead included on both sides).
    assert_eq!(sent, received);
    assert_eq!(sent, wire_true);
}

#[test]
fn traced_round_covers_all_three_phases_and_every_device() {
    let _g = guard();
    let devices = 6usize;
    let (fed, cfg) = demo_fixture(9, devices, 3);
    let rounds_before = counter("wire.device_rounds");

    fedsc_obs::trace::install_ring(1 << 14);
    let out = run_round(&fed, &cfg, &InMemoryTransport, &RoundPolicy::default())
        .expect("in-memory round");
    let events = fedsc_obs::trace::uninstall();
    assert!(out.excluded.is_empty(), "clean run excluded devices");

    // Server-side phase spans: Phase 1 collection window, Phase 2 central
    // clustering, Phase 3 label broadcast.
    for phase in ["phase1.collect", "phase2.central", "phase3.broadcast"] {
        assert!(
            events.iter().any(|e| e.cat == "fedsc" && e.name == phase),
            "missing span {phase}; got {:?}",
            events.iter().map(|e| e.name).collect::<Vec<_>>()
        );
    }
    // One span per device for each half of the device role, and the
    // metrics counter agrees with the span count.
    for half in ["wire.device_uplink", "wire.device_downlink"] {
        let n = events
            .iter()
            .filter(|e| e.cat == "wire" && e.name == half)
            .count();
        assert_eq!(n, devices, "expected one {half} span per device");
    }
    assert_eq!(
        counter("wire.device_rounds") - rounds_before,
        devices as u64
    );
    // Per-device uplink/downlink spans inside the server round.
    for name in ["wire.uplink", "wire.downlink"] {
        let n = events
            .iter()
            .filter(|e| e.cat == "wire" && e.name == name)
            .count();
        assert_eq!(n, devices, "expected one {name} span per device");
    }

    // The exported trace must be loadable: well-formed Chrome trace_event
    // JSON with one entry per recorded span.
    let trace = fedsc_obs::export::chrome_trace_json(&events);
    let validated = fedsc_obs::export::validate_chrome_trace(&trace).expect("trace validates");
    assert_eq!(validated, events.len());
}

#[test]
fn traced_tree_root_records_all_three_phases() {
    let _g = guard();
    let (fed, cfg) = demo_fixture(7, 8, 3);
    let topology = HierTopology::new(8, vec![2]).expect("8→2→root tree");

    fedsc_obs::trace::install_ring(1 << 14);
    let out = run_hier_round(
        &fed,
        &cfg,
        &topology,
        &InMemoryTransport,
        &HierPolicy::default(),
    )
    .expect("traced two-tier round");
    let events = fedsc_obs::trace::uninstall();
    assert!(out.wire.excluded.is_empty(), "clean run excluded devices");

    // The root is the flat server: one `wire.server_round`, and each
    // phase span recorded directly inside it, as in the flat round.
    let roots: Vec<u64> = events
        .iter()
        .filter(|e| e.name == "wire.server_round")
        .map(|e| e.id)
        .collect();
    assert_eq!(roots.len(), 1, "expected one root span");
    for phase in ["phase1.collect", "phase2.central", "phase3.broadcast"] {
        assert!(
            events
                .iter()
                .any(|e| e.cat == "fedsc" && e.name == phase && e.parent == roots[0]),
            "root recorded no {phase} span; got {:?}",
            events.iter().map(|e| e.name).collect::<Vec<_>>()
        );
    }
    // Both aggregators ran their halves.
    for half in ["hier.agg_uplink", "hier.agg_downlink"] {
        let n = events.iter().filter(|e| e.name == half).count();
        assert_eq!(n, 2, "expected one {half} span per aggregator");
    }
}
