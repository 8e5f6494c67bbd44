//! Observability of the wire layer, asserted end-to-end:
//!
//! * TCP loopback byte accounting — the global `transport.tcp.*` counters
//!   must agree with the wire-true `WireRunOutput` byte totals, i.e. the
//!   metrics are the same numbers the protocol itself reports.
//! * Tree round counters — each round event is counted once, by the role
//!   that did the work, under one name.
//! * Trace coverage — a traced round must emit spans for all three Fed-SC
//!   phases plus a `wire.device_uplink` and a `wire.device_downlink` span
//!   per device, and the exported Chrome trace must pass the
//!   `xtask validate-trace` validator.
//! * Root coverage in a tree — the root of a two-tier round records the
//!   same three phase spans inside its `wire.server_round`.
//! * Parent links — every receiver's `wire.uplink` span records the
//!   sender's lane and the span id its trace context carried.

use fedsc::cli::lane;
use fedsc::demo::demo_fixture;
use fedsc::{run_hier_round, run_round, HierTopology, RoundPolicy};
use fedsc_obs::metrics::snapshot;
use fedsc_transport::{InMemoryTransport, TcpTransport};
use std::collections::BTreeSet;
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
    assert!(out.excluded().is_empty(), "clean run excluded devices");

    let sent = counter("transport.tcp.bytes_sent") - before.0;
    let received = counter("transport.tcp.bytes_received") - before.1;
    let wire_true = (out.tiers[0].uplink_bytes + out.tiers[0].downlink_bytes) as u64;
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
    assert!(out.excluded().is_empty(), "clean run excluded devices");

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
        &RoundPolicy::default(),
        &[],
    )
    .expect("traced two-tier round");
    let events = fedsc_obs::trace::uninstall();
    assert!(out.excluded().is_empty(), "clean run excluded devices");

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

#[test]
fn uplink_spans_link_to_the_senders_shipped_span() {
    let _g = guard();
    let (fed, cfg) = demo_fixture(7, 8, 3);
    let topology = HierTopology::new(8, vec![2]).expect("8→2→root tree");

    fedsc_obs::trace::install_ring(1 << 14);
    let out = run_hier_round(
        &fed,
        &cfg,
        &topology,
        &InMemoryTransport,
        &RoundPolicy::default(),
        &[],
    )
    .expect("traced two-tier round");
    let events = fedsc_obs::trace::uninstall();
    assert!(out.excluded().is_empty(), "clean run excluded devices");

    // A device's context carries its `wire.local_output` span, an
    // aggregator's its `hier.agg_uplink` span; in process every sender is
    // in the root's lane.
    let shipped: BTreeSet<u64> = events
        .iter()
        .filter(|e| e.name == "wire.local_output" || e.name == "hier.agg_uplink")
        .map(|e| e.id)
        .collect();
    let links: Vec<(u64, u64)> = events
        .iter()
        .filter(|e| e.name == "wire.uplink")
        .map(|e| (e.parent_pid, e.parent))
        .collect();
    assert_eq!(links.len(), 8 + 2, "one uplink per device and aggregator");
    assert!(
        links.iter().all(|&(pid, _)| pid == lane::ROOT),
        "uplink parents outside the root's lane: {links:?}"
    );
    let parents: BTreeSet<u64> = links.iter().map(|&(_, id)| id).collect();
    assert_eq!(parents, shipped, "each uplink links to its sender's span");
}

#[test]
fn tree_round_counts_each_event_once() {
    let _g = guard();
    let (fed, cfg) = demo_fixture(7, 8, 3);
    let topology = HierTopology::new(8, vec![2]).expect("8→2→root tree");
    let names = [
        "wire.device_rounds",
        "hier.agg_rounds",
        "wire.server_rounds",
        "hier.subtrees_failed",
    ];
    let before = names.map(counter);
    let out = run_hier_round(
        &fed,
        &cfg,
        &topology,
        &InMemoryTransport,
        &RoundPolicy::default(),
        &[],
    )
    .expect("two-tier round");
    assert!(out.excluded().is_empty(), "clean run excluded devices");
    let moved: Vec<u64> = names
        .iter()
        .zip(before)
        .map(|(name, b)| counter(name) - b)
        .collect();
    // 8 devices, 2 aggregators, 1 root, no failed subtree.
    assert_eq!(moved, vec![8, 2, 1, 0], "deltas of {names:?}");
    // The driver keeps no counters of its own: the tree-only names for
    // device and root rounds, stragglers and bytes are never registered.
    let counters = snapshot().counters;
    for retired in [
        "hier.device_rounds",
        "hier.root_rounds",
        "hier.stragglers_excluded",
        "hier.uplink_bytes",
        "hier.downlink_bytes",
    ] {
        assert!(!counters.contains_key(retired), "{retired} registered");
    }
}
