//! Algebra of the fleet metric merge, and the end-to-end counter-sum
//! invariant under faults.
//!
//! The root's fleet-wide metrics export is only meaningful if the merge
//! is insensitive to *how* the tree combined its children: snapshots
//! must merge associatively and commutatively so any tier shape and any
//! arrival order produce the identical export. The property tests pin
//! that algebra; the fault-injection test pins the operational corollary
//! — after a lossy round, the root's fleet counters equal the exact sum
//! of the per-process snapshots that were actually delivered.

// Test code: a panic is a test failure, so unwrap is the idiom here.
#![allow(clippy::unwrap_used)]

use bytes::Bytes;
use fed_sc::cli::lane;
use fed_sc::obs::fleet::{Envelope, FleetCollector, TraceContext};
use fed_sc::obs::metrics::MetricsSnapshot;
use fedsc_transport::{
    DeviceTransport, FaultConfig, FaultyInMemoryTransport, ServerTransport, Transport,
};
use proptest::prelude::*;
use std::time::Duration;

/// Small shared name pool so independently generated snapshots collide on
/// some keys (the add path) and diverge on others (the insert path).
const NAMES: [&str; 4] = [
    "lasso.sweeps",
    "wire.uplink_bytes",
    "pool.tasks",
    "hier.agg_rounds",
];

/// Whole-registry snapshots with per-name presence masks, so merged key
/// sets genuinely differ between operands.
fn metrics_snapshot() -> impl Strategy<Value = MetricsSnapshot> {
    collection::vec((0u32..2, 0u64..1_000), NAMES.len()).prop_map(|cs| {
        let counters = cs
            .into_iter()
            .enumerate()
            .filter(|(_, (on, _))| *on == 1)
            .map(|(i, (_, v))| (NAMES[i].to_string(), v))
            .collect();
        MetricsSnapshot { counters }
    })
}

fn merged(a: &MetricsSnapshot, b: &MetricsSnapshot) -> MetricsSnapshot {
    let mut out = a.clone();
    out.merge(b);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Snapshot merge is associative and commutative: a tier merging
    /// (a ⊕ b) then c equals one merging a then (b ⊕ c), and sibling
    /// arrival order at an aggregator cannot change the sums.
    #[test]
    fn snapshot_merge_is_associative_and_commutative(
        a in metrics_snapshot(),
        b in metrics_snapshot(),
        c in metrics_snapshot(),
    ) {
        prop_assert_eq!(merged(&merged(&a, &b), &c), merged(&a, &merged(&b, &c)));
        prop_assert_eq!(merged(&a, &b), merged(&b, &a));
    }

    /// Merge-order determinism over a whole sibling set: folding the
    /// children forward, reversed, or interleaved odd/even — three shapes
    /// an aggregation tree can realize — yields the identical export.
    #[test]
    fn snapshot_merge_order_is_immaterial(
        snaps in collection::vec(metrics_snapshot(), 1usize..6),
    ) {
        let fold = |order: &[usize]| {
            let mut acc = MetricsSnapshot::default();
            for &i in order {
                acc.merge(&snaps[i]);
            }
            acc
        };
        let forward: Vec<usize> = (0..snaps.len()).collect();
        let reversed: Vec<usize> = forward.iter().rev().copied().collect();
        let interleaved: Vec<usize> = forward
            .iter()
            .filter(|i| *i % 2 == 0)
            .chain(forward.iter().filter(|i| *i % 2 == 1))
            .copied()
            .collect();
        let want = fold(&forward);
        prop_assert_eq!(&fold(&reversed), &want);
        prop_assert_eq!(&fold(&interleaved), &want);
    }

    /// The envelope codec round-trips metrics exactly — the merge algebra
    /// above survives the process boundary bit for bit.
    #[test]
    fn envelope_round_trips_metrics_exactly(snap in metrics_snapshot()) {
        let env = Envelope {
            ctx: None,
            metrics: Some(snap.clone()),
            spans: vec![],
        };
        let bytes = env.encode();
        let (decoded, used) = Envelope::strip(&bytes).unwrap();
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(decoded.unwrap().metrics.unwrap(), snap);
    }
}

/// Per-process snapshot for simulated device `z`: one shared counter
/// (the fleet merge must add it) and one per-device counter (the merge
/// must insert it).
fn device_snapshot(z: usize) -> MetricsSnapshot {
    let mut snap = MetricsSnapshot::default();
    snap.counters.insert("dev.work".to_string(), 100 + z as u64);
    snap.counters.insert(format!("dev.{z}.sends"), 1);
    snap
}

/// Seeded lossy round: 12 devices each ship their snapshot in a fleet
/// envelope over a drop-injecting link (single attempt, no retry). The
/// collector's fleet metrics must equal the merge of exactly the
/// delivered processes' snapshots — dropped telemetry vanishes cleanly,
/// delivered telemetry is counted exactly once.
#[test]
fn fleet_counters_equal_sum_of_delivered_processes() {
    const DEVICES: usize = 12;
    const INNER: [u8; 16] = [0xAB; 16];
    let transport = FaultyInMemoryTransport::new(FaultConfig {
        seed: 41,
        drop: 0.3,
        ..FaultConfig::default()
    });
    let (mut server, devices) = transport.open(DEVICES).unwrap();

    let mut delivered = vec![false; DEVICES];
    let mut snaps = Vec::with_capacity(DEVICES);
    for (z, mut dev) in devices.into_iter().enumerate() {
        let snap = device_snapshot(z);
        let env = Envelope {
            ctx: Some(TraceContext {
                pid: lane::device(z),
                parent_span: 0,
            }),
            metrics: Some(snap.clone()),
            spans: vec![],
        };
        delivered[z] = dev.send_uplink(&Bytes::from(env.wrap(&INNER))).is_ok();
        snaps.push(snap);
    }

    let mut fleet = FleetCollector::new();
    let mut received = vec![false; DEVICES];
    while let Ok((z, payload)) = server.recv_uplink(Duration::from_millis(200)) {
        assert!(
            !received[z],
            "device {z} delivered twice on a drop-only plan"
        );
        received[z] = true;
        let (env, env_bytes) = Envelope::strip(payload.as_slice()).unwrap();
        let env = env.unwrap();
        assert_eq!(
            &payload.as_slice()[env_bytes..],
            &INNER,
            "inner payload corrupted"
        );
        fleet.absorb(&env, env_bytes);
    }

    assert_eq!(
        received, delivered,
        "receipt set diverged from send outcomes"
    );
    let n = delivered.iter().filter(|&&d| d).count();
    assert!(
        n > 0 && n < DEVICES,
        "fault plan degenerated ({n}/{DEVICES} delivered); pick another seed"
    );

    let mut expect = MetricsSnapshot::default();
    for (z, snap) in snaps.iter().enumerate() {
        if delivered[z] {
            expect.merge(snap);
        }
    }
    assert_eq!(fleet.metrics, expect);
    // The per-process markers pin the delivered set: exactly the
    // delivered devices' private counters appear.
    for (z, &was_delivered) in delivered.iter().enumerate() {
        assert_eq!(
            fleet
                .metrics
                .counters
                .contains_key(&format!("dev.{z}.sends")),
            was_delivered,
            "device {z} marker counter"
        );
    }
}
