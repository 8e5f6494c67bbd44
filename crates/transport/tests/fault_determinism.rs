//! Determinism of seeded fault injection: the same seed and fault plan
//! must produce a **byte-identical transcript** of link events, run after
//! run, whether the endpoints are driven sequentially or from one thread
//! per device. This is the property that makes fault-plan regressions
//! diffable and chaos tests reproducible.

use bytes::Bytes;
use fedsc_transport::{
    with_retry, DeviceTransport, FaultConfig, FaultyInMemoryTransport, ServerTransport, Transport,
};
use std::time::Duration;

const DEVICES: usize = 6;
const RETRIES: u32 = 40;

fn plan(seed: u64) -> FaultConfig {
    FaultConfig {
        seed,
        drop: 0.25,
        duplicate: 0.2,
        bit_flip: 0.15,
        truncate: 0.1,
        // Reorder holds a frame until the *next* send on the link; in this
        // one-shot workload each link sends once, so reorder would strand
        // a message. Its determinism is covered by the crate's unit tests.
        ..FaultConfig::default()
    }
}

fn payload(z: usize) -> Bytes {
    Bytes::from(vec![z as u8; 64 + z])
}

fn reply_byte(z: usize) -> u8 {
    0xF0 | (z as u8 & 0x0F)
}

/// One device's half of the exchange: upload with retries, await the
/// server's recognizable reply.
fn run_device<D: DeviceTransport>(z: usize, dev: &mut D) {
    let body = payload(z);
    with_retry(RETRIES, Duration::ZERO, || dev.send_uplink(&body))
        .expect("uplink within retry budget");
    let got = dev
        .recv_downlink(Duration::from_secs(10))
        .expect("downlink arrives");
    assert_eq!(got.as_slice()[0], reply_byte(z));
}

/// Collects every device's uplink (deduplicating duplicate deliveries),
/// then answers each with a recognizable byte, retrying dropped sends.
fn serve<S: ServerTransport>(server: &mut S) {
    let mut seen = [false; DEVICES];
    let mut remaining = DEVICES;
    while remaining > 0 {
        let (z, body) = server
            .recv_uplink(Duration::from_secs(10))
            .expect("uplink arrives");
        if seen[z] {
            continue;
        }
        assert_eq!(body.as_slice(), payload(z).as_slice());
        seen[z] = true;
        remaining -= 1;
    }
    for z in 0..DEVICES {
        let reply = Bytes::from(vec![reply_byte(z); 16]);
        with_retry(RETRIES, Duration::ZERO, || server.send_downlink(z, &reply))
            .expect("downlink within retry budget");
    }
}

/// Runs the full one-shot exchange (every device uploads with retries, the
/// server answers every device with retries) and returns the transcript.
/// `threaded` picks one-thread-per-device vs. fully sequential execution.
fn run_exchange(seed: u64, threaded: bool) -> String {
    let transport = FaultyInMemoryTransport::new(plan(seed));
    let (mut server, mut devices) = transport.open(DEVICES).expect("open");

    if threaded {
        std::thread::scope(|scope| {
            for (z, dev) in devices.iter_mut().enumerate() {
                scope.spawn(move || run_device(z, dev));
            }
            serve(&mut server);
        });
    } else {
        for (z, dev) in devices.iter_mut().enumerate() {
            let body = payload(z);
            with_retry(RETRIES, Duration::ZERO, || dev.send_uplink(&body))
                .expect("uplink within retry budget");
        }
        serve(&mut server);
        for (z, dev) in devices.iter_mut().enumerate() {
            let got = dev
                .recv_downlink(Duration::from_secs(10))
                .expect("downlink arrives");
            assert_eq!(got.as_slice()[0], reply_byte(z));
        }
    }
    drop(devices);
    drop(server);
    transport.transcript()
}

#[test]
fn same_seed_same_transcript_across_runs() {
    let a = run_exchange(1234, false);
    let b = run_exchange(1234, false);
    assert!(!a.is_empty());
    assert_eq!(a, b, "two sequential runs diverged");
}

#[test]
fn transcript_is_identical_across_thread_counts() {
    let sequential = run_exchange(1234, false);
    for _ in 0..3 {
        let threaded = run_exchange(1234, true);
        assert_eq!(
            sequential, threaded,
            "per-device threading changed the fault transcript"
        );
    }
}

#[test]
fn different_seeds_differ() {
    let a = run_exchange(1, false);
    let b = run_exchange(2, false);
    assert_ne!(a, b, "fault plans ignored the seed");
}

#[test]
fn transcript_mentions_each_fault_class() {
    // With 6 uplinks + 6 downlinks at these rates, every enabled fault
    // class fires with overwhelming probability at this fixed seed.
    let t = run_exchange(1234, false);
    for needle in ["drop", "deliver", "dup"] {
        assert!(t.contains(needle), "transcript lacks `{needle}`:\n{t}");
    }
}
