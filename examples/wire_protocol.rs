//! Wire-level Fed-SC: devices and the server exchanging encoded byte
//! messages over a transport — the deployment shape of Algorithm 1 —
//! checked against the in-process scheme for bit-identical output, then
//! replayed over a real TCP loopback and over a seeded faulty link.
//!
//! ```sh
//! cargo run --release --example wire_protocol
//! ```

use fedsc::wire::run_over_wire;
use fedsc::{run_round, CentralBackend, FedSc, FedScConfig, RoundPolicy};
use fedsc_clustering::clustering_accuracy;
use fedsc_data::synthetic::{generate, SyntheticConfig};
use fedsc_federated::partition::{partition_dataset, Partition};
use fedsc_transport::{FaultConfig, FaultyInMemoryTransport, TcpTransport};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn main() {
    let mut rng = StdRng::seed_from_u64(42);
    let l = 6;
    let ds = generate(&SyntheticConfig::paper(l, 96), &mut rng);
    let fed = partition_dataset(&ds.data, 24, Partition::NonIid { l_prime: 2 }, &mut rng);
    let truth = fed.global_truth();
    let cfg = FedScConfig::new(l, CentralBackend::Ssc);

    // The in-process orchestration...
    let in_process = FedSc::new(cfg.clone()).run(&fed).expect("in-process run");
    // ...and the same round as 24 devices and a server passing encoded
    // byte payloads over in-memory links.
    let wire = run_over_wire(&fed, &cfg).expect("wire run");

    println!(
        "in-process ACC = {:.2}%",
        clustering_accuracy(&truth, &in_process.predictions)
    );
    println!(
        "wire       ACC = {:.2}%",
        clustering_accuracy(&truth, &wire.predictions)
    );
    println!(
        "identical output: {}",
        in_process.predictions == wire.predictions
    );
    // The flat round has one link tier; its row is the root's accounting.
    let mem = &wire.tiers[0];
    println!(
        "bytes on the wire: {} up / {} down ({} devices, one round)",
        mem.uplink_bytes,
        mem.downlink_bytes,
        fed.devices.len()
    );
    let raw_bytes = 8 * ds.data.data.rows() * ds.data.len();
    println!(
        "vs shipping raw data: {} bytes ({}x saving)",
        raw_bytes,
        raw_bytes / mem.uplink_bytes.max(1)
    );

    // The same round over real TCP sockets on 127.0.0.1 — framed, CRC'd,
    // version-handshaked. Byte totals are wire-true (headers + handshake),
    // so they run strictly heavier than the payload-only channel counts.
    let policy = RoundPolicy::default();
    let tcp = run_round(&fed, &cfg, &TcpTransport::loopback(), &policy).expect("tcp round");
    let framed = &tcp.tiers[0];
    println!(
        "tcp loopback: identical output: {}, {} up / {} down (framing overhead {} B)",
        tcp.predictions == in_process.predictions,
        framed.uplink_bytes,
        framed.downlink_bytes,
        (framed.uplink_bytes + framed.downlink_bytes) - (mem.uplink_bytes + mem.downlink_bytes)
    );

    // A hostile link: seeded drops, duplicates, truncations and bit flips.
    // Sender-side retries (exponential backoff, transient errors only)
    // absorb every fault, and the output is still bit-identical — the
    // fault schedule is a pure function of the seed, so this printout is
    // reproducible run after run.
    let faults = FaultConfig {
        seed: 7,
        drop: 0.2,
        duplicate: 0.1,
        truncate: 0.1,
        bit_flip: 0.1,
        ..FaultConfig::default()
    };
    let lossy_policy = RoundPolicy {
        max_retries: 25,
        retry_backoff: Duration::from_millis(1),
        ..RoundPolicy::default()
    };
    let faulty = FaultyInMemoryTransport::new(faults);
    let lossy = run_round(&fed, &cfg, &faulty, &lossy_policy).expect("lossy round");
    let transcript = faulty.transcript();
    println!(
        "faulty link:  identical output: {}, {} link events ({} drops) absorbed by retries",
        lossy.predictions == in_process.predictions,
        transcript.lines().count(),
        transcript.lines().filter(|l| l.contains("drop")).count()
    );
}
