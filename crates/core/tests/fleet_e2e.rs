//! Real-process hierarchical fleet over TCP: one `fedsc-server` root, two
//! `fedsc-agg` mid-tier aggregators, eight `fedsc-device` leaves — eleven
//! OS processes on 127.0.0.1.
//!
//! The round runs twice, telemetry off and telemetry on, and the test
//! pins the observability hard invariant from both sides:
//!
//! * **Bitwise-identical output** — every device's predictions match
//!   between the two runs; attaching trace contexts, clock syncs, and
//!   in-band metric envelopes must not perturb the clustering. The
//!   aggregators relay, so both runs also match the in-process flat round
//!   `FedSc::run` on the same fixture.
//! * **Byte-exact accounting** — each parent's uplink total grows by
//!   exactly its reported `envelope_bytes`, and its downlink total by
//!   exactly the 16-byte timed-handshake ack surplus per child
//!   connection. Nothing else moves.
//! * **One merged trace at the root** — the fleet trace carries a `pid`
//!   lane per process, passes the cross-process causality validator
//!   (every remote parent resolves, no child starts before its parent
//!   after clock-offset correction), and the fleet metrics snapshot
//!   contains work the root never did itself (the devices' local SSC).

use fedsc::demo::demo_fixture;
use fedsc::FedSc;
use fedsc_clustering::clustering_accuracy;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

const SERVER_BIN: &str = env!("CARGO_BIN_EXE_fedsc-server");
const AGG_BIN: &str = env!("CARGO_BIN_EXE_fedsc-agg");
const DEVICE_BIN: &str = env!("CARGO_BIN_EXE_fedsc-device");

const SEED: u64 = 7;
const DEVICES: usize = 8;
const AGGS: usize = 2;
const FAN: usize = DEVICES / AGGS;
const CLUSTERS: usize = 3;
/// A timed handshake ack carries 16 more payload bytes than a plain one;
/// frame overhead is identical, so that is the whole downlink surplus a
/// parent pays per syncing child connection.
const TIMED_ACK_SURPLUS: u64 = 16;

/// One completed fleet round's observable surface.
struct FleetRun {
    /// Per-device predictions, indexed by device id.
    predictions: Vec<Vec<usize>>,
    root_uplink: u64,
    root_downlink: u64,
    root_envelope: u64,
    agg_uplink: Vec<u64>,
    agg_downlink: Vec<u64>,
    agg_envelope: Vec<u64>,
}

/// Spawns a listener binary and scrapes its `listening <addr>` banner.
fn spawn_listener(bin: &str, args: &[String]) -> (Child, String) {
    let mut child = Command::new(bin)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    let stdout = child.stdout.as_mut().expect("stdout piped");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read listening line");
    let addr = line
        .strip_prefix("listening ")
        .unwrap_or_else(|| panic!("unexpected banner from {bin}: {line:?}"))
        .trim()
        .to_string();
    (child, addr)
}

/// Waits for a child, asserts success, and returns its full stdout.
fn finish(child: Child, who: &str) -> String {
    let out = child.wait_with_output().expect("child exits");
    assert!(
        out.status.success(),
        "{who} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Extracts the number following `key` on any line of `summary`
/// (`uplink_bytes 2464 downlink_bytes 448` style).
fn field(summary: &str, key: &str) -> u64 {
    for line in summary.lines() {
        let mut it = line.split_whitespace();
        while let Some(tok) = it.next() {
            if tok == key {
                let v = it.next().unwrap_or_else(|| panic!("{key} has no value"));
                return v.parse().unwrap_or_else(|_| panic!("bad {key}: {v}"));
            }
        }
    }
    panic!("no {key} in summary:\n{summary}");
}

/// First counter value for `name` in a metrics JSON export.
fn counter_in(json: &str, name: &str) -> u64 {
    let key = format!("\"{name}\":");
    let pos = json
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing in metrics:\n{json}"));
    json[pos + key.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("counter value")
}

fn run_fleet(telemetry: bool, dir: &Path) -> FleetRun {
    let common = |extra: &mut Vec<String>| {
        extra.extend(["--seed".into(), SEED.to_string()]);
        if telemetry {
            extra.push("--telemetry".into());
        }
    };

    // Root sees the two aggregators as its fan-in of "devices".
    let mut root_args: Vec<String> = vec![
        "--devices".into(),
        AGGS.to_string(),
        "--clusters".into(),
        CLUSTERS.to_string(),
    ];
    common(&mut root_args);
    if telemetry {
        for (flag, file) in [
            ("--fleet-trace-out", "fleet-trace.json"),
            ("--fleet-metrics-out", "fleet-metrics.json"),
            ("--metrics-out", "root-metrics.json"),
        ] {
            root_args.push(flag.into());
            root_args.push(dir.join(file).to_str().expect("utf-8 path").into());
        }
    }
    let (root, root_addr) = spawn_listener(SERVER_BIN, &root_args);

    let aggs: Vec<(Child, String)> = (0..AGGS)
        .map(|p| {
            let mut args: Vec<String> = vec![
                "--addr".into(),
                root_addr.clone(),
                "--node".into(),
                p.to_string(),
                "--tier".into(),
                "0".into(),
                "--children".into(),
                FAN.to_string(),
            ];
            common(&mut args);
            spawn_listener(AGG_BIN, &args)
        })
        .collect();

    let devices: Vec<Child> = (0..DEVICES)
        .map(|z| {
            let p = z / FAN;
            let mut args: Vec<String> = vec![
                "--addr".into(),
                aggs[p].1.clone(),
                "--device".into(),
                z.to_string(),
                "--link-id".into(),
                (z % FAN).to_string(),
                "--parent".into(),
                p.to_string(),
                "--devices".into(),
                DEVICES.to_string(),
                "--clusters".into(),
                CLUSTERS.to_string(),
            ];
            common(&mut args);
            Command::new(DEVICE_BIN)
                .args(&args)
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawn fedsc-device")
        })
        .collect();

    let predictions: Vec<Vec<usize>> = devices
        .into_iter()
        .enumerate()
        .map(|(z, child)| {
            let stdout = finish(child, &format!("device {z}"));
            let line = stdout
                .lines()
                .find(|l| l.starts_with("device "))
                .unwrap_or_else(|| panic!("no predictions line in {stdout:?}"));
            let csv = line.rsplit(' ').next().expect("csv field");
            csv.split(',')
                .map(|t| t.parse().expect("prediction id"))
                .collect()
        })
        .collect();

    let mut agg_uplink = Vec::new();
    let mut agg_downlink = Vec::new();
    let mut agg_envelope = Vec::new();
    for (p, (child, _)) in aggs.into_iter().enumerate() {
        let summary = finish(child, &format!("agg {p}"));
        assert!(
            summary.contains(&format!("agg {p} forwarded ")),
            "agg {p} summary missing: {summary}"
        );
        agg_uplink.push(field(&summary, "uplink_bytes"));
        agg_downlink.push(field(&summary, "downlink_bytes"));
        agg_envelope.push(field(&summary, "envelope_bytes"));
    }

    let summary = finish(root, "root");
    assert!(
        summary.contains("excluded -"),
        "clean fleet run excluded children: {summary}"
    );
    FleetRun {
        predictions,
        root_uplink: field(&summary, "uplink_bytes"),
        root_downlink: field(&summary, "downlink_bytes"),
        root_envelope: field(&summary, "envelope_bytes"),
        agg_uplink,
        agg_downlink,
        agg_envelope,
    }
}

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fedsc-fleet-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn fleet_round_merges_telemetry_without_perturbing_the_clustering() {
    let dir = temp_dir();
    let off = run_fleet(false, &dir);
    let on = run_fleet(true, &dir);

    // ---- Bitwise identity: telemetry must not touch the labels. ----
    assert_eq!(
        on.predictions, off.predictions,
        "telemetry perturbed the clustering output"
    );
    // The aggregators relay, so the root clusters the flat round's pool:
    // the fleet predicts exactly what the in-process round does, and
    // recovers the planted subspaces.
    let (fed, cfg) = demo_fixture(SEED, DEVICES, CLUSTERS);
    let global = fed.scatter_predictions(&on.predictions);
    let flat = FedSc::new(cfg).run(&fed).expect("in-process flat round");
    assert_eq!(
        global, flat.predictions,
        "fleet differs from the flat round"
    );
    let acc = clustering_accuracy(&fed.global_truth(), &global);
    assert!(acc > 90.0, "fleet accuracy {acc}%");

    // ---- Byte-exact accounting at every tier. ----
    assert_eq!(off.root_envelope, 0, "untraced run absorbed envelopes");
    assert!(off.agg_envelope.iter().all(|&e| e == 0));
    assert!(on.root_envelope > 0, "root absorbed no telemetry");
    assert_eq!(
        on.root_uplink,
        off.root_uplink + on.root_envelope,
        "root uplink delta is not the declared envelope bytes"
    );
    assert_eq!(
        on.root_downlink,
        off.root_downlink + TIMED_ACK_SURPLUS * AGGS as u64,
        "root downlink delta is not the timed-ack surplus"
    );
    for p in 0..AGGS {
        assert!(on.agg_envelope[p] > 0, "agg {p} absorbed no telemetry");
        assert_eq!(
            on.agg_uplink[p],
            off.agg_uplink[p] + on.agg_envelope[p],
            "agg {p} uplink delta is not the declared envelope bytes"
        );
        assert_eq!(
            on.agg_downlink[p],
            off.agg_downlink[p] + TIMED_ACK_SURPLUS * FAN as u64,
            "agg {p} downlink delta is not the timed-ack surplus"
        );
    }

    // ---- One merged trace at the root, causally consistent. ----
    let trace = std::fs::read_to_string(dir.join("fleet-trace.json")).expect("fleet trace");
    let (events, edges) =
        fedsc_obs::export::validate_cross_process(&trace).expect("cross-process validation");
    // Every process contributed at least one span…
    assert!(events > DEVICES + AGGS, "implausibly small fleet trace");
    // …and every uplink produced a resolved remote parent edge: one per
    // device at its aggregator, one per aggregator at the root.
    assert!(
        edges >= DEVICES + AGGS,
        "expected at least {} causal edges, got {edges}",
        DEVICES + AGGS
    );
    for lane in ["root", "agg-0", "agg-1"] {
        assert!(
            trace.contains(&format!("\"name\":\"{lane}\"")),
            "no {lane} lane"
        );
    }
    for z in 0..DEVICES {
        assert!(
            trace.contains(&format!("\"name\":\"device-{z}\"")),
            "no device-{z} lane"
        );
    }
    // Spans shipped from the leaves and the mid-tier survive the merge.
    for span in ["wire.local_output", "hier.agg_uplink", "wire.uplink"] {
        assert!(
            trace.contains(&format!("\"name\":\"{span}\"")),
            "no {span} span"
        );
    }

    // ---- Fleet metrics aggregate work the root never did. ----
    let fleet_metrics =
        std::fs::read_to_string(dir.join("fleet-metrics.json")).expect("fleet metrics");
    let root_metrics =
        std::fs::read_to_string(dir.join("root-metrics.json")).expect("root metrics");
    // The devices' local SSC sweeps arrive in-band; the root's own SSC
    // runs only over the pooled samples, so the merged count must
    // strictly exceed the root-local one.
    let (fleet_sweeps, root_sweeps) = (
        counter_in(&fleet_metrics, "lasso.sweeps"),
        counter_in(&root_metrics, "lasso.sweeps"),
    );
    assert!(
        fleet_sweeps > root_sweeps,
        "fleet lasso.sweeps {fleet_sweeps} <= root-local {root_sweeps}"
    );
    // Same for wire traffic: only the subtree dials TCP uplinks toward
    // the aggregators, and those counters merge upward.
    assert!(
        counter_in(&fleet_metrics, "transport.tcp.bytes_sent")
            > counter_in(&root_metrics, "transport.tcp.bytes_sent")
    );
    let _ = std::fs::remove_dir_all(&dir);
}
