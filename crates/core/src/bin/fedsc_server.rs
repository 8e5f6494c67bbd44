//! Central-server endpoint for a real-process Fed-SC round over TCP.
//!
//! Binds a listener, prints `listening <addr>` (flushed, so a parent
//! process piping stdout can scrape the ephemeral port), collects uplinks
//! from `--devices` clients under the straggler policy, runs the central
//! clustering, answers each included device, and prints a summary:
//!
//! ```text
//! listening 127.0.0.1:40123
//! excluded 3
//! uplink_bytes 5664 downlink_bytes 1248
//! envelope_bytes 0
//! ```
//!
//! `excluded -` means every child was answered: none missed the deadline
//! and no downlink was lost (see `fedsc::wire`). Its `--devices` children
//! may be `fedsc-agg` processes instead, each forwarding its subtree's
//! device uplinks; the server then clusters the same pool, the flat
//! round's, and answers each aggregator with its subtree's labels. The
//! dataset/config fixture is regenerated from `--seed` (see
//! `fedsc::demo`), so the server and its `fedsc-device` peers agree on
//! every parameter without sharing state.
//!
//! Observability: `--trace-out <path>` records structured spans for the
//! round and writes them as Chrome `trace_event` JSON (load in Perfetto or
//! `chrome://tracing`); `--metrics-out <path>` writes the flat
//! `fedsc_obs` metrics snapshot (wire/transport counters) as JSON.
//!
//! Fleet telemetry: the server always absorbs the in-band envelopes its
//! children attach (`--telemetry` on `fedsc-device` / `fedsc-agg`).
//! `--fleet-trace-out <path>` writes ONE merged Chrome trace with a `pid`
//! lane per process (`fedsc::cli::lane`), this root's own spans in lane 1
//! included, all timestamps in this root's clock; `--fleet-metrics-out
//! <path>` writes the fleet-wide merged metrics snapshot. `envelope_bytes` in the summary is the exact uplink
//! payload overhead the telemetry added (always 0 when children ship
//! nothing).

use fedsc::cli::{self, lane, Flags};
use fedsc::demo::demo_fixture;
use fedsc::{server_round, RoundPolicy};
use fedsc_obs::FleetCollector;
use fedsc_transport::{ServerTransport, TcpOptions, TcpServer};
use std::io::Write;
use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    addr: SocketAddr,
    devices: usize,
    clusters: usize,
    seed: u64,
    quorum: Option<usize>,
    deadline_ms: u64,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    fleet_trace_out: Option<String>,
    fleet_metrics_out: Option<String>,
}

const USAGE: &str = "usage: fedsc-server [--addr 127.0.0.1:0] [--devices 12] \
[--clusters 3] [--seed 1] [--quorum N] [--deadline-ms 300000] \
[--trace-out trace.json] [--metrics-out metrics.json] \
[--fleet-trace-out fleet.json] [--fleet-metrics-out fleet-metrics.json]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let flags = Flags::parse(args, USAGE)?;
    Ok(Args {
        addr: flags.parsed("--addr", SocketAddr::from(([127, 0, 0, 1], 0)))?,
        devices: flags.parsed("--devices", 12)?,
        clusters: flags.parsed("--clusters", 3)?,
        seed: flags.parsed("--seed", 1)?,
        quorum: flags.optional("--quorum")?,
        deadline_ms: flags.parsed("--deadline-ms", 300_000)?,
        trace_out: flags.optional("--trace-out")?,
        metrics_out: flags.optional("--metrics-out")?,
        fleet_trace_out: flags.optional("--fleet-trace-out")?,
        fleet_metrics_out: flags.optional("--fleet-metrics-out")?,
    })
}

/// Exports local and fleet-merged observability to the requested paths.
fn write_observability(args: &Args, mut fleet: FleetCollector) -> Result<(), String> {
    let events = cli::write_observability(args.trace_out.as_deref(), args.metrics_out.as_deref())?;
    if args.fleet_trace_out.is_none() && args.fleet_metrics_out.is_none() {
        return Ok(());
    }
    // The root's own lane and registry join the absorbed subtree before
    // the merged exports; timestamps are already in this clock.
    fleet.add_local_events(&events, lane::ROOT);
    fleet.merge_metrics(&fedsc_obs::metrics::snapshot());
    if let Some(path) = &args.fleet_trace_out {
        let names: Vec<(u64, String)> = fleet.pids().iter().map(|&p| (p, lane::name(p))).collect();
        let trace = fedsc_obs::export::fleet_chrome_trace_json(&fleet.spans, &names);
        std::fs::write(path, trace).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if let Some(path) = &args.fleet_metrics_out {
        let metrics = fedsc_obs::export::metrics_json(&fleet.metrics);
        std::fs::write(path, metrics).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(())
}

fn run(args: &Args) -> Result<(), String> {
    if args.devices == 0 {
        return Err("--devices must be positive".into());
    }
    if args.trace_out.is_some() || args.fleet_trace_out.is_some() {
        fedsc_obs::trace::install_ring(1 << 16);
    }
    // Only the config matters server-side; regenerating the full fixture
    // guarantees it cannot drift from what the device processes use.
    let (_fed, cfg) = demo_fixture(args.seed, args.devices, args.clusters);
    let policy = RoundPolicy {
        quorum: args.quorum,
        deadline: Duration::from_millis(args.deadline_ms),
        ..RoundPolicy::default()
    };
    let mut server = TcpServer::bind(args.addr, TcpOptions::default())
        .map_err(|e| format!("bind failed: {e}"))?;
    println!("listening {}", server.local_addr());
    // Stdout is block-buffered when piped; the parent is waiting on this
    // line to learn the port.
    std::io::stdout()
        .flush()
        .map_err(|e| format!("stdout flush failed: {e}"))?;

    let mut fleet = FleetCollector::new();
    let excluded = server_round(
        &mut server,
        args.devices,
        &[],
        &cfg,
        &policy,
        Some(&mut fleet),
    )
    .map_err(|e| format!("{e}"))?;
    let stats = server.stats();
    drop(server); // closes links so excluded devices stop waiting
    if excluded.is_empty() {
        println!("excluded -");
    } else {
        let list: Vec<String> = excluded.iter().map(usize::to_string).collect();
        println!("excluded {}", list.join(","));
    }
    println!(
        "uplink_bytes {} downlink_bytes {}",
        stats.bytes_received, stats.bytes_sent
    );
    println!("envelope_bytes {}", fleet.envelope_bytes);
    write_observability(args, fleet)?;
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args).and_then(|a| run(&a)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("fedsc-server: {msg}");
            ExitCode::FAILURE
        }
    }
}
