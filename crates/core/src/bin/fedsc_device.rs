//! Device endpoint for a real-process Fed-SC round over TCP.
//!
//! Regenerates the shared fixture from `--seed` (see `fedsc::demo`), takes
//! shard `--device z`, runs Algorithm 2 locally, uploads the samples to
//! the `fedsc-server` at `--addr`, awaits its assignments, and prints the
//! relabelled shard:
//!
//! ```text
//! device 4 predictions 0,0,2,1,0,2
//! ```
//!
//! Exits nonzero if the server excludes this device (no downlink ever
//! arrives) or the link fails beyond the retry budget.
//!
//! Observability: `--trace-out <path>` records this device's spans (local
//! SSC phases plus the wire round) as Chrome `trace_event` JSON;
//! `--metrics-out <path>` writes the flat `fedsc_obs` metrics snapshot.
//!
//! Fleet telemetry: with `--telemetry` the device estimates its clock
//! offset to the server (timed handshake), then ships its completed
//! spans and metrics snapshot **in-band** on the uplink, shifted into
//! the server's clock, under process lane `1000 + --device`. `--link-id`
//! is this endpoint's child index on the link it dials (defaults to
//! `--device`; they differ when dialing a `fedsc-agg` mid-tier), and
//! `--parent` names that parent node in the trace context.

use fedsc::demo::{demo_fixture, demo_hier_fixture};
use fedsc::{device_round, RoundPolicy, WireTelemetry};
use fedsc_obs::TraceContext;
use fedsc_transport::{TcpDevice, TcpOptions};
use std::net::SocketAddr;
use std::process::ExitCode;

struct Args {
    addr: SocketAddr,
    device: usize,
    link_id: Option<usize>,
    parent: u64,
    devices: usize,
    clusters: usize,
    seed: u64,
    hier: bool,
    telemetry: bool,
    trace_out: Option<String>,
    metrics_out: Option<String>,
}

const USAGE: &str = "usage: fedsc-device --addr HOST:PORT --device Z \
[--link-id N] [--parent P] [--devices 12] [--clusters 3] [--seed 1] \
[--hier] [--telemetry] [--trace-out trace.json] [--metrics-out metrics.json]";

fn flag_value(args: &[String], name: &str) -> Result<Option<String>, String> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == name {
            return match it.next() {
                Some(v) => Ok(Some(v.clone())),
                None => Err(format!("{name} requires a value\n{USAGE}")),
            };
        }
    }
    Ok(None)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag_value(args, name)? {
        Some(v) => v
            .parse()
            .map_err(|_| format!("invalid value for {name}: {v}\n{USAGE}")),
        None => Ok(default),
    }
}

fn required<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    flag_value(args, name)?
        .ok_or(format!("{name} is required\n{USAGE}"))?
        .parse()
        .map_err(|_| format!("invalid value for {name}\n{USAGE}"))
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    Ok(Args {
        addr: required(args, "--addr")?,
        device: required(args, "--device")?,
        link_id: flag_value(args, "--link-id")?
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("invalid value for --link-id: {v}\n{USAGE}"))
            })
            .transpose()?,
        parent: parsed(args, "--parent", 0)?,
        devices: parsed(args, "--devices", 12)?,
        clusters: parsed(args, "--clusters", 3)?,
        seed: parsed(args, "--seed", 1)?,
        hier: args.iter().any(|a| a == "--hier"),
        telemetry: args.iter().any(|a| a == "--telemetry"),
        trace_out: flag_value(args, "--trace-out")?,
        metrics_out: flag_value(args, "--metrics-out")?,
    })
}

/// Exports the recorded spans / metrics snapshot to the requested paths.
fn write_observability(args: &Args) -> Result<(), String> {
    if let Some(path) = &args.trace_out {
        let events = fedsc_obs::trace::uninstall();
        let trace = fedsc_obs::export::chrome_trace_json(&events);
        std::fs::write(path, trace).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if let Some(path) = &args.metrics_out {
        let metrics = fedsc_obs::export::metrics_json(&fedsc_obs::metrics::snapshot());
        std::fs::write(path, metrics).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(())
}

fn run(args: &Args) -> Result<(), String> {
    if args.device >= args.devices {
        return Err(format!(
            "--device {} out of range for --devices {}",
            args.device, args.devices
        ));
    }
    if args.telemetry || args.trace_out.is_some() {
        fedsc_obs::trace::install_ring(1 << 16);
    }
    // `--hier` selects the aggregation-friendly fixture shared by a
    // fleet with `fedsc-agg` mid-tiers (see `fedsc::demo`).
    let fixture = if args.hier {
        demo_hier_fixture
    } else {
        demo_fixture
    };
    let (fed, cfg) = fixture(args.seed, args.devices, args.clusters);
    let link_id = args.link_id.unwrap_or(args.device);
    let pid = 1000 + args.device as u64;
    let telemetry = if args.telemetry {
        WireTelemetry {
            ctx: Some(TraceContext {
                run_id: args.seed,
                round: 0,
                tier: 0,
                node: link_id as u64,
                parent: args.parent,
                pid,
                parent_span: 0,
            }),
            ship: true,
            pid,
        }
    } else {
        WireTelemetry::default()
    };
    let mut link = TcpDevice::new(args.addr, link_id, TcpOptions::default());
    let predictions = device_round(
        &fed.devices[args.device].data,
        args.device,
        &cfg,
        &mut link,
        &RoundPolicy::default(),
        &telemetry,
    )
    .map_err(|e| format!("{e}"))?;
    let list: Vec<String> = predictions.iter().map(usize::to_string).collect();
    println!("device {} predictions {}", args.device, list.join(","));
    write_observability(args)?;
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args).and_then(|a| run(&a)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("fedsc-device: {msg}");
            ExitCode::FAILURE
        }
    }
}
