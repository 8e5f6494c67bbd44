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

use fedsc::cli::{self, Flags};
use fedsc::demo::demo_fixture;
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
    telemetry: bool,
    trace_out: Option<String>,
    metrics_out: Option<String>,
}

const USAGE: &str = "usage: fedsc-device --addr HOST:PORT --device Z \
[--link-id N] [--parent P] [--devices 12] [--clusters 3] [--seed 1] \
[--telemetry] [--trace-out trace.json] [--metrics-out metrics.json]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let flags = Flags::parse(args, USAGE)?;
    Ok(Args {
        addr: flags.required("--addr")?,
        device: flags.required("--device")?,
        link_id: flags.optional("--link-id")?,
        parent: flags.parsed("--parent", 0)?,
        devices: flags.parsed("--devices", 12)?,
        clusters: flags.parsed("--clusters", 3)?,
        seed: flags.parsed("--seed", 1)?,
        telemetry: flags.switch("--telemetry"),
        trace_out: flags.optional("--trace-out")?,
        metrics_out: flags.optional("--metrics-out")?,
    })
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
    let (fed, cfg) = demo_fixture(args.seed, args.devices, args.clusters);
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
    cli::write_observability(args.trace_out.as_deref(), args.metrics_out.as_deref())?;
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
