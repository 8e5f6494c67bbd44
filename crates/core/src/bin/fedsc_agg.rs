//! Mid-tier aggregator endpoint for a real-process hierarchical Fed-SC
//! round over TCP: the process form of one `fedsc::tree` aggregator node.
//!
//! Binds a listener for its children (devices or lower aggregators),
//! prints `listening <addr>` (flushed), and runs the aggregator role of
//! `fedsc::wire` as the aggregator at `(--tier, --node)`:
//! `aggregator_uplink` collects `--children` uplinks under the policy and
//! forwards the included children's device uplinks, unmerged, to the
//! parent at `--addr` (as child `--node` on the parent's fan-in);
//! `aggregator_downlink` awaits the parent's labels for those samples and
//! sends every included child its slice. The aggregator clusters
//! nothing, so it needs no dataset or configuration. It prints the
//! samples it forwarded and the children it included:
//!
//! ```text
//! listening 127.0.0.1:40124
//! agg 0 forwarded 8 included 4
//! uplink_bytes 1600 downlink_bytes 320 envelope_bytes 0
//! ```
//!
//! Fleet telemetry: with `--telemetry` the aggregator absorbs its
//! children's in-band envelopes, estimates its clock offset to the
//! parent (timed handshake), shifts the whole subtree's spans into the
//! parent's clock, and forwards them — plus the merged metrics and its
//! own lane (`100 + --node`) — in-band on its uplink, under run id
//! `--seed`. Offsets compose transitively, so the root receives
//! root-clock timestamps directly.

use fedsc::cli::{self, Flags};
use fedsc::{aggregator_downlink, aggregator_uplink, AggregatorNode, RoundPolicy, WireTelemetry};
use fedsc_obs::{FleetCollector, TraceContext};
use fedsc_transport::{ServerTransport, TcpDevice, TcpOptions, TcpServer};
use std::io::Write;
use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    addr: SocketAddr,
    bind: SocketAddr,
    node: usize,
    tier: usize,
    parent: u64,
    children: usize,
    seed: u64,
    quorum: Option<usize>,
    deadline_ms: u64,
    telemetry: bool,
    trace_out: Option<String>,
    metrics_out: Option<String>,
}

const USAGE: &str = "usage: fedsc-agg --addr HOST:PORT --node N --children Z \
[--bind 127.0.0.1:0] [--tier 0] [--parent P] [--seed 1] [--quorum N] \
[--deadline-ms 300000] [--telemetry] \
[--trace-out trace.json] [--metrics-out metrics.json]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let flags = Flags::parse(args, USAGE)?;
    Ok(Args {
        addr: flags.required("--addr")?,
        bind: flags.parsed("--bind", SocketAddr::from(([127, 0, 0, 1], 0)))?,
        node: flags.required("--node")?,
        tier: flags.parsed("--tier", 0)?,
        parent: flags.parsed("--parent", 0)?,
        children: flags.required("--children")?,
        seed: flags.parsed("--seed", 1)?,
        quorum: flags.optional("--quorum")?,
        deadline_ms: flags.parsed("--deadline-ms", 300_000)?,
        telemetry: flags.switch("--telemetry"),
        trace_out: flags.optional("--trace-out")?,
        metrics_out: flags.optional("--metrics-out")?,
    })
}

fn run(args: &Args) -> Result<(), String> {
    if args.children == 0 {
        return Err("--children must be positive".into());
    }
    if args.telemetry || args.trace_out.is_some() {
        fedsc_obs::trace::install_ring(1 << 16);
    }
    let policy = RoundPolicy {
        quorum: args.quorum,
        deadline: Duration::from_millis(args.deadline_ms),
        ..RoundPolicy::default()
    };
    let pid = 100 + args.node as u64;

    let mut server = TcpServer::bind(args.bind, TcpOptions::default())
        .map_err(|e| format!("bind failed: {e}"))?;
    println!("listening {}", server.local_addr());
    std::io::stdout()
        .flush()
        .map_err(|e| format!("stdout flush failed: {e}"))?;

    let node = AggregatorNode {
        tier: args.tier,
        node: args.node,
        fan_in: args.children,
        below: policy.clone(),
        above: policy,
    };
    let telemetry = if args.telemetry {
        WireTelemetry {
            ctx: Some(TraceContext {
                run_id: args.seed,
                round: 0,
                tier: (args.tier + 1) as u32,
                node: args.node as u64,
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
    let mut up = TcpDevice::new(args.addr, args.node, TcpOptions::default());
    let mut fleet = FleetCollector::new();
    let fanin = aggregator_uplink(&mut server, &mut up, &node, &mut fleet, &telemetry)
        .map_err(|e| format!("{e}"))?
        .ok_or("subtree failed: quorum miss or unreachable parent")?;
    aggregator_downlink(&mut server, &mut up, &node, &fanin).map_err(|e| format!("{e}"))?;
    let stats = server.stats();
    drop(server);
    println!(
        "agg {} forwarded {} included {}",
        args.node,
        fanin.counts.iter().sum::<usize>(),
        fanin.included.len()
    );
    println!(
        "uplink_bytes {} downlink_bytes {} envelope_bytes {}",
        stats.bytes_received, stats.bytes_sent, fleet.envelope_bytes
    );
    cli::write_observability(args.trace_out.as_deref(), args.metrics_out.as_deref())?;
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args).and_then(|a| run(&a)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("fedsc-agg: {msg}");
            ExitCode::FAILURE
        }
    }
}
