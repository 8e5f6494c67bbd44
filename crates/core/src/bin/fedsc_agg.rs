//! Mid-tier aggregator endpoint for a real-process hierarchical Fed-SC
//! round over TCP: the process form of one `fedsc-hier` aggregator node.
//!
//! Binds a listener for its children (devices or lower aggregators),
//! prints `listening <addr>` (flushed), collects `--children` uplinks
//! under the tier policy, runs the shared `merge_step` as the aggregator
//! at `(--tier, --node)` (eigengap count capped at `L`), forwards its
//! representatives to the parent at `--addr` (as child `--node` on
//! the parent's fan-in), awaits the parent's labels, and relays the
//! composed downlink of every included child:
//!
//! ```text
//! listening 127.0.0.1:40124
//! agg 0 reps 3 included 4
//! uplink_bytes 2464 downlink_bytes 448 envelope_bytes 0
//! ```
//!
//! Fleet telemetry: with `--telemetry` the aggregator absorbs its
//! children's in-band envelopes, estimates its clock offset to the
//! parent (timed handshake), shifts the whole subtree's spans into the
//! parent's clock, and forwards them — plus the merged metrics and its
//! own lane (`100 + --node`) — in-band on its uplink. Offsets compose
//! transitively, so the root receives root-clock timestamps directly.

use bytes::Bytes;
use fedsc::cli::{self, Flags};
use fedsc::demo::{demo_fixture, demo_hier_fixture};
use fedsc::{collect_uplinks, merge_step, MergeAt, RoundPolicy};
use fedsc_federated::channel::{DownlinkMessage, UplinkMessage};
use fedsc_obs::{FleetCollector, TraceContext};
use fedsc_transport::{
    with_retry, DeviceTransport, ServerTransport, TcpDevice, TcpOptions, TcpServer,
};
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
    devices: usize,
    clusters: usize,
    seed: u64,
    quorum: Option<usize>,
    deadline_ms: u64,
    hier: bool,
    telemetry: bool,
    trace_out: Option<String>,
    metrics_out: Option<String>,
}

const USAGE: &str = "usage: fedsc-agg --addr HOST:PORT --node N --children Z \
[--bind 127.0.0.1:0] [--tier 0] [--parent P] [--devices 12] [--clusters 3] \
[--seed 1] [--quorum N] [--deadline-ms 300000] [--hier] [--telemetry] \
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
        devices: flags.parsed("--devices", 12)?,
        clusters: flags.parsed("--clusters", 3)?,
        seed: flags.parsed("--seed", 1)?,
        quorum: flags.optional("--quorum")?,
        deadline_ms: flags.parsed("--deadline-ms", 300_000)?,
        hier: flags.switch("--hier"),
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
    // Only the config matters here; regenerating the shared fixture keeps
    // every process on the same parameters without shared state.
    let fixture = if args.hier {
        demo_hier_fixture
    } else {
        demo_fixture
    };
    let (_fed, cfg) = fixture(args.seed, args.devices, args.clusters);
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

    // ---- Collect, pool, merge — one fedsc-hier aggregator node. ----
    let agg_span = fedsc_obs::span("hier", "hier.agg_uplink")
        .field("tier", args.tier)
        .field("node", args.node)
        .field("children", args.children);
    let agg_span_id = agg_span.id();
    let mut fleet = FleetCollector::new();
    let uplinks = collect_uplinks(
        &mut server,
        args.children,
        policy.deadline,
        Some(&mut fleet),
    )
    .map_err(|e| format!("{e}"))?;
    let received = uplinks.iter().filter(|m| m.is_some()).count();
    drop(agg_span.field("received", received));
    if received < policy.required(args.children) {
        return Err("quorum not met before the tier deadline".into());
    }
    if uplinks.iter().flatten().all(|m| m.cols() == 0) {
        return Err("no samples to merge".into());
    }
    let at = MergeAt::Aggregator {
        tier: args.tier,
        node: args.node,
    };
    let (merge, pooled, _) = merge_step(uplinks, &cfg, at).map_err(|e| format!("{e}"))?;
    let rep_mat = merge.representatives(&pooled);
    let reps = rep_mat.cols();
    let inner = UplinkMessage {
        dim: rep_mat.rows(),
        samples: rep_mat,
    }
    .encode();

    // ---- Forward the representatives (plus the subtree's telemetry). ----
    let mut up = TcpDevice::new(args.addr, args.node, TcpOptions::default());
    let payload = if args.telemetry {
        let offset = up.clock_sync().map_err(|e| format!("clock sync: {e}"))?;
        fleet.add_local_events(&fedsc_obs::trace::drain(), pid);
        fleet.merge_metrics(&fedsc_obs::metrics::snapshot());
        fleet.shift(offset);
        let ctx = TraceContext {
            run_id: args.seed,
            round: 0,
            tier: (args.tier + 1) as u32,
            node: args.node as u64,
            parent: args.parent,
            pid,
            parent_span: agg_span_id,
        };
        Bytes::from(fleet.to_envelope(Some(ctx)).wrap(inner.as_slice()))
    } else {
        inner
    };
    with_retry(policy.max_retries, policy.retry_backoff, || {
        up.send_uplink(&payload)
    })
    .map_err(|e| format!("uplink to parent: {e}"))?;

    // ---- Compose and relay the parent's labels to the children. ----
    let reply = up
        .recv_downlink(policy.downlink_wait())
        .map_err(|e| format!("downlink from parent: {e}"))?;
    let down = DownlinkMessage::decode(reply).ok_or("malformed downlink from parent")?;
    for (c, child_reply) in merge.compose(&down).map_err(|e| format!("{e}"))? {
        let child_reply = child_reply.encode();
        with_retry(policy.max_retries, policy.retry_backoff, || {
            server.send_downlink(c, &child_reply)
        })
        .map_err(|e| format!("downlink to child {c}: {e}"))?;
    }
    let stats = server.stats();
    drop(server);
    println!(
        "agg {} reps {} included {}",
        args.node,
        reps,
        merge.included.len()
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
