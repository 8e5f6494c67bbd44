//! The three roles of the Fed-SC round as they run over a [`Transport`]:
//! the device, the aggregator and the root, exchanging **encoded byte
//! messages**. Each role is written once here, split into the halves a
//! staged sweep needs, and every transport driver calls these functions:
//! the in-process tree driver ([`crate::tree`], whose flat topology is the
//! flat round) and the `fedsc-server`/`fedsc-agg`/`fedsc-device` process
//! binaries.
//!
//! * **Device.** [`device_uplink`] runs [`device_step`] on the shard
//!   (Algorithm 2, DP, the channel model) and sends the encoded
//!   [`UplinkMessage`]; [`device_downlink`] awaits the encoded
//!   [`DownlinkMessage`] and runs [`relabel`]. [`device_round`] is the two
//!   halves in sequence.
//! * **Aggregator.** [`aggregator_uplink`] collects its children and
//!   applies its quorum, then relays: it forwards its included children's
//!   device uplinks unmerged, back to back in ascending child order.
//!   [`aggregator_downlink`] receives the parent's labels and splits them
//!   over its included children by their sample counts ([`Fanin::split`]).
//! * **Root.** [`server_round`] collects, runs [`merge_step`] into `L`
//!   clusters and answers every included child.
//!
//! A payload is a sequence of encoded [`UplinkMessage`]s: a device sends
//! one, an aggregator its whole subtree's. Children are contiguous chunks
//! of the devices, so the root of any tree pools exactly the flat round's
//! matrix in the flat round's order, counts the devices behind it for
//! TSC's `q` rule, and runs the one clustering. These are the very steps
//! `FedSc::run` loops over, so with a lossless link every topology whose
//! subtrees all meet quorum is **bit-identical** to it under the same
//! seeds — DP and channel noise included (tested).
//!
//! One failure rule holds in every driver:
//!
//! * A send that exhausts its [`RoundPolicy`] retry budget loses the
//!   message, and the child end of that link becomes a straggler: a
//!   device or aggregator whose uplink is lost is excluded by its parent,
//!   and a child whose downlink is lost is left unanswered. Either way its
//!   points fall back to cluster 0 and it is reported excluded.
//! * A parent collects until every child reports or its
//!   [`RoundPolicy::deadline`] expires; the in-process tree driver also
//!   stops once every child it has not seen fall silent (dead, uplink
//!   lost, subtree failed) has reported. Below its
//!   [`RoundPolicy::quorum`] an aggregator fails its subtree, and the root
//!   fails the round.
//! * The root clusters whatever its included children sent, an empty pool
//!   included, and answers each child with its slice of the labels (empty
//!   for a child that sent no sample).
//! * A [`device_step`] or [`merge_step`] error, a malformed message and
//!   any other transport failure are errors: fatal to the in-process
//!   round, as in `FedSc::run`, and to the process that hit them.
//!
//! [`UplinkMessage`]: fedsc_federated::channel::UplinkMessage
//! [`DownlinkMessage`]: fedsc_federated::channel::DownlinkMessage

use crate::config::FedScConfig;
use crate::local::LocalOutput;
use crate::round::{device_step, merge_step, relabel, Fanin};
use crate::tree::{run_hier_round, HierPolicy, HierTopology};
use bytes::Bytes;
use fedsc_federated::channel::{DownlinkMessage, UplinkMessage};
use fedsc_federated::partition::FederatedDataset;
use fedsc_linalg::{LinalgError, Matrix, Result};
use fedsc_obs::{Envelope, FleetCollector, LazyCounter, LazyHistogram, Stopwatch, TraceContext};
use fedsc_transport::{
    with_retry, Deadline, DeviceTransport, InMemoryTransport, ServerTransport, Transport,
    TransportError,
};
use std::time::Duration;

/// Device rounds completed (uplink sent, downlink applied).
static WIRE_DEVICE_ROUNDS: LazyCounter = LazyCounter::new("wire.device_rounds");
/// Server rounds completed.
static WIRE_SERVER_ROUNDS: LazyCounter = LazyCounter::new("wire.server_rounds");
/// Children the root left unanswered, across all server rounds.
static WIRE_STRAGGLERS: LazyCounter = LazyCounter::new("wire.stragglers_excluded");
/// Wall time of each completed [`device_round`], in milliseconds.
static WIRE_DEVICE_ROUND_MS: LazyHistogram = LazyHistogram::new(
    "wire.device_round_ms",
    &[
        1, 2, 5, 10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 30_000, 60_000,
    ],
);
/// Aggregator rounds completed (children pooled, their uplinks forwarded).
static HIER_AGG_ROUNDS: LazyCounter = LazyCounter::new("hier.agg_rounds");
/// Aggregators that failed their subtree (quorum miss or lost uplink).
static HIER_SUBTREES_FAILED: LazyCounter = LazyCounter::new("hier.subtrees_failed");

/// Telemetry posture of one sending round: what (if anything) rides
/// in-band on the uplink. The default attaches nothing, keeping the
/// payload byte-identical to an untraced round.
#[derive(Debug, Clone, Default)]
pub struct WireTelemetry {
    /// Causal context stamped onto the uplink envelope. Its
    /// `parent_span` is overwritten with the id of the sender's completed
    /// local-output (device) or collection (aggregator) span, so the
    /// receiver's handling span records a parent that actually ships.
    pub ctx: Option<TraceContext>,
    /// Also ship this process's completed spans and a metrics snapshot
    /// in-band, shifted into the parent's clock via
    /// [`DeviceTransport::clock_sync`]. Real-process mode only —
    /// in-process drivers share one ring and registry, and shipping
    /// would double-count both.
    pub ship: bool,
    /// Process lane (Chrome `pid`) for shipped spans.
    pub pid: u64,
}

/// Straggler and reliability policy for one link tier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundPolicy {
    /// Minimum children whose uplinks must arrive for the parent to
    /// proceed; `None` requires all of them.
    pub quorum: Option<usize>,
    /// How long a parent collects uplinks before giving up on stragglers.
    pub deadline: Duration,
    /// Extra attempts granted to every send after a transient link error.
    pub max_retries: u32,
    /// Initial backoff between retry attempts (doubles per retry).
    pub retry_backoff: Duration,
}

impl Default for RoundPolicy {
    fn default() -> Self {
        RoundPolicy {
            quorum: None,
            deadline: Duration::from_secs(300),
            max_retries: 5,
            retry_backoff: Duration::from_millis(10),
        }
    }
}

impl RoundPolicy {
    /// How long a child waits for its downlink: the parent's collection
    /// deadline plus slack for the clustering itself. Normally the
    /// transport unblocks excluded children much sooner (the parent closes
    /// the links when the round ends); this is the backstop.
    pub fn downlink_wait(&self) -> Duration {
        self.deadline.saturating_add(Duration::from_secs(60))
    }

    /// Children that must report for a parent over `z_count` children to
    /// proceed: the quorum, clamped to `[1, z_count]` (`None` = all).
    pub fn required(&self, z_count: usize) -> usize {
        self.quorum.unwrap_or(z_count).min(z_count).max(1)
    }
}

/// Result of a wire-level run.
#[derive(Debug, Clone)]
pub struct WireRunOutput {
    /// Predicted global cluster per point, in global-point order. Points
    /// on excluded devices fall back to cluster 0.
    pub predictions: Vec<usize>,
    /// Total bytes that crossed the uplink as observed by the root — the
    /// lossless in-memory link counts payload bytes, framed links (TCP,
    /// fault-injecting) count framing and handshake overhead too.
    pub uplink_bytes: usize,
    /// Total bytes that crossed the root's downlink (same accounting
    /// basis).
    pub downlink_bytes: usize,
    /// Devices that were never answered (a lost uplink or downlink, or a
    /// failed subtree above them); empty on a clean run.
    pub excluded: Vec<usize>,
    /// Serialized telemetry-envelope bytes the root absorbed from
    /// uplink payloads — the exact overhead tracing added to
    /// `uplink_bytes` (0 when telemetry is off, so
    /// `uplink_bytes - envelope_bytes` is invariant under tracing).
    pub envelope_bytes: usize,
}

/// Maps a link failure into the workspace error type, preserving the
/// failure class in the message.
pub(crate) fn wire_err(e: TransportError) -> LinalgError {
    LinalgError::InvalidArgument(match e {
        TransportError::Closed(_) => "transport closed before the round completed",
        TransportError::Timeout(_) => "transport deadline expired",
        TransportError::VersionMismatch { .. } => "peer speaks a different protocol version",
        TransportError::Dropped
        | TransportError::ChecksumMismatch { .. }
        | TransportError::Truncated { .. }
        | TransportError::BadMagic => "message lost despite the retry budget",
        TransportError::Malformed(_) | TransportError::Oversize { .. } => {
            "malformed transport frame"
        }
        TransportError::Io { .. } => "socket failure",
    })
}

/// Sends one message under `policy`'s retry budget. `false` means the
/// message is lost: the child end of the link becomes a straggler.
fn send_within_budget(
    policy: &RoundPolicy,
    send: impl FnMut() -> fedsc_transport::Result<()>,
) -> bool {
    with_retry(policy.max_retries, policy.retry_backoff, send).is_ok()
}

/// The device's first half: [`device_step`] on `data`, then the encoded
/// uplink over `link`. Returns the local output [`device_downlink`] needs,
/// or `None` when the uplink was lost despite the retry budget (the
/// device is then a straggler its parent's quorum accounts for).
///
/// `telemetry` sets what rides in-band on the uplink: the default posture
/// attaches nothing; otherwise the payload is prefixed with an
/// [`Envelope`] carrying the round's [`TraceContext`] and — in
/// real-process mode — the device's completed spans (shifted into the
/// parent's clock) and metrics snapshot.
///
/// Deterministic given `(cfg.seed, z)` — the transport carries opaque
/// bytes and cannot perturb the clustering.
pub fn device_uplink<D: DeviceTransport>(
    data: &Matrix,
    z: usize,
    cfg: &FedScConfig,
    link: &mut D,
    policy: &RoundPolicy,
    telemetry: &WireTelemetry,
) -> Result<Option<LocalOutput>> {
    let _span = fedsc_obs::span("wire", "wire.device_uplink").field("device", z);
    // The local computation gets its own span so a *completed* span id
    // exists by uplink time — the enclosing span is still open when the
    // payload ships, so it cannot serve as the cross-process parent.
    let local_span = fedsc_obs::span("wire", "wire.local_output").field("device", z);
    let local_span_id = local_span.id();
    let step = device_step(data, z, cfg)?;
    drop(local_span);
    let msg = UplinkMessage {
        dim: step.uplink.rows(),
        samples: step.uplink,
    };
    let mut fleet = FleetCollector::new();
    let payload = wrap_uplink(msg.encode(), link, telemetry, local_span_id, &mut fleet)?;
    let sent = send_within_budget(policy, || link.send_uplink(&payload));
    Ok(sent.then_some(step.local))
}

/// The device's second half: awaits the parent's assignments for device
/// `z` and [`relabel`]s the shard. Returns one global cluster id per
/// local point.
pub fn device_downlink<D: DeviceTransport>(
    local: &LocalOutput,
    z: usize,
    cfg: &FedScConfig,
    link: &mut D,
    policy: &RoundPolicy,
) -> Result<Vec<usize>> {
    let _span = fedsc_obs::span("wire", "wire.device_downlink").field("device", z);
    let reply = link
        .recv_downlink(policy.downlink_wait())
        .map_err(wire_err)?;
    let down =
        DownlinkMessage::decode(reply).ok_or(LinalgError::InvalidArgument("malformed downlink"))?;
    let labels = relabel(local, &down.assignments, cfg.num_clusters)?;
    WIRE_DEVICE_ROUNDS.inc();
    Ok(labels)
}

/// One device's whole round over `link`: [`device_uplink`], then
/// [`device_downlink`]. A lost uplink is an error here, since a device
/// that runs alone has nothing else to do.
pub fn device_round<D: DeviceTransport>(
    data: &Matrix,
    z: usize,
    cfg: &FedScConfig,
    link: &mut D,
    policy: &RoundPolicy,
    telemetry: &WireTelemetry,
) -> Result<Vec<usize>> {
    let sw = Stopwatch::start();
    let local = device_uplink(data, z, cfg, link, policy, telemetry)?.ok_or(
        LinalgError::InvalidArgument("uplink lost despite the retry budget"),
    )?;
    let labels = device_downlink(&local, z, cfg, link, policy)?;
    WIRE_DEVICE_ROUND_MS.observe(sw.elapsed_ns() / 1_000_000);
    Ok(labels)
}

/// Prefixes an encoded uplink with the round's telemetry envelope. With
/// the default (empty) posture the payload is returned untouched; with
/// `ship` set, the link's clock offset is estimated first, and `fleet` —
/// whatever the sender absorbed from its own children, plus this
/// process's completed spans and metrics — ships shifted into the
/// receiver's clock, so offsets compose transitively up a tree.
fn wrap_uplink<D: DeviceTransport>(
    inner: Bytes,
    link: &mut D,
    telemetry: &WireTelemetry,
    parent_span: u64,
    fleet: &mut FleetCollector,
) -> Result<Bytes> {
    let ctx = telemetry.ctx.map(|mut c| {
        c.parent_span = parent_span;
        c
    });
    let env = if telemetry.ship {
        let offset = link.clock_sync().map_err(wire_err)?;
        fleet.add_local_events(&fedsc_obs::trace::drain(), telemetry.pid);
        fleet.merge_metrics(&fedsc_obs::metrics::snapshot());
        fleet.shift(offset);
        fleet.to_envelope(ctx)
    } else {
        Envelope {
            ctx,
            ..Envelope::default()
        }
    };
    if env.is_empty() {
        Ok(inner)
    } else {
        Ok(Bytes::from(env.wrap(inner.as_slice())))
    }
}

/// Where an aggregator sits in the tree and the policies of the two link
/// tiers it joins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggregatorNode {
    /// Link tier of its children (0 = devices below it).
    pub tier: usize,
    /// Index of the aggregator within its tier.
    pub node: usize,
    /// Number of children it collects from.
    pub fan_in: usize,
    /// Policy of its children's tier: collection deadline, quorum, and
    /// the retry budget of the downlinks it relays.
    pub below: RoundPolicy,
    /// Policy of its own uplink's tier: the retry budget of the forward
    /// and how long it waits for its parent's labels.
    pub above: RoundPolicy,
}

/// The aggregator's first half: collect `node.fan_in` children over
/// `children`, apply the quorum, and forward the included children's
/// device uplinks over `parent`, unmerged and back to back in ascending
/// child order.
///
/// Returns the routing state [`aggregator_downlink`] needs, or `None`
/// when the subtree failed: a quorum miss or a lost forward. Every child
/// envelope is absorbed into `fleet`; with `telemetry.ship` the whole
/// subtree's telemetry rides on the forward.
pub fn aggregator_uplink<S: ServerTransport, D: DeviceTransport>(
    children: &mut S,
    parent: &mut D,
    node: &AggregatorNode,
    fleet: &mut FleetCollector,
    telemetry: &WireTelemetry,
) -> Result<Option<Fanin>> {
    aggregator_uplink_with_silent(children, parent, node, &[], fleet, telemetry)
}

/// [`aggregator_uplink`] for a driver that knows the children in `silent`
/// (distinct indices below `node.fan_in`) will never send: collection
/// ends as soon as every other child has reported.
pub(crate) fn aggregator_uplink_with_silent<S: ServerTransport, D: DeviceTransport>(
    children: &mut S,
    parent: &mut D,
    node: &AggregatorNode,
    silent: &[usize],
    fleet: &mut FleetCollector,
    telemetry: &WireTelemetry,
) -> Result<Option<Fanin>> {
    let collect_span = fedsc_obs::span("hier", "hier.agg_uplink")
        .field("tier", node.tier)
        .field("node", node.node)
        .field("children", node.fan_in);
    let collect_span_id = collect_span.id();
    let uplinks = collect_uplinks(
        children,
        node.fan_in,
        silent,
        node.below.deadline,
        Some(&mut *fleet),
    )?;
    let received = uplinks.iter().filter(|m| m.is_some()).count();
    drop(collect_span.field("received", received));
    if received < node.below.required(node.fan_in) {
        HIER_SUBTREES_FAILED.inc();
        return Ok(None);
    }
    let (fanin, uplinks) = Fanin::pool(uplinks);
    let mut forward = Vec::new();
    for samples in uplinks {
        let msg = UplinkMessage {
            dim: samples.rows(),
            samples,
        };
        forward.extend_from_slice(msg.encode().as_slice());
    }
    let payload = wrap_uplink(
        Bytes::from(forward),
        parent,
        telemetry,
        collect_span_id,
        fleet,
    )?;
    if !send_within_budget(&node.above, || parent.send_uplink(&payload)) {
        HIER_SUBTREES_FAILED.inc();
        return Ok(None);
    }
    HIER_AGG_ROUNDS.inc();
    Ok(Some(fanin))
}

/// The aggregator's second half: receive the parent's labels for the
/// samples `fanin` forwarded and send every included child its slice
/// ([`Fanin::split`]). Returns the children answered; a child whose
/// downlink was lost is left out.
pub fn aggregator_downlink<S: ServerTransport, D: DeviceTransport>(
    children: &mut S,
    parent: &mut D,
    node: &AggregatorNode,
    fanin: &Fanin,
) -> Result<Vec<usize>> {
    let _span = fedsc_obs::span("hier", "hier.agg_downlink")
        .field("tier", node.tier)
        .field("node", node.node)
        .field("children", fanin.included.len());
    let reply = parent
        .recv_downlink(node.above.downlink_wait())
        .map_err(wire_err)?;
    let down =
        DownlinkMessage::decode(reply).ok_or(LinalgError::InvalidArgument("malformed downlink"))?;
    let mut answered = Vec::with_capacity(fanin.included.len());
    for (c, child_reply) in fanin.split(&down.assignments)? {
        let child_reply = child_reply.encode();
        if send_within_budget(&node.below, || children.send_downlink(c, &child_reply)) {
            answered.push(c);
        }
    }
    Ok(answered)
}

/// The root: collect uplinks over `link` until all `z_count` children
/// report or the policy deadline expires, [`merge_step`] into `L`
/// clusters, answer each included child. Returns the children left
/// unanswered — missing at the deadline, or whose downlink was lost —
/// empty on a clean run.
///
/// With a `fleet` collector, every uplink envelope's context, spans, and
/// metrics land in it (and its `envelope_bytes` tallies the exact payload
/// overhead), ready to export at the root; `None` strips and discards
/// envelopes.
///
/// Fails if fewer than [`RoundPolicy::quorum`] children report in time.
pub fn server_round<S: ServerTransport>(
    link: &mut S,
    z_count: usize,
    cfg: &FedScConfig,
    policy: &RoundPolicy,
    fleet: Option<&mut FleetCollector>,
) -> Result<Vec<usize>> {
    server_round_with_silent(link, z_count, &[], cfg, policy, fleet)
}

/// [`server_round`] for a driver that knows the children in `silent`
/// (distinct indices below `z_count`) will never send: collection ends as
/// soon as every other child has reported.
pub(crate) fn server_round_with_silent<S: ServerTransport>(
    link: &mut S,
    z_count: usize,
    silent: &[usize],
    cfg: &FedScConfig,
    policy: &RoundPolicy,
    fleet: Option<&mut FleetCollector>,
) -> Result<Vec<usize>> {
    let _span = fedsc_obs::span("wire", "wire.server_round").field("devices", z_count);
    let uplinks = collect_uplinks(link, z_count, silent, policy.deadline, fleet)?;
    let received = uplinks.iter().filter(|m| m.is_some()).count();
    if received < policy.required(z_count) {
        return Err(LinalgError::InvalidArgument(
            "quorum not met before the round deadline",
        ));
    }

    let pooled: usize = uplinks.iter().flatten().flatten().map(Matrix::cols).sum();
    let central_span = fedsc_obs::span("fedsc", "phase2.central").field("samples", pooled);
    let (merge, _, _) = merge_step(uplinks, cfg)?;
    drop(central_span);

    let _broadcast_span =
        fedsc_obs::span("fedsc", "phase3.broadcast").field("devices", merge.fanin.included.len());
    let mut answered = vec![false; z_count];
    for (z, down) in merge.downlinks()? {
        let _downlink_span = fedsc_obs::span("wire", "wire.downlink").field("device", z);
        let reply = down.encode();
        answered[z] = send_within_budget(policy, || link.send_downlink(z, &reply));
    }
    let excluded: Vec<usize> = (0..z_count).filter(|&z| !answered[z]).collect();
    WIRE_SERVER_ROUNDS.inc();
    WIRE_STRAGGLERS.add(excluded.len() as u64);
    Ok(excluded)
}

/// Collects uplinks from `expected` children over `link` until every
/// child outside `silent` (distinct indices below `expected`, the
/// children known never to send) has reported, or `deadline` expires.
/// A silent child's uplink that arrives before then is still taken. Slot
/// `z` of the returned vector holds child `z`'s decoded device uplinks
/// (one for a device, its subtree's for an aggregator), `None` if they
/// never arrived — quorum policy is
/// the *caller's* decision: the root fails the round, an aggregator fails
/// its subtree. Stray child ids and duplicate deliveries are ignored.
///
/// Each payload's optional [`Envelope`] prefix is stripped before the
/// uplink decoder sees it, the per-uplink span records the sender's span
/// as its remote parent, and — when a `fleet` collector is given — the
/// envelope's spans, metrics, and context are absorbed. A payload carrying
/// the envelope magic but failing to decode is an error (never fed to the
/// inner decoder); a payload without the magic passes through untouched.
fn collect_uplinks<S: ServerTransport>(
    link: &mut S,
    expected: usize,
    silent: &[usize],
    deadline: Duration,
    mut fleet: Option<&mut FleetCollector>,
) -> Result<Vec<Option<Vec<Matrix>>>> {
    let mut payloads: Vec<Option<Vec<Matrix>>> = (0..expected).map(|_| None).collect();
    let deadline = Deadline::after(deadline);
    let mut received = 0usize;
    let mut pending = expected.saturating_sub(silent.len());
    // Parent-side view of Phase 1: the window in which the children's
    // local clustering results arrive.
    let collect_span = fedsc_obs::span("fedsc", "phase1.collect").field("devices", expected);
    while pending > 0 {
        let remaining = deadline.remaining();
        if remaining.is_zero() {
            break;
        }
        match link.recv_uplink(remaining) {
            Ok((z, bytes)) => {
                // Stray device ids and duplicate deliveries (a retrying
                // link may deliver the same upload twice) are ignored.
                if z >= expected || payloads[z].is_some() {
                    continue;
                }
                let (env, inner_at) = Envelope::strip(bytes.as_slice())
                    .map_err(|_| LinalgError::InvalidArgument("malformed uplink envelope"))?;
                let mut uplink_span = fedsc_obs::span("wire", "wire.uplink").field("device", z);
                if let Some(env) = env {
                    if let Some(ctx) = env.ctx {
                        uplink_span = uplink_span.remote_parent(ctx.pid, ctx.parent_span);
                    }
                    if let Some(fleet) = fleet.as_deref_mut() {
                        fleet.absorb(&env, inner_at);
                    }
                }
                let inner = if inner_at == 0 {
                    bytes
                } else {
                    bytes.slice(inner_at..bytes.len())
                };
                let msgs = UplinkMessage::decode_all(inner)
                    .ok_or(LinalgError::InvalidArgument("malformed uplink"))?;
                payloads[z] = Some(msgs.into_iter().map(|m| m.samples).collect());
                received += 1;
                if !silent.contains(&z) {
                    pending -= 1;
                }
            }
            Err(TransportError::Timeout(_)) => break,
            Err(e) => return Err(wire_err(e)),
        }
    }
    drop(collect_span.field("received", received));
    Ok(payloads)
}

/// Runs the flat round — the tree with no aggregator tier — over
/// `transport` under the given straggler `policy`.
pub fn run_round<T: Transport>(
    fed: &FederatedDataset,
    cfg: &FedScConfig,
    transport: &T,
    policy: &RoundPolicy,
) -> Result<WireRunOutput> {
    let topology = HierTopology::flat(fed.devices.len());
    let policy = HierPolicy::uniform(policy.clone());
    Ok(run_hier_round(fed, cfg, &topology, transport, &policy)?.wire)
}

/// Runs the flat round over the lossless in-memory transport with the
/// default policy; bit-identical to `FedSc::run`.
pub fn run_over_wire(fed: &FederatedDataset, cfg: &FedScConfig) -> Result<WireRunOutput> {
    run_round(fed, cfg, &InMemoryTransport, &RoundPolicy::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CentralBackend, FedScConfig};
    use crate::scheme::FedSc;
    use fedsc_federated::partition::{partition_dataset, Partition};
    use fedsc_subspace::SubspaceModel;
    use fedsc_transport::{FaultConfig, FaultyInMemoryTransport, TcpTransport};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fixture(seed: u64) -> (FederatedDataset, FedScConfig) {
        let mut rng = StdRng::seed_from_u64(seed);
        let model = SubspaceModel::random(&mut rng, 20, 3, 3);
        let ds = model.sample_dataset(&mut rng, &[48, 48, 48], 0.0);
        let fed = partition_dataset(&ds, 12, Partition::NonIid { l_prime: 2 }, &mut rng);
        let cfg = FedScConfig::new(3, CentralBackend::Ssc);
        (fed, cfg)
    }

    #[test]
    fn wire_run_matches_in_process_run_exactly() {
        let (fed, cfg) = fixture(1);
        let in_process = FedSc::new(cfg.clone())
            .run(&fed)
            .expect("in-process FedSc run on the seed-1 fixture");
        let wire = run_over_wire(&fed, &cfg).expect("lossless wire round on the seed-1 fixture");
        // Same seeds, lossless channel: the two execution shapes must agree
        // bit for bit.
        assert_eq!(wire.predictions, in_process.predictions);
        assert!(wire.excluded.is_empty());
    }

    /// Runs `cfg` in process and over the wire; both must agree exactly,
    /// and differ from the clean run so the comparison can fail.
    fn assert_wire_matches_perturbed_run(fed: &FederatedDataset, cfg: &FedScConfig) {
        let clean = FedSc::new(FedScConfig {
            dp: None,
            channel: Default::default(),
            ..cfg.clone()
        })
        .run(fed)
        .expect("clean in-process run");
        let in_process = FedSc::new(cfg.clone())
            .run(fed)
            .expect("perturbed in-process run");
        let wire = run_over_wire(fed, cfg).expect("perturbed wire round");
        assert_eq!(wire.predictions, in_process.predictions);
        assert_ne!(in_process.predictions, clean.predictions);
    }

    #[test]
    fn wire_run_matches_in_process_run_under_dp() {
        let (fed, mut cfg) = fixture(1);
        cfg.dp = Some(fedsc_federated::privacy::DpConfig::new(2.0, 1e-5));
        assert_wire_matches_perturbed_run(&fed, &cfg);
    }

    #[test]
    fn wire_run_matches_in_process_run_over_noisy_quantized_channel() {
        // Four 3-dimensional subspaces in R^10 sit close enough that the
        // channel's small perturbation moves a few samples across them.
        let mut rng = StdRng::seed_from_u64(4);
        let model = SubspaceModel::random(&mut rng, 10, 3, 4);
        let ds = model.sample_dataset(&mut rng, &[40; 4], 0.0);
        let fed = partition_dataset(&ds, 12, Partition::NonIid { l_prime: 2 }, &mut rng);
        let mut cfg = FedScConfig::new(4, CentralBackend::Ssc);
        cfg.channel.noise_delta = 0.01;
        cfg.channel.bits_per_scalar = 8;
        assert_wire_matches_perturbed_run(&fed, &cfg);
    }

    #[test]
    fn out_of_range_downlink_assignment_fails_the_device() {
        let (fed, cfg) = fixture(1);
        let (mut server, mut devices) = InMemoryTransport
            .open(1)
            .expect("open an in-memory link for the bogus downlink");
        let link = &mut devices[0];
        let policy = RoundPolicy::default();
        let local = device_uplink(
            &fed.devices[0].data,
            0,
            &cfg,
            link,
            &policy,
            &WireTelemetry::default(),
        )
        .expect("device step on the seed-1 fixture")
        .expect("the lossless link delivers the uplink");
        let (_, bytes) = server
            .recv_uplink(Duration::from_secs(60))
            .expect("the device uplinks");
        let up = UplinkMessage::decode(bytes).expect("well-formed uplink");
        let bogus = DownlinkMessage {
            assignments: vec![cfg.num_clusters as u32; up.samples.cols()],
        };
        server
            .send_downlink(0, &bogus.encode())
            .expect("send the bogus downlink");
        let device = device_downlink(&local, 0, &cfg, link, &policy);
        assert!(device.is_err(), "out-of-range label was accepted");
    }

    #[test]
    fn wire_byte_counts_match_payload_sizes() {
        let (fed, cfg) = fixture(2);
        let z_count = fed.devices.len();
        let flat = run_hier_round(
            &fed,
            &cfg,
            &HierTopology::flat(z_count),
            &InMemoryTransport,
            &HierPolicy::default(),
        )
        .expect("lossless flat round on the seed-2 fixture");
        let in_process = FedSc::new(cfg)
            .run(&fed)
            .expect("in-process FedSc run on the seed-2 fixture");
        let samples = in_process.samples.cols();
        let wire = &flat.wire;
        // Uplink: per device 16-byte header + 8 bytes per entry.
        assert_eq!(wire.uplink_bytes, 16 * z_count + 8 * 20 * samples);
        // Downlink: per device 8-byte header + 4 bytes per sample.
        assert_eq!(wire.downlink_bytes, 8 * z_count + 4 * samples);
        // The flat round is one tier whose parent is the root: its row is
        // the root's accounting, one message per device each way.
        assert_eq!(flat.tiers.len(), 1);
        assert_eq!(flat.tiers[0].uplink_bytes, wire.uplink_bytes);
        assert_eq!(flat.tiers[0].downlink_bytes, wire.downlink_bytes);
        assert_eq!(flat.tiers[0].uplink_messages, z_count as u64);
        assert_eq!(flat.tiers[0].downlink_messages, z_count as u64);
    }

    #[test]
    fn wire_run_clusters_correctly() {
        let (fed, cfg) = fixture(3);
        let wire = run_over_wire(&fed, &cfg).expect("lossless wire round on the seed-3 fixture");
        let acc = fedsc_clustering::clustering_accuracy(&fed.global_truth(), &wire.predictions);
        assert!(acc > 90.0, "accuracy {acc}");
    }

    #[test]
    fn faulty_link_below_retry_budget_still_matches_exactly() {
        let (fed, cfg) = fixture(1);
        let clean = run_over_wire(&fed, &cfg).expect("clean reference round (seed-1 fixture)");
        let transport = FaultyInMemoryTransport::new(FaultConfig {
            seed: 99,
            drop: 0.2,
            bit_flip: 0.1,
            truncate: 0.1,
            duplicate: 0.1,
            ..FaultConfig::default()
        });
        let policy = RoundPolicy {
            // drop+truncate+flip ≈ 0.4 per attempt; 25 retries make a
            // device-level failure astronomically unlikely.
            max_retries: 25,
            retry_backoff: Duration::ZERO,
            ..RoundPolicy::default()
        };
        let faulty = run_round(&fed, &cfg, &transport, &policy)
            .expect("faulty round (fault seed 99) should survive the 25-retry budget");
        // Retries and duplicates are invisible to the clustering: the
        // payload bytes that survive are the payload bytes that were sent.
        assert_eq!(faulty.predictions, clean.predictions);
        assert!(faulty.excluded.is_empty());
        // Framed accounting on the faulty link is at least the payload
        // accounting of the clean one (32-byte header per frame, plus
        // duplicates).
        assert!(faulty.uplink_bytes > clean.uplink_bytes);
    }

    #[test]
    fn tcp_round_matches_in_memory_round_exactly() {
        let (fed, cfg) = fixture(4);
        let clean = run_over_wire(&fed, &cfg).expect("clean in-memory round (seed-4 fixture)");
        let tcp = run_round(
            &fed,
            &cfg,
            &TcpTransport::loopback(),
            &RoundPolicy::default(),
        )
        .expect("TCP loopback round (seed-4 fixture)");
        assert_eq!(tcp.predictions, clean.predictions);
        assert!(tcp.excluded.is_empty());
        // TCP accounting includes handshakes and framing: strictly more
        // bytes than the payload-only in-memory accounting.
        assert!(tcp.uplink_bytes > clean.uplink_bytes);
        assert!(tcp.downlink_bytes > clean.downlink_bytes);
    }

    #[test]
    fn quorum_round_excludes_straggler_and_reports_it() {
        let (fed, cfg) = fixture(5);
        let z_count = fed.devices.len();
        // Device 3 is a total straggler: a fault plan that drops every one
        // of its uplink attempts. Per-link seeding means we can't target
        // one device directly, so emulate by running the round generically
        // with a transport whose open() drops one endpoint — simplest here:
        // run server/device halves manually.
        let transport = InMemoryTransport;
        let (mut server_link, mut device_links) = transport
            .open(z_count)
            .expect("open in-memory links for the quorum round");
        let policy = RoundPolicy {
            quorum: Some(z_count - 1),
            deadline: Duration::from_millis(800),
            ..RoundPolicy::default()
        };
        let dead = 3usize;
        let mut results: Vec<Option<Vec<usize>>> = (0..z_count).map(|_| None).collect();
        let mut excluded = Vec::new();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (z, mut link) in device_links.drain(..).enumerate() {
                if z == dead {
                    continue; // killed before it ever speaks
                }
                let device = &fed.devices[z];
                let (cfg, policy) = (&cfg, &policy);
                handles.push((
                    z,
                    scope.spawn(move || {
                        device_round(
                            &device.data,
                            z,
                            cfg,
                            &mut link,
                            policy,
                            &WireTelemetry::default(),
                        )
                    }),
                ));
            }
            excluded = server_round(&mut server_link, z_count, &cfg, &policy, None)
                .expect("server round should proceed at quorum Z-1 with one straggler");
            drop(server_link);
            for (z, h) in handles {
                let round = h
                    .join()
                    .unwrap_or_else(|_| panic!("device {z} thread panicked"));
                results[z] = Some(
                    round.unwrap_or_else(|e| panic!("healthy device {z} failed its round: {e:?}")),
                );
            }
        });
        assert_eq!(excluded, vec![dead]);
        // Every healthy device got a full labelling of its shard.
        for (z, r) in results.iter().enumerate() {
            if z != dead {
                let r = r
                    .as_ref()
                    .unwrap_or_else(|| panic!("device {z} produced no result"));
                assert_eq!(r.len(), fed.devices[z].data.cols());
            }
        }
    }

    #[test]
    fn missing_quorum_fails_the_round() {
        let (fed, cfg) = fixture(6);
        let z_count = fed.devices.len();
        let (mut server_link, _device_links) = InMemoryTransport
            .open(z_count)
            .expect("open in-memory links for the no-quorum round");
        let policy = RoundPolicy {
            quorum: Some(z_count), // all required, none will come
            deadline: Duration::from_millis(50),
            ..RoundPolicy::default()
        };
        assert!(server_round(&mut server_link, z_count, &cfg, &policy, None).is_err());
    }

    #[test]
    fn enveloped_uplinks_strip_absorb_and_decode() {
        let (mut server, mut devices) = InMemoryTransport
            .open(2)
            .expect("open in-memory links for the envelope round-trip");
        let cols: [&[f64]; 2] = [&[1.0, 2.0], &[3.0, 4.0]];
        let msg = UplinkMessage {
            dim: 2,
            samples: Matrix::from_columns(&cols).expect("2x2 sample matrix"),
        };
        let inner = msg.encode();
        let ctx = TraceContext {
            run_id: 9,
            node: 0,
            pid: 1000,
            parent_span: 77,
            ..TraceContext::default()
        };
        let env = Envelope {
            ctx: Some(ctx),
            ..Envelope::default()
        };
        devices[0]
            .send_uplink(&Bytes::from(env.wrap(inner.as_slice())))
            .expect("enveloped uplink");
        devices[1].send_uplink(&inner).expect("plain uplink");

        let mut fleet = FleetCollector::new();
        let payloads = collect_uplinks(
            &mut server,
            2,
            &[],
            Duration::from_secs(5),
            Some(&mut fleet),
        )
        .expect("collect the two uplinks");
        for (z, p) in payloads.iter().enumerate() {
            let p = p.as_ref().unwrap_or_else(|| panic!("uplink {z} missing"));
            assert_eq!(p.len(), 1, "uplink {z} holds one message");
            let m = &p[0];
            assert_eq!(m.col(0), &[1.0, 2.0], "uplink {z} col 0");
            assert_eq!(m.col(1), &[3.0, 4.0], "uplink {z} col 1");
        }
        assert_eq!(fleet.contexts, vec![ctx]);
        assert_eq!(fleet.envelope_bytes, env.encoded_len());
    }

    #[test]
    fn magic_with_malformed_envelope_fails_the_collect() {
        let (mut server, mut devices) = InMemoryTransport
            .open(1)
            .expect("open in-memory link for the malformed envelope");
        // Envelope magic followed by an unsupported version: must error,
        // never reach the uplink decoder.
        let mut bogus = b"FSCE".to_vec();
        bogus.extend_from_slice(&[0u8; 20]);
        devices[0]
            .send_uplink(&Bytes::from(bogus))
            .expect("send the corrupt payload");
        assert!(collect_uplinks(&mut server, 1, &[], Duration::from_secs(5), None).is_err());
    }

    #[test]
    fn ctx_envelopes_add_declared_bytes_without_perturbing_predictions() {
        let (fed, cfg) = fixture(10);
        let clean = run_over_wire(&fed, &cfg).expect("untraced reference round (seed-10 fixture)");
        assert_eq!(clean.envelope_bytes, 0, "telemetry off ships no envelopes");

        let z_count = fed.devices.len();
        let (mut server_link, mut device_links) = InMemoryTransport
            .open(z_count)
            .expect("open in-memory links for the ctx round");
        let policy = RoundPolicy::default();
        let mut fleet = FleetCollector::new();
        let mut gathered: Vec<Option<Vec<usize>>> = (0..z_count).map(|_| None).collect();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (z, mut link) in device_links.drain(..).enumerate() {
                let device = &fed.devices[z];
                let (cfg, policy) = (&cfg, &policy);
                handles.push((
                    z,
                    scope.spawn(move || {
                        let telemetry = WireTelemetry {
                            ctx: Some(TraceContext {
                                run_id: cfg.seed,
                                node: z as u64,
                                pid: 1,
                                ..TraceContext::default()
                            }),
                            ..WireTelemetry::default()
                        };
                        device_round(&device.data, z, cfg, &mut link, policy, &telemetry)
                    }),
                ));
            }
            let excluded = server_round(&mut server_link, z_count, &cfg, &policy, Some(&mut fleet))
                .expect("ctx round server side");
            assert!(excluded.is_empty());
            // The envelope overhead is exactly accounted: observed uplink
            // bytes are the untraced payload plus the absorbed envelopes.
            let stats = server_link.stats();
            assert_eq!(
                stats.bytes_received,
                clean.uplink_bytes + fleet.envelope_bytes
            );
            drop(server_link);
            for (z, h) in handles {
                let labels = h
                    .join()
                    .unwrap_or_else(|_| panic!("device {z} thread panicked"))
                    .unwrap_or_else(|e| panic!("device {z} round failed: {e:?}"));
                gathered[z] = Some(labels);
            }
        });

        let per_ctx = Envelope {
            ctx: Some(TraceContext::default()),
            ..Envelope::default()
        }
        .encoded_len();
        assert_eq!(fleet.envelope_bytes, per_ctx * z_count);
        assert_eq!(fleet.contexts.len(), z_count);
        let gathered: Vec<Vec<usize>> = gathered
            .into_iter()
            .map(|v| v.expect("every device reported"))
            .collect();
        // The in-band telemetry never reaches the clustering: predictions
        // are bit-identical to the untraced round.
        assert_eq!(fed.scatter_predictions(&gathered), clean.predictions);
    }

    /// A device's label vector (or round error); `None` for dead devices.
    type DeviceResult = Option<Result<Vec<usize>>>;

    /// Runs one round over `transport` with the devices in `dead` never
    /// speaking: the server half runs on this thread, every healthy device
    /// on its own. Returns the server result (excluded stragglers on
    /// success) and each healthy device's round result.
    fn round_with_dead<T: Transport>(
        transport: &T,
        fed: &FederatedDataset,
        cfg: &FedScConfig,
        policy: &RoundPolicy,
        dead: &[usize],
    ) -> (Result<Vec<usize>>, Vec<DeviceResult>) {
        let z_count = fed.devices.len();
        let (mut server_link, mut device_links) = transport
            .open(z_count)
            .expect("open links for the straggler round");
        let mut results: Vec<DeviceResult> = (0..z_count).map(|_| None).collect();
        let mut server_out: Option<Result<Vec<usize>>> = None;
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (z, mut link) in device_links.drain(..).enumerate() {
                if dead.contains(&z) {
                    continue; // killed before it ever speaks
                }
                let device = &fed.devices[z];
                let (cfg, policy) = (&cfg, &policy);
                handles.push((
                    z,
                    scope.spawn(move || {
                        device_round(
                            &device.data,
                            z,
                            cfg,
                            &mut link,
                            policy,
                            &WireTelemetry::default(),
                        )
                    }),
                ));
            }
            server_out = Some(server_round(&mut server_link, z_count, cfg, policy, None));
            // Closing the server links unblocks devices a failed round
            // never answered.
            drop(server_link);
            for (z, h) in handles {
                results[z] = Some(
                    h.join()
                        .unwrap_or_else(|_| panic!("device {z} thread panicked")),
                );
            }
        });
        (
            server_out.expect("server round ran on this thread"),
            results,
        )
    }

    /// The two transports the RoundPolicy edge cases are asserted over: the
    /// payload-only reference link and the framed fault-injection link with
    /// a clean fault plan (framing and CRC active, no injected faults).
    fn edge_case_transports() -> (InMemoryTransport, FaultyInMemoryTransport) {
        (
            InMemoryTransport,
            FaultyInMemoryTransport::new(FaultConfig {
                seed: 7,
                ..FaultConfig::default()
            }),
        )
    }

    #[test]
    fn quorum_equal_to_z_with_one_straggler_fails() {
        // Edge case: quorum == Z leaves no straggler allowance at all, so a
        // single dead device must fail the round on every transport.
        let (fed, cfg) = fixture(7);
        let z_count = fed.devices.len();
        let policy = RoundPolicy {
            quorum: Some(z_count),
            deadline: Duration::from_millis(400),
            ..RoundPolicy::default()
        };
        let (mem, faulty) = edge_case_transports();
        let (mem_server, _) = round_with_dead(&mem, &fed, &cfg, &policy, &[5]);
        assert!(
            mem_server.is_err(),
            "in-memory round met quorum Z despite a dead device"
        );
        let (faulty_server, _) = round_with_dead(&faulty, &fed, &cfg, &policy, &[5]);
        assert!(
            faulty_server.is_err(),
            "faulty-link round met quorum Z despite a dead device"
        );
    }

    #[test]
    fn zero_deadline_fails_even_with_healthy_devices() {
        // Edge case: a zero collection deadline expires before the first
        // recv, so even an all-healthy fleet cannot reach quorum.
        let (fed, cfg) = fixture(8);
        let policy = RoundPolicy {
            quorum: Some(1),
            deadline: Duration::ZERO,
            ..RoundPolicy::default()
        };
        let (mem, faulty) = edge_case_transports();
        let (mem_server, _) = round_with_dead(&mem, &fed, &cfg, &policy, &[]);
        assert!(
            mem_server.is_err(),
            "in-memory round proceeded under a zero deadline"
        );
        let (faulty_server, _) = round_with_dead(&faulty, &fed, &cfg, &policy, &[]);
        assert!(
            faulty_server.is_err(),
            "faulty-link round proceeded under a zero deadline"
        );
    }

    #[test]
    fn quorum_met_on_last_permissible_uplink() {
        // Edge case: exactly quorum-many devices are alive, so the round
        // proceeds only if the final permissible uplink is counted — and
        // the dead devices are reported as the excluded stragglers.
        let (fed, cfg) = fixture(9);
        let z_count = fed.devices.len();
        let dead = [2usize, 9usize];
        let policy = RoundPolicy {
            quorum: Some(z_count - dead.len()),
            deadline: Duration::from_millis(1_500),
            ..RoundPolicy::default()
        };
        let (mem, faulty) = edge_case_transports();
        for (name, server_out, results) in [
            (
                "in-memory",
                round_with_dead(&mem, &fed, &cfg, &policy, &dead),
            ),
            (
                "faulty",
                round_with_dead(&faulty, &fed, &cfg, &policy, &dead),
            ),
        ]
        .map(|(n, (s, r))| (n, s, r))
        {
            let excluded = server_out
                .unwrap_or_else(|e| panic!("{name} round failed at exactly-met quorum: {e:?}"));
            assert_eq!(excluded, dead.to_vec(), "{name} excluded set");
            for (z, r) in results.iter().enumerate() {
                if dead.contains(&z) {
                    assert!(r.is_none(), "{name}: dead device {z} somehow ran");
                    continue;
                }
                let labels = r
                    .as_ref()
                    .unwrap_or_else(|| panic!("{name}: healthy device {z} produced no result"))
                    .as_ref()
                    .unwrap_or_else(|e| panic!("{name}: healthy device {z} failed: {e:?}"));
                assert_eq!(
                    labels.len(),
                    fed.devices[z].data.cols(),
                    "{name} device {z}"
                );
            }
        }
    }
}
