//! The staged, single-threaded tree driver.
//!
//! One hierarchical round is two sweeps over the tree:
//!
//! 1. **Uplink sweep (bottom-up).** Every device runs [`device_step`] and
//!    sends its encoded uplink; then tier by tier each parent collects its
//!    children's uplinks under the tier's [`fedsc::RoundPolicy`] and runs
//!    [`merge_step`] on them (the root into `L` clusters, an aggregator
//!    into an eigengap-estimated count of at most `L`). Every aggregator
//!    forwards [`Merge::representatives`] — one sample per non-empty
//!    merged cluster — to its own parent.
//! 2. **Downlink sweep (top-down).** The root answers with
//!    [`Merge::downlinks`]; each aggregator receives the labels of *its*
//!    representatives and relays [`Merge::compose`] (`child sample →
//!    merged cluster → global label`), one downlink per included child.
//!    Devices finish with the flat round's [`relabel`].
//!
//! The sweeps are sequential on the calling thread: every send at tier
//! `t` completes before any tier-`t` parent starts collecting, which all
//! three transports support (unbounded in-process buffering; TCP
//! handshake/uplink handled by the endpoint's own background threads).
//! This crate spawns no threads and opens no sockets of its own.
//!
//! Failure semantics: a child whose uplink misses the tier deadline is a
//! straggler; a parent that misses its quorum (or cannot reach its own
//! parent within the retry budget) fails its whole subtree — those
//! devices keep the fallback label 0 and are reported in
//! [`fedsc::WireRunOutput::excluded`]. A quorum miss *at the root* fails the
//! round, exactly like the flat server.

use crate::output::{HierRunOutput, TierTraffic};
use crate::topology::{HierPolicy, HierTopology};
use bytes::Bytes;
use fedsc::local::LocalOutput;
use fedsc::{
    collect_uplinks, device_step, merge_step, relabel, wire_err, FedScConfig, Merge, MergeAt,
};
use fedsc_federated::channel::{DownlinkMessage, UplinkMessage};
use fedsc_federated::partition::FederatedDataset;
use fedsc_linalg::{LinalgError, Result};
use fedsc_obs::{Envelope, FleetCollector, LazyCounter, Stopwatch, TraceContext};
use fedsc_transport::{with_retry, DeviceTransport, LinkStats, ServerTransport, Transport};

/// Device rounds completed (uplink sent, downlink applied).
static HIER_DEVICE_ROUNDS: LazyCounter = LazyCounter::new("hier.device_rounds");
/// Aggregator rounds completed (children pooled, representatives sent up).
static HIER_AGG_ROUNDS: LazyCounter = LazyCounter::new("hier.agg_rounds");
/// Root rounds completed.
static HIER_ROOT_ROUNDS: LazyCounter = LazyCounter::new("hier.root_rounds");
/// Children excluded as stragglers across all tiers.
static HIER_STRAGGLERS: LazyCounter = LazyCounter::new("hier.stragglers_excluded");
/// Aggregators that failed their subtree (quorum miss or unreachable parent).
static HIER_SUBTREES_FAILED: LazyCounter = LazyCounter::new("hier.subtrees_failed");
/// Uplink bytes observed by parents, summed over every tier.
static HIER_UPLINK_BYTES: LazyCounter = LazyCounter::new("hier.uplink_bytes");
/// Downlink bytes sent by parents, summed over every tier.
static HIER_DOWNLINK_BYTES: LazyCounter = LazyCounter::new("hier.downlink_bytes");

/// Wraps an uplink payload with a ctx-only telemetry envelope when
/// tracing is on. The whole tree runs in one process here, so spans and
/// metrics stay in the shared ring/registry and only the causal context
/// rides the wire — the receiver's per-uplink span links to
/// `ctx.parent_span` as its remote parent.
fn wrap_ctx(payload: Bytes, traced: bool, ctx: TraceContext) -> Bytes {
    if !traced {
        return payload;
    }
    Bytes::from(
        Envelope {
            ctx: Some(ctx),
            ..Envelope::default()
        }
        .wrap(payload.as_slice()),
    )
}

/// Runs one hierarchical Fed-SC round over `transport` with the given
/// tree shape and per-tier policy. See the module docs for the staged
/// execution model and failure semantics.
pub fn run_hier_round<T: Transport>(
    fed: &FederatedDataset,
    cfg: &FedScConfig,
    topology: &HierTopology,
    transport: &T,
    policy: &HierPolicy,
) -> Result<HierRunOutput> {
    run_hier_round_with_dead(fed, cfg, topology, transport, policy, &[])
}

/// [`run_hier_round`] with the devices in `dead_devices` never speaking —
/// the deterministic straggler model the quorum tests and the perf
/// harness drive (a dead device neither computes nor sends, exactly like
/// a crashed client).
pub fn run_hier_round_with_dead<T: Transport>(
    fed: &FederatedDataset,
    cfg: &FedScConfig,
    topology: &HierTopology,
    transport: &T,
    policy: &HierPolicy,
    dead_devices: &[usize],
) -> Result<HierRunOutput> {
    let z_count = fed.devices.len();
    topology.validate()?;
    if topology.devices != z_count {
        return Err(LinalgError::InvalidArgument(
            "hier topology device count does not match the dataset",
        ));
    }
    let widths = topology.widths();
    let num_tiers = topology.num_tiers();
    let _span = fedsc_obs::span("hier", "hier.run")
        .field("devices", z_count)
        .field("tiers", num_tiers);
    let traced = fedsc_obs::trace::is_enabled();
    // Child → parent index per tier, for stamping trace contexts.
    let parent_of: Vec<Vec<usize>> = (0..num_tiers)
        .map(|t| {
            let mut v = vec![0usize; widths[t]];
            for p in 0..widths[t + 1] {
                for c in topology.children_range(t, p) {
                    v[c] = p;
                }
            }
            v
        })
        .collect();
    // Per-tier wall time and absorbed telemetry-envelope bytes.
    let mut tier_wall_ns = vec![0u64; num_tiers];
    let mut tier_env_bytes = vec![0usize; num_tiers];

    // Open every tier's fan-ins: one (server, children) group per parent.
    // Child endpoints land in a flat per-tier vector (group ranges are
    // contiguous and ascending), parent endpoints in per-tier vectors.
    let mut servers: Vec<Vec<T::Server>> = Vec::with_capacity(num_tiers);
    let mut child_links: Vec<Vec<T::Device>> = Vec::with_capacity(num_tiers);
    for t in 0..num_tiers {
        let parents = widths[t + 1];
        let mut tier_servers = Vec::with_capacity(parents);
        let mut tier_children = Vec::with_capacity(widths[t]);
        for p in 0..parents {
            let range = topology.children_range(t, p);
            let (server, children) = transport.open(range.len()).map_err(wire_err)?;
            tier_servers.push(server);
            tier_children.extend(children);
        }
        servers.push(tier_servers);
        child_links.push(tier_children);
    }

    // ---- Uplink sweep, stage 0: every live device computes and sends. ----
    let mut is_dead = vec![false; z_count];
    for &d in dead_devices {
        if d < z_count {
            is_dead[d] = true;
        }
    }
    let device_policy = policy.tier(0);
    let mut local_outs: Vec<Option<LocalOutput>> = (0..z_count).map(|_| None).collect();
    let stage0_sw = Stopwatch::start();
    for z in 0..z_count {
        if is_dead[z] {
            continue;
        }
        let dev_span = fedsc_obs::span("hier", "hier.device_uplink").field("device", z);
        let dev_span_id = dev_span.id();
        let step = device_step(&fed.devices[z].data, z, cfg)?;
        let payload = wrap_ctx(
            UplinkMessage {
                dim: step.uplink.rows(),
                samples: step.uplink,
            }
            .encode(),
            traced,
            TraceContext {
                run_id: cfg.seed,
                round: 0,
                tier: 0,
                node: z as u64,
                parent: parent_of[0][z] as u64,
                pid: 1,
                parent_span: dev_span_id,
            },
        );
        let link = &mut child_links[0][z];
        if with_retry(
            device_policy.max_retries,
            device_policy.retry_backoff,
            || link.send_uplink(&payload),
        )
        .is_err()
        {
            // Retry budget exhausted: the device becomes a straggler its
            // parent's quorum policy will account for, not a fatal error.
            continue;
        }
        local_outs[z] = Some(step.local);
    }
    tier_wall_ns[0] += stage0_sw.elapsed_ns();

    // ---- Uplink sweep, stages 1..: tier-by-tier aggregation. ----
    // `agg_states[t][p]`: what parent `p` of tier `t` remembers for the
    // downlink sweep (None = failed subtree, or the root which needs none).
    let mut agg_states: Vec<Vec<Option<Merge>>> = (0..num_tiers)
        .map(|t| (0..widths[t + 1]).map(|_| None).collect())
        .collect();
    // `answered[t][c]`: node `c` at level `t` was sent a downlink.
    let mut answered: Vec<Vec<bool>> = widths[..num_tiers]
        .iter()
        .map(|&w| vec![false; w])
        .collect();
    let mut excluded_at: Vec<Vec<usize>> = (0..num_tiers).map(|_| Vec::new()).collect();

    for t in 0..num_tiers {
        let tier_sw = Stopwatch::start();
        let is_root = t + 1 == num_tiers;
        let tier_policy = policy.tier(t);
        let mut tier_fleet = FleetCollector::new();
        for p in 0..widths[t + 1] {
            let range = topology.children_range(t, p);
            let n_children = range.len();
            let agg_span = fedsc_obs::span(
                "hier",
                if is_root {
                    "hier.root_uplink"
                } else {
                    "hier.agg_uplink"
                },
            )
            .field("tier", t)
            .field("node", p)
            .field("children", n_children);
            let agg_span_id = agg_span.id();
            let uplinks = collect_uplinks(
                &mut servers[t][p],
                n_children,
                tier_policy.deadline,
                Some(&mut tier_fleet),
            )?;
            let received = uplinks.iter().filter(|m| m.is_some()).count();
            for (local, m) in uplinks.iter().enumerate() {
                if m.is_none() {
                    excluded_at[t].push(range.start + local);
                }
            }
            drop(agg_span.field("received", received));
            if received < tier_policy.required(n_children) {
                if is_root {
                    return Err(LinalgError::InvalidArgument(
                        "root quorum not met before the round deadline",
                    ));
                }
                HIER_SUBTREES_FAILED.inc();
                continue;
            }
            if uplinks.iter().flatten().all(|m| m.cols() == 0) {
                // Quorum of empty uploads (all included devices hold zero
                // points): nothing to cluster, nothing to forward.
                if is_root {
                    return Err(LinalgError::InvalidArgument(
                        "root received no samples to cluster",
                    ));
                }
                HIER_SUBTREES_FAILED.inc();
                continue;
            }

            let at = if is_root {
                MergeAt::Root
            } else {
                MergeAt::Aggregator { tier: t, node: p }
            };
            let (merge, pooled, _) = merge_step(uplinks, cfg, at)?;
            if is_root {
                // The root is the flat server: answer every included child.
                for (c, down) in merge.downlinks() {
                    let reply = down.encode();
                    with_retry(tier_policy.max_retries, tier_policy.retry_backoff, || {
                        servers[t][p].send_downlink(c, &reply)
                    })
                    .map_err(wire_err)?;
                    answered[t][range.start + c] = true;
                }
                HIER_ROOT_ROUNDS.inc();
            } else {
                // Forward one representative per non-empty merged cluster.
                let reps = merge.representatives(&pooled);
                let payload = wrap_ctx(
                    UplinkMessage {
                        dim: reps.rows(),
                        samples: reps,
                    }
                    .encode(),
                    traced,
                    TraceContext {
                        run_id: cfg.seed,
                        round: 0,
                        tier: (t + 1) as u32,
                        node: p as u64,
                        parent: parent_of[t + 1][p] as u64,
                        pid: 1,
                        parent_span: agg_span_id,
                    },
                );
                let up_policy = policy.tier(t + 1);
                let link = &mut child_links[t + 1][p];
                if with_retry(up_policy.max_retries, up_policy.retry_backoff, || {
                    link.send_uplink(&payload)
                })
                .is_err()
                {
                    // Unreachable parent: the subtree fails as a unit.
                    HIER_SUBTREES_FAILED.inc();
                    continue;
                }
                HIER_AGG_ROUNDS.inc();
                agg_states[t][p] = Some(merge);
            }
        }
        tier_env_bytes[t] = tier_fleet.envelope_bytes;
        tier_wall_ns[t] += tier_sw.elapsed_ns();
    }

    // ---- Downlink sweep: relay composed labels tier by tier. ----
    for t in (0..num_tiers.saturating_sub(1)).rev() {
        let tier_sw = Stopwatch::start();
        let tier_policy = policy.tier(t);
        let parent_policy = policy.tier(t + 1);
        for p in 0..widths[t + 1] {
            let Some(state) = agg_states[t][p].take() else {
                continue; // failed subtree: children stay unanswered
            };
            if !answered[t + 1][p] {
                continue; // our own parent excluded or failed us
            }
            let _span = fedsc_obs::span("hier", "hier.agg_downlink")
                .field("tier", t)
                .field("node", p)
                .field("children", state.included.len());
            let reply = child_links[t + 1][p]
                .recv_downlink(parent_policy.downlink_wait())
                .map_err(wire_err)?;
            let down = DownlinkMessage::decode(reply)
                .ok_or(LinalgError::InvalidArgument("malformed downlink"))?;
            let range = topology.children_range(t, p);
            for (c, child_reply) in state.compose(&down)? {
                let child_reply = child_reply.encode();
                if with_retry(tier_policy.max_retries, tier_policy.retry_backoff, || {
                    servers[t][p].send_downlink(c, &child_reply)
                })
                .is_ok()
                {
                    answered[t][range.start + c] = true;
                }
            }
        }
        tier_wall_ns[t] += tier_sw.elapsed_ns();
    }

    // ---- Device finish: flat Phase 3 on every answered device. ----
    let finish_sw = Stopwatch::start();
    let mut gathered: Vec<Vec<usize>> = Vec::with_capacity(z_count);
    let mut excluded_devices = Vec::new();
    for z in 0..z_count {
        if !answered[0][z] {
            gathered.push(vec![0usize; fed.devices[z].data.cols()]);
            excluded_devices.push(z);
            continue;
        }
        let reply = child_links[0][z]
            .recv_downlink(device_policy.downlink_wait())
            .map_err(wire_err)?;
        let down = DownlinkMessage::decode(reply)
            .ok_or(LinalgError::InvalidArgument("malformed downlink"))?;
        let out = local_outs[z]
            .take()
            .ok_or(LinalgError::InvalidArgument("answered device never ran"))?;
        gathered.push(relabel(&out, &down.assignments, cfg.num_clusters)?);
        HIER_DEVICE_ROUNDS.inc();
    }
    tier_wall_ns[0] += finish_sw.elapsed_ns();

    // ---- Per-tier accounting from the endpoints' own stats. ----
    let mut tiers = Vec::with_capacity(num_tiers);
    for (t, tier_servers) in servers.iter().enumerate() {
        let mut stats = LinkStats::default();
        for s in tier_servers {
            stats.merge(&s.stats());
        }
        HIER_UPLINK_BYTES.add(stats.bytes_received as u64);
        HIER_DOWNLINK_BYTES.add(stats.bytes_sent as u64);
        HIER_STRAGGLERS.add(excluded_at[t].len() as u64);
        tiers.push(TierTraffic {
            parents: widths[t + 1],
            children: widths[t],
            uplink_bytes: stats.bytes_received,
            downlink_bytes: stats.bytes_sent,
            uplink_messages: stats.messages_received,
            downlink_messages: stats.messages_sent,
            excluded_children: std::mem::take(&mut excluded_at[t]),
            wall_ns: tier_wall_ns[t],
            envelope_bytes: tier_env_bytes[t],
        });
    }

    let root_uplink = tiers.last().map_or(0, |t| t.uplink_bytes);
    let root_downlink = tiers.last().map_or(0, |t| t.downlink_bytes);
    let root_envelope = tiers.last().map_or(0, |t| t.envelope_bytes);
    Ok(HierRunOutput {
        wire: fedsc::WireRunOutput {
            predictions: fed.scatter_predictions(&gathered),
            uplink_bytes: root_uplink,
            downlink_bytes: root_downlink,
            excluded: excluded_devices,
            envelope_bytes: root_envelope,
        },
        tiers,
    })
}
