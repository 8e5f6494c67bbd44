//! The aggregation tree: the one in-process transport driver of the
//! Fed-SC round.
//!
//! A flat round has every device talk to a single server. Over an
//! **aggregation tree** devices upload to first-tier aggregators, and each
//! aggregator **relays**: it collects its children under its tier's
//! quorum and forwards their device uplinks unmerged to its parent. The
//! root clusters the pool once, as the paper's Phase 2 does, and each
//! aggregator splits its parent's labels back over its children. The tree
//! spreads connections, deadlines and quorums over tiers; it does not
//! shrink the root's pool. Because children are contiguous chunks, the
//! root pools exactly the flat round's matrix, so **tree ≡ flat**: with a
//! lossless link and every subtree at quorum, every topology predicts
//! bit for bit what the flat round [`HierTopology::flat`] (no aggregator
//! tier, every device a child of the root) predicts.
//!
//! The driver is **staged and single-threaded**. One round is two sweeps:
//!
//! 1. **Uplink sweep (bottom-up).** Every device runs
//!    [`device_uplink`]; then tier by tier each aggregator runs
//!    [`aggregator_uplink`](crate::wire::aggregator_uplink) and finally the
//!    root runs [`server_round`](crate::wire::server_round), which also
//!    answers the root's children. The driver knows which children sent
//!    nothing up (dead devices, lost uplinks, failed subtrees), so a
//!    parent stops collecting once all the others have reported instead
//!    of waiting out its deadline.
//! 2. **Downlink sweep (top-down).** Each answered aggregator runs
//!    [`aggregator_downlink`]; each answered device finishes with
//!    [`device_downlink`].
//!
//! Every send at tier `t` completes before any tier-`t` parent starts
//! collecting, which all three transports support (unbounded in-process
//! buffering; TCP handshake and uplink handled by the endpoint's own
//! background threads). The driver spawns no threads and opens no sockets
//! of its own.
//!
//! Guarantees:
//!
//! * **One code path.** Each role is the [`crate::wire`] function the
//!   process binaries call too, under the failure rule stated there: a
//!   child whose uplink or downlink is lost, or whose subtree failed,
//!   keeps the fallback label 0 and is reported excluded; a quorum miss
//!   at an aggregator fails its subtree, and at the root fails the round.
//! * **Tree ≡ flat round ≡ `FedSc::run`.** With a lossless link the flat
//!   topology is bit-identical to the in-process scheme (tested in
//!   [`crate::wire`]), and so is every tree whose subtrees all meet quorum
//!   (tested in `hier_e2e`).
//! * **Byte-exact per-tier accounting.** [`HierRunOutput`] extends
//!   [`WireRunOutput`] with one [`TierTraffic`] row per tier, summed from
//!   the same [`LinkStats`] the endpoints keep.
//! * **Per-tier straggler policy.** Each link tier runs under its own
//!   [`RoundPolicy`] ([`HierPolicy`]).
//!
//! Levels are numbered bottom-up: level 0 holds the `Z` leaf devices,
//! levels `1..=A` the aggregator tiers, and the implicit top level the
//! single root. **Tier `t`** names the link layer between level-`t`
//! children and their level-`t+1` parents, so a tree with `A` aggregator
//! tiers has `A + 1` link tiers. Children are assigned to parents in
//! contiguous balanced chunks: parent `p` of `P` at a tier with `C`
//! children owns `[C*p/P, C*(p+1)/P)`. Widths must be non-increasing so
//! every parent owns at least one child.

use crate::config::FedScConfig;
use crate::local::LocalOutput;
use crate::round::Fanin;
use crate::wire::{
    aggregator_downlink, aggregator_uplink_with_silent, device_downlink, device_uplink,
    server_round_with_silent, wire_err, AggregatorNode, RoundPolicy, WireRunOutput, WireTelemetry,
};
use fedsc_federated::partition::FederatedDataset;
use fedsc_linalg::{LinalgError, Result};
use fedsc_obs::{FleetCollector, LazyCounter, Stopwatch, TraceContext};
use fedsc_transport::{LinkStats, ServerTransport, Transport};
use std::ops::Range;

/// Devices that completed their round (uplink sent, downlink applied).
static HIER_DEVICE_ROUNDS: LazyCounter = LazyCounter::new("hier.device_rounds");
/// Root rounds completed.
static HIER_ROOT_ROUNDS: LazyCounter = LazyCounter::new("hier.root_rounds");
/// Children left unanswered, summed over every tier.
static HIER_STRAGGLERS: LazyCounter = LazyCounter::new("hier.stragglers_excluded");
/// Uplink bytes observed by parents, summed over every tier.
static HIER_UPLINK_BYTES: LazyCounter = LazyCounter::new("hier.uplink_bytes");
/// Downlink bytes sent by parents, summed over every tier.
static HIER_DOWNLINK_BYTES: LazyCounter = LazyCounter::new("hier.downlink_bytes");

/// The shape of the aggregation tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierTopology {
    /// Number of leaf devices `Z` (level 0).
    pub devices: usize,
    /// Width of each aggregator tier, bottom-up. Empty means the devices
    /// talk straight to the root: the flat round.
    pub aggregators: Vec<usize>,
}

impl HierTopology {
    /// A validated tree: `devices` leaves, then one aggregator tier per
    /// entry of `aggregators` (bottom-up), then the root.
    pub fn new(devices: usize, aggregators: Vec<usize>) -> Result<Self> {
        let topo = HierTopology {
            devices,
            aggregators,
        };
        topo.validate()?;
        Ok(topo)
    }

    /// The degenerate tree: every device is a direct child of the root.
    pub fn flat(devices: usize) -> Self {
        HierTopology {
            devices,
            aggregators: Vec::new(),
        }
    }

    /// Checks the shape invariants: at least one device, no empty tier,
    /// and non-increasing widths (so every parent owns ≥ 1 child).
    pub fn validate(&self) -> Result<()> {
        if self.devices == 0 {
            return Err(LinalgError::InvalidArgument(
                "hier topology needs at least one device",
            ));
        }
        let mut below = self.devices;
        for &w in &self.aggregators {
            if w == 0 {
                return Err(LinalgError::InvalidArgument(
                    "hier topology has an empty aggregator tier",
                ));
            }
            if w > below {
                return Err(LinalgError::InvalidArgument(
                    "hier topology tier is wider than the tier below it",
                ));
            }
            below = w;
        }
        Ok(())
    }

    /// Node count per level, bottom-up: `[Z, a_1, …, a_A, 1]`.
    pub fn widths(&self) -> Vec<usize> {
        let mut w = Vec::with_capacity(self.aggregators.len() + 2);
        w.push(self.devices);
        w.extend_from_slice(&self.aggregators);
        w.push(1);
        w
    }

    /// Number of link tiers (`aggregators.len() + 1`).
    pub fn num_tiers(&self) -> usize {
        self.aggregators.len() + 1
    }

    /// The level-`tier` children owned by parent `parent` at level
    /// `tier + 1`: the contiguous balanced chunk `[C*p/P, C*(p+1)/P)`.
    pub fn children_range(&self, tier: usize, parent: usize) -> Range<usize> {
        let widths = self.widths();
        let children = widths[tier];
        let parents = widths[tier + 1];
        (children * parent / parents)..(children * (parent + 1) / parents)
    }
}

/// Per-tier straggler and reliability policy: `tiers[t]` governs link
/// tier `t` (bottom-up); the last entry repeats for any deeper tier, so a
/// single-entry policy is uniform across the whole tree.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HierPolicy {
    /// Bottom-up per-tier policies. May be empty: every tier then runs
    /// under `RoundPolicy::default()`.
    pub tiers: Vec<RoundPolicy>,
}

impl HierPolicy {
    /// The same policy at every tier.
    pub fn uniform(policy: RoundPolicy) -> Self {
        HierPolicy {
            tiers: vec![policy],
        }
    }

    /// The policy governing link tier `t` (last entry repeats; defaults
    /// when no entry was given at all).
    pub fn tier(&self, t: usize) -> RoundPolicy {
        self.tiers
            .get(t)
            .or(self.tiers.last())
            .cloned()
            .unwrap_or_default()
    }
}

/// Wire accounting for one link tier, summed over every parent endpoint
/// at that tier — byte-exact against the transport's own [`LinkStats`]
/// (the lossless in-memory link counts payload bytes; framed links count
/// framing and handshake too).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TierTraffic {
    /// Parent nodes at this tier (aggregators, or 1 for the root tier).
    pub parents: usize,
    /// Child nodes at this tier (devices at tier 0).
    pub children: usize,
    /// Bytes the tier's parents took off the wire (children's uplinks).
    pub uplink_bytes: usize,
    /// Bytes the tier's parents put on the wire (downlink broadcasts).
    pub downlink_bytes: usize,
    /// Uplink messages the tier's parents received.
    pub uplink_messages: u64,
    /// Downlink messages the tier's parents sent.
    pub downlink_messages: u64,
    /// Children this tier never answered — stragglers, children whose
    /// downlink was lost, and children of failed subtrees. Indices are
    /// node ids at the tier's child level (device ids at tier 0).
    pub excluded_children: Vec<usize>,
    /// Wall time the driver spent working this tier: its children's
    /// compute-and-send stage (tier 0 only), its parents' uplink
    /// collection and forwarding (clustering, at the root tier), and its
    /// downlink relay. Always non-zero on a completed round.
    pub wall_ns: u64,
    /// Serialized telemetry-envelope bytes this tier's parents absorbed
    /// from their children's uplinks — the exact share of `uplink_bytes`
    /// that is telemetry, 0 when tracing is off.
    pub envelope_bytes: usize,
}

/// Result of a hierarchical run: the flat [`WireRunOutput`] view (the
/// `uplink_bytes`/`downlink_bytes` fields are the **root's** accounting)
/// plus the per-tier breakdown, bottom-up.
#[derive(Debug, Clone)]
pub struct HierRunOutput {
    /// Flat-round view: predictions in global-point order, root-tier
    /// byte accounting, and the devices that fell back to cluster 0.
    pub wire: WireRunOutput,
    /// Per-tier traffic, `tiers[0]` = device→first-parent links,
    /// `tiers.last()` = top-tier→root links (the same tier when flat).
    pub tiers: Vec<TierTraffic>,
}

impl HierRunOutput {
    /// Uplink bytes the root took off the wire. On a lossless untraced
    /// link whose subtrees all met quorum it equals tier 0's: aggregators
    /// forward their children's payloads unchanged.
    pub fn root_uplink_bytes(&self) -> usize {
        self.tiers.last().map_or(0, |t| t.uplink_bytes)
    }

    /// Uplink bytes summed over every tier (total tree ingress).
    pub fn total_uplink_bytes(&self) -> usize {
        self.tiers.iter().map(|t| t.uplink_bytes).sum()
    }

    /// Downlink bytes summed over every tier (total tree egress).
    pub fn total_downlink_bytes(&self) -> usize {
        self.tiers.iter().map(|t| t.downlink_bytes).sum()
    }
}

/// Runs one Fed-SC round over `transport` with the given tree shape and
/// per-tier policy. See the module docs for the staged execution model.
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
    // With tracing on, every uplink carries its causal context in-band;
    // spans and metrics stay in the shared ring and registry. Tracing off
    // attaches nothing, keeping the payloads byte-identical.
    let traced = fedsc_obs::trace::is_enabled();
    let telemetry = |tier: usize, node: usize, parent: usize| WireTelemetry {
        ctx: traced.then_some(TraceContext {
            run_id: cfg.seed,
            round: 0,
            tier: tier as u32,
            node: node as u64,
            parent: parent as u64,
            pid: 1,
            parent_span: 0,
        }),
        ..WireTelemetry::default()
    };
    // Parent index of every node below the root, per level.
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
    let mut tier_wall_ns = vec![0u64; num_tiers];
    let mut tier_env_bytes = vec![0usize; num_tiers];

    // Open every tier's fan-ins: one (server, children) group per parent.
    // Child endpoints land in a flat per-tier vector (group ranges are
    // contiguous and ascending), parent endpoints in per-tier vectors.
    let mut servers: Vec<Vec<T::Server>> = Vec::with_capacity(num_tiers);
    let mut child_links: Vec<Vec<T::Device>> = Vec::with_capacity(num_tiers);
    for t in 0..num_tiers {
        let mut tier_servers = Vec::with_capacity(widths[t + 1]);
        let mut tier_children = Vec::with_capacity(widths[t]);
        for p in 0..widths[t + 1] {
            let (server, children) = transport
                .open(topology.children_range(t, p).len())
                .map_err(wire_err)?;
            tier_servers.push(server);
            tier_children.extend(children);
        }
        servers.push(tier_servers);
        child_links.push(tier_children);
    }
    // `answered[t][c]`: node `c` at level `t` was sent a downlink.
    let mut answered: Vec<Vec<bool>> = widths[..num_tiers]
        .iter()
        .map(|&w| vec![false; w])
        .collect();

    // ---- Uplink sweep, stage 0: every live device computes and sends. ----
    let device_policy = policy.tier(0);
    let mut local_outs: Vec<Option<LocalOutput>> = (0..z_count).map(|_| None).collect();
    let stage0_sw = Stopwatch::start();
    for (z, out) in local_outs.iter_mut().enumerate() {
        if dead_devices.contains(&z) {
            continue;
        }
        *out = device_uplink(
            &fed.devices[z].data,
            z,
            cfg,
            &mut child_links[0][z],
            &device_policy,
            &telemetry(0, z, parent_of[0][z]),
        )?;
    }
    tier_wall_ns[0] += stage0_sw.elapsed_ns();

    // ---- Uplink sweep, stages 1..: the aggregator tiers, then the root. ----
    // `agg_states[t][p]`: what aggregator `p` of tier `t` keeps for the
    // downlink sweep (None = failed subtree).
    let mut agg_states: Vec<Vec<Option<(AggregatorNode, Fanin)>>> = (0..num_tiers)
        .map(|t| (0..widths[t + 1]).map(|_| None).collect())
        .collect();
    for t in 0..num_tiers {
        let tier_sw = Stopwatch::start();
        let mut tier_fleet = FleetCollector::new();
        // Level-`t` nodes that sent nothing up: dead devices, lost
        // uplinks, failed subtrees. Their parents stop waiting for them.
        let sent: Vec<bool> = if t == 0 {
            local_outs.iter().map(Option::is_some).collect()
        } else {
            agg_states[t - 1].iter().map(Option::is_some).collect()
        };
        let silent = |p: usize| -> Vec<usize> {
            let children = topology.children_range(t, p);
            let start = children.start;
            children.filter(|&c| !sent[c]).map(|c| c - start).collect()
        };
        if t + 1 == num_tiers {
            let fan_in = widths[t];
            let excluded = server_round_with_silent(
                &mut servers[t][0],
                fan_in,
                &silent(0),
                cfg,
                &policy.tier(t),
                Some(&mut tier_fleet),
            )?;
            for (c, done) in answered[t].iter_mut().enumerate() {
                *done = !excluded.contains(&c);
            }
            HIER_ROOT_ROUNDS.inc();
        } else {
            for p in 0..widths[t + 1] {
                let node = AggregatorNode {
                    tier: t,
                    node: p,
                    fan_in: topology.children_range(t, p).len(),
                    below: policy.tier(t),
                    above: policy.tier(t + 1),
                };
                let fanin = aggregator_uplink_with_silent(
                    &mut servers[t][p],
                    &mut child_links[t + 1][p],
                    &node,
                    &silent(p),
                    &mut tier_fleet,
                    &telemetry(t + 1, p, parent_of[t + 1][p]),
                )?;
                agg_states[t][p] = fanin.map(|f| (node, f));
            }
        }
        tier_env_bytes[t] = tier_fleet.envelope_bytes;
        tier_wall_ns[t] += tier_sw.elapsed_ns();
    }

    // ---- Downlink sweep: split the root's labels tier by tier. ----
    for t in (0..num_tiers - 1).rev() {
        let tier_sw = Stopwatch::start();
        for p in 0..widths[t + 1] {
            let Some((node, fanin)) = agg_states[t][p].take() else {
                continue; // failed subtree: children stay unanswered
            };
            if !answered[t + 1][p] {
                continue; // our own parent excluded or failed us
            }
            let start = topology.children_range(t, p).start;
            for c in aggregator_downlink(
                &mut servers[t][p],
                &mut child_links[t + 1][p],
                &node,
                &fanin,
            )? {
                answered[t][start + c] = true;
            }
        }
        tier_wall_ns[t] += tier_sw.elapsed_ns();
    }

    // ---- Device finish: Phase 3 on every answered device. ----
    let finish_sw = Stopwatch::start();
    let mut gathered: Vec<Vec<usize>> = Vec::with_capacity(z_count);
    for z in 0..z_count {
        gathered.push(match local_outs[z].take() {
            Some(local) if answered[0][z] => {
                let labels =
                    device_downlink(&local, z, cfg, &mut child_links[0][z], &device_policy)?;
                HIER_DEVICE_ROUNDS.inc();
                labels
            }
            // Fallback for points the round never clustered.
            _ => vec![0usize; fed.devices[z].data.cols()],
        });
    }
    tier_wall_ns[0] += finish_sw.elapsed_ns();

    // ---- Per-tier accounting from the endpoints' own stats. ----
    let mut tiers = Vec::with_capacity(num_tiers);
    for (t, tier_servers) in servers.iter().enumerate() {
        let mut stats = LinkStats::default();
        for s in tier_servers {
            stats.merge(&s.stats());
        }
        let excluded_children: Vec<usize> = (0..widths[t]).filter(|&c| !answered[t][c]).collect();
        HIER_UPLINK_BYTES.add(stats.bytes_received as u64);
        HIER_DOWNLINK_BYTES.add(stats.bytes_sent as u64);
        HIER_STRAGGLERS.add(excluded_children.len() as u64);
        tiers.push(TierTraffic {
            parents: widths[t + 1],
            children: widths[t],
            uplink_bytes: stats.bytes_received,
            downlink_bytes: stats.bytes_sent,
            uplink_messages: stats.messages_received,
            downlink_messages: stats.messages_sent,
            excluded_children,
            wall_ns: tier_wall_ns[t],
            envelope_bytes: tier_env_bytes[t],
        });
    }

    let root = tiers.last().cloned().unwrap_or_default();
    Ok(HierRunOutput {
        wire: WireRunOutput {
            predictions: fed.scatter_predictions(&gathered),
            uplink_bytes: root.uplink_bytes,
            downlink_bytes: root.downlink_bytes,
            excluded: tiers[0].excluded_children.clone(),
            envelope_bytes: root.envelope_bytes,
        },
        tiers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_and_tiers() {
        let topo = HierTopology::new(12, vec![4, 2]).expect("valid 12→4→2→root tree");
        assert_eq!(topo.widths(), vec![12, 4, 2, 1]);
        assert_eq!(topo.num_tiers(), 3);
        assert_eq!(HierTopology::flat(7).num_tiers(), 1);
    }

    #[test]
    fn children_ranges_partition_each_tier() {
        let topo = HierTopology::new(10, vec![3]).expect("valid 10→3→root tree");
        for t in 0..topo.num_tiers() {
            let widths = topo.widths();
            let mut covered = 0usize;
            for p in 0..widths[t + 1] {
                let r = topo.children_range(t, p);
                assert_eq!(r.start, covered, "tier {t} parent {p} is contiguous");
                assert!(!r.is_empty(), "tier {t} parent {p} owns no child");
                covered = r.end;
            }
            assert_eq!(covered, widths[t], "tier {t} covers every child");
        }
    }

    #[test]
    fn invalid_shapes_are_rejected() {
        assert!(HierTopology::new(0, vec![]).is_err(), "zero devices");
        assert!(HierTopology::new(4, vec![0]).is_err(), "empty tier");
        assert!(HierTopology::new(4, vec![8]).is_err(), "widening tier");
        assert!(
            HierTopology::new(4, vec![4, 2]).is_ok(),
            "equal width is fine"
        );
    }

    #[test]
    fn policy_last_entry_repeats() {
        let strict = RoundPolicy {
            quorum: Some(1),
            ..RoundPolicy::default()
        };
        let p = HierPolicy {
            tiers: vec![RoundPolicy::default(), strict.clone()],
        };
        assert_eq!(p.tier(0), RoundPolicy::default());
        assert_eq!(p.tier(1), strict);
        assert_eq!(p.tier(5), strict, "last entry repeats upward");
        assert_eq!(HierPolicy::default().tier(2), RoundPolicy::default());
    }
}
