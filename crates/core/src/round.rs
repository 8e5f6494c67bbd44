//! The three steps of Algorithm 1, shared by every driver.
//!
//! * [`device_step`] — Phase 1 on one device: Algorithm 2, then the
//!   optional differential privacy, then the channel model, all on the
//!   device's `seed + z` rng stream. Its uplink matrix is exactly what the
//!   server pools.
//! * [`merge_step`] — Phase 2 at the root: pool the children that
//!   reported, in ascending child order, and cluster the pool into `L`
//!   groups. The returned [`Merge`] answers each child. An aggregator
//!   runs no Phase 2: it pools its children the same way ([`Fanin::pool`])
//!   and relays, so the root of any tree clusters exactly the flat
//!   round's pool, and [`Fanin::split`] takes the root's labels back
//!   down.
//! * [`relabel`] — Phase 3 on one device: the majority vote that maps each
//!   local cluster to a global label.
//!
//! `FedSc::run` loops over these three functions in process; the roles in
//! [`crate::wire`], which the aggregation tree and the
//! `fedsc-server`/`fedsc-agg`/`fedsc-device` processes drive, wrap them in
//! transport code. Under the same seeds they therefore agree bit for bit.

use crate::central::central_cluster;
use crate::config::FedScConfig;
use crate::local::{local_cluster_and_sample, LocalOutput};
use fedsc_federated::channel::{transmit_uplink, CommStats, DownlinkMessage};
use fedsc_federated::privacy::{privatize_samples, PrivacyLedger};
use fedsc_graph::SparseAffinity;
use fedsc_linalg::{LinalgError, Matrix, Result};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Salt XORed into [`FedScConfig::seed`] to derive the root's
/// central-clustering rng stream. Every root — in-process, tree or
/// process — seeds its [`merge_step`] with `seed ^ SERVER_RNG_SALT`, which
/// is what keeps them bit-identical.
pub const SERVER_RNG_SALT: u64 = 0x0ce2_74a1;

/// What one device's Phase 1 produced.
#[derive(Debug, Clone)]
pub struct DeviceStep {
    /// Algorithm 2's output; it stays on the device for [`relabel`].
    pub local: LocalOutput,
    /// The samples as the server receives them: privatized per `cfg.dp`,
    /// then quantized and noised per `cfg.channel`.
    pub uplink: Matrix,
    /// Model-level cost of the uplink (Section IV-E accounting).
    pub comm: CommStats,
    /// Privacy this device spent (empty when DP is off).
    pub privacy: PrivacyLedger,
}

/// Phase 1 for device `z`: Algorithm 2 on `data`, then DP, then the
/// channel, on the deterministic `cfg.seed + z` rng stream.
pub fn device_step(data: &Matrix, z: usize, cfg: &FedScConfig) -> Result<DeviceStep> {
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(z as u64));
    let local = local_cluster_and_sample(data, cfg, &mut rng)?;
    let mut privacy = PrivacyLedger::default();
    let release = match &cfg.dp {
        Some(dp) => privatize_samples(dp, &local.samples, &mut privacy, &mut rng),
        None => local.samples.clone(),
    };
    let mut comm = CommStats::default();
    let uplink = transmit_uplink(&cfg.channel, &release, &mut comm, &mut rng);
    Ok(DeviceStep {
        local,
        uplink,
        comm,
        privacy,
    })
}

/// Routing state of one fan-in: the children that reported, in ascending
/// order, and how many samples each sent. It is all an aggregator keeps
/// between a tree's uplink and downlink sweeps, since it clusters nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Fanin {
    /// Children that reported, in ascending order.
    pub included: Vec<usize>,
    /// Sample count of each included child, in `included` order.
    pub counts: Vec<usize>,
}

impl Fanin {
    /// Pools the children that reported (`None` = excluded) in ascending
    /// child order. Each child sent a sequence of device uplinks: one for
    /// a device, its whole subtree's for an aggregator. They come back
    /// flattened, in pool order.
    pub fn pool(children: Vec<Option<Vec<Matrix>>>) -> (Fanin, Vec<Matrix>) {
        let mut fanin = Fanin::default();
        let mut uplinks = Vec::new();
        for (c, sent) in children.into_iter().enumerate() {
            if let Some(sent) = sent {
                fanin.included.push(c);
                fanin.counts.push(sent.iter().map(Matrix::cols).sum());
                uplinks.extend(sent);
            }
        }
        (fanin, uplinks)
    }

    /// Splits one label per pooled sample, in pool order, into one
    /// downlink per included child. A label count that does not match the
    /// pool is an error: an aggregator's labels come off a socket.
    pub fn split(&self, labels: &[u32]) -> Result<Vec<(usize, DownlinkMessage)>> {
        if labels.len() != self.counts.iter().sum::<usize>() {
            return Err(LinalgError::InvalidArgument(
                "downlink assignment count mismatch at a parent",
            ));
        }
        let mut offset = 0usize;
        Ok(self
            .included
            .iter()
            .zip(&self.counts)
            .map(|(&c, &r)| {
                let assignments = labels[offset..offset + r].to_vec();
                offset += r;
                (c, DownlinkMessage { assignments })
            })
            .collect())
    }
}

/// What the root's Phase 2 produced: who reported, and the global
/// cluster of every pooled sample.
#[derive(Debug, Clone)]
pub struct Merge {
    /// The children pooled and their sample counts.
    pub fanin: Fanin,
    /// Global cluster of every pooled sample, in pool order.
    pub assignments: Vec<usize>,
}

/// Phase 2 at the root: pools the children that reported (`None` =
/// excluded) with [`Fanin::pool`] and clusters the pool into `L` groups
/// on the `seed ^ SERVER_RNG_SALT` stream. The TSC `q` rule reads the
/// number of device uplinks pooled.
///
/// Returns the routing state with the assignments, the pooled samples and
/// the CSR affinity the pool was segmented on (moved out of the
/// clustering, not copied; the in-process round keeps it for the induced
/// global graph and CONN, every other driver drops it).
pub fn merge_step(
    children: Vec<Option<Vec<Matrix>>>,
    cfg: &FedScConfig,
) -> Result<(Merge, Matrix, SparseAffinity)> {
    let (fanin, uplinks) = Fanin::pool(children);
    let refs: Vec<&Matrix> = uplinks.iter().collect();
    let pooled = Matrix::hcat(&refs)?;
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ SERVER_RNG_SALT);
    let central = central_cluster(
        &pooled,
        cfg.num_clusters,
        uplinks.len(),
        cfg.central,
        cfg.candidate_threshold,
        &mut rng,
    )?;
    let merge = Merge {
        fanin,
        assignments: central.assignments,
    };
    Ok((merge, pooled, central.graph))
}

impl Merge {
    /// The root's answer: each included child's slice of the assignments.
    pub fn downlinks(&self) -> Result<Vec<(usize, DownlinkMessage)>> {
        let labels: Vec<u32> = self.assignments.iter().map(|&m| m as u32).collect();
        self.fanin.split(&labels)
    }
}

/// Phase 3 on one device: maps each local cluster to the majority global
/// assignment of its uploaded samples and returns one global label per
/// local point. Ties go to the highest global id (`max_by_key` keeps the
/// last maximum); a cluster that uploaded no sample keeps the fallback
/// label 0.
///
/// `assignments` may come off a socket, so a downlink that does not answer
/// this device's uplink — wrong length, or a label `>= num_global` — is an
/// error, never a panic.
pub fn relabel(local: &LocalOutput, assignments: &[u32], num_global: usize) -> Result<Vec<usize>> {
    if assignments.len() != local.sample_cluster.len() {
        return Err(LinalgError::InvalidArgument(
            "downlink assignment count mismatch",
        ));
    }
    let mut votes = vec![vec![0usize; num_global.max(1)]; local.num_local_clusters.max(1)];
    for (&t, &a) in local.sample_cluster.iter().zip(assignments) {
        *votes[t]
            .get_mut(a as usize)
            .ok_or(LinalgError::InvalidArgument(
                "downlink assignment out of range",
            ))? += 1;
    }
    let cluster_to_global: Vec<usize> = votes
        .iter()
        .map(|vote| {
            vote.iter()
                .enumerate()
                .max_by_key(|&(_, &c)| c)
                .filter(|&(_, &c)| c > 0)
                .map_or(0, |(best, _)| best)
        })
        .collect();
    Ok(local
        .local_labels
        .iter()
        .map(|&t| cluster_to_global[t])
        .collect())
}
