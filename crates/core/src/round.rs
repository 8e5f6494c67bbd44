//! The three steps of Algorithm 1, shared by every driver.
//!
//! * [`device_step`] — Phase 1 on one device: Algorithm 2, then the
//!   optional differential privacy, then the channel model, all on the
//!   device's `seed + z` rng stream. Its uplink matrix is exactly what the
//!   server pools.
//! * [`merge_step`] — Phase 2 on the server or on an aggregator: pool the
//!   children that reported, in ascending child order, and cluster the
//!   pool. The returned [`Merge`] answers each child directly (the root),
//!   or forwards one representative per merged cluster and later composes
//!   the parent's labels into per-child downlinks (an aggregator).
//! * [`relabel`] — Phase 3 on one device: the majority vote that maps each
//!   local cluster to a global label.
//!
//! `FedSc::run` loops over these three functions in process; the roles in
//! [`crate::wire`], which the aggregation tree and the
//! `fedsc-server`/`fedsc-agg`/`fedsc-device` processes drive, wrap them in
//! transport code. Under the same seeds they therefore agree bit for bit.

use crate::central::central_cluster;
use crate::config::{ClusterCountPolicy, FedScConfig};
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

/// Where a [`merge_step`] runs, which fixes its cluster count and its rng
/// stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeAt {
    /// The root, i.e. the flat server: `L` clusters on the
    /// `seed ^ SERVER_RNG_SALT` stream.
    Root,
    /// The aggregator at `tier`, `node` of a tree. Its subtree may cover
    /// only some of the `L` global clusters, and forcing `L` partitions
    /// onto fewer natural groups makes spectral k-means split, and worse,
    /// mix subspaces; so it reads the count off a relative eigengap capped
    /// at `L`. The root's salt stream is mixed with a per-node offset, so
    /// sibling aggregators draw independent initializations.
    Aggregator {
        /// Tier of the aggregator (0 = the one above the devices).
        tier: usize,
        /// Index of the aggregator within its tier.
        node: usize,
    },
}

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

/// Routing state of one merge: who reported, how many samples each sent,
/// and which merged cluster every pooled sample landed in. Small enough to
/// keep between a tree's uplink and downlink sweeps.
#[derive(Debug, Clone)]
pub struct Merge {
    /// Children that reported, in ascending order.
    pub included: Vec<usize>,
    /// Sample count of each included child, in `included` order.
    pub counts: Vec<usize>,
    /// Merged-cluster id of every pooled sample, in pool order.
    pub assignments: Vec<usize>,
    /// Number of merged clusters.
    pub clusters: usize,
}

/// Phase 2 over one fan-in: pools the children that reported (`None` =
/// excluded) in ascending child order and clusters the pool with the
/// count and rng stream `at` fixes.
///
/// Returns the routing state, the pooled samples and the CSR affinity the
/// pool was segmented on (moved out of the clustering, not copied; the
/// in-process round keeps it for the induced global graph and CONN, every
/// other driver drops it).
pub fn merge_step(
    children: Vec<Option<Matrix>>,
    cfg: &FedScConfig,
    at: MergeAt,
) -> Result<(Merge, Matrix, SparseAffinity)> {
    let (count, seed) = match at {
        MergeAt::Root => (
            ClusterCountPolicy::Fixed(cfg.num_clusters),
            cfg.seed ^ SERVER_RNG_SALT,
        ),
        MergeAt::Aggregator { tier, node } => (
            ClusterCountPolicy::Eigengap {
                max: Some(cfg.num_clusters),
                relative: true,
            },
            (cfg.seed ^ SERVER_RNG_SALT)
                ^ 0x9e37_79b9_7f4a_7c15u64
                    .wrapping_mul((((tier as u64) + 1) << 32) | ((node as u64) + 1)),
        ),
    };
    let mut included = Vec::new();
    let mut counts = Vec::new();
    let mut mats = Vec::new();
    for (c, m) in children.into_iter().enumerate() {
        if let Some(m) = m {
            included.push(c);
            counts.push(m.cols());
            mats.push(m);
        }
    }
    let refs: Vec<&Matrix> = mats.iter().collect();
    let pooled = Matrix::hcat(&refs)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let central = central_cluster(
        &pooled,
        count,
        included.len(),
        cfg.central,
        cfg.candidate_threshold,
        &mut rng,
    )?;
    let merge = Merge {
        included,
        counts,
        assignments: central.assignments,
        clusters: central.clusters,
    };
    Ok((merge, pooled, central.graph))
}

impl Merge {
    /// The root's answer: each included child's slice of the assignments.
    pub fn downlinks(&self) -> Vec<(usize, DownlinkMessage)> {
        self.split(|m| m as u32)
    }

    /// One representative per non-empty merged cluster — its first sample
    /// in pool order — in first-seen order. This is what an aggregator
    /// forwards to its parent.
    pub fn representatives(&self, pooled: &Matrix) -> Matrix {
        pooled.select_columns(&self.rep_slots().1)
    }

    /// Number of representatives [`Merge::representatives`] forwards.
    pub fn representative_count(&self) -> usize {
        self.rep_slots().1.len()
    }

    /// Relays the parent's labels for this node's representatives down:
    /// one downlink per included child, composed as child sample → merged
    /// cluster → representative → parent label.
    pub fn compose(&self, parent: &DownlinkMessage) -> Result<Vec<(usize, DownlinkMessage)>> {
        let (slot, reps) = self.rep_slots();
        if parent.assignments.len() != reps.len() {
            return Err(LinalgError::InvalidArgument(
                "downlink assignment count mismatch at an aggregator",
            ));
        }
        Ok(self.split(|m| parent.assignments[slot[m]]))
    }

    /// Representative slot of each merged cluster (`usize::MAX` if empty),
    /// and the pool index of each representative in slot order.
    fn rep_slots(&self) -> (Vec<usize>, Vec<usize>) {
        let mut slot = vec![usize::MAX; self.clusters];
        let mut reps = Vec::with_capacity(self.clusters);
        for (s, &m) in self.assignments.iter().enumerate() {
            if slot[m] == usize::MAX {
                slot[m] = reps.len();
                reps.push(s);
            }
        }
        (slot, reps)
    }

    /// Splits the pool back into per-child downlinks, labelling each
    /// sample's merged cluster with `label`.
    fn split(&self, label: impl Fn(usize) -> u32) -> Vec<(usize, DownlinkMessage)> {
        let mut offset = 0usize;
        self.included
            .iter()
            .zip(&self.counts)
            .map(|(&c, &r)| {
                let assignments = self.assignments[offset..offset + r]
                    .iter()
                    .map(|&m| label(m))
                    .collect();
                offset += r;
                (c, DownlinkMessage { assignments })
            })
            .collect()
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
