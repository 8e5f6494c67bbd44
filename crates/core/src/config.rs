//! Fed-SC configuration types.

use fedsc_federated::channel::ChannelConfig;
use fedsc_federated::privacy::DpConfig;

// How a device estimates its local cluster count `r^(z)`. The policy lives
// with the spectral segmentation that applies it at every tier.
pub use fedsc_clustering::spectral::ClusterCountPolicy;

/// How a device picks the dimension `d_t` of each local-cluster basis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BasisDim {
    /// Numerical rank: singular values above `1e-6 * s_max`, capped at 32
    /// (`AUTO_REL_TOL` and `AUTO_MAX_DIM` in `crate::local`).
    Auto,
    /// Fixed dimension — the paper uses `d_t = 1` on the real datasets.
    Fixed(usize),
}

/// Which SC algorithm each device runs on its local data.
///
/// The paper argues for SSC ("we only choose to run SSC for local
/// clustering instead of TSC which requires a uniformness assumption and a
/// thresholding parameter q") — the TSC variant exists to measure that
/// argument in the `ablation` harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalBackend {
    /// SSC (the paper's choice).
    Ssc,
    /// TSC with a fixed neighbor count.
    Tsc {
        /// Neighbor count `q`.
        q: usize,
    },
}

/// Which SC algorithm the central server runs on the pooled samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CentralBackend {
    /// Fed-SC (SSC).
    Ssc,
    /// Fed-SC (TSC) with the paper's rule `q = max(3, ceil(Z / L))` unless
    /// overridden.
    Tsc {
        /// Optional fixed `q`; `None` applies the paper's rule.
        q: Option<usize>,
    },
}

/// Full Fed-SC configuration.
#[derive(Debug, Clone)]
pub struct FedScConfig {
    /// Number of global clusters `L`.
    pub num_clusters: usize,
    /// Central-clustering backend.
    pub central: CentralBackend,
    /// Local cluster-count estimation policy.
    pub cluster_count: ClusterCountPolicy,
    /// Local basis-dimension policy.
    pub basis_dim: BasisDim,
    /// Samples uploaded per local cluster (paper: 1; >1 is an ablation).
    pub samples_per_cluster: usize,
    /// Local clustering backend (paper: SSC; TSC is an ablation).
    pub local: LocalBackend,
    /// Communication channel model.
    pub channel: ChannelConfig,
    /// Optional differential privacy for the uplink: each sample is
    /// privatized with the Gaussian mechanism before transmission (the
    /// paper's Remark 2 / future-work extension).
    pub dp: Option<DpConfig>,
    /// Worker threads for the device fan-out (one device per work item).
    pub threads: usize,
    /// Worker threads *inside* one device's numerical kernels: the Gram
    /// product and the per-point Lasso solves. Small kernels stay on the
    /// calling thread (fewer than `fedsc_linalg::par::MIN_INLINE_ITEMS`
    /// points, or below the matrix kernels' flop floor), and so do the
    /// per-partition truncated SVDs, of which a device has only a few.
    /// Defaults to 1 so the device fan-out owns the cores; raise it (and
    /// lower `threads`) for few-device / large-N workloads. Results are
    /// bitwise independent of this knob. See DESIGN.md §9 for the
    /// ownership rule — total workers never exceed
    /// `threads * kernel_threads`.
    pub kernel_threads: usize,
    /// Base seed; device `z` derives `seed + z`.
    pub seed: u64,
    /// Point count at or above which SSC (local and central) routes
    /// through the sketched-candidate screening pipeline instead of the
    /// exact all-pairs Lasso. The default, `usize::MAX`,
    /// keeps the exact path at every size. Screened codes are the optima
    /// over each point's sketched candidates, not the full dictionary, so
    /// lowering the threshold trades exactness for memory that does not
    /// grow as `n^2`.
    pub candidate_threshold: usize,
}

impl FedScConfig {
    /// Paper-default configuration for `l` global clusters with the chosen
    /// central backend: eigengap cluster counts (capped at `2l` for
    /// robustness), automatic basis dimension, one sample per cluster.
    pub fn new(l: usize, central: CentralBackend) -> Self {
        Self {
            num_clusters: l,
            central,
            cluster_count: ClusterCountPolicy::Eigengap {
                max: Some(2 * l.max(1)),
                relative: true,
            },
            basis_dim: BasisDim::Auto,
            samples_per_cluster: 1,
            local: LocalBackend::Ssc,
            channel: ChannelConfig::default(),
            dp: None,
            threads: fedsc_linalg::par::default_threads(),
            kernel_threads: 1,
            seed: 0xfed5c,
            candidate_threshold: fedsc_subspace::CandidateOptions::default().min_points,
        }
    }

    /// The paper's real-data configuration: fixed `r^(z)` upper bound and
    /// rank-1 bases (`d_t = 1`).
    pub fn real_data(l: usize, central: CentralBackend, r_upper: usize) -> Self {
        Self {
            cluster_count: ClusterCountPolicy::Fixed(r_upper),
            basis_dim: BasisDim::Fixed(1),
            ..Self::new(l, central)
        }
    }
}
