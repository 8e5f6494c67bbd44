//! Normalized spectral clustering (Ng–Jordan–Weiss) over a CSR affinity.
//!
//! The segmentation step every tier and every SC method in the paper
//! shares: read the cluster count off the normalized Laplacian's eigengap
//! (Eq. (3)) or fix it, embed the nodes with the eigenvectors of the
//! smallest eigenvalues, row-normalize the embedding, and k-means the rows.
//! [`spectral_clustering`] is the one entry point; it takes the CSR graph
//! the pipeline builds and forms no dense `n x n` graph.

use crate::kmeans::{kmeans, KMeansOptions};
use fedsc_graph::laplacian::{eigengap_cluster_count, relative_eigengap_cluster_count};
use fedsc_graph::sparse::sparse_normalized_laplacian;
use fedsc_graph::SparseAffinity;
use fedsc_linalg::eigh::{eigh_partial, lanczos_beats_dense, SymmetricEig};
use fedsc_linalg::thick_restart::{thick_restart_smallest, ThickRestartOptions};
use fedsc_linalg::{vector, Matrix, Result};
use fedsc_sparse::CsrMatrix;
use rand::Rng;

/// How [`spectral_clustering`] sets its cluster count (paper Remark 1:
/// eigengap on synthetic data, a fixed upper bound on the complex real
/// datasets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterCountPolicy {
    /// Largest spectral gap of the normalized Laplacian, optionally capped
    /// (`None` searches the full spectrum). `relative = false` is the
    /// paper's literal Eq. (3); `relative = true` (the default) divides each
    /// gap by the upper eigenvalue, which is far more robust when
    /// within-cluster connectivity is weak.
    Eigengap {
        /// Upper bound on the reported count.
        max: Option<usize>,
        /// Use the relative-gap variant.
        relative: bool,
    },
    /// Fixed count on every device — the paper's real-data choice
    /// `r^(z) = max_z L^(z)`.
    Fixed(usize),
}

/// The embedding's k-means settings. [`spectral_clustering`] always runs
/// with [`SpectralOptions::default`]'s; callers that replay the embedding
/// themselves read them from here.
#[derive(Debug, Clone)]
pub struct SpectralOptions {
    /// A cluster count for callers that run the embedding's k-means
    /// themselves (`kmeans.k` starts at it). [`spectral_clustering`] takes
    /// its count from its [`ClusterCountPolicy`] and does not read this.
    pub k: usize,
    /// k-means options for the embedding step (its `k` field is overridden).
    pub kmeans: KMeansOptions,
}

impl SpectralOptions {
    /// Default options for `k` clusters.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            kmeans: KMeansOptions {
                k,
                restarts: 5,
                ..Default::default()
            },
        }
    }
}

impl Default for SpectralOptions {
    /// The k-means settings every Fed-SC tier uses (five k-means
    /// restarts).
    fn default() -> Self {
        Self::new(1)
    }
}

/// Segments the nodes of `w` into clusters by normalized spectral
/// clustering. Returns one label per node and the cluster count `k`; every
/// label is below `k`, and `k` is in `1..=n` (`0` only for an empty graph).
///
/// The count:
/// * `Fixed(r)` segments into `r` clusters, clamped to `1..=n`.
/// * `Eigengap { max, .. }` reads the eigengap rule off the Laplacian's
///   smallest `cap + 1` eigenvalues, `cap = max` clamped to `1..=n` (`n`
///   for `None`). The estimate is floored at the graph's connected-component
///   count and capped at `cap`. The components bound the natural count from
///   below, and under-counting merges subspaces, which nothing downstream
///   can undo; over-splitting only costs a device an extra uploaded sample.
///
/// The count is read off the same solve the embedding uses, so each graph
/// gets one spectral solve. Below the `lanczos_beats_dense(n, pairs)`
/// cutover, with `pairs` the eigenpairs the count and embedding read, the
/// CSR Laplacian is densified and `eigh_partial` returns the full spectrum
/// with the eigenvectors of the `cap` smallest eigenvalues. That Laplacian
/// is bitwise the dense graph's, and the first `k` eigenvector columns do not
/// depend on how many were formed, so an eigengap count and a fixed count
/// that agree embed with the same bits. Above the cutover the
/// kernel-seeded thick-restart solve ([`sparse_spectrum`]) returns the
/// `pairs` smallest pairs of the CSR Laplacian, and the relative rule's
/// `sigma_max` comes from a one-pair solve of `-L` with the same solver
/// (the smallest pairs never include it). No `n x n` array is formed there.
///
/// Records a `spectral` span (`n`, `k`) with its `spectral.laplacian`,
/// `spectral.eigensolve` and `spectral.kmeans` layers.
pub fn spectral_clustering<R: Rng + ?Sized>(
    w: &SparseAffinity,
    count: ClusterCountPolicy,
    rng: &mut R,
) -> Result<(Vec<usize>, usize)> {
    let n = w.len();
    if n == 0 {
        return Ok((vec![], 0));
    }
    let span = fedsc_obs::span("fedsc", "spectral").field("n", n);
    let (cap, pairs) = match count {
        ClusterCountPolicy::Fixed(r) => (r.clamp(1, n), r.clamp(1, n)),
        ClusterCountPolicy::Eigengap { max, .. } => {
            let cap = max.unwrap_or(n).clamp(1, n);
            (cap, (cap + 1).min(n))
        }
    };
    let lap = {
        let _s = fedsc_obs::span("fedsc", "spectral.laplacian");
        sparse_normalized_laplacian(w)
    };
    let sparse = lanczos_beats_dense(n, pairs);
    let eig = {
        let _s = fedsc_obs::span("fedsc", "spectral.eigensolve");
        if sparse {
            sparse_spectrum(w, &lap, pairs)?
        } else {
            eigh_partial(&lap.to_dense(), cap)?
        }
    };
    let k = match count {
        ClusterCountPolicy::Fixed(_) => cap,
        ClusterCountPolicy::Eigengap { max, relative } => {
            let estimate = if relative {
                // The dense arm's full spectrum ends at `sigma_max`; the
                // Lanczos arm holds only the smallest pairs, so it solves
                // for `sigma_max` apart.
                let sigma_max = if sparse {
                    let _s = fedsc_obs::span("fedsc", "spectral.eigensolve");
                    largest_eigenvalue(&lap)?
                } else {
                    eig.eigenvalues[n - 1]
                };
                relative_eigengap_cluster_count(&eig.eigenvalues, sigma_max, max)
            } else {
                eigengap_cluster_count(&eig.eigenvalues, max)
            };
            estimate.max(w.connected_components(1e-9)).clamp(1, cap)
        }
    };
    let _span = span.field("k", k);
    let labels = embed_and_cluster(&eig, n, k, rng)?;
    Ok((labels, k))
}

/// The `k` smallest eigenpairs of `w`'s normalized Laplacian `lap` (as
/// `sparse_normalized_laplacian` builds it) from the kernel-seeded
/// thick-restart block Lanczos on the CSR Laplacian: the solve
/// [`spectral_clustering`] embeds with above the cutover.
///
/// The solver is seeded with [`kernel_seeds`], the exact zero eigenvectors
/// `D^{1/2} 1_c` of every edged component, so the degenerate zero
/// eigenvalue of a disconnected graph is captured by construction rather
/// than dug out by restarts. A debug-build cross-check compares the zero
/// count against the components.
pub fn sparse_spectrum(w: &SparseAffinity, lap: &CsrMatrix, k: usize) -> Result<SymmetricEig> {
    let seeds = kernel_seeds(w);
    let zero_mult = seeds.len().min(k);
    let tr_opts = ThickRestartOptions {
        seeds,
        ..ThickRestartOptions::default()
    };
    let eig = thick_restart_smallest(lap, k, &tr_opts)?;
    // Cross-check (debug builds): a graph with `c` edged components
    // carries an exact `c`-fold zero eigenvalue (isolated nodes instead
    // keep identity rows, eigenvalue 1). Kernel seeding makes recovering
    // all copies structural, so fewer zeros than components is a solver
    // bug, not an input condition — assert instead of erroring.
    let zeros = eig
        .eigenvalues
        .iter()
        .filter(|&&v| v.abs() <= ZERO_EIGENVALUE_TOL)
        .count();
    debug_assert!(
        zeros >= zero_mult,
        "seeded solver returned fewer zero eigenvalues than edged components \
         ({zeros} < {zero_mult})"
    );
    Ok(eig)
}

/// The largest eigenvalue of the CSR Laplacian `lap`: the smallest of
/// `-L`, negated, from a one-pair thick-restart solve. Accurate to the
/// solver's residual tolerance.
fn largest_eigenvalue(lap: &CsrMatrix) -> Result<f64> {
    let n = lap.rows();
    let negated: Vec<(usize, usize, f64)> = (0..n)
        .flat_map(|i| lap.row(i).map(move |(j, v)| (i, j, -v)))
        .collect();
    let negated = CsrMatrix::from_triplets(n, n, &negated);
    let top = thick_restart_smallest(&negated, 1, &ThickRestartOptions::default())?;
    Ok(top.eigenvalues.first().map_or(0.0, |&v| -v))
}

/// Exact kernel vectors of `w`'s normalized Laplacian, one per **edged**
/// connected component: `D^{1/2} 1_c`, normalized. For node `i` in
/// component `c` the Laplacian row gives
/// `sqrt(d_i) - (1/sqrt(d_i)) * sum_{j in c} w_ij = 0` exactly, so these
/// span the degenerate zero eigenspace by construction. Isolated nodes
/// (degree 0) keep identity rows in the Laplacian — eigenvalue 1, not part
/// of the kernel — and contribute no seed.
pub fn kernel_seeds(w: &SparseAffinity) -> Vec<Vec<f64>> {
    let n = w.len();
    let labels = w.component_labels(0.0);
    let deg = w.degrees();
    let ncomp = labels.iter().map(|&c| c + 1).max().unwrap_or(0);
    let mut comp_deg = vec![0.0f64; ncomp];
    for i in 0..n {
        comp_deg[labels[i]] += deg[i];
    }
    // Seed slots only for components with at least one edge, so a graph
    // with many isolated nodes doesn't allocate `n` length-`n` vectors.
    let mut slot = vec![usize::MAX; ncomp];
    let mut count = 0usize;
    for (c, s) in slot.iter_mut().enumerate() {
        if comp_deg[c] > 0.0 {
            *s = count;
            count += 1;
        }
    }
    let mut seeds = vec![vec![0.0f64; n]; count];
    for i in 0..n {
        let s = slot[labels[i]];
        if s != usize::MAX && deg[i] > 0.0 {
            seeds[s][i] = deg[i].sqrt();
        }
    }
    for s in &mut seeds {
        vector::normalize(s, 1e-300);
    }
    seeds
}

/// Exact zero eigenvalues of the normalized Laplacian come back from the
/// Lanczos path at roundoff scale (`~1e-12`); the smallest *nonzero*
/// eigenvalue of any weakly-connected component this pipeline meets (a
/// hundreds-long path chain has `lambda_2 ~ 1e-4`) sits orders of
/// magnitude above this threshold.
const ZERO_EIGENVALUE_TOL: f64 = 1e-8;

/// Shared NJW tail: transpose the `k` smallest eigenvectors into a `k x n`
/// embedding (one column per node), row-normalize, k-means the columns
/// with [`SpectralOptions::default`]'s settings.
fn embed_and_cluster<R: Rng + ?Sized>(
    eig: &SymmetricEig,
    n: usize,
    k: usize,
    rng: &mut R,
) -> Result<Vec<usize>> {
    let _s = fedsc_obs::span("fedsc", "spectral.kmeans");
    let mut emb = Matrix::zeros(k, n);
    for node in 0..n {
        for c in 0..k {
            emb[(c, node)] = eig.eigenvectors[(node, c)];
        }
        vector::normalize(emb.col_mut(node), 1e-12);
    }
    let km_opts = KMeansOptions {
        k,
        ..SpectralOptions::default().kmeans
    };
    Ok(kmeans(&emb, &km_opts, rng).labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedsc_graph::laplacian::normalized_laplacian;
    use fedsc_linalg::eigh::eigh;
    use fedsc_sparse::SparseVec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Weight `within` between nodes of one block and `between` across
    /// blocks (no edge where the weight is zero).
    fn block_graph(sizes: &[usize], within: f64, between: f64) -> SparseAffinity {
        let block: Vec<usize> = sizes
            .iter()
            .enumerate()
            .flat_map(|(b, &s)| std::iter::repeat_n(b, s))
            .collect();
        let n = block.len();
        let mut triplets = Vec::new();
        for i in 0..n {
            for j in 0..n {
                let w = if block[i] == block[j] {
                    within
                } else {
                    between
                };
                if i != j && w > 0.0 {
                    triplets.push((i, j, w));
                }
            }
        }
        SparseAffinity::from_triplets(n, &triplets)
    }

    fn segment(w: &SparseAffinity, count: ClusterCountPolicy, seed: u64) -> (Vec<usize>, usize) {
        spectral_clustering(w, count, &mut StdRng::seed_from_u64(seed)).unwrap()
    }

    fn fixed(w: &SparseAffinity, k: usize, seed: u64) -> Vec<usize> {
        segment(w, ClusterCountPolicy::Fixed(k), seed).0
    }

    /// Asserts each run of `size` consecutive nodes shares one label and
    /// no two runs do.
    fn assert_pure_blocks(labels: &[usize], blocks: usize, size: usize) {
        let mut seen = Vec::new();
        for b in 0..blocks {
            let base = labels[b * size];
            assert!(
                labels[b * size..(b + 1) * size].iter().all(|&l| l == base),
                "block {b} is split"
            );
            seen.push(base);
        }
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), blocks, "blocks were merged");
    }

    #[test]
    fn recovers_two_blocks() {
        let labels = fixed(&block_graph(&[5, 5], 1.0, 0.0), 2, 1);
        assert_pure_blocks(&labels, 2, 5);
    }

    #[test]
    fn recovers_three_blocks_with_weak_noise() {
        let labels = fixed(&block_graph(&[4, 4, 4], 1.0, 0.02), 3, 2);
        assert_pure_blocks(&labels, 3, 4);
    }

    #[test]
    fn eigengap_count_embeds_with_the_fixed_count_bits() {
        // Below the cutover an eigengap count forms eigenvectors up to its
        // cap, a fixed count exactly `k`; the leading columns are the same
        // bits either way, so a count that lands on `k` labels like `Fixed(k)`.
        let g = block_graph(&[6, 5, 7, 4], 1.0, 0.0);
        let want = fixed(&g, 4, 5);
        for relative in [true, false] {
            let count = ClusterCountPolicy::Eigengap {
                max: Some(10),
                relative,
            };
            assert_eq!(segment(&g, count, 5), (want.clone(), 4));
        }
    }

    #[test]
    fn dense_arm_is_bitwise_the_dense_graph_route() {
        // Below the cutover the densified CSR Laplacian is bitwise the
        // dense graph's, so the labels are those of the dense route:
        // `normalized_laplacian` -> `eigh_partial` -> NJW.
        let g = block_graph(&[5, 6, 4], 0.75, 0.01);
        let lap = normalized_laplacian(&g.to_graph());
        let eig = eigh_partial(&lap, 3).unwrap();
        let oracle = embed_and_cluster(&eig, 15, 3, &mut StdRng::seed_from_u64(11)).unwrap();
        assert_eq!(fixed(&g, 3, 11), oracle);
    }

    #[test]
    fn many_blocks_above_the_cutover() {
        // 30 blocks of 17 nodes = 510 > the 400-node cutover: the
        // 30-fold zero eigenvalue must come back whole from the seeded CSR
        // solve (a single Krylov sequence once found one copy per degenerate
        // eigenvalue and clustering collapsed).
        let g = block_graph(&[17; 30], 1.0, 0.0);
        assert!(lanczos_beats_dense(510, 30));
        assert_pure_blocks(&fixed(&g, 30, 7), 30, 17);
    }

    /// `chains` disconnected path graphs of `len` nodes each, weight
    /// exactly `1.0` per edge (`0.5` coefficients in both directions).
    /// The normalized Laplacian has an exact `chains`-fold zero
    /// eigenvalue, and each chain's spectrum fills `[0, 2]` near-densely
    /// (lambda_2 ~ (pi / len)^2 / 2), the adversarial regime for a
    /// restarted solver chasing a degenerate smallest cluster.
    fn path_chains(chains: usize, len: usize) -> SparseAffinity {
        let n = chains * len;
        let mut codes = Vec::with_capacity(n);
        for c in 0..chains {
            for p in 0..len {
                let i = c * len + p;
                let mut ind = Vec::new();
                let mut val = Vec::new();
                if p > 0 {
                    ind.push(i - 1);
                    val.push(0.5);
                }
                if p + 1 < len {
                    ind.push(i + 1);
                    val.push(0.5);
                }
                codes.push(SparseVec::from_parts(n, ind, val));
            }
        }
        SparseAffinity::from_codes(&codes)
    }

    /// Regression witness for the deflated-Lanczos miss on disconnected
    /// Laplacians past the dense cutover: 5 disconnected path chains of
    /// 100 nodes carry an exact 5-fold zero eigenvalue, which the legacy
    /// lock-and-restart solver provably missed. The thick-restart solver is
    /// seeded with the per-component kernel vectors `D^{1/2} 1_c`, so every
    /// copy of the zero is captured by construction and each chain comes
    /// back as one pure cluster.
    #[test]
    fn disconnected_chains_above_cutover_recover_components() {
        assert_pure_blocks(&fixed(&path_chains(5, 100), 5, 9), 5, 100);
    }

    #[test]
    fn kernel_seeds_are_exact_zero_eigenvectors() {
        // The seeds the sparse path feeds the eigensolver must be exact
        // kernel vectors — orthonormal, one per edged component (isolated
        // nodes excluded), each with a Laplacian residual at rounding level.
        let w = path_chains(3, 50);
        let seeds = kernel_seeds(&w);
        assert_eq!(seeds.len(), 3);
        let lap = sparse_normalized_laplacian(&w);
        for (a, sa) in seeds.iter().enumerate() {
            let r = lap.matvec(sa);
            let worst = r.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            assert!(worst < 1e-12, "seed {a} residual {worst}");
            for (b, sb) in seeds.iter().enumerate() {
                let d = vector::dot(sa, sb);
                let expect = if a == b { 1.0 } else { 0.0 };
                assert!((d - expect).abs() < 1e-12, "seed gram ({a},{b}) = {d}");
            }
        }
        // Isolated nodes contribute no seed.
        let small = SparseAffinity::from_triplets(3, &[(0, 1, 1.0), (1, 0, 1.0)]);
        assert_eq!(kernel_seeds(&small).len(), 1);
    }

    #[test]
    fn largest_eigenvalue_is_the_dense_one_to_solver_tolerance() {
        // The relative eigengap rule's `sigma_max` above the cutover: the
        // one-pair solve of `-L` must land on the dense spectrum's top.
        let graphs = [
            path_chains(5, 100),
            block_graph(&[101, 150, 170], 1.0, 0.002),
        ];
        for g in &graphs {
            let lap = sparse_normalized_laplacian(g);
            let top = largest_eigenvalue(&lap).unwrap();
            let dense = eigh(&lap.to_dense()).unwrap();
            let want = dense.eigenvalues[g.len() - 1];
            assert!((top - want).abs() <= 1e-6, "{top} vs dense {want}");
        }
    }

    #[test]
    fn k_one_gives_single_cluster() {
        let labels = fixed(&block_graph(&[3, 3], 1.0, 0.0), 1, 3);
        assert!(labels.iter().all(|&l| l == 0));
    }

    #[test]
    fn empty_graph_gives_empty_labels() {
        let g = SparseAffinity::from_triplets(0, &[]);
        assert_eq!(segment(&g, ClusterCountPolicy::Fixed(2), 4), (vec![], 0));
    }

    #[test]
    fn k_clamped_to_node_count() {
        let (labels, k) = segment(
            &block_graph(&[2], 1.0, 0.0),
            ClusterCountPolicy::Fixed(10),
            5,
        );
        assert_eq!((labels.len(), k), (2, 2));
    }
}
