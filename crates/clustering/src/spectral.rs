//! Normalized spectral clustering (Ng–Jordan–Weiss).
//!
//! The segmentation step every SC method in the paper shares: embed the
//! nodes with the `k` smallest eigenvectors of the normalized Laplacian,
//! row-normalize the embedding, and k-means the rows.

use crate::kmeans::{kmeans, KMeansOptions};
use fedsc_graph::laplacian::normalized_laplacian;
use fedsc_graph::sparse::sparse_normalized_laplacian;
use fedsc_graph::{AffinityGraph, SparseAffinity};
use fedsc_linalg::eigh::{eigh_partial, k_smallest, lanczos_beats_dense, SymmetricEig};
use fedsc_linalg::thick_restart::{thick_restart_smallest, ThickRestartOptions};
use fedsc_linalg::{vector, LinalgError, Matrix, Result};
use rand::Rng;

/// Options for spectral clustering.
#[derive(Debug, Clone)]
pub struct SpectralOptions {
    /// Number of clusters.
    pub k: usize,
    /// k-means options for the embedding step (its `k` field is overridden).
    pub kmeans: KMeansOptions,
    /// Parallelism hint for the sparse eigensolver's blocked operator
    /// applies (clamped to at least 1). Labels are bitwise identical for
    /// every value.
    pub threads: usize,
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
            threads: 1,
        }
    }
}

/// Clusters the nodes of an affinity graph into `opts.k` groups.
///
/// Returns one label in `0..k` per node. Below the `lanczos_beats_dense`
/// cutover the dense solver computes the `k` eigenvectors the embedding
/// reads; above it the graph is handed to
/// [`spectral_clustering_sparse`], so every graph that large gets the same
/// kernel-seeded CSR solve whichever representation it arrived in.
pub fn spectral_clustering<R: Rng + ?Sized>(
    g: &AffinityGraph,
    opts: &SpectralOptions,
    rng: &mut R,
) -> Result<Vec<usize>> {
    let n = g.len();
    if n == 0 {
        return Ok(vec![]);
    }
    let k = opts.k.clamp(1, n);
    if lanczos_beats_dense(n, k) {
        return spectral_clustering_sparse(&SparseAffinity::from_graph(g), opts, rng);
    }
    let _span = spectral_span(n, k);
    let lap = {
        let _s = fedsc_obs::span("fedsc", "spectral.laplacian");
        normalized_laplacian(g)
    };
    let eig = {
        let _s = fedsc_obs::span("fedsc", "spectral.eigensolve");
        k_smallest(&lap, k)?
    };
    embed_and_cluster(&eig, n, k, opts, rng)
}

/// The full spectrum of `g`'s normalized Laplacian (ascending; its
/// eigenvalues bitwise `fedsc_graph::laplacian::laplacian_spectrum`) with
/// the eigenvectors of its `vectors` smallest eigenvalues: what an eigengap
/// reads its cluster count off, capped at `vectors`, before
/// [`spectral_clustering_from_eig`] embeds with it. Recorded as a
/// `spectral` span (`k = vectors`) with its `spectral.laplacian` and
/// `spectral.eigensolve` layers; the embedding records its own `spectral`
/// span, since the count is read in between.
pub fn full_spectrum(g: &AffinityGraph, vectors: usize) -> Result<SymmetricEig> {
    let n = g.len();
    let _span = spectral_span(n, vectors.min(n));
    let lap = {
        let _s = fedsc_obs::span("fedsc", "spectral.laplacian");
        normalized_laplacian(g)
    };
    let _s = fedsc_obs::span("fedsc", "spectral.eigensolve");
    eigh_partial(&lap, vectors)
}

/// [`spectral_clustering`] on an eigendecomposition the caller already
/// holds: the spectrum of the graph's normalized Laplacian with at least
/// `opts.k` eigenvectors, as [`full_spectrum`] returns it. A caller that
/// reads its cluster count off that spectrum thus solves the Laplacian
/// once. Below the dense cutover [`spectral_clustering`] embeds with
/// exactly these eigenvectors — the dense solver's first `k` columns do
/// not depend on how many were asked for — so the labels are bitwise the
/// same.
pub fn spectral_clustering_from_eig<R: Rng + ?Sized>(
    eig: &SymmetricEig,
    opts: &SpectralOptions,
    rng: &mut R,
) -> Result<Vec<usize>> {
    let n = eig.eigenvectors.rows();
    if n == 0 {
        return Ok(vec![]);
    }
    let k = opts.k.clamp(1, n);
    if eig.eigenvectors.cols() < k {
        return Err(LinalgError::InvalidArgument(
            "fewer eigenvectors than clusters",
        ));
    }
    let _span = spectral_span(n, k);
    embed_and_cluster(eig, n, k, opts, rng)
}

/// [`spectral_clustering`] over a CSR affinity — the server's
/// segmentation step. The Laplacian stays in CSR and the eigenpairs come
/// from the matrix-free thick-restart block Lanczos solver, so no `n x n`
/// dense array is ever materialized at scale.
///
/// Below the dense eigensolver cutover (where `k_smallest` would run the
/// dense solver anyway) the graph is densified and the
/// call is **bitwise** the dense [`spectral_clustering`] — the CSR
/// round trip and Laplacian mirror the dense arithmetic exactly.
///
/// Above the cutover the solver is seeded with [`kernel_seeds`] — the exact
/// zero eigenvectors `D^{1/2} 1_c` of every edged component — so the
/// degenerate zero eigenvalue of a disconnected graph is captured by
/// construction rather than dug out by restarts (the legacy deflated
/// solver provably missed copies on e.g. disconnected path chains). A
/// debug-build cross-check still compares the zero count against
/// `connected_components`.
pub fn spectral_clustering_sparse<R: Rng + ?Sized>(
    w: &SparseAffinity,
    opts: &SpectralOptions,
    rng: &mut R,
) -> Result<Vec<usize>> {
    let n = w.len();
    if n == 0 {
        return Ok(vec![]);
    }
    let k = opts.k.clamp(1, n);
    // Mirror the `k_smallest` backend cutover: small graphs take the dense
    // path verbatim (bitwise parity), large graphs stay sparse end to end.
    if !lanczos_beats_dense(n, k) {
        return spectral_clustering(&w.to_graph(), opts, rng);
    }
    let _span = spectral_span(n, k);
    let eig = sparse_spectrum(w, k, opts.threads)?;
    embed_and_cluster(&eig, n, k, opts, rng)
}

/// The `k` smallest eigenpairs of `w`'s normalized Laplacian from the
/// kernel-seeded thick-restart block Lanczos on the CSR Laplacian — the
/// solve [`spectral_clustering_sparse`] embeds with above the cutover.
/// `threads` is a parallelism hint; the result is bitwise identical for
/// every value.
pub fn sparse_spectrum(w: &SparseAffinity, k: usize, threads: usize) -> Result<SymmetricEig> {
    let lap = {
        let _s = fedsc_obs::span("fedsc", "spectral.laplacian");
        sparse_normalized_laplacian(w)
    };
    let _s = fedsc_obs::span("fedsc", "spectral.eigensolve");
    let seeds = kernel_seeds(w);
    let zero_mult = seeds.len().min(k);
    let tr_opts = ThickRestartOptions {
        seeds,
        threads: threads.max(1),
        ..ThickRestartOptions::default()
    };
    let eig = thick_restart_smallest(&lap, k, &tr_opts)?;
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

/// The span every spectral clustering call records, parent of its
/// `spectral.laplacian`, `spectral.eigensolve` and `spectral.kmeans`
/// layers.
fn spectral_span(n: usize, k: usize) -> fedsc_obs::Span {
    fedsc_obs::span("fedsc", "spectral")
        .field("n", n as u64)
        .field("k", k as u64)
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
/// embedding (one column per node), row-normalize, k-means the columns.
fn embed_and_cluster<R: Rng + ?Sized>(
    eig: &SymmetricEig,
    n: usize,
    k: usize,
    opts: &SpectralOptions,
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
        ..opts.kmeans.clone()
    };
    Ok(kmeans(&emb, &km_opts, rng).labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn block_graph(sizes: &[usize], within: f64, between: f64) -> AffinityGraph {
        let n: usize = sizes.iter().sum();
        let mut block = vec![0usize; n];
        let mut idx = 0;
        for (b, &s) in sizes.iter().enumerate() {
            for _ in 0..s {
                block[idx] = b;
                idx += 1;
            }
        }
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    m[(i, j)] = if block[i] == block[j] {
                        within
                    } else {
                        between
                    };
                }
            }
        }
        AffinityGraph::from_symmetric(&m)
    }

    #[test]
    fn recovers_two_blocks() {
        let g = block_graph(&[5, 5], 1.0, 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        let labels = spectral_clustering(&g, &SpectralOptions::new(2), &mut rng).unwrap();
        assert!(labels[..5].iter().all(|&l| l == labels[0]));
        assert!(labels[5..].iter().all(|&l| l == labels[5]));
        assert_ne!(labels[0], labels[5]);
    }

    #[test]
    fn eigengap_spectrum_is_bitwise_the_fixed_count_solve() {
        // Below the cutover an eigengap caller asks for vectors up to its
        // cap, a fixed-count caller for exactly `k`; both must embed with
        // the same bits, so the two routes label identically.
        let g = block_graph(&[6, 5, 7, 4], 1.0, 0.03);
        let lap = normalized_laplacian(&g);
        let cap = 10;
        let spec = full_spectrum(&g, cap).unwrap();
        assert_eq!(spec.eigenvalues.len(), g.len());
        assert_eq!(spec.eigenvectors.cols(), cap);
        for k in 1..=cap {
            let fixed = k_smallest(&lap, k).unwrap();
            for j in 0..k {
                assert_eq!(
                    fixed.eigenvalues[j].to_bits(),
                    spec.eigenvalues[j].to_bits()
                );
                assert!(fixed
                    .eigenvectors
                    .col(j)
                    .iter()
                    .zip(spec.eigenvectors.col(j))
                    .all(|(x, y)| x.to_bits() == y.to_bits()));
            }
        }
        let opts = SpectralOptions::new(4);
        let fixed = spectral_clustering(&g, &opts, &mut StdRng::seed_from_u64(5)).unwrap();
        let from_eig =
            spectral_clustering_from_eig(&spec, &opts, &mut StdRng::seed_from_u64(5)).unwrap();
        assert_eq!(fixed, from_eig);
        // Fewer eigenvectors than clusters is a caller error, not a panic.
        let short = full_spectrum(&g, 2).unwrap();
        assert!(
            spectral_clustering_from_eig(&short, &opts, &mut StdRng::seed_from_u64(5)).is_err()
        );
    }

    #[test]
    fn recovers_three_blocks_with_weak_noise() {
        let g = block_graph(&[4, 4, 4], 1.0, 0.02);
        let mut rng = StdRng::seed_from_u64(2);
        let labels = spectral_clustering(&g, &SpectralOptions::new(3), &mut rng).unwrap();
        for b in 0..3 {
            let base = labels[b * 4];
            assert!(labels[b * 4..(b + 1) * 4].iter().all(|&l| l == base));
        }
        assert_ne!(labels[0], labels[4]);
        assert_ne!(labels[4], labels[8]);
        assert_ne!(labels[0], labels[8]);
    }

    #[test]
    fn many_blocks_above_lanczos_threshold() {
        // 30 blocks of 17 nodes = 510 > the 400-node Lanczos cutover in
        // k_smallest: the near-degenerate 30-fold zero eigenvalue exercises
        // the deflated restart path (regression test for the bug where a
        // single Krylov sequence found only one copy per degenerate
        // eigenvalue and clustering collapsed).
        let g = block_graph(&vec![17; 30], 1.0, 0.0);
        let mut rng = StdRng::seed_from_u64(7);
        let labels = spectral_clustering(&g, &SpectralOptions::new(30), &mut rng).unwrap();
        // Every block must be pure and blocks must be separated.
        let mut block_label = Vec::new();
        for b in 0..30 {
            let base = labels[b * 17];
            assert!(
                labels[b * 17..(b + 1) * 17].iter().all(|&l| l == base),
                "block {b} is split"
            );
            block_label.push(base);
        }
        block_label.sort_unstable();
        block_label.dedup();
        assert_eq!(block_label.len(), 30, "blocks were merged");
    }

    /// Sparse affinity and the bitwise-equal dense graph for a block
    /// structure: coefficient `0.5` in both directions makes each
    /// within-block weight exactly `1.0` under `|C| + |C|^T`.
    fn block_codes(sizes: &[usize]) -> (fedsc_graph::SparseAffinity, AffinityGraph) {
        use fedsc_sparse::SparseVec;
        let n: usize = sizes.iter().sum();
        let mut block = vec![0usize; n];
        let mut idx = 0;
        for (b, &s) in sizes.iter().enumerate() {
            for _ in 0..s {
                block[idx] = b;
                idx += 1;
            }
        }
        let mut dense = Matrix::zeros(n, n);
        let mut codes = Vec::with_capacity(n);
        for i in 0..n {
            let mut ind = Vec::new();
            let mut val = Vec::new();
            for j in 0..n {
                if j != i && block[j] == block[i] {
                    dense[(j, i)] = 0.5;
                    ind.push(j);
                    val.push(0.5);
                }
            }
            codes.push(SparseVec::from_parts(n, ind, val));
        }
        (
            fedsc_graph::SparseAffinity::from_codes(&codes),
            AffinityGraph::from_coefficients(&dense),
        )
    }

    #[test]
    fn sparse_path_is_bitwise_dense_below_cutover() {
        // Satellite (3b): below the Lanczos cutover the CSR spectral path
        // must produce bit-for-bit the dense labels — same affinity, same
        // Laplacian, same eigensolver, same seeded k-means draws.
        let (sparse, dense) = block_codes(&[5, 6, 4]);
        let opts = SpectralOptions::new(3);
        let labels_dense =
            spectral_clustering(&dense, &opts, &mut StdRng::seed_from_u64(11)).unwrap();
        let labels_sparse =
            spectral_clustering_sparse(&sparse, &opts, &mut StdRng::seed_from_u64(11)).unwrap();
        assert_eq!(labels_dense, labels_sparse);
    }

    #[test]
    fn sparse_path_recovers_blocks_above_cutover() {
        // 30 blocks of 17 nodes = 510 > 400: the CSR Laplacian drives the
        // matrix-free deflated Lanczos solver end to end.
        let (sparse, _) = block_codes(&vec![17; 30]);
        let mut rng = StdRng::seed_from_u64(7);
        let labels =
            spectral_clustering_sparse(&sparse, &SpectralOptions::new(30), &mut rng).unwrap();
        let mut block_label = Vec::new();
        for b in 0..30 {
            let base = labels[b * 17];
            assert!(
                labels[b * 17..(b + 1) * 17].iter().all(|&l| l == base),
                "block {b} is split"
            );
            block_label.push(base);
        }
        block_label.sort_unstable();
        block_label.dedup();
        assert_eq!(block_label.len(), 30, "blocks were merged");
    }

    /// `chains` disconnected path graphs of `len` nodes each, weight
    /// exactly `1.0` per edge (`0.5` coefficients in both directions).
    /// The normalized Laplacian has an exact `chains`-fold zero
    /// eigenvalue, and each chain's spectrum fills `[0, 2]` near-densely
    /// (lambda_2 ~ (pi / len)^2 / 2), the adversarial regime for a
    /// restarted solver chasing a degenerate smallest cluster.
    fn path_chains(chains: usize, len: usize) -> fedsc_graph::SparseAffinity {
        use fedsc_sparse::SparseVec;
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
        fedsc_graph::SparseAffinity::from_codes(&codes)
    }

    /// Regression witness for the deflated-Lanczos miss on disconnected
    /// Laplacians past the dense cutover: 5 disconnected path chains of
    /// 100 nodes carry an exact 5-fold zero eigenvalue, which the legacy
    /// lock-and-restart solver provably missed (it stagnation-locked five
    /// ~2e-4 bulk Ritz values instead and the pipeline could only fail
    /// loudly). The thick-restart solver is seeded with the per-component
    /// kernel vectors `D^{1/2} 1_c`, so every copy of the zero is captured
    /// by construction and each chain comes back as one pure cluster.
    #[test]
    fn disconnected_chains_above_cutover_recover_components() {
        let w = path_chains(5, 100);
        let mut rng = StdRng::seed_from_u64(9);
        let labels = spectral_clustering_sparse(&w, &SpectralOptions::new(5), &mut rng).unwrap();
        let mut chain_label = Vec::new();
        for c in 0..5 {
            let base = labels[c * 100];
            assert!(
                labels[c * 100..(c + 1) * 100].iter().all(|&l| l == base),
                "chain {c} is split"
            );
            chain_label.push(base);
        }
        chain_label.sort_unstable();
        chain_label.dedup();
        assert_eq!(chain_label.len(), 5, "chains were merged");
    }

    #[test]
    fn kernel_seeds_are_exact_zero_eigenvectors() {
        // Companion to the witness above: the seeds the sparse path feeds
        // the eigensolver must be exact kernel vectors — orthonormal, one
        // per edged component (isolated nodes excluded), each with a
        // Laplacian residual at rounding level.
        let w = path_chains(3, 50);
        let seeds = kernel_seeds(&w);
        assert_eq!(seeds.len(), 3);
        let lap = sparse_normalized_laplacian(&w);
        for (a, sa) in seeds.iter().enumerate() {
            let r = lap.matvec(sa);
            let worst = r.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            assert!(worst < 1e-12, "seed {a} residual {worst}");
            for (b, sb) in seeds.iter().enumerate() {
                let d = fedsc_linalg::vector::dot(sa, sb);
                let expect = if a == b { 1.0 } else { 0.0 };
                assert!((d - expect).abs() < 1e-12, "seed gram ({a},{b}) = {d}");
            }
        }
        // Isolated nodes contribute no seed.
        use fedsc_sparse::SparseVec;
        let mut codes = vec![
            SparseVec::from_parts(3, vec![1], vec![0.5]),
            SparseVec::from_parts(3, vec![0], vec![0.5]),
            SparseVec::from_parts(3, vec![], vec![]),
        ];
        codes.truncate(3);
        let small = fedsc_graph::SparseAffinity::from_codes(&codes);
        assert_eq!(kernel_seeds(&small).len(), 1);
    }

    #[test]
    fn k_one_gives_single_cluster() {
        let g = block_graph(&[3, 3], 1.0, 0.0);
        let mut rng = StdRng::seed_from_u64(3);
        let labels = spectral_clustering(&g, &SpectralOptions::new(1), &mut rng).unwrap();
        assert!(labels.iter().all(|&l| l == 0));
    }

    #[test]
    fn empty_graph_gives_empty_labels() {
        let g = AffinityGraph::from_symmetric(&Matrix::zeros(0, 0));
        let mut rng = StdRng::seed_from_u64(4);
        assert!(spectral_clustering(&g, &SpectralOptions::new(2), &mut rng)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn k_clamped_to_node_count() {
        let g = block_graph(&[2], 1.0, 0.0);
        let mut rng = StdRng::seed_from_u64(5);
        let labels = spectral_clustering(&g, &SpectralOptions::new(10), &mut rng).unwrap();
        assert_eq!(labels.len(), 2);
    }
}
