//! Phase 2 of Algorithm 1: central clustering of the pooled samples.
//!
//! The pooled `Theta` is uniformly distributed on the unit spheres of the
//! estimated subspaces — the semi-random model — so the server may run
//! either SSC or TSC (the paper's Fed-SC (SSC) / Fed-SC (TSC) variants).
//! The TSC neighbor count defaults to the paper's rule
//! `q = max(3, ceil(Z / L))`.

use crate::config::{CentralBackend, ClusterCountPolicy};
use fedsc_clustering::spectral::SpectralOptions;
use fedsc_clustering::{full_spectrum, spectral_clustering_from_eig, spectral_clustering_sparse};
use fedsc_graph::SparseAffinity;
use fedsc_linalg::{Matrix, Result};
use fedsc_subspace::{CandidateOptions, Ssc, Tsc};
use rand::Rng;

/// Result of the central clustering step.
#[derive(Debug, Clone)]
pub struct CentralOutput {
    /// Global cluster assignment `tau` per pooled sample.
    pub assignments: Vec<usize>,
    /// The CSR affinity the samples were segmented on, moved out of the
    /// clustering (the induced global graph and the CONN diagnostics read
    /// it). No dense copy is made.
    pub graph: SparseAffinity,
    /// Number of clusters the samples were segmented into; every
    /// assignment is below it.
    pub clusters: usize,
}

/// Clusters the pooled samples, with the cluster count set by `count`.
///
/// * `Fixed(L)` — the root and the flat server: segment into `L` groups.
/// * `Eigengap { max, .. }` — an aggregator, whose subtree may cover only
///   some of the `L` global clusters: forcing `L` partitions onto fewer
///   natural groups makes spectral k-means split, and worse, mix
///   subspaces. The count is read off the affinity Laplacian's spectrum,
///   floored at the affinity's connected-component count and capped at
///   `max`; the segmentation embeds with the eigenvectors of that same
///   decomposition, so each graph gets one spectral solve. That spectrum is
///   a dense `n x n` decomposition, so the SSC backend's pools of
///   `candidate_threshold` or more samples skip it and segment at the cap;
///   pools that large cover nearly every cluster anyway.
///
/// The affinity is built sparse and stays sparse: the SSC backend's
/// per-point codes (exact solves below `candidate_threshold`, screened
/// sketched candidates at or above it) go straight into a CSR affinity,
/// and a fixed count segments it with `spectral_clustering_sparse` — the
/// kernel-seeded thick-restart block Lanczos on the CSR Laplacian above
/// the `lanczos_beats_dense` cutover, the dense solver below it
/// (DESIGN.md §13). Below that cutover every step is bitwise the dense
/// pipeline. The TSC backend's CSR k-NN graph takes the same route. The
/// CSR graph is returned as [`CentralOutput::graph`]; a dense copy is made
/// only inside the eigengap arm, for its dense spectrum.
/// `num_devices` feeds the TSC `q` rule; it is ignored by the SSC backend.
///
/// Clusters are numbered by first appearance over the pooled samples, so
/// two routes that reach the same partition return the same labels even
/// when their spectral embeddings differ by a rotation (a disconnected
/// affinity has a multi-dimensional zero eigenspace).
pub fn central_cluster<R: Rng + ?Sized>(
    samples: &Matrix,
    count: ClusterCountPolicy,
    num_devices: usize,
    backend: CentralBackend,
    candidate_threshold: usize,
    rng: &mut R,
) -> Result<CentralOutput> {
    let n = samples.cols();
    let l_max = match count {
        ClusterCountPolicy::Fixed(l) => l,
        ClusterCountPolicy::Eigengap { max, .. } => max.map_or(n, |m| m.min(n)),
    };
    let w = match backend {
        CentralBackend::Ssc => Ssc {
            candidates: Some(CandidateOptions {
                min_points: candidate_threshold,
                ..CandidateOptions::default()
            }),
            ..Ssc::default()
        }
        .sparse_affinity(samples)?,
        CentralBackend::Tsc { q } => {
            let q = q.unwrap_or_else(|| Tsc::fed_sc_q(num_devices, l_max));
            Tsc::new(q).sparse_affinity(samples)?
        }
    };
    // The SSC backend's candidate-sized pools stay subquadratic, so they
    // form no dense spectrum and segment at the cap.
    let reads_count = match backend {
        CentralBackend::Ssc => n < candidate_threshold,
        CentralBackend::Tsc { .. } => true,
    };
    let (k, spectrum) = match count {
        ClusterCountPolicy::Eigengap { .. } if reads_count => {
            // The full spectrum is a dense decomposition, so only this arm
            // densifies the graph.
            let spec = full_spectrum(&w.to_graph(), l_max.max(1))?;
            // Floor the estimate at the affinity's connected-component
            // count: the components are a hard lower bound on the natural
            // cluster count, and under-estimating merges subspaces —
            // unrecoverable downstream, while over-splitting merely costs
            // the parent an extra representative.
            let comps = w.connected_components(1e-9);
            let k = count.count(&spec.eigenvalues).max(comps);
            (k.clamp(1, l_max.max(1)), Some(spec))
        }
        _ => (l_max, None),
    };
    let opts = SpectralOptions::new(k);
    let assignments = match &spectrum {
        Some(spec) => spectral_clustering_from_eig(spec, &opts, rng)?,
        None => spectral_clustering_sparse(&w, &opts, rng)?,
    };
    Ok(CentralOutput {
        assignments: by_first_appearance(assignments),
        graph: w,
        clusters: k.clamp(1, n.max(1)),
    })
}

/// Renumbers cluster labels in order of first appearance.
fn by_first_appearance(labels: Vec<usize>) -> Vec<usize> {
    let mut seen: Vec<usize> = Vec::new();
    labels
        .into_iter()
        .map(|label| {
            seen.iter().position(|&s| s == label).unwrap_or_else(|| {
                seen.push(label);
                seen.len() - 1
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedsc_clustering::clustering_accuracy;
    use fedsc_linalg::random::{random_orthonormal_basis, sample_on_subspace};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Simulates the semi-random model: samples uniform on the unit spheres
    /// of random subspaces (exactly what devices upload).
    fn semi_random_samples(
        rng: &mut StdRng,
        n: usize,
        d: usize,
        l: usize,
        per: usize,
    ) -> (Matrix, Vec<usize>) {
        let bases: Vec<_> = (0..l)
            .map(|_| random_orthonormal_basis(rng, n, d))
            .collect();
        let mut cols = Vec::new();
        let mut truth = Vec::new();
        for (s, basis) in bases.iter().enumerate() {
            for _ in 0..per {
                cols.push(sample_on_subspace(rng, basis));
                truth.push(s);
            }
        }
        let refs: Vec<&[f64]> = cols.iter().map(|c| c.as_slice()).collect();
        (Matrix::from_columns(&refs).unwrap(), truth)
    }

    #[test]
    fn ssc_backend_clusters_semi_random_samples() {
        let mut rng = StdRng::seed_from_u64(1);
        let (samples, truth) = semi_random_samples(&mut rng, 25, 3, 3, 15);
        let out = central_cluster(
            &samples,
            ClusterCountPolicy::Fixed(3),
            45,
            CentralBackend::Ssc,
            2048,
            &mut rng,
        )
        .unwrap();
        let acc = clustering_accuracy(&truth, &out.assignments);
        assert!(acc > 95.0, "accuracy {acc}");
    }

    #[test]
    fn tsc_backend_clusters_semi_random_samples() {
        let mut rng = StdRng::seed_from_u64(1);
        let (samples, truth) = semi_random_samples(&mut rng, 25, 3, 3, 20);
        let out = central_cluster(
            &samples,
            ClusterCountPolicy::Fixed(3),
            60,
            CentralBackend::Tsc { q: None },
            2048,
            &mut rng,
        )
        .unwrap();
        let acc = clustering_accuracy(&truth, &out.assignments);
        assert!(acc > 90.0, "accuracy {acc}");
    }

    #[test]
    fn fixed_q_override() {
        let mut rng = StdRng::seed_from_u64(3);
        let (samples, truth) = semi_random_samples(&mut rng, 25, 3, 2, 15);
        let out = central_cluster(
            &samples,
            ClusterCountPolicy::Fixed(2),
            30,
            CentralBackend::Tsc { q: Some(5) },
            2048,
            &mut rng,
        )
        .unwrap();
        let acc = clustering_accuracy(&truth, &out.assignments);
        assert!(acc > 90.0, "accuracy {acc}");
    }

    #[test]
    fn candidate_route_matches_dense_central_clustering() {
        // Drop the threshold so the pooled samples route through the
        // sketched-candidate pipeline. With n = 45 below the default k = 64
        // every candidate set is complete, so the screened codes and the
        // dense cutover inside the sparse spectral path must reproduce the
        // dense run exactly on a seeded problem.
        let mut rng = StdRng::seed_from_u64(9);
        let (samples, truth) = semi_random_samples(&mut rng, 25, 3, 3, 15);
        let mut dense_rng = StdRng::seed_from_u64(77);
        let dense = central_cluster(
            &samples,
            ClusterCountPolicy::Fixed(3),
            45,
            CentralBackend::Ssc,
            usize::MAX,
            &mut dense_rng,
        )
        .unwrap();
        let mut cand_rng = StdRng::seed_from_u64(77);
        let cand = central_cluster(
            &samples,
            ClusterCountPolicy::Fixed(3),
            45,
            CentralBackend::Ssc,
            2,
            &mut cand_rng,
        )
        .unwrap();
        assert_eq!(cand.assignments, dense.assignments);
        let acc = clustering_accuracy(&truth, &cand.assignments);
        assert!(acc > 95.0, "accuracy {acc}");
        let n = dense.graph.len();
        for i in 0..n {
            for j in 0..n {
                let (a, b) = (dense.graph.weight(i, j), cand.graph.weight(i, j));
                assert!((a - b).abs() < 1e-6, "weight ({i},{j}): {a} vs {b}");
            }
        }
    }

    #[test]
    fn threshold_boundary_routes_agree() {
        // The dense/CSR cutover fires at `n >= candidate_threshold`.
        // Straddle the boundary with the same n-sample pool: threshold
        // n+1 keeps the dense path, n and n-1 take the sketched-candidate
        // path, and all three must agree sample for sample.
        let mut rng = StdRng::seed_from_u64(21);
        let (samples, truth) = semi_random_samples(&mut rng, 25, 3, 3, 15);
        let n = samples.cols();
        let route = |threshold: usize| {
            let mut rng = StdRng::seed_from_u64(55);
            central_cluster(
                &samples,
                ClusterCountPolicy::Fixed(3),
                45,
                CentralBackend::Ssc,
                threshold,
                &mut rng,
            )
            .expect("central clustering at the threshold boundary")
        };
        let dense = route(n + 1);
        let at = route(n);
        let below = route(n - 1);
        assert_eq!(at.assignments, dense.assignments, "threshold == n");
        assert_eq!(below.assignments, dense.assignments, "threshold == n - 1");
        let acc = clustering_accuracy(&truth, &dense.assignments);
        assert!(acc > 95.0, "accuracy {acc}");
    }

    #[test]
    fn clusters_are_numbered_by_first_appearance() {
        let mut rng = StdRng::seed_from_u64(5);
        let (samples, _) = semi_random_samples(&mut rng, 25, 3, 3, 15);
        for threshold in [2, 2048] {
            let out = central_cluster(
                &samples,
                ClusterCountPolicy::Fixed(3),
                45,
                CentralBackend::Ssc,
                threshold,
                &mut rng,
            )
            .unwrap();
            let mut next = 0;
            for &label in &out.assignments {
                assert!(
                    label <= next,
                    "threshold {threshold}: label {label} before {next}"
                );
                next = next.max(label + 1);
            }
        }
    }

    #[test]
    fn ssc_backend_above_the_spectral_cutover() {
        // 25 five-dimensional subspaces in R^20, 20 samples each: n = 500
        // pooled samples with k = 25 takes the kernel-seeded CSR
        // eigensolve. Its eigenvalues must be the dense decomposition's.
        use fedsc_clustering::spectral::sparse_spectrum;
        use fedsc_graph::laplacian::normalized_laplacian;
        use fedsc_linalg::eigh::{eigh, lanczos_beats_dense};
        let mut rng = StdRng::seed_from_u64(15);
        let (samples, truth) = semi_random_samples(&mut rng, 20, 5, 25, 20);
        let n = samples.cols();
        assert!(lanczos_beats_dense(n, 25));
        let out = central_cluster(
            &samples,
            ClusterCountPolicy::Fixed(25),
            160,
            CentralBackend::Ssc,
            2048,
            &mut rng,
        )
        .unwrap();
        let acc = clustering_accuracy(&truth, &out.assignments);
        assert!(acc >= 99.0, "accuracy {acc}");
        let eig = sparse_spectrum(&out.graph, 25, 1).unwrap();
        let dense = eigh(&normalized_laplacian(&out.graph.to_graph())).unwrap();
        for (j, (&got, &want)) in eig.eigenvalues.iter().zip(&dense.eigenvalues).enumerate() {
            assert!(
                (got - want).abs() <= 1e-8,
                "eigenvalue {j}: {got} vs dense {want}"
            );
        }
    }

    #[test]
    fn only_ssc_pools_at_the_candidate_threshold_segment_at_the_cap() {
        // An aggregator pool of 60 samples from 3 subspaces, at or above a
        // candidate threshold of 8: TSC still reads its count off the
        // eigengap, SSC's subquadratic route segments at the cap.
        let mut rng = StdRng::seed_from_u64(6);
        let (samples, truth) = semi_random_samples(&mut rng, 25, 3, 3, 20);
        let count = ClusterCountPolicy::Eigengap {
            max: Some(6),
            relative: true,
        };
        let tsc = central_cluster(
            &samples,
            count,
            60,
            CentralBackend::Tsc { q: None },
            8,
            &mut rng,
        )
        .unwrap();
        assert_eq!(tsc.clusters, 3);
        let acc = clustering_accuracy(&truth, &tsc.assignments);
        assert!(acc > 90.0, "accuracy {acc}");
        let ssc = central_cluster(&samples, count, 60, CentralBackend::Ssc, 8, &mut rng).unwrap();
        assert_eq!(ssc.clusters, 6);
    }

    #[test]
    fn graph_is_returned_for_diagnostics() {
        let mut rng = StdRng::seed_from_u64(4);
        let (samples, _) = semi_random_samples(&mut rng, 10, 2, 2, 5);
        let out = central_cluster(
            &samples,
            ClusterCountPolicy::Fixed(2),
            10,
            CentralBackend::Ssc,
            2048,
            &mut rng,
        )
        .unwrap();
        assert_eq!(out.graph.len(), 10);
        assert_eq!(out.assignments.len(), 10);
    }
}
