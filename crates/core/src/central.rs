//! Phase 2 of Algorithm 1: central clustering of the pooled samples.
//!
//! The pooled `Theta` is uniformly distributed on the unit spheres of the
//! estimated subspaces — the semi-random model — so the server may run
//! either SSC or TSC (the paper's Fed-SC (SSC) / Fed-SC (TSC) variants).
//! The TSC neighbor count defaults to the paper's rule
//! `q = max(3, ceil(Z / L))`.

use crate::config::{CentralBackend, ClusterCountPolicy};
use fedsc_clustering::spectral::spectral_clustering;
use fedsc_graph::SparseAffinity;
use fedsc_linalg::{Matrix, Result};
use fedsc_subspace::{CandidateOptions, Ssc, SubspaceClusterer as _, Tsc};
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
}

/// Clusters the pooled samples into `num_clusters` groups.
///
/// The affinity is built sparse and stays sparse: the SSC backend's
/// per-point codes (exact solves below `candidate_threshold`, screened
/// sketched candidates at or above it) go straight into a CSR affinity,
/// and the TSC backend builds a CSR k-NN graph. Either is segmented by
/// `fedsc_clustering::spectral_clustering`: the dense solver on the
/// densified CSR Laplacian below the `lanczos_beats_dense` cutover, the
/// kernel-seeded thick-restart block Lanczos on the CSR Laplacian above it
/// (DESIGN.md §13). No `n x n` graph is formed at any size, and the CSR
/// graph is returned as [`CentralOutput::graph`]. `num_devices` feeds the
/// TSC `q` rule; it is ignored by the SSC backend.
///
/// Clusters are numbered by first appearance over the pooled samples, so
/// two routes that reach the same partition return the same labels even
/// when their spectral embeddings differ by a rotation (a disconnected
/// affinity has a multi-dimensional zero eigenspace).
pub fn central_cluster<R: Rng + ?Sized>(
    samples: &Matrix,
    num_clusters: usize,
    num_devices: usize,
    backend: CentralBackend,
    candidate_threshold: usize,
    rng: &mut R,
) -> Result<CentralOutput> {
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
            let q = q.unwrap_or_else(|| Tsc::fed_sc_q(num_devices, num_clusters));
            Tsc::new(q).sparse_affinity(samples)?
        }
    };
    let (assignments, _) = spectral_clustering(&w, ClusterCountPolicy::Fixed(num_clusters), rng)?;
    Ok(CentralOutput {
        assignments: by_first_appearance(assignments),
        graph: w,
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
    use fedsc_graph::sparse::sparse_normalized_laplacian;
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
        let out = central_cluster(&samples, 3, 45, CentralBackend::Ssc, 2048, &mut rng).unwrap();
        let acc = clustering_accuracy(&truth, &out.assignments);
        assert!(acc > 95.0, "accuracy {acc}");
    }

    #[test]
    fn tsc_backend_clusters_semi_random_samples() {
        let mut rng = StdRng::seed_from_u64(1);
        let (samples, truth) = semi_random_samples(&mut rng, 25, 3, 3, 20);
        let out = central_cluster(
            &samples,
            3,
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
            2,
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
            3,
            45,
            CentralBackend::Ssc,
            usize::MAX,
            &mut dense_rng,
        )
        .unwrap();
        let mut cand_rng = StdRng::seed_from_u64(77);
        let cand = central_cluster(&samples, 3, 45, CentralBackend::Ssc, 2, &mut cand_rng).unwrap();
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
            central_cluster(&samples, 3, 45, CentralBackend::Ssc, threshold, &mut rng)
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
            let out =
                central_cluster(&samples, 3, 45, CentralBackend::Ssc, threshold, &mut rng).unwrap();
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
        use fedsc_linalg::eigh::{eigh, lanczos_beats_dense};
        let mut rng = StdRng::seed_from_u64(15);
        let (samples, truth) = semi_random_samples(&mut rng, 20, 5, 25, 20);
        let n = samples.cols();
        assert!(lanczos_beats_dense(n, 25));
        let out = central_cluster(&samples, 25, 160, CentralBackend::Ssc, 2048, &mut rng).unwrap();
        let acc = clustering_accuracy(&truth, &out.assignments);
        assert!(acc >= 99.0, "accuracy {acc}");
        let lap = sparse_normalized_laplacian(&out.graph);
        let eig = sparse_spectrum(&out.graph, &lap, 25).unwrap();
        let dense = eigh(&lap.to_dense()).unwrap();
        for (j, (&got, &want)) in eig.eigenvalues.iter().zip(&dense.eigenvalues).enumerate() {
            assert!(
                (got - want).abs() <= 1e-8,
                "eigenvalue {j}: {got} vs dense {want}"
            );
        }
    }

    #[test]
    fn seeded_solve_keeps_its_basis_orthogonal_across_restarts() {
        // Witness for a thick-restart defect: this pool's SSC graph (3
        // components, 4 more eigenvalues below 4e-4) needs restarts for
        // k = 11, and a frontier orthogonalized only locally let the
        // basis lose orthogonality ~50x per restart, until the solve
        // returned Ritz values near -0.26 for the PSD Laplacian.
        use fedsc_clustering::spectral::sparse_spectrum;
        use fedsc_linalg::eigh::eigh;
        let mut rng = StdRng::seed_from_u64(31);
        let (samples, _) = semi_random_samples(&mut rng, 20, 5, 7, 70);
        let w = Ssc::default().sparse_affinity(&samples).unwrap();
        let lap = sparse_normalized_laplacian(&w);
        let eig = sparse_spectrum(&w, &lap, 11).unwrap();
        let dense = eigh(&lap.to_dense()).unwrap();
        for (j, (&got, &want)) in eig.eigenvalues.iter().zip(&dense.eigenvalues).enumerate() {
            assert!(
                (got - want).abs() <= 1e-8,
                "eigenvalue {j}: {got} vs dense {want}"
            );
        }
    }

    #[test]
    fn pools_at_the_candidate_threshold_read_their_count() {
        // A pool of 60 samples from 3 subspaces, at or above a candidate
        // threshold of 8: the eigengap count reads 3 off the graph either
        // backend builds, SSC's screened one included.
        let mut rng = StdRng::seed_from_u64(6);
        let (samples, truth) = semi_random_samples(&mut rng, 25, 3, 3, 20);
        let count = ClusterCountPolicy::Eigengap {
            max: Some(6),
            relative: true,
        };
        let screened = Ssc {
            candidates: Some(CandidateOptions {
                min_points: 8,
                ..CandidateOptions::default()
            }),
            ..Ssc::default()
        };
        let graphs = [
            (
                "TSC",
                Tsc::new(Tsc::fed_sc_q(60, 6))
                    .sparse_affinity(&samples)
                    .unwrap(),
            ),
            ("SSC", screened.sparse_affinity(&samples).unwrap()),
        ];
        for (name, w) in graphs {
            let (labels, clusters) = spectral_clustering(&w, count, &mut rng).unwrap();
            assert_eq!(clusters, 3, "{name}");
            let acc = clustering_accuracy(&truth, &labels);
            assert!(acc > 90.0, "{name} accuracy {acc}");
        }
    }

    #[test]
    fn eigengap_count_above_the_cutover_matches_the_dense_oracle() {
        // SSC graphs past the cutover: 7 of L = 10 five-dimensional
        // subspaces in R^20, 70 samples each (n = 490 > 400 and
        // 6 (L + 1) < n). The count comes off the seeded CSR solve, with
        // `sigma_max` from a one-pair solve of `-L`. The oracle reads it off
        // the full dense spectrum of the densified Laplacian, with the same
        // floor and cap, and embeds with the dense eigenvectors.
        use fedsc_clustering::kmeans::{kmeans, KMeansOptions};
        use fedsc_clustering::spectral::SpectralOptions;
        use fedsc_graph::laplacian::relative_eigengap_cluster_count;
        use fedsc_linalg::eigh::{eigh_partial, lanczos_beats_dense};
        use fedsc_linalg::vector;
        let l = 10;
        let count = ClusterCountPolicy::Eigengap {
            max: Some(l),
            relative: true,
        };
        for seed in [31, 32, 33] {
            let mut rng = StdRng::seed_from_u64(seed);
            let (samples, truth) = semi_random_samples(&mut rng, 20, 5, 7, 70);
            let n = samples.cols();
            assert!(lanczos_beats_dense(n, l + 1));
            let w = Ssc::default().sparse_affinity(&samples).unwrap();
            let (labels, clusters) =
                spectral_clustering(&w, count, &mut StdRng::seed_from_u64(seed + 100)).unwrap();
            let labels = by_first_appearance(labels);

            let lap = sparse_normalized_laplacian(&w).to_dense();
            let eig = eigh_partial(&lap, l).unwrap();
            let k =
                relative_eigengap_cluster_count(&eig.eigenvalues, eig.eigenvalues[n - 1], Some(l))
                    .max(w.connected_components(1e-9))
                    .clamp(1, l);
            assert_eq!((clusters, k), (7, 7), "seed {seed}");
            let mut emb = Matrix::zeros(k, n);
            for node in 0..n {
                for c in 0..k {
                    emb[(c, node)] = eig.eigenvectors[(node, c)];
                }
                vector::normalize(emb.col_mut(node), 1e-12);
            }
            let km = KMeansOptions {
                k,
                ..SpectralOptions::default().kmeans
            };
            let oracle = kmeans(&emb, &km, &mut StdRng::seed_from_u64(seed + 100)).labels;
            assert_eq!(labels, by_first_appearance(oracle), "seed {seed}");
            let acc = clustering_accuracy(&truth, &labels);
            assert!(acc >= 99.0, "seed {seed}: accuracy {acc}");
        }
    }

    #[test]
    fn graph_is_returned_for_diagnostics() {
        let mut rng = StdRng::seed_from_u64(4);
        let (samples, _) = semi_random_samples(&mut rng, 10, 2, 2, 5);
        let out = central_cluster(&samples, 2, 10, CentralBackend::Ssc, 2048, &mut rng).unwrap();
        assert_eq!(out.graph.len(), 10);
        assert_eq!(out.assignments.len(), 10);
    }
}
