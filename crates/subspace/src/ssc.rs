//! Sparse Subspace Clustering (Elhamifar & Vidal, TPAMI 2013).
//!
//! Each point is sparsely self-expressed by the remaining points (paper
//! Eq. (2), the Lasso form) with the per-point `lambda` rule
//! `lambda_i = alpha / max_{j != i} |x_j^T x_i|` (the paper uses
//! `alpha = 50`); the affinity graph is `|C| + |C|^T`.

use crate::algo::{normalize_data, SubspaceClusterer};
use crate::candidates::{select_candidates, CandidateOptions};
use fedsc_graph::SparseAffinity;
use fedsc_linalg::{par, span, Matrix, Result};
use fedsc_sparse::lasso::{ssc_lambda, LassoOptions, LassoSolver, LassoWorkspace};
use fedsc_sparse::restricted::solve_candidates;
use fedsc_sparse::SparseVec;

/// Multiplier in the per-point lambda rule, the paper's `alpha = 50`.
pub const ALPHA: f64 = 50.0;

/// SSC configuration.
///
/// ```
/// use fedsc_subspace::{Ssc, SubspaceClusterer, SubspaceModel};
/// use fedsc_clustering::clustering_accuracy;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let model = SubspaceModel::random(&mut rng, 30, 3, 2);
/// let ds = model.sample_dataset(&mut rng, &[20, 20], 0.0);
/// let labels = Ssc::default().cluster(&ds.data, 2, &mut rng).unwrap();
/// assert!(clustering_accuracy(&ds.labels, &labels) > 95.0);
/// ```
#[derive(Debug, Clone)]
pub struct Ssc {
    /// Lasso solver options.
    pub lasso: LassoOptions,
    /// Sketched-candidate screening pipeline (sketch → restricted solves).
    /// Engages only at `min_points` and above; the default threshold is
    /// `usize::MAX`, so every size keeps the exact full-dictionary solves
    /// unless a caller lowers it. `None` disables it entirely. Screened
    /// codes are the optima over each point's sketched candidates, not the
    /// full dictionary.
    pub candidates: Option<CandidateOptions>,
}

impl Default for Ssc {
    fn default() -> Self {
        Self {
            lasso: LassoOptions::default(),
            candidates: Some(CandidateOptions::default()),
        }
    }
}

impl Ssc {
    /// Per-point sparse self-expression codes: `codes[i]` is column `i` of
    /// `C` (no entry at `i`). Below `CandidateOptions::min_points` each
    /// point is solved exactly against the full dictionary; at and above it
    /// the screening pipeline runs ([`Self::candidate_codes`]).
    pub fn codes(&self, data: &Matrix) -> Result<Vec<SparseVec>> {
        if self.uses_candidates(data.cols()) {
            return self.candidate_codes(data);
        }
        self.exact_codes(data)
    }

    /// The exact route: one full-dictionary Lasso per point.
    ///
    /// The `N` per-point Lasso problems are independent, so they fan out
    /// over `self.lasso.threads` workers (the Phase-1 hot path of the
    /// paper's complexity analysis). Each worker carries one
    /// [`LassoWorkspace`] reused across all the points it solves (warm
    /// scratch buffers, no per-point allocation). Each point's solve is
    /// untouched by the fan-out and fully re-initializes its workspace
    /// values, so the codes are bitwise identical for every thread count.
    /// The Gram product and the solves record the `ssc.gram` and
    /// `ssc.lasso` spans.
    fn exact_codes(&self, data: &Matrix) -> Result<Vec<SparseVec>> {
        let x = normalize_data(data);
        let n = x.cols();
        let threads = self.lasso.threads.max(1);
        let gram = {
            let _s = span("fedsc", "ssc.gram");
            x.gram_threaded(threads)
        };
        let _s = span("fedsc", "ssc.lasso");
        let solver = LassoSolver::new(&gram, self.lasso.clone());
        par::par_map_with(n, threads, LassoWorkspace::new, |ws, i| {
            let b = gram.col(i);
            let lambda = ssc_lambda(b, i, ALPHA);
            solver.solve_in(b, lambda, i, ws)
        })
        .into_iter()
        .collect()
    }

    /// `true` when the candidate pipeline would handle `n` points.
    pub fn uses_candidates(&self, n: usize) -> bool {
        self.candidates
            .as_ref()
            .is_some_and(|c| n >= c.min_points.max(2))
    }

    /// Runs the screening pipeline — sketch, candidate selection,
    /// restricted solves — and returns the per-point codes.
    /// Ignores `min_points`: this is the explicit entry point (used by
    /// benches); [`Self::codes`] applies the threshold. Candidate selection
    /// records the `ssc.sketch` span, the restricted solves `ssc.lasso`.
    pub fn candidate_codes(&self, data: &Matrix) -> Result<Vec<SparseVec>> {
        let x = normalize_data(data);
        let threads = self.lasso.threads.max(1);
        let copts = self.candidates.clone().unwrap_or_default();
        let cands = {
            let _s = span("fedsc", "ssc.sketch");
            select_candidates(&x, &copts, threads)?
        };
        solve_candidates(&x, &cands, ALPHA, &self.lasso)
    }
}

impl SubspaceClusterer for Ssc {
    fn name(&self) -> &'static str {
        "SSC"
    }

    /// CSR affinity `|C| + |C|^T` straight from [`Ssc::codes`], with no
    /// `n x n` dense matrix. Entry for entry it is bitwise
    /// `AffinityGraph::from_coefficients` of the same codes.
    fn sparse_affinity(&self, data: &Matrix) -> Result<SparseAffinity> {
        Ok(SparseAffinity::from_codes(&self.codes(data)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SubspaceModel;
    use fedsc_clustering::clustering_accuracy;
    use fedsc_graph::AffinityGraph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The dense coefficient matrix `C` of `codes`: column `i` is the code
    /// of point `i`.
    fn dense_coefficients(codes: &[SparseVec]) -> Matrix {
        let n = codes.len();
        let mut c = Matrix::zeros(n, n);
        for (i, code) in codes.iter().enumerate() {
            for (j, v) in code.iter() {
                c[(j, i)] = v;
            }
        }
        c
    }

    #[test]
    fn codes_have_zero_diagonal() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = SubspaceModel::random(&mut rng, 10, 2, 2);
        let ds = model.sample_dataset(&mut rng, &[8, 8], 0.0);
        let c = dense_coefficients(&Ssc::default().codes(&ds.data).unwrap());
        for i in 0..16 {
            assert_eq!(c[(i, i)], 0.0);
        }
    }

    #[test]
    fn exact_route_sparse_affinity_is_bitwise_the_dense_one() {
        // Below the candidate threshold the CSR affinity, built from the
        // exact per-point codes, is the dense `|C| + |C|^T` of the same
        // codes, bit for bit.
        let mut rng = StdRng::seed_from_u64(8);
        let model = SubspaceModel::random(&mut rng, 20, 3, 3);
        let ds = model.sample_dataset(&mut rng, &[14, 14, 14], 0.01);
        let ssc = Ssc::default();
        assert!(!ssc.uses_candidates(42));
        let sparse = ssc.sparse_affinity(&ds.data).unwrap().to_graph();
        let c = dense_coefficients(&ssc.codes(&ds.data).unwrap());
        let dense = AffinityGraph::from_coefficients(&c);
        assert_eq!(sparse.matrix().as_slice(), dense.matrix().as_slice());
    }

    #[test]
    fn sep_holds_for_orthogonal_subspaces() {
        // Two orthogonal planes: SSC codes must not cross subspaces.
        let mut rng = StdRng::seed_from_u64(2);
        let model = SubspaceModel::random(&mut rng, 30, 3, 2);
        let ds = model.sample_dataset(&mut rng, &[12, 12], 0.0);
        let g = Ssc::default().affinity(&ds.data).unwrap();
        let mut cross = 0.0f64;
        for i in 0..24 {
            for j in 0..24 {
                if ds.labels[i] != ds.labels[j] {
                    cross = cross.max(g.weight(i, j));
                }
            }
        }
        // Random 3-dim subspaces in R^30 are near-orthogonal: essentially no
        // false connections.
        assert!(cross < 1e-3, "max cross-subspace affinity {cross}");
    }

    #[test]
    fn clusters_well_separated_subspaces() {
        let mut rng = StdRng::seed_from_u64(3);
        let model = SubspaceModel::random(&mut rng, 30, 3, 3);
        let ds = model.sample_dataset(&mut rng, &[15, 15, 15], 0.0);
        let labels = Ssc::default().cluster(&ds.data, 3, &mut rng).unwrap();
        let acc = clustering_accuracy(&ds.labels, &labels);
        assert!(acc > 95.0, "accuracy {acc}");
    }

    #[test]
    fn affinity_is_bitwise_invariant_to_thread_count() {
        // The per-point Lasso fan-out must not change a single bit of the
        // coefficients — same solves, same index-ordered assembly.
        let mut rng = StdRng::seed_from_u64(7);
        let model = SubspaceModel::random(&mut rng, 25, 3, 2);
        let ds = model.sample_dataset(&mut rng, &[18, 18], 0.01);
        let serial = Ssc::default().affinity(&ds.data).unwrap();
        for threads in [2, 4, 8] {
            let mut ssc = Ssc::default();
            ssc.lasso.threads = threads;
            let par = ssc.affinity(&ds.data).unwrap();
            assert_eq!(
                par.matrix().as_slice(),
                serial.matrix().as_slice(),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn candidate_affinity_routes_above_threshold() {
        // With the threshold lowered below n, `affinity` must route through
        // the sketch → candidates → restricted-solve pipeline. With n = 32
        // below the default k = 64 every candidate set is complete, so the
        // screened codes land on the dense path's.
        let mut rng = StdRng::seed_from_u64(5);
        let model = SubspaceModel::random(&mut rng, 25, 3, 2);
        let ds = model.sample_dataset(&mut rng, &[16, 16], 0.01);
        let cand_ssc = Ssc {
            candidates: Some(crate::candidates::CandidateOptions {
                min_points: 4,
                ..Default::default()
            }),
            ..Ssc::default()
        };
        assert!(cand_ssc.uses_candidates(32));
        let dense_ssc = Ssc {
            candidates: None,
            ..Ssc::default()
        };
        let g_cand = cand_ssc.affinity(&ds.data).unwrap();
        let g_dense = dense_ssc.affinity(&ds.data).unwrap();
        for i in 0..32 {
            for j in 0..32 {
                let (a, b) = (g_cand.weight(i, j), g_dense.weight(i, j));
                assert!((a - b).abs() < 1e-4, "affinity ({i},{j}): {a} vs {b}");
            }
        }
        // The dense graph served above the threshold is exactly the CSR
        // affinity, densified.
        let sparse = cand_ssc.sparse_affinity(&ds.data).unwrap();
        for i in 0..32 {
            for j in 0..32 {
                assert_eq!(g_cand.weight(i, j).to_bits(), sparse.weight(i, j).to_bits());
            }
        }
    }

    #[test]
    fn tolerates_mild_noise() {
        let mut rng = StdRng::seed_from_u64(4);
        let model = SubspaceModel::random(&mut rng, 30, 3, 2);
        let ds = model.sample_dataset(&mut rng, &[15, 15], 0.02);
        let labels = Ssc::default().cluster(&ds.data, 2, &mut rng).unwrap();
        let acc = clustering_accuracy(&ds.labels, &labels);
        assert!(acc > 90.0, "accuracy {acc}");
    }
}
