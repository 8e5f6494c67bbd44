//! Sketched candidate neighborhoods — the selection stage of the SSC
//! screening pipeline.
//!
//! Dense SSC is quadratic twice over: the `n x n` Gram and `n` Lasso solves
//! over `n - 1` atoms each. The screening pipeline keeps only a sketched
//! all-pairs scoring (`n^2 s` with `s << d`) and solves over `k` atoms per
//! point, in three stages:
//!
//! 1. **Sketch** (`fedsc_linalg::sketch`): compress the data to `s << d`
//!    rows with a seeded Johnson–Lindenstrauss sign projection.
//! 2. **Select** (this module): score each pair in the sketch space
//!    (panel-blocked `S^T S_panel` products on the worker pool) and keep the
//!    `k` most correlated peers per point — sketched scores only ever
//!    *rank*; nothing numeric survives into the solves.
//! 3. **Solve** (`fedsc_sparse::restricted`): per-point Lasso over the
//!    `k` candidates on the exact data. The codes are the restricted
//!    optima, so a bad sketch costs accuracy; the exact full-dictionary
//!    route is the default at every size (`min_points = usize::MAX`).
//!
//! Selection is deterministic and bitwise thread-invariant: the sketch is
//! seeded, the scoring products are the pool's invariant kernels, and the
//! top-`k` cut uses the total-order ranking of [`crate::neighbors`].

use crate::neighbors::top_k_indices;
use fedsc_linalg::sketch::sign_sketch;
use fedsc_linalg::{par, Matrix, Result};

/// Columns scored per blocked `S^T S_panel` product.
const SCORE_PANEL: usize = 512;

/// Configuration of the sketched candidate-selection stage.
#[derive(Debug, Clone)]
pub struct CandidateOptions {
    /// Candidate atoms per point (the restricted Lasso dictionary size).
    pub k: usize,
    /// Sketch dimension `s` (rows of the sign projection).
    pub sketch_dim: usize,
    /// Seed of the sign projection (part of the run's determinism contract).
    pub seed: u64,
    /// Minimum point count before the candidate path engages; below it the
    /// exact path runs. The default, `usize::MAX`, never engages it: the
    /// exact path won at every measured size (`DESIGN.md` §9.5), so
    /// screening is opt-in for callers who trade exactness for memory that
    /// does not grow as `n^2`.
    pub min_points: usize,
}

impl Default for CandidateOptions {
    fn default() -> Self {
        Self {
            k: 64,
            sketch_dim: 32,
            seed: 0x5ce7_c8ed,
            min_points: usize::MAX,
        }
    }
}

/// Selects the `k` candidate atoms per point by sketched |inner product|.
///
/// Returns one strictly ascending candidate list per point, never containing
/// the point itself — exactly the shape `fedsc_sparse::restricted`
/// consumes. Bitwise thread-invariant for every `threads`.
pub fn select_candidates(
    x: &Matrix,
    opts: &CandidateOptions,
    threads: usize,
) -> Result<Vec<Vec<usize>>> {
    let n = x.cols();
    let threads = threads.max(1);
    let k = opts.k.min(n.saturating_sub(1));
    if n == 0 {
        return Ok(vec![]);
    }
    let sk = sign_sketch(x, opts.sketch_dim.max(1), opts.seed, threads);
    let mut candidates: Vec<Vec<usize>> = Vec::with_capacity(n);
    let panels = n.div_ceil(SCORE_PANEL);
    for panel in 0..panels {
        let p0 = panel * SCORE_PANEL;
        let p1 = ((panel + 1) * SCORE_PANEL).min(n);
        let cols: Vec<usize> = (p0..p1).collect();
        let block = sk.select_columns(&cols);
        // scores: n x p, column q holds every point's sketched correlation
        // with point p0 + q.
        let scores = sk.tr_matmul_threaded(&block, threads)?;
        let picks = par::par_map_heavy(p1 - p0, threads, |q| {
            let col = scores.col(q);
            top_k_indices(n, k, p0 + q, |j| col[j].abs())
        });
        candidates.extend(picks);
    }
    Ok(candidates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SubspaceModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn candidates_are_ascending_and_exclude_self() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = SubspaceModel::random(&mut rng, 20, 2, 2);
        let ds = model.sample_dataset(&mut rng, &[30, 30], 0.0);
        let opts = CandidateOptions {
            k: 7,
            ..Default::default()
        };
        let cands = select_candidates(&ds.data, &opts, 1).unwrap();
        assert_eq!(cands.len(), 60);
        for (i, c) in cands.iter().enumerate() {
            assert_eq!(c.len(), 7);
            assert!(c.windows(2).all(|w| w[0] < w[1]), "point {i} not ascending");
            assert!(!c.contains(&i), "point {i} contains itself");
        }
    }

    #[test]
    fn mostly_same_subspace_neighbors() {
        // For well-separated subspaces the sketched ranking should put most
        // candidates in the point's own subspace — that's the whole premise
        // of candidate selection (screened codes depend on it).
        let mut rng = StdRng::seed_from_u64(2);
        let model = SubspaceModel::random(&mut rng, 40, 3, 2);
        let ds = model.sample_dataset(&mut rng, &[40, 40], 0.0);
        let opts = CandidateOptions {
            k: 10,
            sketch_dim: 24,
            ..Default::default()
        };
        let cands = select_candidates(&ds.data, &opts, 1).unwrap();
        let mut same = 0usize;
        let mut total = 0usize;
        for (i, c) in cands.iter().enumerate() {
            for &j in c {
                total += 1;
                if ds.labels[i] == ds.labels[j] {
                    same += 1;
                }
            }
        }
        assert!(
            same * 10 > total * 7,
            "only {same}/{total} same-subspace candidates"
        );
    }

    #[test]
    fn thread_invariant_and_panel_boundary_safe() {
        // 600 points straddles the 512-column scoring panel.
        let mut rng = StdRng::seed_from_u64(3);
        let model = SubspaceModel::random(&mut rng, 12, 2, 3);
        let ds = model.sample_dataset(&mut rng, &[200, 200, 200], 0.01);
        let opts = CandidateOptions {
            k: 12,
            ..Default::default()
        };
        let serial = select_candidates(&ds.data, &opts, 1).unwrap();
        for threads in [2usize, 8] {
            let par = select_candidates(&ds.data, &opts, threads).unwrap();
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn k_clamped_for_tiny_n() {
        let mut rng = StdRng::seed_from_u64(4);
        let model = SubspaceModel::random(&mut rng, 6, 1, 1);
        let ds = model.sample_dataset(&mut rng, &[3], 0.0);
        let cands = select_candidates(&ds.data, &CandidateOptions::default(), 1).unwrap();
        assert_eq!(cands.iter().map(Vec::len).max(), Some(2));
    }
}
