//! EnSC — Elastic-net Subspace Clustering (You, Li, Robinson & Vidal,
//! CVPR 2016). Trades a little sparsity for much better graph connectivity.
//!
//! Each point solves
//!
//! ```text
//!   min_c  lambda ||c||_1 + (1 - lambda)/2 ||c||_2^2
//!            + gamma/2 ||x_i - X c||_2^2          s.t. c_i = 0
//! ```
//!
//! With `G = X^T X`, `b = X^T x_i` and `mu = (1 - lambda) / gamma` the
//! objective is `gamma [1/2 c^T (G + mu I) c - b^T c + (lambda/gamma)
//! ||c||_1] + const`: a Lasso over the ridge-shifted Gram. So EnSC runs on
//! SSC's exact homotopy ([`fedsc_sparse::lasso`]) with Lasso weight
//! `gamma / lambda`, and the two methods share one sparse coder.

use crate::algo::{normalize_data, SubspaceClusterer};
use fedsc_graph::SparseAffinity;
use fedsc_linalg::{par, LinalgError, Matrix, Result};
use fedsc_sparse::lasso::{LassoOptions, LassoSolver, LassoWorkspace};
use fedsc_sparse::SparseVec;

/// EnSC configuration.
#[derive(Debug, Clone)]
pub struct Ensc {
    /// Sparsity/connectivity mixing weight `lambda` in `(0, 1]`; `1` is
    /// SSC's Lasso.
    pub lambda: f64,
    /// Data-fidelity weight `gamma > 0`.
    pub gamma: f64,
    /// Worker threads for the Gram product and the per-point solves. The
    /// coefficients are bitwise identical for every value.
    pub threads: usize,
}

impl Default for Ensc {
    fn default() -> Self {
        Self {
            lambda: 0.95,
            gamma: 50.0,
            threads: 1,
        }
    }
}

impl Ensc {
    /// Per-point elastic-net self-expression codes: `codes[i]` is column
    /// `i` of the coefficient matrix `C` (no entry at `i`).
    ///
    /// The Gram gets `mu = (1 - lambda) / gamma` added to its diagonal in
    /// place, and column `i` of the shifted Gram is point `i`'s
    /// correlation vector: the shift only touches entry `i`, which the
    /// excluded coordinate never reads. The per-point solves fan out like
    /// SSC's, one [`LassoWorkspace`] per worker, so the codes are bitwise
    /// identical for every thread count. Errors when `lambda` is outside
    /// `(0, 1]` or `gamma` is not a positive finite number.
    pub fn codes(&self, data: &Matrix) -> Result<Vec<SparseVec>> {
        let (lambda, gamma) = (self.lambda, self.gamma);
        if lambda.is_nan() || lambda <= 0.0 || lambda > 1.0 {
            return Err(LinalgError::InvalidArgument(
                "EnSC lambda must be in (0, 1]",
            ));
        }
        if !gamma.is_finite() || gamma <= 0.0 {
            return Err(LinalgError::InvalidArgument(
                "EnSC gamma must be positive and finite",
            ));
        }
        let x = normalize_data(data);
        let n = x.cols();
        let threads = self.threads.max(1);
        let mut gram = x.gram_threaded(threads);
        let mu = (1.0 - lambda) / gamma;
        for j in 0..n {
            gram[(j, j)] += mu;
        }
        let solver = LassoSolver::new(&gram, LassoOptions::default());
        let weight = gamma / lambda;
        par::par_map_with(n, threads, LassoWorkspace::new, |ws, i| {
            solver.solve_in(gram.col(i), weight, i, ws)
        })
        .into_iter()
        .collect()
    }
}

impl SubspaceClusterer for Ensc {
    fn name(&self) -> &'static str {
        "EnSC"
    }

    fn sparse_affinity(&self, data: &Matrix) -> Result<SparseAffinity> {
        Ok(SparseAffinity::from_codes(&self.codes(data)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SubspaceModel;
    use crate::ssc::Ssc;
    use fedsc_clustering::clustering_accuracy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn clusters_well_separated_subspaces() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = SubspaceModel::random(&mut rng, 30, 3, 3);
        let ds = model.sample_dataset(&mut rng, &[15, 15, 15], 0.0);
        let labels = Ensc::default().cluster(&ds.data, 3, &mut rng).unwrap();
        let acc = clustering_accuracy(&ds.labels, &labels);
        assert!(acc > 90.0, "accuracy {acc}");
    }

    #[test]
    fn denser_codes_than_ssc() {
        // The ridge term spreads weight: EnSC affinities should have at
        // least as many edges as SSC's on the same data.
        let mut rng = StdRng::seed_from_u64(2);
        let model = SubspaceModel::random(&mut rng, 20, 3, 2);
        let ds = model.sample_dataset(&mut rng, &[15, 15], 0.0);
        let count_edges = |g: &fedsc_graph::AffinityGraph| {
            let n = g.len();
            let mut e = 0usize;
            for i in 0..n {
                for j in 0..i {
                    if g.weight(i, j) > 1e-8 {
                        e += 1;
                    }
                }
            }
            e
        };
        let en = Ensc {
            lambda: 0.5,
            gamma: 50.0,
            ..Default::default()
        };
        let e_en = count_edges(&en.affinity(&ds.data).unwrap());
        let e_ssc = count_edges(&Ssc::default().affinity(&ds.data).unwrap());
        assert!(e_en >= e_ssc, "EnSC edges {e_en} vs SSC edges {e_ssc}");
    }

    #[test]
    fn codes_bitwise_invariant_to_thread_count() {
        let mut rng = StdRng::seed_from_u64(4);
        let model = SubspaceModel::random(&mut rng, 20, 3, 2);
        let ds = model.sample_dataset(&mut rng, &[14, 14], 0.01);
        let serial = Ensc::default().codes(&ds.data).unwrap();
        for threads in [2usize, 8] {
            let en = Ensc {
                threads,
                ..Default::default()
            };
            let par = en.codes(&ds.data).unwrap();
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn diagonal_stays_zero() {
        let mut rng = StdRng::seed_from_u64(3);
        let model = SubspaceModel::random(&mut rng, 15, 2, 2);
        let ds = model.sample_dataset(&mut rng, &[8, 8], 0.0);
        let codes = Ensc::default().codes(&ds.data).unwrap();
        for (i, code) in codes.iter().enumerate() {
            assert!(code.iter().all(|(j, _)| j != i), "code {i} uses itself");
        }
    }

    #[test]
    fn correlations_never_read_the_shifted_diagonal() {
        // Column i of the shifted Gram differs from X^T x_i only at the
        // excluded entry i: codes solved from an unshifted copy of the
        // correlations are bitwise the same.
        let mut rng = StdRng::seed_from_u64(6);
        let model = SubspaceModel::random(&mut rng, 20, 3, 3);
        let ds = model.sample_dataset(&mut rng, &[12, 12, 12], 0.02);
        let en = Ensc::default();
        let x = normalize_data(&ds.data);
        let plain = x.gram();
        let mut shifted = plain.clone();
        for j in 0..x.cols() {
            shifted[(j, j)] += (1.0 - en.lambda) / en.gamma;
        }
        let solver = LassoSolver::new(&shifted, LassoOptions::default());
        let codes = en.codes(&ds.data).unwrap();
        for (i, code) in codes.iter().enumerate() {
            let from_plain = solver.solve(plain.col(i), en.gamma / en.lambda, i).unwrap();
            assert_eq!(&from_plain, code, "point {i}");
        }
    }

    #[test]
    fn lambda_one_reduces_to_lasso() {
        // With lambda = 1 the ridge term vanishes: the codes are the Lasso
        // `gamma/2 ||x_i - X c||^2 + ||c||_1` over the plain Gram of the
        // unit-normalized points.
        let x = Matrix::from_rows(&[
            &[1.0, 0.2, -0.3, 0.5, 0.0],
            &[0.1, 1.0, 0.4, -0.2, 0.3],
            &[-0.2, 0.3, 1.0, 0.6, -0.5],
        ])
        .unwrap();
        let en = Ensc {
            lambda: 1.0,
            gamma: 30.0,
            threads: 1,
        };
        let codes = en.codes(&x).unwrap();
        let g = normalize_data(&x).gram();
        let lasso = LassoSolver::new(&g, LassoOptions::default());
        for (i, code) in codes.iter().enumerate() {
            let la = lasso.solve(g.col(i), 30.0, i).unwrap().to_dense();
            for (a, l) in code.to_dense().iter().zip(&la) {
                assert!((a - l).abs() < 1e-12, "point {i}: {a} vs {l}");
            }
        }
    }

    #[test]
    fn exclusion_is_respected() {
        // Point 0 has an exact copy of itself among its own coordinates'
        // strongest pulls; coordinate 0 must still stay zero, and the copy
        // (atom 3) carries the code.
        let x = Matrix::from_rows(&[
            &[1.0, 0.2, -0.3, 1.0],
            &[0.1, 1.0, 0.4, 0.1],
            &[-0.2, 0.3, 1.0, -0.2],
        ])
        .unwrap();
        let codes = Ensc::default().codes(&x).unwrap();
        let c0 = codes[0].to_dense();
        assert_eq!(c0[0], 0.0);
        assert!(c0[3] > 0.5, "the copy carries the code: {c0:?}");
    }

    #[test]
    fn ridge_spreads_weight_over_correlated_atoms() {
        // Point 3 has two exact copies among the atoms: pure Lasso picks
        // one vertex of the optimal face, the elastic net must split the
        // weight evenly (the connectivity argument for EnSC). The points
        // are unit vectors, so normalizing leaves them as they are.
        let x = Matrix::from_rows(&[&[1.0, 1.0, 0.0, 1.0], &[0.0, 0.0, 1.0, 0.0]]).unwrap();
        let en = Ensc {
            lambda: 0.5,
            gamma: 10.0,
            threads: 1,
        };
        let c = en.codes(&x).unwrap()[3].to_dense();
        assert!(c[0] > 1e-3 && c[1] > 1e-3, "weight must split: {c:?}");
        assert!(
            (c[0] - c[1]).abs() < 1e-12,
            "equal atoms get equal weight: {c:?}"
        );
    }

    #[test]
    fn out_of_range_weights_are_errors() {
        let x = Matrix::identity(3);
        for (lambda, gamma) in [
            (0.0, 50.0),
            (1.5, 50.0),
            (f64::NAN, 50.0),
            (0.9, 0.0),
            (0.9, -1.0),
            (0.9, f64::INFINITY),
        ] {
            let en = Ensc {
                lambda,
                gamma,
                ..Default::default()
            };
            assert!(en.codes(&x).is_err(), "lambda {lambda}, gamma {gamma}");
        }
    }
}
