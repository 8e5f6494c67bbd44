//! EnSC optimality: every code `Ensc::codes` returns meets the elastic-net
//! KKT conditions, checked against the objective's own gradient (not the
//! solver's Gram form).

// Test code: a panic is a test failure, so unwrap is the idiom here
// (clippy's allow-unwrap-in-tests does not reach integration-test helpers).
#![allow(clippy::unwrap_used)]

use fedsc_linalg::random::gaussian_matrix;
use fedsc_linalg::{vector, Matrix};
use fedsc_sparse::SparseVec;
use fedsc_subspace::algo::normalize_data;
use fedsc_subspace::{Ensc, SubspaceModel};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Largest KKT violation of `codes` for
/// `lambda ||c||_1 + (1 - lambda)/2 ||c||^2 + gamma/2 ||x_i - X c||^2`
/// with `c_i = 0`. The gradient of the smooth part is
/// `-gamma x_j^T (x_i - X c) + (1 - lambda) c_j`; on the support it must
/// equal `-lambda sign(c_j)`, off it its magnitude must stay within
/// `lambda`.
fn kkt_violation(x: &Matrix, codes: &[SparseVec], lambda: f64, gamma: f64) -> f64 {
    let mut worst = 0.0f64;
    for (i, code) in codes.iter().enumerate() {
        let c = code.to_dense();
        assert_eq!(c[i], 0.0, "code {i} uses itself");
        let fit = x.matvec(&c).unwrap();
        let resid: Vec<f64> = x.col(i).iter().zip(&fit).map(|(t, f)| t - f).collect();
        for (j, &cj) in c.iter().enumerate() {
            if j == i {
                continue;
            }
            let grad = -gamma * vector::dot(x.col(j), &resid) + (1.0 - lambda) * cj;
            let v = if cj != 0.0 {
                (grad + lambda * cj.signum()).abs()
            } else {
                (grad.abs() - lambda).max(0.0)
            };
            worst = worst.max(v);
        }
    }
    worst
}

#[test]
fn ensc_codes_meet_the_elastic_net_kkt_conditions() {
    // (seed, ambient dim, subspace dim, points per subspace, noise):
    // n = 45, 160, 360 and 600 points at the default lambda and gamma.
    let mixtures: [(u64, usize, usize, &[usize], f64); 4] = [
        (1, 30, 3, &[15, 15, 15], 0.0),
        (2, 20, 4, &[40, 40, 40, 40], 0.01),
        (3, 40, 5, &[60; 6], 0.05),
        (4, 50, 6, &[60; 10], 0.02),
    ];
    let en = Ensc::default();
    for (seed, ambient, dim, sizes, noise) in mixtures {
        let mut rng = StdRng::seed_from_u64(seed);
        let model = SubspaceModel::random(&mut rng, ambient, dim, sizes.len());
        let ds = model.sample_dataset(&mut rng, sizes, noise);
        let codes = en.codes(&ds.data).unwrap();
        let viol = kkt_violation(&normalize_data(&ds.data), &codes, en.lambda, en.gamma);
        let n = ds.data.cols();
        assert!(viol <= 1e-9, "n = {n}: KKT violation {viol:e}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn elastic_net_kkt(seed in 0u64..2000, cols in 3usize..8, lambda in 0.3f64..1.0) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = gaussian_matrix(&mut rng, 5, cols);
        let en = Ensc { lambda, gamma: 20.0, threads: 1 };
        let codes = en.codes(&x).unwrap();
        let viol = kkt_violation(&normalize_data(&x), &codes, lambda, 20.0);
        prop_assert!(viol < 1e-9, "violation {viol:e}");
    }
}
