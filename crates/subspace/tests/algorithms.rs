//! Cross-algorithm integration tests: all five centralized SC baselines on
//! shared instances, plus the paper's argument for SSC over TSC as the
//! *local* method (TSC's reliance on uniformly spread points).

// Test code: a panic is a test failure, so unwrap is the idiom here
// (clippy's allow-unwrap-in-tests does not reach integration-test helpers).
#![allow(clippy::unwrap_used)]

use fedsc_clustering::clustering_accuracy;
use fedsc_linalg::random::{gaussian_vector, random_orthonormal_basis};
use fedsc_linalg::{vector, Matrix};
use fedsc_subspace::model::LabeledData;
use fedsc_subspace::{Ensc, Nsn, Ssc, SscOmp, SubspaceClusterer, SubspaceModel, Tsc};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn easy_instance(seed: u64) -> LabeledData {
    let mut rng = StdRng::seed_from_u64(seed);
    let model = SubspaceModel::random(&mut rng, 40, 3, 3);
    model.sample_dataset(&mut rng, &[25, 25, 25], 0.0)
}

#[test]
fn all_five_algorithms_solve_the_easy_instance() {
    let ds = easy_instance(1);
    let mut rng = StdRng::seed_from_u64(2);
    let run = |name: &str, labels: Vec<usize>| {
        let acc = clustering_accuracy(&ds.labels, &labels);
        assert!(acc > 90.0, "{name} accuracy {acc}");
    };
    run(
        "SSC",
        Ssc::default().cluster(&ds.data, 3, &mut rng).unwrap(),
    );
    run("TSC", Tsc::new(6).cluster(&ds.data, 3, &mut rng).unwrap());
    run(
        "SSC-OMP",
        SscOmp { k_max: 3 }.cluster(&ds.data, 3, &mut rng).unwrap(),
    );
    run(
        "EnSC",
        Ensc::default().cluster(&ds.data, 3, &mut rng).unwrap(),
    );
    run(
        "NSN",
        Nsn::new(6, 3).cluster(&ds.data, 3, &mut rng).unwrap(),
    );
}

#[test]
fn noise_ladder_degrades_gracefully() {
    // Accuracy should not fall off a cliff between adjacent mild noise
    // levels for the sparse-coding methods.
    let mut rng = StdRng::seed_from_u64(3);
    let model = SubspaceModel::random(&mut rng, 40, 3, 3);
    let mut prev = 101.0f64;
    for &noise in &[0.0, 0.01, 0.03] {
        let ds = model.sample_dataset(&mut rng, &[25, 25, 25], noise);
        let labels = Ssc::default().cluster(&ds.data, 3, &mut rng).unwrap();
        let acc = clustering_accuracy(&ds.labels, &labels);
        assert!(acc > 85.0, "noise {noise}: accuracy {acc}");
        assert!(
            acc <= prev + 10.0,
            "non-monotone beyond tolerance at {noise}"
        );
        prev = acc;
    }
}

/// Builds data where each subspace's points bunch into two tight antipodal
/// lobes (heavily non-uniform) — the setting the paper cites when arguing
/// TSC's guarantees "rely critically on the uniform distribution of data
/// points on subspaces" while SSC handles heterogeneous local data.
fn skewed_instance(seed: u64) -> LabeledData {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = 40;
    let d = 3;
    let l = 3;
    let per_lobe = 12;
    let mut cols: Vec<Vec<f64>> = Vec::new();
    let mut labels = Vec::new();
    for s in 0..l {
        let basis = random_orthonormal_basis(&mut rng, n, d);
        for lobe in 0..2 {
            // Lobe center in coefficient space; tight spread around it.
            let mut mu = gaussian_vector(&mut rng, d);
            vector::normalize(&mut mu, 1e-12);
            let sign = if lobe == 0 { 3.0 } else { -3.0 };
            for _ in 0..per_lobe {
                let eps = gaussian_vector(&mut rng, d);
                let coeff: Vec<f64> = mu
                    .iter()
                    .zip(&eps)
                    .map(|(&m, &e)| sign * m + 0.25 * e)
                    .collect();
                let mut x = basis.matvec(&coeff).unwrap();
                vector::normalize(&mut x, 1e-12);
                cols.push(x);
                labels.push(s);
            }
        }
    }
    let refs: Vec<&[f64]> = cols.iter().map(|c| c.as_slice()).collect();
    LabeledData {
        data: Matrix::from_columns(&refs).unwrap(),
        labels,
    }
}

#[test]
fn ssc_tolerates_skewed_data_at_least_as_well_as_tsc() {
    // Averaged over seeds to keep the comparison stable.
    let mut ssc_total = 0.0;
    let mut tsc_total = 0.0;
    for seed in 0..4 {
        let ds = skewed_instance(100 + seed);
        let mut rng = StdRng::seed_from_u64(7 + seed);
        let ssc = Ssc::default().cluster(&ds.data, 3, &mut rng).unwrap();
        let tsc = Tsc::new(6).cluster(&ds.data, 3, &mut rng).unwrap();
        ssc_total += clustering_accuracy(&ds.labels, &ssc);
        tsc_total += clustering_accuracy(&ds.labels, &tsc);
    }
    assert!(
        ssc_total >= tsc_total - 10.0,
        "SSC avg {} should not trail TSC avg {} on skewed data",
        ssc_total / 4.0,
        tsc_total / 4.0
    );
    assert!(ssc_total / 4.0 > 80.0, "SSC avg {}", ssc_total / 4.0);
}

#[test]
fn affinity_graphs_are_symmetric_nonnegative_zero_diagonal() {
    let ds = easy_instance(5);
    let graphs = [
        Ssc::default().affinity(&ds.data).unwrap(),
        Tsc::new(5).affinity(&ds.data).unwrap(),
        SscOmp { k_max: 3 }.affinity(&ds.data).unwrap(),
        Ensc::default().affinity(&ds.data).unwrap(),
        Nsn::new(5, 3).affinity(&ds.data).unwrap(),
    ];
    for g in &graphs {
        let n = g.len();
        for i in 0..n {
            assert_eq!(g.weight(i, i), 0.0);
            for j in 0..i {
                assert!(g.weight(i, j) >= 0.0);
                assert!((g.weight(i, j) - g.weight(j, i)).abs() < 1e-12);
            }
        }
    }
}
