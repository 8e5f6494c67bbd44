//! Integration tests for Section V claims, checked numerically on generated
//! instances: Lemma 2 (estimated cluster spans equal true subspaces under
//! SEP), the heterogeneity benefit of Theorem 1's discussion, and the
//! monotonicity structure of Corollaries 1-2.

// Test code: a panic is a test failure, so unwrap is the idiom here
// (clippy's allow-unwrap-in-tests does not reach integration-test helpers).
#![allow(clippy::unwrap_used)]

use fed_sc::clustering::clustering_accuracy;
use fed_sc::data::synthetic::{generate, SyntheticConfig};
use fed_sc::federated::partition::{partition_dataset, Partition};
use fed_sc::linalg::angles::principal_angle_cosines;
use fed_sc::linalg::svd::dominant_basis;
use fed_sc::subspace::theory::{ssc_affinity_bound, tsc_affinity_bound};
use fed_sc::subspace::{Ssc, SubspaceClusterer as _};
use fed_sc::{CentralBackend, FedSc, FedScConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn lemma2_cluster_spans_equal_true_subspaces() {
    // Near-orthogonal subspaces: local SSC holds SEP, so each connected
    // component spans exactly one true subspace (Lemma 2). Verify via
    // principal angles between the estimated and true bases.
    let mut rng = StdRng::seed_from_u64(1);
    let cfg = SyntheticConfig {
        ambient_dim: 40,
        subspace_dim: 3,
        num_subspaces: 3,
        points_per_subspace: 15,
        noise_std: 0.0,
    };
    let ds = generate(&cfg, &mut rng);
    let g = Ssc::default().sparse_affinity(&ds.data.data).unwrap();
    let comp = g.component_labels(1e-6);
    let num_comp = comp.iter().copied().max().unwrap() + 1;
    assert!(
        num_comp >= 3,
        "expected at least 3 components, got {num_comp}"
    );
    for c in 0..num_comp {
        let members: Vec<usize> = (0..ds.data.len()).filter(|&i| comp[i] == c).collect();
        if members.len() < 4 {
            continue; // tiny stray component: span check is meaningless
        }
        // All members share one ground-truth subspace (SEP).
        let l = ds.data.labels[members[0]];
        assert!(members.iter().all(|&i| ds.data.labels[i] == l));
        // The span of the members equals the true basis: all principal
        // angle cosines are 1.
        let cluster = ds.data.data.select_columns(&members);
        let est = dominant_basis(&cluster, 3).unwrap();
        let cos = principal_angle_cosines(&est, &ds.model.bases[l]).unwrap();
        for c in cos {
            assert!(c > 1.0 - 1e-8, "principal angle cosine {c}");
        }
    }
}

#[test]
fn heterogeneity_benefit_more_local_clusters_hurts() {
    // The same global data, partitioned with L' = 2 vs L' = 5: stronger
    // heterogeneity (smaller L') must not do worse. This is the empirical
    // content of the paper's Corollary discussion and Fig. 5 / Table IV.
    //
    // Two robustness choices versus a single cherry-picked draw:
    // * `samples_per_cluster = 2` — with one sample per local cluster the
    //   L' = 2 partition uploads only 80 samples for 10 global clusters,
    //   so central SSC is sample-starved and the comparison measures
    //   central sample count, not heterogeneity. Two samples per cluster
    //   isolate the effect the theorem is about.
    // * Accuracy is averaged over several seeds, so the assertion does not
    //   hinge on one lucky partition draw (the generator stream is an
    //   implementation detail).
    let seeds = [0u64, 1, 2, 3, 4, 5];
    let mut mean2 = 0.0;
    let mut mean5 = 0.0;
    for &seed in &seeds {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = SyntheticConfig::paper(10, 120);
        let ds = generate(&cfg, &mut rng);
        let acc_for = |l_prime: usize, rng: &mut StdRng| {
            let fed = partition_dataset(&ds.data, 40, Partition::NonIid { l_prime }, rng);
            let mut c = FedScConfig::new(10, CentralBackend::Ssc);
            c.cluster_count = fed_sc::ClusterCountPolicy::Fixed(l_prime);
            c.samples_per_cluster = 2;
            let out = FedSc::new(c).run(&fed).unwrap();
            clustering_accuracy(&fed.global_truth(), &out.predictions)
        };
        mean2 += acc_for(2, &mut rng);
        mean5 += acc_for(5, &mut rng);
    }
    mean2 /= seeds.len() as f64;
    mean5 /= seeds.len() as f64;
    assert!(
        mean2 + 1e-9 >= mean5 - 2.0,
        "heterogeneity should help: L'=2 gives {mean2}, L'=5 gives {mean5}"
    );
    assert!(mean2 > 90.0, "L'=2 accuracy {mean2}");
}

#[test]
fn corollary_bounds_monotone_in_devices_and_dimension() {
    // Corollary 2: the TSC affinity bound decreases in Z' (log in the
    // denominator) and increases in d (sqrt in the numerator).
    let b_small_z = tsc_affinity_bound(5, 20, 3, 50);
    let b_large_z = tsc_affinity_bound(5, 20, 3, 5000);
    assert!(b_small_z > b_large_z);
    let b_small_d = tsc_affinity_bound(2, 20, 3, 50);
    let b_large_d = tsc_affinity_bound(8, 20, 3, 50);
    assert!(b_large_d > b_small_d);
    // Corollary 1: defined only once (Z' - 1) / d > 1; grows with d for
    // fixed large Z'.
    assert_eq!(ssc_affinity_bound(5, 20, 3, 1, 1.0, 1.0), 0.0);
    let c_small_d = ssc_affinity_bound(2, 20, 3, 500, 1.0, 1.0);
    let c_large_d = ssc_affinity_bound(8, 20, 3, 500, 1.0, 1.0);
    assert!(c_large_d > c_small_d);
}

#[test]
fn samples_inherit_semi_random_model() {
    // The pooled samples of a Fed-SC run are unit-norm and concentrate on
    // the true subspaces (the semi-random model Theorem 1's central step
    // assumes): projecting each sample onto its majority cluster's true
    // basis reproduces it.
    let mut rng = StdRng::seed_from_u64(3);
    let cfg = SyntheticConfig {
        ambient_dim: 30,
        subspace_dim: 3,
        num_subspaces: 4,
        points_per_subspace: 80,
        noise_std: 0.0,
    };
    let ds = generate(&cfg, &mut rng);
    let fed = partition_dataset(&ds.data, 20, Partition::NonIid { l_prime: 2 }, &mut rng);
    let truth = fed.global_truth();
    let out = FedSc::new(FedScConfig::new(4, CentralBackend::Ssc))
        .run(&fed)
        .unwrap();
    // Majority ground-truth label per sample.
    let mut votes = vec![std::collections::HashMap::new(); out.samples.cols()];
    for (g, &s) in out.point_sample.iter().enumerate() {
        if s != usize::MAX {
            *votes[s].entry(truth[g]).or_insert(0usize) += 1;
        }
    }
    let mut checked = 0;
    for (s, vote) in votes.iter().enumerate() {
        let Some((&l, _)) = vote.iter().max_by_key(|&(_, &c)| c) else {
            continue;
        };
        // Pure local clusters only (mixed ones exist when local SSC erred).
        let total: usize = vote.values().sum();
        if *vote.get(&l).unwrap() < total {
            continue;
        }
        let theta = out.samples.col(s);
        let basis = &ds.model.bases[l];
        let coeff = basis.tr_matvec(theta).unwrap();
        let proj = basis.matvec(&coeff).unwrap();
        let err: f64 = proj
            .iter()
            .zip(theta)
            .map(|(p, t)| (p - t).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-8, "sample {s} off its subspace by {err}");
        checked += 1;
    }
    assert!(checked > 10, "too few pure samples checked: {checked}");
}
