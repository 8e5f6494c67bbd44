//! Quality ablations for the Fed-SC design choices DESIGN.md calls out
//! (the kernels behind them are timed by the `perf` and `cutover` bins):
//!
//! * local cluster-count policy — plain eigengap (paper Eq. (3)),
//!   regularized relative eigengap, fixed upper bound;
//! * samples per local cluster — 1 (the paper) vs 3 vs 5;
//! * local basis dimension — automatic rank vs fixed `d_t = 1`;
//! * central backend — SSC vs TSC (also visible in every figure);
//! * Lasso backend agreement — CD vs ADMM codes on the same instance.

use crate::harness::print_header;
use crate::methods::run_fed_sc_with;
use fedsc::{BasisDim, CentralBackend, ClusterCountPolicy, FedScConfig};
use fedsc_data::synthetic::{generate, SyntheticConfig};
use fedsc_federated::partition::{partition_dataset, FederatedDataset, Partition};
use fedsc_linalg::Matrix;
use fedsc_sparse::admm::{AdmmLasso, AdmmOptions};
use fedsc_sparse::lasso::{ssc_lambda, LassoOptions, LassoSolver};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn build(l: usize, l_prime: usize, z: usize, m: usize, seed: u64) -> FederatedDataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let owners = (z * l_prime).div_ceil(l).max(1);
    let ds = generate(&SyntheticConfig::paper(l, m * owners), &mut rng);
    partition_dataset(&ds.data, z, Partition::NonIid { l_prime }, &mut rng)
}

/// Runs the quality ablations over Fed-SC design choices.
pub fn run() {
    let l = 12usize;
    let l_prime = 2usize;
    let z = 72usize;
    let fed = build(l, l_prime, z, 8, 0xab1);

    println!("# Ablation: Fed-SC design choices (L = {l}, L' = {l_prime}, Z = {z})");
    print_header(&[("variant", 34), ("ACC%", 8), ("NMI%", 8), ("T(s)", 8)]);

    let base = || FedScConfig::new(l, CentralBackend::Ssc);
    let variants: Vec<(&str, FedScConfig)> = vec![
        ("cluster-count: eigengap (Eq. 3)", {
            let mut c = base();
            c.cluster_count = ClusterCountPolicy::Eigengap {
                max: Some(2 * l),
                relative: false,
            };
            c
        }),
        ("cluster-count: relative eigengap", {
            let mut c = base();
            c.cluster_count = ClusterCountPolicy::Eigengap {
                max: Some(2 * l),
                relative: true,
            };
            c
        }),
        ("cluster-count: fixed L'", {
            let mut c = base();
            c.cluster_count = ClusterCountPolicy::Fixed(l_prime);
            c
        }),
        ("samples/cluster: 1 (paper)", {
            let mut c = base();
            c.cluster_count = ClusterCountPolicy::Fixed(l_prime);
            c.samples_per_cluster = 1;
            c
        }),
        ("samples/cluster: 3", {
            let mut c = base();
            c.cluster_count = ClusterCountPolicy::Fixed(l_prime);
            c.samples_per_cluster = 3;
            c
        }),
        ("samples/cluster: 5", {
            let mut c = base();
            c.cluster_count = ClusterCountPolicy::Fixed(l_prime);
            c.samples_per_cluster = 5;
            c
        }),
        ("basis dim: auto rank", {
            let mut c = base();
            c.cluster_count = ClusterCountPolicy::Fixed(l_prime);
            c.basis_dim = BasisDim::Auto;
            c
        }),
        ("basis dim: fixed d_t = 1", {
            let mut c = base();
            c.cluster_count = ClusterCountPolicy::Fixed(l_prime);
            c.basis_dim = BasisDim::Fixed(1);
            c
        }),
        ("central: SSC", {
            let mut c = base();
            c.cluster_count = ClusterCountPolicy::Fixed(l_prime);
            c
        }),
        ("central: TSC (paper q rule)", {
            let mut c = FedScConfig::new(l, CentralBackend::Tsc { q: None });
            c.cluster_count = ClusterCountPolicy::Fixed(l_prime);
            c
        }),
        ("local: SSC (paper)", {
            let mut c = base();
            c.cluster_count = ClusterCountPolicy::Fixed(l_prime);
            c
        }),
        ("local: TSC q=4 (needs uniformness)", {
            let mut c = base();
            c.cluster_count = ClusterCountPolicy::Fixed(l_prime);
            c.local = fedsc::LocalBackend::Tsc { q: 4 };
            c
        }),
    ];
    for (name, cfg) in variants {
        let r = run_fed_sc_with(&fed, cfg, false);
        println!(
            "{name:>34}  {:>8.2}  {:>8.2}  {:>8.3}",
            r.acc,
            r.nmi,
            r.secs()
        );
    }

    // Lasso backend agreement: CD and ADMM optimize the same objective, so
    // their codes must agree to solver tolerance on a shared instance.
    println!("\n# Lasso backend agreement (CD vs ADMM, 40-point instance)");
    let mut rng = StdRng::seed_from_u64(0xab2);
    let ds = generate(&SyntheticConfig::paper(4, 10), &mut rng);
    let x: &Matrix = &ds.data.data;
    let gram = x.gram();
    let cd = LassoSolver::new(&gram, LassoOptions::default());
    let mut worst = 0.0f64;
    for i in 0..x.cols() {
        let lambda = ssc_lambda(gram.col(i), i, 50.0);
        let c1 = cd
            .solve(gram.col(i), lambda, i)
            .expect("cd lasso solve")
            .to_dense();
        let admm = AdmmLasso::new(&gram, lambda, AdmmOptions::default()).expect("gram is square");
        let c2 = admm
            .solve(gram.col(i), i)
            .expect("admm lasso solve")
            .to_dense();
        let diff = c1
            .iter()
            .zip(&c2)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        worst = worst.max(diff);
    }
    println!("max coefficient disagreement over all points: {worst:.2e}");
}
