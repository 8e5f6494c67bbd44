//! Table III: performance comparison on the high-dimensional surrogate
//! datasets (EMNIST-like scatter features, augmented-COIL100-like), with
//! `2 <= L^(z) <= 4` per device: ACC, NMI, CONN (mean), and running time
//! for Fed-SC (SSC/TSC), k-FED (+PCA-10/100), and the five centralized SC
//! baselines.
//!
//! Expected shape (paper): both Fed-SC variants lead by a wide margin;
//! k-FED is mid-pack, k-FED + PCA collapses (local PCA frames are
//! incompatible across devices); centralized SC trails Fed-SC because each
//! device's 2-4-cluster sub-problem is much easier than the global one;
//! Fed-SC runs orders of magnitude faster than centralized SC.

use crate::harness::{cell, print_header, scale, Scale};
use crate::methods::{run_centralized, run_fed_sc_with, run_kfed, MethodResult};
use fedsc::{BasisDim, CentralBackend, ClusterCountPolicy, FedScConfig};
use fedsc_data::realworld::{generate, SurrogateSpec};
use fedsc_federated::partition::{partition_dataset, Partition};
use fedsc_subspace::{Ensc, Nsn, Ssc, SscOmp, Tsc};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Regenerates Table III: all methods on the high-dimensional surrogate datasets (ACC/NMI/CONN/time).
pub fn run() {
    let s = scale();
    // (spec, devices): quick mode shrinks ambient dim, class sizes, and
    // device count; the paper uses Z = 400.
    let (specs, z) = match s {
        Scale::Quick => (
            vec![
                SurrogateSpec::emnist_like(0.06)
                    .with_classes(12)
                    .with_class_size(90),
                SurrogateSpec::coil100_like(0.1)
                    .with_classes(16)
                    .with_class_size(70),
            ],
            40usize,
        ),
        Scale::Full => (
            vec![
                SurrogateSpec::emnist_like(0.5),
                SurrogateSpec::coil100_like(0.5),
            ],
            400usize,
        ),
    };
    // The paper draws each device's cluster count from [2, 4]; our
    // partitioner takes one L', so we use the midpoint 3 and report it.
    let l_prime = 3usize;

    for spec in specs {
        let mut rng = StdRng::seed_from_u64(0x7ab3);
        let ds = generate(&spec, &mut rng);
        let l = spec.num_classes;
        let fed = partition_dataset(&ds.data, z, Partition::NonIid { l_prime }, &mut rng);
        let pooled = fed.pooled();
        let n_total = pooled.labels.len();

        println!(
            "\n# Table III — {} (n = {}, L = {l}, N = {n_total}, Z = {z}, L^(z) = {l_prime})",
            spec.name, spec.ambient_dim
        );
        print_header(&[
            ("method", 16),
            ("ACC%", 8),
            ("NMI%", 8),
            ("CONN", 8),
            ("T(s)", 9),
        ]);

        // Fed-SC with the paper's real-data settings: fixed r^(z) upper
        // bound (max L^(z)) and d_t = 1 bases.
        let fed_cfg = |central| {
            let mut c = FedScConfig::new(l, central);
            c.cluster_count = ClusterCountPolicy::Fixed(l_prime + 1);
            c.basis_dim = BasisDim::Fixed(1);
            c.seed = 0x7ab3;
            c
        };
        let mut results: Vec<MethodResult> = vec![
            run_fed_sc_with(&fed, fed_cfg(CentralBackend::Ssc), true),
            run_fed_sc_with(&fed, fed_cfg(CentralBackend::Tsc { q: None }), true),
            run_kfed(&fed, l, l_prime, None, 0x7ab3),
            run_kfed(&fed, l, l_prime, Some(10), 0x7ab3),
            run_kfed(&fed, l, l_prime, Some(100), 0x7ab3),
            run_centralized(&Ssc::default(), &pooled, l, 0x7ab3, true),
            run_centralized(&SscOmp { k_max: 8 }, &pooled, l, 0x7ab3, true),
            run_centralized(&Ensc::default(), &pooled, l, 0x7ab3, true),
            run_centralized(
                &Tsc::new(Tsc::centralized_q(n_total, l)),
                &pooled,
                l,
                0x7ab3,
                true,
            ),
            run_centralized(&Nsn::new(8, 6), &pooled, l, 0x7ab3, true),
        ];
        for r in results.drain(..) {
            println!(
                "{:>16}  {:>8}  {:>8}  {:>8}  {:>9}",
                r.name,
                cell(r.acc, 2),
                cell(r.nmi, 2),
                cell(r.conn_mean, 4),
                cell(r.secs(), 3),
            );
        }
    }
}
