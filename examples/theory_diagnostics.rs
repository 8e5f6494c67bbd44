//! Section V in action: generate a federated union-of-subspaces instance
//! and evaluate the paper's theoretical quantities on it — subspace
//! affinities against the Corollary 1/2 bounds, active sets and the
//! heterogeneity summary, inradius and incoherence estimates, and the
//! SEP / exact-clustering criteria of the graphs Fed-SC actually builds.
//!
//! ```sh
//! cargo run --release --example theory_diagnostics
//! ```

use fedsc::{CentralBackend, FedSc, FedScConfig};
use fedsc_data::synthetic::{generate, SyntheticConfig};
use fedsc_federated::partition::{partition_dataset, Partition};
use fedsc_subspace::theory::{
    active_sets, holds_exact_clustering, holds_sep, inradius_estimate, semi_random_margin,
    sep_violation, ssc_affinity_bound, tsc_affinity_bound, tsc_q_range, Heterogeneity,
};
use fedsc_subspace::{Ssc, SubspaceClusterer};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(5);
    let l = 6;
    let d = 3;
    let cfg = SyntheticConfig {
        ambient_dim: 30,
        subspace_dim: d,
        num_subspaces: l,
        points_per_subspace: 96,
        noise_std: 0.0,
    };
    let ds = generate(&cfg, &mut rng);
    let devices = 24;
    let l_prime = 2;
    let fed = partition_dataset(&ds.data, devices, Partition::NonIid { l_prime }, &mut rng);

    println!("instance: L = {l} subspaces (d = {d}) in R^30, Z = {devices}, L' = {l_prime}\n");

    // --- Heterogeneity and active sets (Definitions 2-3). ---
    let dev_labels = fed.device_labels();
    let het = Heterogeneity::from_device_labels(&dev_labels, l);
    println!(
        "Z_l (devices per subspace) = {:?}",
        het.devices_per_subspace
    );
    println!(
        "L^(z) (subspaces per device) = {:?}",
        het.subspaces_per_device
    );
    println!("heterogeneous: {}", het.is_heterogeneous(l));
    let active = active_sets(&dev_labels, l);
    for (s, a) in active.iter().enumerate() {
        println!("alpha({s}) = {a:?}");
    }

    // --- Semi-random conditions (Corollaries 1-2). ---
    let z_prime = *het.devices_per_subspace.iter().min().unwrap_or(&1);
    let aff_max = ds.model.max_normalized_affinity() * (d as f64).sqrt();
    let b_ssc = ssc_affinity_bound(d, l, l_prime, z_prime, 1.0, 1.0);
    let b_tsc = tsc_affinity_bound(d, l, l_prime, z_prime);
    println!("\nmax pairwise affinity      = {aff_max:.4}");
    println!(
        "Corollary 1 (SSC) bound    = {b_ssc:.4} (margin {:+.4})",
        semi_random_margin(&ds.model, b_ssc).expect("model bases share ambient dimension")
    );
    println!(
        "Corollary 2 (TSC) bound    = {b_tsc:.4} (margin {:+.4})",
        semi_random_margin(&ds.model, b_tsc).expect("model bases share ambient dimension")
    );
    match tsc_q_range(d, l_prime, z_prime, z_prime) {
        Some((lo, hi)) => println!("Theorem 2 q-range          = [{lo:.1}, {hi:.1}]"),
        None => println!(
            "Theorem 2 q-range          = empty (Z_l must grow exponentially in d; \
             the paper's own caveat)"
        ),
    }

    // --- Deterministic-side quantities on one device. ---
    let dev = &fed.devices[0];
    let r =
        inradius_estimate(&dev.data, Some(0), 30, &mut rng).expect("device data is well-formed");
    println!("\ninradius estimate on device 0 (excluding point 0) = {r:.4}");

    // --- SEP / exact clustering of the graphs Fed-SC builds. ---
    let local_graph = Ssc::default()
        .sparse_affinity(&dev.data)
        .expect("local SSC graph");
    println!(
        "device 0 local SSC graph: SEP violation = {:.2e}, SEP(1e-3) = {}",
        sep_violation(&local_graph, &dev.labels),
        holds_sep(&local_graph, &dev.labels, 1e-3)
    );

    let out = FedSc::new(FedScConfig::new(l, CentralBackend::Ssc))
        .run(&fed)
        .expect("Fed-SC run");
    let induced = out.induced_global_affinity();
    let truth = fed.global_truth();
    println!(
        "induced global graph: SEP(1e-3) = {}, exact clustering(1e-3) = {}",
        holds_sep(&induced, &truth, 1e-3),
        holds_exact_clustering(&induced, &truth, 1e-3)
    );
    println!(
        "final accuracy = {:.2}%",
        fedsc_clustering::clustering_accuracy(&truth, &out.predictions)
    );
}
