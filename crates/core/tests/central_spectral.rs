//! The server's kernel-seeded CSR eigensolve on a central graph that a
//! Fed-SC round actually produces.
//!
//! The instance is draw 2 of the fig6 quick-scale workload at seed 7
//! (L = 25 subspaces, L' = 3 per device, Z = 160 devices, 480 pooled
//! samples), built with the same generator calls as the round benchmark.
//! Its normalized Laplacian has `λ25 / λ26 ≈ 0.995`: the 25th eigenpair
//! sits in a near-degenerate cluster, which a thick restart with too wide
//! a block cannot resolve within its restart budget.

use fedsc::{CentralBackend, ClusterCountPolicy, FedSc, FedScConfig};
use fedsc_clustering::spectral::sparse_spectrum;
use fedsc_data::synthetic::SyntheticConfig;
use fedsc_federated::partition::{partition_dataset, Partition};
use fedsc_graph::sparse::sparse_normalized_laplacian;
use fedsc_linalg::eigh::eigh;
use fedsc_linalg::lanczos::SymOp;
use fedsc_linalg::Matrix;
use fedsc_subspace::{Ssc, SubspaceClusterer as _, SubspaceModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn mix(seed: u64, salt: u64) -> u64 {
    (seed ^ salt).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// The pooled samples of one fig6 quick-scale round: seed `seed`, draw
/// `draw`.
fn fig6_pool(seed: u64, draw: u64) -> Matrix {
    let (l, l_prime, z): (usize, usize, usize) = (25, 3, 160);
    let seed = mix(seed, draw.wrapping_mul(0x5851_f42d_4c95_7f2d));
    let owners = (z * l_prime).div_ceil(l).max(1);
    let syn = SyntheticConfig::paper(l, 10 * owners);
    let mut model_rng = StdRng::seed_from_u64(0xf16 + (l * 1000 + z) as u64);
    let model = SubspaceModel::random(&mut model_rng, syn.ambient_dim, syn.subspace_dim, l);
    let mut rng = StdRng::seed_from_u64(mix(seed, 0xf16));
    let data = model.sample_dataset(&mut rng, &vec![syn.points_per_subspace; l], syn.noise_std);
    let fed = partition_dataset(&data, z, Partition::NonIid { l_prime }, &mut rng);
    let mut cfg = FedScConfig::new(l, CentralBackend::Ssc);
    cfg.cluster_count = ClusterCountPolicy::Fixed(l_prime);
    cfg.threads = 1;
    cfg.kernel_threads = 1;
    cfg.seed = mix(seed, 0xfed5c);
    FedSc::new(cfg).run(&fed).expect("fig6 round").samples
}

#[test]
fn seeded_csr_solve_converges_on_a_near_degenerate_central_graph() {
    let samples = fig6_pool(7, 2);
    assert_eq!(samples.cols(), 480);
    let w = Ssc::default()
        .sparse_affinity(&samples)
        .expect("SSC affinity");
    let k = 25;
    let lap = sparse_normalized_laplacian(&w);
    let eig = sparse_spectrum(&w, &lap, k).expect("seeded CSR solve");
    assert_eq!(eig.eigenvalues.len(), k);

    // Every returned pair passes the solver's own true-residual contract:
    // `max_i |(L y - θ y)_i| <= 1e-6` (the Laplacian's largest entry is 1).
    for (j, &theta) in eig.eigenvalues.iter().enumerate() {
        let y = eig.eigenvectors.col(j);
        let ly = lap.apply(y).expect("Laplacian apply");
        let worst = ly
            .iter()
            .zip(y)
            .fold(0.0f64, |m, (a, b)| m.max((a - theta * b).abs()));
        assert!(worst <= 1e-6, "pair {j}: residual {worst:e}");
    }

    // And the eigenvalues are the k smallest of the dense decomposition.
    let dense = eigh(&lap.to_dense()).expect("dense eigh");
    for (j, (&got, &want)) in eig.eigenvalues.iter().zip(&dense.eigenvalues).enumerate() {
        assert!(
            (got - want).abs() <= 1e-8,
            "eigenvalue {j}: {got} vs dense {want}"
        );
    }
}
