//! The induced global graph and the diagnostics that read it (CONN, SEP,
//! exact clustering), pinned bit for bit on one seeded SSC round and one
//! seeded TSC round.
//!
//! The graph is CSR. Its oracle is the dense construction: an `N x N`
//! array filled pair by pair from `point_sample`, `point_cluster` and the
//! server's graph. The goldens are the `to_bits()` of CONN and of the SEP
//! violation computed on that dense graph; the CSR diagnostics must
//! reproduce them exactly.

use fedsc::{CentralBackend, FedSc, FedScConfig, FedScOutput};
use fedsc_clustering::conn::connectivity;
use fedsc_federated::partition::{partition_dataset, Partition};
use fedsc_linalg::Matrix;
use fedsc_subspace::theory::{holds_exact_clustering, sep_violation};
use fedsc_subspace::SubspaceModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One seeded round: 4 random 3-dimensional subspaces of `R^ambient`, 60
/// points each, over 20 devices holding 2 subspaces each (N = 240).
fn round(central: CentralBackend, ambient: usize, seed: u64) -> (FedScOutput, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let model = SubspaceModel::random(&mut rng, ambient, 3, 4);
    let ds = model.sample_dataset(&mut rng, &[60; 4], 0.0);
    let fed = partition_dataset(&ds, 20, Partition::NonIid { l_prime: 2 }, &mut rng);
    let out = FedSc::new(FedScConfig::new(4, central))
        .run(&fed)
        .expect("seeded Fed-SC round");
    (out, fed.global_truth())
}

/// The dense induced graph: same local cluster → 1, otherwise the server's
/// weight between the two points' representative samples.
fn dense_induced(out: &FedScOutput) -> Matrix {
    let n = out.point_sample.len();
    let mut w = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..i {
            let v = if out.point_cluster[i] == out.point_cluster[j] {
                1.0
            } else {
                let (si, sj) = (out.point_sample[i], out.point_sample[j]);
                if si == usize::MAX || sj == usize::MAX {
                    0.0
                } else {
                    out.central_graph.weight(si, sj)
                }
            };
            w[(i, j)] = v;
            w[(j, i)] = v;
        }
    }
    w
}

/// Expected diagnostics: CONN min and mean, SEP violation (all as
/// `to_bits()`), exact clustering at `1e-3`, and the induced graph's nnz.
struct Golden {
    conn_min: u64,
    conn_mean: u64,
    sep: u64,
    exact: bool,
    nnz: usize,
}

fn check(central: CentralBackend, ambient: usize, seed: u64, golden: Golden) {
    let (out, truth) = round(central, ambient, seed);
    let g = out.induced_global_affinity();
    let dense = dense_induced(&out);
    let n = truth.len();
    assert_eq!(g.len(), n);
    let mut nonzeros = 0usize;
    for i in 0..n {
        for j in 0..n {
            let want = dense[(i, j)];
            assert_eq!(g.weight(i, j).to_bits(), want.to_bits(), "entry ({i},{j})");
            nonzeros += usize::from(want != 0.0);
        }
    }
    assert_eq!(
        g.matrix().nnz(),
        nonzeros,
        "the CSR stores exactly the nonzeros"
    );

    let conn = connectivity(&g, &truth).expect("CONN of the induced graph");
    let sep = sep_violation(&g, &truth);
    let exact = holds_exact_clustering(&g, &truth, 1e-3);
    assert_eq!(conn.min.to_bits(), golden.conn_min, "CONN min {}", conn.min);
    assert_eq!(
        conn.mean.to_bits(),
        golden.conn_mean,
        "CONN mean {}",
        conn.mean
    );
    assert_eq!(sep.to_bits(), golden.sep, "SEP violation {sep}");
    assert_eq!(exact, golden.exact);
    assert_eq!(nonzeros, golden.nnz);
}

#[test]
fn ssc_round_induced_graph_and_diagnostics_are_bitwise_pinned() {
    // Near-orthogonal subspaces: SEP holds up to a small cross weight and
    // every ground-truth cluster is connected.
    check(
        CentralBackend::Ssc,
        40,
        8,
        Golden {
            conn_min: 0x3fba_49e8_485b_8db6,
            conn_mean: 0x3fc9_56b0_8b5a_aa20,
            sep: 0x3f28_3cff_c317_74be,
            exact: true,
            nnz: 6566,
        },
    );
}

#[test]
fn tsc_round_induced_graph_and_diagnostics_are_bitwise_pinned() {
    // R^20: the k-NN graph crosses subspaces, so SEP fails.
    check(
        CentralBackend::Tsc { q: None },
        20,
        2,
        Golden {
            conn_min: 0x3fc7_e710_8447_1b9a,
            conn_mean: 0x3fcb_a810_9c82_3c4a,
            sep: 0x3fca_c7d7_6e30_f383,
            exact: false,
            nnz: 9986,
        },
    );
}
