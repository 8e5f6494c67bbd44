//! End-to-end tests for the aggregation tree: every tree whose subtrees
//! meet quorum must predict what the flat round predicts, the degenerate
//! single-tier topology must match the flat round over a framed link, the
//! multi-tier tree must cluster correctly over all three transports with
//! byte-exact per-tier accounting, and per-tier quorum failures must fail
//! whole subtrees without failing the round.

use fedsc::{
    device_step, run_hier_round, run_hier_round_with_dead, run_over_wire, CentralBackend,
    ClusterCountPolicy, FedSc, FedScConfig, HierPolicy, HierTopology, RoundPolicy, TierTraffic,
};
use fedsc_clustering::clustering_accuracy;
use fedsc_data::synthetic::{generate, SyntheticConfig};
use fedsc_federated::channel::UplinkMessage;
use fedsc_federated::partition::{partition_dataset, FederatedDataset, Partition};
use fedsc_linalg::Matrix;
use fedsc_subspace::{LabeledData, SubspaceModel};
use fedsc_transport::{FaultConfig, FaultyInMemoryTransport, InMemoryTransport, TcpTransport};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// The wire-round fixture: 3 rank-3 subspaces in R^20, 48 points each,
/// spread non-iid over `devices` devices.
fn fixture(seed: u64, devices: usize) -> (FederatedDataset, FedScConfig) {
    let mut rng = StdRng::seed_from_u64(seed);
    let model = SubspaceModel::random(&mut rng, 20, 3, 3);
    let ds = model.sample_dataset(&mut rng, &[48, 48, 48], 0.0);
    let fed = partition_dataset(&ds, devices, Partition::NonIid { l_prime: 2 }, &mut rng);
    let cfg = FedScConfig::new(3, CentralBackend::Ssc);
    (fed, cfg)
}

/// The rank-1 fixture: 3 lines in R^20, 48 points each, with four uploaded
/// samples per local cluster. Samples on a line are exactly parallel
/// atoms, the Lasso's degenerate case (see
/// `rank_one_fixture_clusters_exactly_on_every_seed`), and the pool is
/// large enough that each line is represented many times over.
fn deep_fixture(seed: u64, devices: usize) -> (FederatedDataset, FedScConfig) {
    let mut rng = StdRng::seed_from_u64(seed);
    let model = SubspaceModel::random(&mut rng, 20, 1, 3);
    let ds = model.sample_dataset(&mut rng, &[48, 48, 48], 0.0);
    let fed = partition_dataset(&ds, devices, Partition::NonIid { l_prime: 2 }, &mut rng);
    let mut cfg = FedScConfig::new(3, CentralBackend::Ssc);
    cfg.samples_per_cluster = 4;
    (fed, cfg)
}

/// The Section VI-A generator at the `fig6_z160` benchmark workload's
/// shape: L = 25 five-dimensional subspaces in R^20, 200 points each, over
/// Z = 160 devices holding L' = 3 of them, with the fixed `r^(z) = L'`
/// count and one sample per local cluster (the paper's m = 1).
fn fig6_fixture(seed: u64, central: CentralBackend) -> (FederatedDataset, FedScConfig) {
    let (l, l_prime, z): (usize, usize, usize) = (25, 3, 160);
    let mut rng = StdRng::seed_from_u64(seed);
    let per = 10 * (z * l_prime).div_ceil(l);
    let syn = generate(&SyntheticConfig::paper(l, per), &mut rng);
    let fed = partition_dataset(&syn.data, z, Partition::NonIid { l_prime }, &mut rng);
    let mut cfg = FedScConfig::new(l, central);
    cfg.cluster_count = ClusterCountPolicy::Fixed(l_prime);
    cfg.seed = seed;
    (fed, cfg)
}

#[test]
fn every_tree_predicts_what_the_flat_round_predicts() {
    // Aggregators relay their children's uplinks, so the root of every
    // tree clusters the flat round's pool, in its order, counting the same
    // devices for TSC's q rule. At this shape an aggregator's share of the
    // pool holds too few samples per subspace for SSC, so any clustering
    // below the root shows here as lost accuracy.
    for central in [CentralBackend::Ssc, CentralBackend::Tsc { q: None }] {
        let (fed, cfg) = fig6_fixture(7, central);
        let run = |aggregators: Vec<usize>| {
            let topology = HierTopology::new(160, aggregators).expect("valid fig6 tree");
            run_hier_round(
                &fed,
                &cfg,
                &topology,
                &InMemoryTransport,
                &HierPolicy::default(),
            )
            .unwrap_or_else(|e| panic!("{central:?} {topology:?} round failed: {e:?}"))
            .wire
        };
        let flat = run(Vec::new());
        assert!(flat.excluded.is_empty());
        if central == CentralBackend::Ssc {
            let acc = clustering_accuracy(&fed.global_truth(), &flat.predictions);
            assert!(acc >= 99.0, "flat SSC accuracy {acc}");
        }
        for aggregators in [vec![4], vec![8], vec![16, 4]] {
            let tree = run(aggregators.clone());
            assert!(tree.excluded.is_empty(), "{central:?} {aggregators:?}");
            assert!(
                tree.predictions == flat.predictions,
                "{central:?} {aggregators:?}: tree accuracy {}% against the flat round's {}%",
                clustering_accuracy(&fed.global_truth(), &tree.predictions),
                clustering_accuracy(&fed.global_truth(), &flat.predictions)
            );
            assert_eq!(tree.uplink_bytes, flat.uplink_bytes, "root ingress");
        }
    }
}

#[test]
fn flat_topology_over_clean_faulty_link_matches_predictions() {
    let (fed, cfg) = fixture(1, 12);
    let flat = run_over_wire(&fed, &cfg).expect("flat reference round (seed-1 fixture)");
    // A clean fault plan still frames and checksums every message, so the
    // byte counts differ but the decoded round must not.
    let transport = FaultyInMemoryTransport::new(FaultConfig {
        seed: 5,
        ..FaultConfig::default()
    });
    let hier = run_hier_round(
        &fed,
        &cfg,
        &HierTopology::flat(12),
        &transport,
        &HierPolicy::default(),
    )
    .expect("single-tier round over the clean framed link");
    assert_eq!(hier.wire.predictions, flat.predictions);
    assert!(hier.wire.excluded.is_empty());
    assert!(
        hier.wire.uplink_bytes > flat.uplink_bytes,
        "framed accounting must exceed payload accounting"
    );
}

#[test]
fn two_tier_tree_clusters_correctly() {
    let (fed, cfg) = deep_fixture(3, 12);
    let topo = HierTopology::new(12, vec![4]).expect("12→4→root tree");
    let hier = run_hier_round(
        &fed,
        &cfg,
        &topo,
        &InMemoryTransport,
        &HierPolicy::default(),
    )
    .expect("two-tier round (seed-3 fixture)");
    let acc = clustering_accuracy(&fed.global_truth(), &hier.wire.predictions);
    assert!(acc > 90.0, "accuracy {acc}");
    assert!(hier.wire.excluded.is_empty());
    assert_eq!(hier.tiers.len(), 2);
    // Determinism: the staged driver is single-threaded and fully seeded.
    let again = run_hier_round(
        &fed,
        &cfg,
        &topo,
        &InMemoryTransport,
        &HierPolicy::default(),
    )
    .expect("repeat two-tier round (seed-3 fixture)");
    assert_eq!(again.wire.predictions, hier.wire.predictions);
    // Every tier spent real (but run-specific) wall time; the rest of the
    // accounting is deterministic.
    let normalize = |tiers: &[TierTraffic]| -> Vec<TierTraffic> {
        tiers
            .iter()
            .map(|t| {
                assert!(t.wall_ns > 0, "tier reported zero wall time");
                TierTraffic {
                    wall_ns: 0,
                    ..t.clone()
                }
            })
            .collect()
    };
    assert_eq!(normalize(&again.tiers), normalize(&hier.tiers));
}

#[test]
fn three_tier_tree_clusters_correctly_over_tcp() {
    let (fed, cfg) = deep_fixture(4, 12);
    let reference = run_hier_round(
        &fed,
        &cfg,
        &HierTopology::new(12, vec![6, 2]).expect("12→6→2→root tree"),
        &InMemoryTransport,
        &HierPolicy::default(),
    )
    .expect("three-tier in-memory round (seed-4 fixture)");
    let acc = clustering_accuracy(&fed.global_truth(), &reference.wire.predictions);
    assert!(acc > 90.0, "accuracy {acc}");
    let tcp = run_hier_round(
        &fed,
        &cfg,
        &HierTopology::new(12, vec![6, 2]).expect("12→6→2→root tree"),
        &TcpTransport::loopback(),
        &HierPolicy::default(),
    )
    .expect("three-tier TCP loopback round (seed-4 fixture)");
    // The transport carries opaque bytes: real sockets cannot perturb the
    // clustering, only the (framed) byte accounting.
    assert_eq!(tcp.wire.predictions, reference.wire.predictions);
    for (t, (mem_tier, tcp_tier)) in reference.tiers.iter().zip(tcp.tiers.iter()).enumerate() {
        assert!(
            tcp_tier.uplink_bytes > mem_tier.uplink_bytes,
            "tier {t}: TCP framing must exceed payload accounting"
        );
    }
}

#[test]
fn tier_zero_accounting_is_byte_exact() {
    let (fed, cfg) = fixture(2, 12);
    let topo = HierTopology::new(12, vec![3]).expect("12→3→root tree");
    let hier = run_hier_round(
        &fed,
        &cfg,
        &topo,
        &InMemoryTransport,
        &HierPolicy::default(),
    )
    .expect("two-tier round (seed-2 fixture)");
    // The in-memory link counts payload bytes only, and every device's
    // payload is deterministic — recompute the exact tier-0 ingress.
    let expected_up: usize = (0..12)
        .map(|z| {
            let step =
                device_step(&fed.devices[z].data, z, &cfg).expect("device step is deterministic");
            UplinkMessage {
                dim: step.uplink.rows(),
                samples: step.uplink,
            }
            .encode()
            .len()
        })
        .sum();
    assert_eq!(hier.tiers[0].uplink_bytes, expected_up);
    assert_eq!(hier.tiers[0].uplink_messages, 12);
    // Aggregators forward their children's payloads unchanged, so the root
    // takes exactly the devices' bytes off the wire.
    assert_eq!(hier.root_uplink_bytes(), expected_up);
    assert_eq!(hier.wire.uplink_bytes, hier.root_uplink_bytes());
    assert_eq!(
        hier.total_uplink_bytes(),
        hier.tiers.iter().map(|t| t.uplink_bytes).sum::<usize>()
    );
}

/// Per-tier quorums over the default collection deadline, or over the
/// short `deadline` at both tiers when one is given.
fn quorum_policy(
    device_quorum: usize,
    root_quorum: usize,
    deadline: Option<Duration>,
) -> HierPolicy {
    let tier = |quorum| RoundPolicy {
        quorum: Some(quorum),
        deadline: deadline.unwrap_or(RoundPolicy::default().deadline),
        ..RoundPolicy::default()
    };
    HierPolicy {
        tiers: vec![tier(device_quorum), tier(root_quorum)],
    }
}

#[test]
fn failed_subtree_falls_back_without_failing_the_round() {
    let (fed, cfg) = deep_fixture(3, 12);
    // 12 devices → 4 aggregators of 3 children each. Kill all of
    // aggregator 0's children: it misses quorum and fails its subtree;
    // the root proceeds on 3 of 4 aggregators.
    let topo = HierTopology::new(12, vec![4]).expect("12→4→root tree");
    let dead = [0usize, 1, 2];
    // Under the default 300 s deadline the root must not wait for the
    // failed aggregator, which the driver knows will never send.
    let started = std::time::Instant::now();
    let hier = run_hier_round_with_dead(
        &fed,
        &cfg,
        &topo,
        &InMemoryTransport,
        &quorum_policy(1, 3, None),
        &dead,
    )
    .expect("round should survive one failed subtree");
    let elapsed = started.elapsed();
    assert!(elapsed < Duration::from_secs(10), "round took {elapsed:?}");
    // Ending the collection early changes nothing a short deadline gives.
    let short = run_hier_round_with_dead(
        &fed,
        &cfg,
        &topo,
        &InMemoryTransport,
        &quorum_policy(1, 3, Some(Duration::from_millis(300))),
        &dead,
    )
    .expect("short-deadline round should survive one failed subtree");
    assert_eq!(hier.wire.predictions, short.wire.predictions);
    assert_eq!(hier.wire.excluded, dead.to_vec());
    assert_eq!(short.wire.excluded, dead.to_vec());
    assert_eq!(hier.tiers[0].excluded_children, dead.to_vec());
    // The failed aggregator surfaces as a straggler at the root tier.
    assert_eq!(hier.tiers[1].excluded_children, vec![0]);
    for &z in &dead {
        for i in 0..fed.devices[z].data.cols() {
            // Fallback labels for the points the round never clustered.
            let g = fed.global_index[z][i];
            assert_eq!(hier.wire.predictions[g], 0, "device {z} point {i}");
        }
    }
    // The healthy devices still cluster correctly.
    let truth = fed.global_truth();
    let healthy: Vec<usize> = (3..12).flat_map(|z| fed.global_index[z].clone()).collect();
    let t: Vec<usize> = healthy.iter().map(|&g| truth[g]).collect();
    let p: Vec<usize> = healthy.iter().map(|&g| hier.wire.predictions[g]).collect();
    let acc = clustering_accuracy(&t, &p);
    assert!(acc > 90.0, "healthy-device accuracy {acc}");
}

#[test]
fn root_quorum_miss_fails_the_round() {
    let (fed, cfg) = deep_fixture(7, 12);
    let topo = HierTopology::new(12, vec![4]).expect("12→4→root tree");
    // The root insists on all 4 aggregators; killing one subtree entirely
    // starves it.
    let policy = quorum_policy(1, 4, None);
    let err = run_hier_round_with_dead(&fed, &cfg, &topo, &InMemoryTransport, &policy, &[0, 1, 2]);
    assert!(
        err.is_err(),
        "root quorum 4/4 with a dead subtree must fail"
    );
}

#[test]
fn single_aggregator_chain_and_single_device_degenerate_trees_run() {
    // Z devices → 1 aggregator → root: the aggregator pools everything.
    let (fed, cfg) = deep_fixture(8, 12);
    let chain = run_hier_round(
        &fed,
        &cfg,
        &HierTopology::new(12, vec![1]).expect("12→1→root chain"),
        &InMemoryTransport,
        &HierPolicy::default(),
    )
    .expect("single-aggregator chain round");
    let acc = clustering_accuracy(&fed.global_truth(), &chain.wire.predictions);
    assert!(acc > 90.0, "chain accuracy {acc}");

    // One device straight to the root.
    let mut rng = StdRng::seed_from_u64(9);
    let model = SubspaceModel::random(&mut rng, 20, 3, 2);
    let ds = model.sample_dataset(&mut rng, &[40, 40], 0.0);
    let fed1 = partition_dataset(&ds, 1, Partition::Iid, &mut rng);
    let cfg1 = FedScConfig::new(2, CentralBackend::Ssc);
    let solo = run_hier_round(
        &fed1,
        &cfg1,
        &HierTopology::flat(1),
        &InMemoryTransport,
        &HierPolicy::default(),
    )
    .expect("single-device degenerate round");
    assert_eq!(solo.wire.predictions.len(), 80);
    assert!(solo.wire.excluded.is_empty());
}

#[test]
fn empty_pools_are_answered_at_every_tier() {
    // Four devices holding no points pool nothing anywhere. Like
    // `FedSc::run`, the flat round and a two-tier tree cluster the empty
    // pools and answer every device.
    let empty = || LabeledData {
        data: Matrix::zeros(20, 0),
        labels: Vec::new(),
    };
    let fed = FederatedDataset {
        devices: (0..4).map(|_| empty()).collect(),
        global_index: vec![Vec::new(); 4],
        total_points: 0,
        num_clusters: 3,
    };
    let cfg = FedScConfig::new(3, CentralBackend::Ssc);
    let in_process = FedSc::new(cfg.clone())
        .run(&fed)
        .expect("in-process round over empty devices");
    for topology in [
        HierTopology::flat(4),
        HierTopology::new(4, vec![2]).expect("4→2→root tree"),
    ] {
        let out = run_hier_round(
            &fed,
            &cfg,
            &topology,
            &InMemoryTransport,
            &HierPolicy::default(),
        )
        .unwrap_or_else(|e| panic!("{topology:?} rejected the empty pools: {e:?}"));
        assert_eq!(out.wire.predictions, in_process.predictions);
        assert!(out.wire.excluded.is_empty(), "{topology:?}");
    }
}

#[test]
fn topology_mismatch_is_rejected() {
    let (fed, cfg) = fixture(1, 12);
    let err = run_hier_round(
        &fed,
        &cfg,
        &HierTopology::flat(8), // dataset has 12 devices
        &InMemoryTransport,
        &HierPolicy::default(),
    );
    assert!(err.is_err(), "device-count mismatch must be rejected");
}

#[test]
fn rank_one_fixture_clusters_exactly_on_every_seed() {
    // Points on a line are exactly parallel atoms: the Lasso optimum is a
    // whole face, and a solver that returns one vertex links each point to
    // a single peer, splitting the graph into more components than
    // clusters. Every seed must cluster exactly, flat and through an
    // 8-device / 2-aggregator tree, not just the lucky ones.
    let topo = HierTopology::new(8, vec![2]).expect("8→2→root tree");
    for seed in 1..=16u64 {
        let (fed, mut cfg) = deep_fixture(seed, 8);
        cfg.seed = seed;
        let truth = fed.global_truth();
        let flat = FedSc::new(cfg.clone())
            .run(&fed)
            .expect("flat round on the rank-1 fixture");
        let flat_acc = clustering_accuracy(&truth, &flat.predictions);
        let tree = run_hier_round(
            &fed,
            &cfg,
            &topo,
            &InMemoryTransport,
            &HierPolicy::default(),
        )
        .expect("two-tier round on the rank-1 fixture");
        let tree_acc = clustering_accuracy(&truth, &tree.wire.predictions);
        assert!(
            flat_acc >= 99.0 && tree_acc >= 99.0,
            "seed {seed}: flat {flat_acc}%, tree {tree_acc}%"
        );
    }
}
