//! Hierarchical-round scenario: device fleets of Z = 256 and Z = 1,024
//! through a 16-aggregator tier, asserting the tree's contract — **the
//! tree predicts exactly what the flat round predicts, and the root takes
//! exactly the devices' bytes off the wire** — plus clean-run accuracy
//! and the `hier.*` metrics contract.
//!
//! Each fleet is many tiny devices: 8 points each on one of `L = 8`
//! rank-2 subspaces of R^16, four uploaded samples per local cluster.
//! Rank 2 matters: a rank-1 subspace's unit sphere is the two-point set
//! `{±u}`, so every device would upload the *same* column and the pooled
//! SSC graph fragments into duplicate pairs. The aggregators relay their
//! children's uplinks, so the root pools all `4 Z` samples: 4,096 at
//! Z = 1,024, a 134 MB Gram. That bounds the fleet this harness can run.
//!
//! Output mirrors `perf.rs`: `{"rows": [...], "metrics": {...}}` written
//! to `BENCH_SMOKE_HIER.json` at the workspace root, with the traced
//! round's merged trace in `trace_hier_smoke.json`. Each fleet produces
//! one `wire_hier` row (wall time + byte totals) and one
//! `wire_hier_tier` row per tier with the per-tier traffic breakdown CI
//! validates.

use fedsc::{run_hier_round, CentralBackend, FedScConfig, HierPolicy, HierRunOutput, HierTopology};
use fedsc_clustering::clustering_accuracy;
use fedsc_federated::partition::{partition_dataset, Partition};
use fedsc_obs::Stopwatch;
use fedsc_subspace::SubspaceModel;
use fedsc_transport::InMemoryTransport;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One JSON row, `extra` holding pre-formatted scenario fields.
struct Entry {
    kernel: &'static str,
    size: String,
    median_ns: u128,
    extra: String,
}

impl Entry {
    fn to_json(&self) -> String {
        format!(
            "  {{\"kernel\": \"{}\", \"size\": \"{}\", \"threads\": 1, \"median_ns\": {}, \"speedup\": 1.0{}}}",
            self.kernel, self.size, self.median_ns, self.extra
        )
    }
}

/// Walks up from the bench crate's manifest dir to the `[workspace]` root.
fn workspace_root() -> std::path::PathBuf {
    let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            return std::path::PathBuf::from(".");
        }
    }
}

/// Ambient dimension of the fleet's data.
const DIM: usize = 16;
/// Global cluster count `L`.
const CLUSTERS: usize = 8;
/// Points per device (tiny-device regime; enough to pin a rank-2 basis).
const POINTS_PER_DEVICE: usize = 8;

/// Builds the fleet and runs one round over `aggregators` (empty = the
/// flat round), returning the output, its accuracy and the wall time of
/// the round itself (dataset generation excluded).
fn run_fleet(devices: usize, aggregators: &[usize]) -> (HierRunOutput, f64, u128) {
    let mut rng = StdRng::seed_from_u64(97);
    let model = SubspaceModel::random(&mut rng, DIM, 2, CLUSTERS);
    let per = devices * POINTS_PER_DEVICE / CLUSTERS;
    let ds = model.sample_dataset(&mut rng, &[per; CLUSTERS], 0.0);
    let fed = partition_dataset(&ds, devices, Partition::NonIid { l_prime: 1 }, &mut rng);
    let mut cfg = FedScConfig::new(CLUSTERS, CentralBackend::Ssc);
    cfg.samples_per_cluster = 4;
    let topo = HierTopology::new(devices, aggregators.to_vec()).expect("valid fleet topology");
    let sw = Stopwatch::start();
    let out = run_hier_round(
        &fed,
        &cfg,
        &topo,
        &InMemoryTransport,
        &HierPolicy::default(),
    )
    .expect("clean hierarchical round");
    let elapsed = sw.elapsed().as_nanos();
    let acc = clustering_accuracy(&fed.global_truth(), &out.wire.predictions);
    (out, acc, elapsed)
}

fn main() {
    // Fleet sizes 4× apart through one aggregator tier.
    let (z_large, z_small, aggs) = (1_024, 256, vec![16]);

    let aggs_label = aggs
        .iter()
        .map(|a| a.to_string())
        .collect::<Vec<_>>()
        .join("-");
    let mut entries: Vec<Entry> = Vec::new();
    let mut outputs: Vec<(usize, HierRunOutput)> = Vec::new();
    for z in [z_small, z_large] {
        let (out, acc, ns) = run_fleet(z, &aggs);
        let (flat, _, flat_ns) = run_fleet(z, &[]);
        eprintln!(
            "wire_hier Z={z:>6} aggs={aggs_label}  {:>12} ns (flat {:>12} ns)  acc {acc:.2}%  root_up {} B  tier0_up {} B",
            ns,
            flat_ns,
            out.root_uplink_bytes(),
            out.tiers[0].uplink_bytes
        );
        assert!(
            out.wire.excluded.is_empty(),
            "clean fleet Z={z} excluded {:?}",
            out.wire.excluded
        );
        assert!(acc > 90.0, "fleet Z={z} accuracy {acc}");
        // The tree's contract: aggregators relay, so the root clusters the
        // flat round's pool and takes exactly the devices' payload bytes
        // off the wire.
        assert!(
            out.wire.predictions == flat.wire.predictions,
            "Z={z}: the tree's predictions differ from the flat round's"
        );
        assert_eq!(
            out.root_uplink_bytes(),
            out.tiers[0].uplink_bytes,
            "Z={z}: root ingress is not tier 0's"
        );
        assert_eq!(
            out.root_uplink_bytes(),
            flat.wire.uplink_bytes,
            "Z={z}: root ingress is not the flat round's"
        );
        entries.push(Entry {
            kernel: "wire_hier",
            size: format!("Z={z},aggs={aggs_label}"),
            median_ns: ns,
            extra: format!(
                ", \"devices\": {z}, \"aggregators\": \"{aggs_label}\", \"accuracy\": {acc:.2}, \
                 \"root_uplink_bytes\": {}, \"total_uplink_bytes\": {}, \"total_downlink_bytes\": {}",
                out.root_uplink_bytes(),
                out.total_uplink_bytes(),
                out.total_downlink_bytes()
            ),
        });
        for (t, tier) in out.tiers.iter().enumerate() {
            // A completed tier always did work (collection and downlink
            // relay at minimum): a zero here means the driver stopped
            // timing the tier, not that it was free.
            assert!(tier.wall_ns > 0, "tier {t} reported zero wall time");
            entries.push(Entry {
                kernel: "wire_hier_tier",
                size: format!("Z={z},tier={t}"),
                median_ns: u128::from(tier.wall_ns),
                extra: format!(
                    ", \"tier\": {t}, \"parents\": {}, \"children\": {}, \
                     \"uplink_bytes\": {}, \"downlink_bytes\": {}, \
                     \"uplink_messages\": {}, \"downlink_messages\": {}, \"excluded\": {}, \
                     \"envelope_bytes\": {}",
                    tier.parents,
                    tier.children,
                    tier.uplink_bytes,
                    tier.downlink_bytes,
                    tier.uplink_messages,
                    tier.downlink_messages,
                    tier.excluded_children.len(),
                    tier.envelope_bytes
                ),
            });
        }
        outputs.push((z, out));
    }

    // Cross-fleet: quadrupling the devices must scale tier-0 ingress
    // near-linearly.
    let small = &outputs[0].1;
    let large = &outputs[1].1;
    assert!(
        large.tiers[0].uplink_bytes >= 3 * small.tiers[0].uplink_bytes,
        "tier-0 ingress did not scale with the fleet: {} vs {}",
        large.tiers[0].uplink_bytes,
        small.tiers[0].uplink_bytes
    );

    // Telemetry leg: the small fleet again with tracing on. The traced
    // round must be bitwise-identical in its labels, byte-identical in
    // payload accounting modulo the declared envelope bytes, and its
    // merged trace must pass the cross-process validator CI runs over
    // the written artifact.
    fedsc_obs::trace::install_ring(1 << 16);
    let (traced, _, _) = run_fleet(z_small, &aggs);
    let events = fedsc_obs::trace::uninstall();
    assert_eq!(
        traced.wire.predictions, small.wire.predictions,
        "telemetry perturbed the fleet's clustering"
    );
    for (t, (tr, un)) in traced.tiers.iter().zip(small.tiers.iter()).enumerate() {
        assert!(
            tr.envelope_bytes > 0,
            "traced tier {t} declared no envelope bytes"
        );
        assert_eq!(
            tr.uplink_bytes,
            un.uplink_bytes + tr.envelope_bytes,
            "tier {t} uplink delta is not the declared envelope bytes"
        );
    }
    let mut fleet = fedsc_obs::FleetCollector::new();
    fleet.add_local_events(&events, 1);
    let trace =
        fedsc_obs::export::fleet_chrome_trace_json(&fleet.spans, &[(1, "hier".to_string())]);
    let (span_count, edges) =
        fedsc_obs::export::validate_cross_process(&trace).expect("merged trace validates");
    eprintln!("wire_hier trace Z={z_small}: {span_count} spans, {edges} parent edges");
    let trace_path = workspace_root().join("trace_hier_smoke.json");
    std::fs::write(&trace_path, &trace).expect("write merged trace JSON");

    // Metrics contract: the hierarchical counters must have been exported
    // (CI's bench-smoke job checks the same keys in the written JSON).
    let snap = fedsc_obs::metrics::snapshot();
    for key in [
        "hier.device_rounds",
        "hier.agg_rounds",
        "hier.root_rounds",
        "hier.uplink_bytes",
        "hier.downlink_bytes",
    ] {
        assert!(
            snap.counters.get(key).copied().unwrap_or(0) > 0,
            "metrics snapshot missing or zero: {key}"
        );
    }

    let rows: Vec<String> = entries.iter().map(Entry::to_json).collect();
    let metrics = fedsc_obs::export::metrics_json(&snap);
    let json = format!(
        "{{\"rows\": [\n{}\n], \"metrics\": {}}}\n",
        rows.join(",\n"),
        metrics
    );
    let path = workspace_root().join("BENCH_SMOKE_HIER.json");
    std::fs::write(&path, &json).expect("write benchmark JSON");
    println!("wrote {}", path.display());
    println!("wrote {}", trace_path.display());
}
