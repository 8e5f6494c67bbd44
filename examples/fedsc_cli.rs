//! Command-line driver: run Fed-SC on generated data with every knob
//! exposed as a `key=value` argument, printing a full metrics report.
//!
//! ```sh
//! cargo run --release --example fedsc_cli -- l=10 z=60 lprime=2 per=10 \
//!     backend=tsc noise=0.0 dp_eps=0 seed=7
//! ```
//!
//! Keys (all optional): `l` subspaces, `d` subspace dim, `n` ambient dim,
//! `z` devices, `lprime` clusters/device, `per` points per cluster-owner,
//! `backend` = `ssc` | `tsc`, `noise` channel delta, `dp_eps` per-sample DP
//! epsilon (0 = off), `seed`.

use fedsc::{CentralBackend, ClusterCountPolicy, FedSc, FedScConfig};
use fedsc_clustering::conn::connectivity;
use fedsc_clustering::{clustering_accuracy, normalized_mutual_information};
use fedsc_data::synthetic::{generate, SyntheticConfig};
use fedsc_federated::partition::{partition_dataset, Partition};
use fedsc_federated::privacy::DpConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

fn main() {
    let args: HashMap<String, String> = std::env::args()
        .skip(1)
        .filter_map(|a| {
            a.split_once('=')
                .map(|(k, v)| (k.to_string(), v.to_string()))
        })
        .collect();
    let get_usize = |k: &str, d: usize| args.get(k).and_then(|v| v.parse().ok()).unwrap_or(d);
    let get_f64 = |k: &str, d: f64| args.get(k).and_then(|v| v.parse().ok()).unwrap_or(d);

    let l = get_usize("l", 10);
    let d = get_usize("d", 5);
    let n = get_usize("n", 20);
    let z = get_usize("z", 60);
    let l_prime = get_usize("lprime", 2).clamp(1, l);
    let per = get_usize("per", 10);
    let seed = get_usize("seed", 7) as u64;
    let noise = get_f64("noise", 0.0);
    let dp_eps = get_f64("dp_eps", 0.0);
    let backend = match args.get("backend").map(String::as_str) {
        Some("tsc") => CentralBackend::Tsc { q: None },
        _ => CentralBackend::Ssc,
    };

    let mut rng = StdRng::seed_from_u64(seed);
    let owners = (z * l_prime).div_ceil(l).max(1);
    let cfg = SyntheticConfig {
        ambient_dim: n,
        subspace_dim: d,
        num_subspaces: l,
        points_per_subspace: per * owners,
        noise_std: 0.0,
    };
    let ds = generate(&cfg, &mut rng);
    let part = if l_prime >= l {
        Partition::Iid
    } else {
        Partition::NonIid { l_prime }
    };
    let fed = partition_dataset(&ds.data, z, part, &mut rng);
    let truth = fed.global_truth();

    let mut fc = FedScConfig::new(l, backend);
    fc.cluster_count = ClusterCountPolicy::Fixed(l_prime);
    fc.channel.noise_delta = noise;
    if dp_eps > 0.0 {
        fc.dp = Some(DpConfig::new(dp_eps, 1e-5));
    }
    fc.seed = seed;

    println!(
        "fed-sc: L={l} d={d} n={n} Z={z} L'={l_prime} N={} backend={:?} noise={noise} dp_eps={dp_eps}",
        ds.data.len(),
        backend
    );
    let out = FedSc::new(fc).run(&fed).expect("Fed-SC run");

    println!(
        "ACC   = {:.2}%",
        clustering_accuracy(&truth, &out.predictions)
    );
    println!(
        "NMI   = {:.2}%",
        normalized_mutual_information(&truth, &out.predictions)
    );
    let c = connectivity(&out.induced_global_affinity(), &truth).expect("connectivity");
    println!("CONN  = {:.4} (min) / {:.4} (mean)", c.min, c.mean);
    println!(
        "time  = {:.3}s sequential, {:.3}s parallel, {:.3}s server",
        out.sequential_time().as_secs_f64(),
        out.parallel_time().as_secs_f64(),
        out.server_time.as_secs_f64()
    );
    println!(
        "comm  = {} uplink + {} downlink bits over {} devices (one shot)",
        out.comm.uplink_bits,
        out.comm.downlink_bits,
        fed.devices.len()
    );
    println!("r^(z) = {:?}", {
        let mut h = HashMap::new();
        for &r in &out.local_cluster_counts {
            *h.entry(r).or_insert(0usize) += 1;
        }
        let mut v: Vec<_> = h.into_iter().collect();
        v.sort();
        v
    });
    if dp_eps > 0.0 {
        println!(
            "DP    = worst device ({:.1}, {:.1e}) after composition",
            out.privacy.max_device_epsilon, out.privacy.max_device_delta
        );
    }
}
