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
//! epsilon (0 = off), `seed`. An argument that is not `key=value`, an
//! unknown or repeated key, or a value that does not parse prints the usage
//! line on stderr and exits with code 2.

use fedsc::{CentralBackend, ClusterCountPolicy, FedSc, FedScConfig};
use fedsc_clustering::conn::connectivity;
use fedsc_clustering::{clustering_accuracy, normalized_mutual_information};
use fedsc_data::synthetic::{generate, SyntheticConfig};
use fedsc_federated::partition::{partition_dataset, Partition};
use fedsc_federated::privacy::DpConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashMap};
use std::str::FromStr;

const USAGE: &str = "usage: fedsc_cli [l=N] [d=N] [n=N] [z=N] [lprime=N] [per=N] \
                     [backend=ssc|tsc] [noise=X] [dp_eps=X] [seed=N]";
const KEYS: &[&str] = &[
    "l", "d", "n", "z", "lprime", "per", "backend", "noise", "dp_eps", "seed",
];

/// Prints `msg` and the usage line on stderr and exits with code 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("fedsc_cli: {msg}\n{USAGE}");
    std::process::exit(2)
}

/// The value of `key`, parsed, or `default` when the key is absent.
fn get<T: FromStr>(args: &BTreeMap<String, String>, key: &str, default: T) -> T {
    match args.get(key) {
        None => default,
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| usage_error(&format!("bad value for `{key}`: `{v}`"))),
    }
}

fn main() {
    let mut args = BTreeMap::new();
    for arg in std::env::args().skip(1) {
        let Some((k, v)) = arg.split_once('=') else {
            usage_error(&format!("expected key=value, got `{arg}`"))
        };
        if !KEYS.contains(&k) {
            usage_error(&format!("unknown key `{k}`"));
        }
        if args.insert(k.to_string(), v.to_string()).is_some() {
            usage_error(&format!("repeated key `{k}`"));
        }
    }

    let l = get(&args, "l", 10usize);
    let d = get(&args, "d", 5usize);
    let n = get(&args, "n", 20usize);
    let z = get(&args, "z", 60usize);
    let l_prime = get(&args, "lprime", 2usize).clamp(1, l);
    let per = get(&args, "per", 10usize);
    let seed = get(&args, "seed", 7u64);
    let noise = get(&args, "noise", 0.0f64);
    let dp_eps = get(&args, "dp_eps", 0.0f64);
    let backend = match args.get("backend").map(String::as_str) {
        None | Some("ssc") => CentralBackend::Ssc,
        Some("tsc") => CentralBackend::Tsc { q: None },
        Some(other) => usage_error(&format!("unknown backend `{other}`")),
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
