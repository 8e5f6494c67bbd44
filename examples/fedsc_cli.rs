//! Command-line driver: run Fed-SC on generated data with every knob
//! exposed as a `--flag value` pair, printing a full metrics report.
//!
//! ```sh
//! cargo run --release --example fedsc_cli -- --l 10 --z 60 --lprime 2 --per 10 \
//!     --backend tsc --noise 0.0 --dp_eps 0 --seed 7
//! ```
//!
//! Flags (all optional): `--l` subspaces, `--d` subspace dim, `--n` ambient
//! dim, `--z` devices, `--lprime` clusters/device, `--per` points per
//! cluster-owner, `--backend` = `ssc` | `tsc`, `--noise` channel delta,
//! `--dp_eps` per-sample DP epsilon (0 = off), `--seed`. The process
//! binaries' parser (`fedsc::cli::Flags`) reads them: an unknown or repeated
//! flag, a flag without its value, or a value that does not parse prints
//! the usage line on stderr and exits with code 2.

use fedsc::cli::Flags;
use fedsc::{CentralBackend, ClusterCountPolicy, FedSc, FedScConfig};
use fedsc_clustering::conn::connectivity;
use fedsc_clustering::{clustering_accuracy, normalized_mutual_information};
use fedsc_data::synthetic::{generate, SyntheticConfig};
use fedsc_federated::partition::{partition_dataset, Partition};
use fedsc_federated::privacy::DpConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::str::FromStr;

const USAGE: &str = "usage: fedsc_cli [--l 10] [--d 5] [--n 20] [--z 60] [--lprime 2] \
                     [--per 10] [--backend ssc|tsc] [--noise 0] [--dp_eps 0] [--seed 7]";

/// Prints `msg` (which ends with the usage line) on stderr and exits with
/// code 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("fedsc_cli: {msg}");
    std::process::exit(2)
}

/// The value of `name`, parsed, or `default` when the flag is absent.
fn get<T: FromStr>(flags: &Flags, name: &str, default: T) -> T {
    flags
        .parsed(name, default)
        .unwrap_or_else(|e| usage_error(&e))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = Flags::parse(&args, USAGE).unwrap_or_else(|e| usage_error(&e));

    let l = get(&flags, "--l", 10usize);
    let d = get(&flags, "--d", 5usize);
    let n = get(&flags, "--n", 20usize);
    let z = get(&flags, "--z", 60usize);
    let l_prime = get(&flags, "--lprime", 2usize).clamp(1, l);
    let per = get(&flags, "--per", 10usize);
    let seed = get(&flags, "--seed", 7u64);
    let noise = get(&flags, "--noise", 0.0f64);
    let dp_eps = get(&flags, "--dp_eps", 0.0f64);
    let backend = match get(&flags, "--backend", String::from("ssc")).as_str() {
        "ssc" => CentralBackend::Ssc,
        "tsc" => CentralBackend::Tsc { q: None },
        other => usage_error(&format!("unknown backend `{other}`\n{USAGE}")),
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
        let mut h = BTreeMap::new();
        for &r in &out.local_cluster_counts {
            *h.entry(r).or_insert(0usize) += 1;
        }
        h.into_iter().collect::<Vec<_>>()
    });
    if dp_eps > 0.0 {
        println!(
            "DP    = worst device ({:.1}, {:.1e}) after composition",
            out.privacy.max_device_epsilon, out.privacy.max_device_delta
        );
    }
}
