//! Benchmark of one Fed-SC round (Algorithm 1) at the paper's experiment
//! configurations.
//!
//! ```text
//! cargo run --release --offline --manifest-path roundbench/Cargo.toml -- \
//!     --workload fig6_z160 --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Each run builds draw 0 of its workload from `--seed`, runs one warm-up
//! round on it whose output is the reference, then for `--seconds` builds
//! draws 0, 1, 2, ... (timed as set-up) and runs the round on each, and prints
//! one JSON line of medians. With `--trace 0` tracing is off and the line
//! carries the end-to-end metrics: the paper's critical path
//! `max_z T_z + T_c`, the sequential sum `sum_z T_z + T_c` that the
//! reference code reports, ACC, NMI, the bytes of the round and the set-up
//! time. With `--trace 1` the rounds run traced and the line carries the
//! per-layer split instead (see `layers.rs`). Times are rescaled to a fixed
//! host speed (see `PROBE_REFERENCE_MS`).
//!
//! Every round is checked: ACC at or above the workload's floor, one uplink
//! and one downlink per device, and uplink bits equal to `n * 64` per
//! pooled sample; the first measured round must also reproduce the
//! reference predictions exactly.

mod layers;
mod workload;

use fedsc::{FedSc, FedScOutput};
use fedsc_clustering::{clustering_accuracy, normalized_mutual_information};
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::Instance;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 20, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => trace = value.parse::<u8>().map_err(bad)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.max(1),
        trace,
    })
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What one checked round yields.
struct Checked {
    out: FedScOutput,
    acc: f64,
    nmi: f64,
}

/// Runs one round and checks its output; `Err` names the first failed check.
fn round(inst: &Instance, reference: Option<&[usize]>) -> Result<Checked, String> {
    let out = FedSc::new(inst.cfg.clone())
        .run(&inst.fed)
        .map_err(|e| format!("round failed: {e}"))?;
    let z = inst.fed.devices.len() as u64;
    let acc = clustering_accuracy(&inst.truth, &out.predictions);
    let nmi = normalized_mutual_information(&inst.truth, &out.predictions);
    let bits = 64 * out.samples.rows() as u64 * out.samples.cols() as u64;
    if out.predictions.len() != inst.truth.len() {
        return Err("prediction count differs from point count".into());
    }
    if reference.is_some_and(|r| r != out.predictions) {
        return Err("predictions differ from the reference round".into());
    }
    if acc < inst.min_acc {
        return Err(format!("ACC {acc:.2}% below the floor {}%", inst.min_acc));
    }
    if out.comm.uplink_messages != z || out.comm.downlink_messages != z {
        return Err("not exactly one uplink and one downlink per device".into());
    }
    if out.comm.uplink_bits != bits {
        return Err(format!("uplink bits {} != {bits}", out.comm.uplink_bits));
    }
    if out.samples.cols() > out.local_cluster_counts.iter().sum::<usize>() {
        return Err("more samples than local clusters".into());
    }
    Ok(Checked { out, acc, nmi })
}

fn json_line(attempted: usize, failed: usize, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

/// Times a fixed floating-point kernel that shares no code with the
/// program, in milliseconds.
fn probe_ms() -> f64 {
    const N: usize = 192;
    let a: Vec<f64> = (0..N * N)
        .map(|i| ((i * 7919) % 1000) as f64 * 1e-3)
        .collect();
    let mut x = vec![1.0f64; N];
    let mut y = vec![0.0f64; N];
    let t = Instant::now();
    for _ in 0..2000 {
        y.fill(0.0);
        for (col, &xj) in a.chunks_exact(N).zip(&x) {
            for (yi, &aij) in y.iter_mut().zip(col) {
                *yi += aij * xj;
            }
        }
        let norm = y.iter().map(|v| v * v).sum::<f64>().sqrt();
        for (xi, &yi) in x.iter_mut().zip(&y) {
            *xi = yi / norm;
        }
        black_box(&mut x);
    }
    ms(t.elapsed())
}

/// Probe time, in milliseconds, of the speed that reported times are
/// rescaled to. Shared hosts switch between full speed and states up to
/// ~1.7x slower for seconds to minutes at a time (other tenants on the same
/// cores), which moves a whole run's wall times by far more than the
/// regressions this benchmark must catch. Every timed step is therefore
/// multiplied by `PROBE_REFERENCE_MS / p`, with `p` the mean of the probes
/// taken right before and right after it. 16 ms is the probe's full-speed
/// time on a 2-core x86-64 cloud VM; the constant only fixes the unit.
const PROBE_REFERENCE_MS: f64 = 16.0;

/// Speed factor for a step bracketed by probes `before` and `after`.
fn speed_scale(before: f64, after: f64) -> f64 {
    PROBE_REFERENCE_MS / (0.5 * (before + after))
}

/// One measured iteration, times already rescaled.
struct Sample {
    setup_s: f64,
    critical_ms: f64,
    sequential_ms: f64,
    acc: f64,
    nmi: f64,
    bytes: f64,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("roundbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(inst) = workload::build(&args.workload, args.seed, 0) else {
        eprintln!(
            "roundbench: unknown workload {:?} (known: {})",
            args.workload,
            workload::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let reference = match round(&inst, None) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("roundbench: reference round: {e}");
            return ExitCode::from(1);
        }
    };
    let budget = Duration::from_secs(args.seconds);
    let line = if args.trace {
        traced(&args, &reference, budget)
    } else {
        untraced(&args, &reference, budget)
    };
    match line {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("roundbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Iterations keep running until the budget is spent and at least three ran.
fn more(start: Instant, budget: Duration, done: usize) -> bool {
    done < 3 || start.elapsed() < budget
}

/// Builds draw `draw` of the workload; the first draw is the reference
/// instance, whose round must reproduce the reference predictions.
fn build(args: &Args, draw: usize) -> Result<Instance, String> {
    workload::build(&args.workload, args.seed, draw as u64).ok_or("unknown workload".into())
}

fn check_against(reference: &Checked, draw: usize) -> Option<&[usize]> {
    (draw == 0).then_some(reference.out.predictions.as_slice())
}

/// Iteration `i` builds draw `i` of the workload (timed as set-up) and runs
/// the round on it, between two probes. Each run thus measures a sample of
/// instances from its seed, so a run's medians do not hinge on how hard a
/// single draw happens to be.
fn untraced(args: &Args, reference: &Checked, budget: Duration) -> Result<String, String> {
    let mut samples = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let start = Instant::now();
    while more(start, budget, attempted) {
        let draw = attempted;
        attempted += 1;
        let before = probe_ms();
        let t = Instant::now();
        let inst = build(args, draw)?;
        let setup_s = t.elapsed().as_secs_f64();
        let result = round(&inst, check_against(reference, draw));
        let scale = speed_scale(before, probe_ms());
        match result {
            Ok(c) => samples.push(Sample {
                setup_s: setup_s * scale,
                critical_ms: ms(c.out.parallel_time()) * scale,
                sequential_ms: ms(c.out.sequential_time()) * scale,
                acc: c.acc,
                nmi: c.nmi,
                bytes: c.out.comm.total_bits() as f64 / 8.0,
            }),
            Err(e) => {
                eprintln!("roundbench: {e}");
                failed += 1;
            }
        }
    }
    if samples.is_empty() {
        return Err("no round succeeded".into());
    }
    let col = |f: fn(&Sample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    Ok(json_line(
        attempted,
        failed,
        &[
            ("critical_path_ms", col(|s| s.critical_ms), "ms"),
            ("sequential_ms", col(|s| s.sequential_ms), "ms"),
            ("acc_pct", col(|s| s.acc), "%"),
            ("nmi_pct", col(|s| s.nmi), "%"),
            ("round_bytes", col(|s| s.bytes), "B"),
            ("setup_s", col(|s| s.setup_s), "s"),
        ],
    ))
}

/// Per-layer values of one traced round, in `PER_LAYER` order.
fn traced_round(inst: &Instance, check: Option<&[usize]>) -> Result<Vec<f64>, String> {
    fedsc_obs::trace::drain();
    let sweeps = fedsc_obs::metrics::counter("lasso.sweeps");
    let before = sweeps.get();
    let c = round(inst, check)?;
    let after_round = sweeps.get();
    let labels = layers::server_split(&c.out.samples, &inst.cfg).map_err(|e| e.to_string())?;
    let server_sweeps = sweeps.get() - after_round;
    if labels != c.out.sample_assignment {
        eprintln!("roundbench: warning: the server split reached other assignments than the round");
    }
    let link_bytes =
        layers::link_split(&c.out, inst.fed.devices.len()).map_err(|e| e.to_string())?;
    let f = layers::fold(&fedsc_obs::trace::drain());
    let gram = f.ms("server.gram");
    Ok(vec![
        f.ms("local.affinity"),
        f.ms("local.eigengap"),
        f.ms("local.spectral"),
        f.ms("local.basis_sample"),
        f.max_ms("phase1.device"),
        f.ms("phase2.central"),
        gram,
        (f.ms("server.affinity") - gram).max(0.0),
        f.ms("server.laplacian"),
        f.ms("server.eigensolve"),
        f.ms("server.kmeans"),
        f.ms("link.encode"),
        f.ms("link.transport"),
        (after_round - before) as f64,
        server_sweeps as f64,
        c.out.samples.cols() as f64,
        link_bytes as f64,
    ])
}

/// The `--trace 1` metrics. Device layers are summed over the devices of
/// a round; `device_max_ms` is the slowest device, the device share of the
/// critical path. `server_lasso_ms` is the SSC affinity minus the Gram
/// product it starts from. `round_lasso_sweeps` counts coordinate-descent
/// sweeps over the whole round, `server_lasso_sweeps` those of the
/// server's SSC alone.
const PER_LAYER: [(&str, &str); 17] = [
    ("device_affinity_ms", "ms"),
    ("device_eigengap_ms", "ms"),
    ("device_spectral_ms", "ms"),
    ("device_basis_sample_ms", "ms"),
    ("device_max_ms", "ms"),
    ("server_central_ms", "ms"),
    ("server_gram_ms", "ms"),
    ("server_lasso_ms", "ms"),
    ("server_laplacian_ms", "ms"),
    ("server_eigensolve_ms", "ms"),
    ("server_kmeans_ms", "ms"),
    ("link_encode_ms", "ms"),
    ("link_transport_ms", "ms"),
    ("round_lasso_sweeps", "count"),
    ("server_lasso_sweeps", "count"),
    ("pooled_samples", "count"),
    ("link_bytes", "B"),
];

fn traced(args: &Args, reference: &Checked, budget: Duration) -> Result<String, String> {
    fedsc_obs::trace::install_ring(1 << 16);
    let mut rows: Vec<Vec<f64>> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let start = Instant::now();
    while more(start, budget, attempted) {
        let draw = attempted;
        attempted += 1;
        let inst = build(args, draw)?;
        let before = probe_ms();
        let result = traced_round(&inst, check_against(reference, draw));
        let scale = speed_scale(before, probe_ms());
        match result {
            Ok(row) => rows.push(
                row.iter()
                    .zip(PER_LAYER)
                    .map(|(&v, (_, unit))| if unit == "ms" { v * scale } else { v })
                    .collect(),
            ),
            Err(e) => {
                eprintln!("roundbench: {e}");
                failed += 1;
            }
        }
    }
    let lost = fedsc_obs::trace::overwritten();
    fedsc_obs::trace::uninstall();
    if lost > 0 {
        eprintln!("roundbench: {lost} spans lost to ring overwrites");
        failed += 1;
    }
    if rows.is_empty() {
        return Err("no traced round succeeded".into());
    }
    let metrics: Vec<(&str, f64, &str)> = PER_LAYER
        .iter()
        .enumerate()
        .map(|(i, &(name, unit))| {
            (
                name,
                median(&rows.iter().map(|r| r[i]).collect::<Vec<_>>()),
                unit,
            )
        })
        .collect();
    Ok(json_line(attempted, failed, &metrics))
}
