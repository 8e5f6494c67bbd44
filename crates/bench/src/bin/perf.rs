//! PR perf-tracking harness: times the Fed-SC hot-path kernels at fixed
//! seeds and writes a machine-readable JSON snapshot next to the workspace
//! root, so successive PRs can be compared number-to-number.
//!
//! Kernels covered (threads in {1, max(default_threads, 2)} each; override
//! the upper point with `--max-threads <n>`):
//! - `gram` — the blocked `X^T X` product behind every SSC run.
//! - `matmul` — the blocked general product.
//! - `lasso_batch` — N self-expression solves over one shared
//!   Gram, the unit of work behind `ssc_affinity`.
//! - `ssc_affinity` — the per-point Lasso sweep (Phase 1's hot path).
//! - `pool_overhead` — many tiny `par_map` calls; below the
//!   `MIN_INLINE_ITEMS` threshold these run inline on the caller, so this
//!   scenario now measures the inline fast path.
//! - `pool_wake` — back-to-back `par_map` calls big enough to engage the
//!   pool; measures publish/wake latency (the spin-before-park path).
//! - `ssc_affinity_dense` / `ssc_affinity_cand` — the dense all-pairs
//!   sweep vs the screening-only sketched-candidate CSR pipeline on the
//!   same seeded noisy mixture (n = 4096 head-to-head with a >= 10x
//!   tripwire, n = 16384 candidate-only; the dense path is quadratic in
//!   points and unbenchable there).
//! - `ssc_affinity_cert` — the certified-exact candidate pipeline
//!   (verify + escalate until every code is a full-dictionary optimum) on
//!   a noiseless many-subspace mixture, with certification stats.
//! - `fedsc_e2e` — a full seeded Fed-SC run over a partitioned dataset.
//! - `fedsc_e2e_cand` — the same run with `candidate_threshold` dropped so
//!   every SSC (local and central) routes through the candidate pipeline.
//! - `eigh_dense` — the dense eigensolver at its call-site shapes: the
//!   `k` smallest eigenpairs of a seeded SSC affinity's normalized
//!   Laplacian at (n, k) = (50, 5), a device's local graph, and
//!   (160, 12), the `table3_emnist` server pool (single-threaded rows;
//!   the solver has no threaded path).
//! - `spectral_sparse` / `spectral_sparse_old` — the sparse spectral
//!   stage head-to-head: thick-restart block Lanczos (kernel-seeded) vs
//!   the legacy lock-and-restart deflation on the same CSR normalized
//!   Laplacian, with per-solve operator-apply counts in the rows and a
//!   strict fewer-matvecs tripwire (plus a >= 3x wall-clock bar on the
//!   full n = 4096, k = 64 instance).
//!
//! Output: `BENCH_PR10.json`, an object `{"rows": [...], "metrics": {...}}` —
//! `rows` holds `{kernel, size, threads, median_ns, speedup}` entries
//! (`speedup` is `median_1 / median_t`, 1.0 on the single-thread rows);
//! `metrics` is the flat `fedsc_obs` metrics snapshot accumulated over the
//! whole run (pool/wire/transport counters). `--smoke` runs a
//! seconds-scale grid and writes `BENCH_SMOKE.json` instead — that is what
//! CI validates. `--trace-out <path>` additionally records structured
//! spans and exports them as Chrome `trace_event` JSON (Perfetto-loadable;
//! CI validates it with `cargo xtask validate-trace`).
//!
//! When the host actually has cores to spare (`default_threads() >= 4`),
//! the full run asserts the multi-threaded medians are never slower than
//! 1.15x single-threaded — a regression tripwire, not a benchmark claim.

use fedsc::{CentralBackend, FedSc, FedScConfig};
use fedsc_bench::instances::block_affinity;
use fedsc_clustering::spectral::kernel_seeds;
use fedsc_data::synthetic::{generate, SyntheticConfig};
use fedsc_federated::partition::{partition_dataset, Partition};
use fedsc_graph::laplacian::normalized_laplacian;
use fedsc_graph::sparse::sparse_normalized_laplacian;
use fedsc_linalg::eigh::eigh_partial;
use fedsc_linalg::lanczos::deflated_lanczos_smallest_op;
use fedsc_linalg::par::default_threads;
use fedsc_linalg::thick_restart::{thick_restart_smallest, ThickRestartOptions};
use fedsc_linalg::Matrix;
use fedsc_obs::Stopwatch;
use fedsc_sparse::lasso::{ssc_lambda, LassoOptions, LassoSolver, LassoWorkspace};
use fedsc_subspace::{CandidateOptions, Ssc, SubspaceClusterer};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One JSON row. `extra` carries scenario-specific fields (already
/// JSON-formatted, e.g. `, "uplink_bytes": 5664`) appended to the row.
struct Entry {
    kernel: &'static str,
    size: String,
    threads: usize,
    median_ns: u128,
    speedup: f64,
    extra: String,
}

impl Entry {
    fn to_json(&self) -> String {
        format!(
            "  {{\"kernel\": \"{}\", \"size\": \"{}\", \"threads\": {}, \"median_ns\": {}, \"speedup\": {:.4}{}}}",
            self.kernel, self.size, self.threads, self.median_ns, self.speedup, self.extra
        )
    }
}

/// Median wall time of `reps` runs, in nanoseconds.
fn median_ns(reps: usize, mut f: impl FnMut()) -> u128 {
    let mut times: Vec<u128> = (0..reps.max(1))
        .map(|_| {
            let sw = Stopwatch::start();
            f();
            sw.elapsed().as_nanos()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// Deterministic filler (same family as the kernel property tests) —
/// benchmark inputs must not depend on an rng stream that could drift.
fn filled(rows: usize, cols: usize) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    for j in 0..cols {
        for i in 0..rows {
            m[(i, j)] = ((i * 31 + j * 7 + 3) % 17) as f64 * 0.25 - 2.0;
        }
    }
    m
}

/// Times one kernel at threads = 1 and `tmax`, producing both rows.
fn bench_pair(
    kernel: &'static str,
    size: String,
    reps: usize,
    tmax: usize,
    mut run: impl FnMut(usize),
) -> Vec<Entry> {
    let t1 = median_ns(reps, || run(1));
    let tn = median_ns(reps, || run(tmax));
    eprintln!("{kernel:>14} {size:>24}  1t {t1:>12} ns   {tmax}t {tn:>12} ns");
    vec![
        Entry {
            kernel,
            size: size.clone(),
            threads: 1,
            median_ns: t1,
            speedup: 1.0,
            extra: String::new(),
        },
        Entry {
            kernel,
            size,
            threads: tmax,
            median_ns: tn,
            speedup: t1 as f64 / tn.max(1) as f64,
            extra: String::new(),
        },
    ]
}

/// Current value of a named `fedsc_obs` counter (0 if never touched).
fn counter(name: &str) -> u64 {
    fedsc_obs::metrics::snapshot()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
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

/// Returns the value following `flag` on the command line, if present.
fn flag_value(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let trace_out = flag_value("--trace-out");
    if trace_out.is_some() {
        // 64k span slots: plenty for the smoke grid; the drained ring
        // reports how many were overwritten if a full run overflows it.
        fedsc_obs::trace::install_ring(1 << 16);
    }
    // Always produce a genuinely multi-threaded row, even on a single-core
    // host (where it measures overhead, not speedup — still worth tracking).
    let tmax = flag_value("--max-threads")
        .and_then(|v| v.parse().ok())
        .filter(|&t| t >= 2)
        .unwrap_or_else(|| default_threads().max(2));
    let reps = if smoke { 3 } else { 5 };
    let mut entries: Vec<Entry> = Vec::new();

    // Dense kernels.
    let (gd, gn) = if smoke { (60, 90) } else { (128, 1024) };
    let x = filled(gd, gn);
    entries.extend(bench_pair("gram", format!("{gd}x{gn}"), reps, tmax, |t| {
        std::hint::black_box(x.gram_threaded(t));
    }));
    let (mm, mk, mn) = if smoke { (70, 60, 80) } else { (384, 256, 512) };
    let a = filled(mm, mk);
    let b = filled(mk, mn);
    entries.extend(bench_pair(
        "matmul",
        format!("{mm}x{mk}x{mn}"),
        reps,
        tmax,
        |t| {
            std::hint::black_box(a.matmul_threaded(&b, t).expect("shapes agree"));
        },
    ));

    // SSC affinity: the per-point Lasso sweep over a seeded subspace
    // instance.
    let (sd, spts) = if smoke { (20, 30) } else { (40, 120) };
    let mut rng = StdRng::seed_from_u64(11);
    let model = fedsc_subspace::SubspaceModel::random(&mut rng, sd, 3, 3);
    let ds = model.sample_dataset(&mut rng, &[spts, spts, spts], 0.01);

    // Lasso batch: the N self-expression solves behind one
    // affinity computation, over a Gram precomputed outside the timer —
    // this isolates the solver from the `gram` kernel above.
    let lasso_gram = ds.data.gram_threaded(1);
    let npts = lasso_gram.cols();
    entries.extend(bench_pair(
        "lasso_batch",
        format!("n={npts}"),
        reps,
        tmax,
        |t| {
            let solver = LassoSolver::new(&lasso_gram, LassoOptions::default());
            let codes = fedsc_linalg::par::par_map_with(npts, t, LassoWorkspace::new, |ws, i| {
                let b = lasso_gram.col(i);
                let lambda = ssc_lambda(b, i, 50.0);
                solver.solve_in(b, lambda, i, ws).expect("lasso solve")
            });
            std::hint::black_box(codes);
        },
    ));

    entries.extend(bench_pair(
        "ssc_affinity",
        format!("d={sd},n={}", 3 * spts),
        reps,
        tmax,
        |t| {
            let mut ssc = Ssc::default();
            ssc.lasso.threads = t;
            std::hint::black_box(ssc.affinity(&ds.data).expect("affinity"));
        },
    ));

    // Subquadratic SSC, two regimes on seeded subspace mixtures:
    //
    // Head-to-head (noisy, CD-bound): at noise 0.01 the dense sweep's
    // coordinate descent grinds on fat equicorrelated supports, so the
    // dense n = 4096 row is solver-bound, not Gram-bound. The candidate
    // row on the *same data* runs screening-only (`verify: false`): sketch,
    // top-k selection, restricted solves, CSR assembly — the genuinely
    // subquadratic solve path — and must beat dense by >= 10x at 1 thread.
    // (The exact certificate is a full-Gram-class pass by construction —
    // `O(n d)` per point — so certified mode is benched separately below
    // rather than pretending it is subquadratic.)
    //
    // Certified-exact (noiseless, many subspaces): the Fed-SC central
    // shape — many small clusters of unit-sphere samples on their
    // subspaces — where the sketched top-k contains the dense support and
    // the certificate actually certifies. These rows time the full
    // verify-and-escalate pipeline, with certification stats in the JSON;
    // the n = 16384 row is where the dense path is unbenchable.
    let (cd, csub, cl, cn4, cn16) = if smoke {
        (24, 4, 6, 192, 384)
    } else {
        (64, 6, 8, 4096, 16384)
    };
    let mut rng = StdRng::seed_from_u64(23);
    let cmodel = fedsc_subspace::SubspaceModel::random(&mut rng, cd, csub, cl);
    let c4 = cmodel.sample_dataset(&mut rng, &vec![cn4 / cl; cl], 0.01);
    let dense_ssc = Ssc {
        candidates: None,
        ..Ssc::default()
    };
    let t_dense = median_ns(1, || {
        std::hint::black_box(dense_ssc.affinity(&c4.data).expect("dense affinity"));
    });
    eprintln!(
        "{:>14} {:>24}  1t {t_dense:>12} ns",
        "ssc_aff_dense",
        format!("d={cd},n={cn4}")
    );
    entries.push(Entry {
        kernel: "ssc_affinity_dense",
        size: format!("d={cd},n={cn4}"),
        threads: 1,
        median_ns: t_dense,
        speedup: 1.0,
        extra: String::new(),
    });
    let cand_affinity = |data: &Matrix, t: usize, k: usize, s: usize, verify: bool| {
        let mut ssc = Ssc {
            candidates: Some(CandidateOptions {
                k,
                sketch_dim: s,
                min_points: 2,
                verify,
                ..CandidateOptions::default()
            }),
            ..Ssc::default()
        };
        ssc.lasso.threads = t;
        let out = ssc.candidate_codes(data).expect("candidate codes");
        let w = fedsc_graph::SparseAffinity::from_codes(&out.codes);
        std::hint::black_box(&w);
        out
    };
    // Screening rows run a leaner selection (k = 48, sketch dim 16) than
    // the certified default (64/32): without a certificate there is no
    // escalation to amortize, and the smaller panel keeps the restricted
    // Gram + CD stage comfortably past the 10x bar. The config is part of
    // the row's `size` string so the trajectory stays comparable.
    let (sk, ss) = (48, 16);
    let t_cand = median_ns(1, || {
        cand_affinity(&c4.data, 1, sk, ss, false);
    });
    eprintln!(
        "{:>14} {:>24}  1t {t_cand:>12} ns",
        "ssc_aff_cand",
        format!("d={cd},n={cn4},k={sk},s={ss}")
    );
    entries.push(Entry {
        kernel: "ssc_affinity_cand",
        size: format!("d={cd},n={cn4},k={sk},s={ss}"),
        threads: 1,
        median_ns: t_cand,
        speedup: 1.0,
        extra: String::new(),
    });
    // The PR 8 contract: sketched candidates + restricted solves + CSR
    // assembly at n = 4096 must be at least 10x faster than the dense
    // sweep, single-threaded, on the same data. Smoke sizes are too small
    // to amortize the sketch, so only the full grid asserts.
    if !smoke {
        assert!(
            t_cand.saturating_mul(10) <= t_dense,
            "candidate pipeline not 10x over dense at n={cn4}: {t_cand} ns vs {t_dense} ns"
        );
    }
    let c16 = cmodel.sample_dataset(&mut rng, &vec![cn16 / cl; cl], 0.01);
    let t16 = median_ns(1, || {
        cand_affinity(&c16.data, tmax, sk, ss, false);
    });
    eprintln!(
        "{:>14} {:>24}  {tmax}t {t16:>12} ns",
        "ssc_aff_cand",
        format!("d={cd},n={cn16},k={sk},s={ss}")
    );
    entries.push(Entry {
        kernel: "ssc_affinity_cand",
        size: format!("d={cd},n={cn16},k={sk},s={ss}"),
        threads: tmax,
        median_ns: t16,
        speedup: 1.0,
        extra: String::new(),
    });
    // Certified-exact rows: noiseless unit-sphere samples on many small
    // subspaces (subspace population <= k, so the sketched top-k can hold
    // the dense support). The 16k instance drops to subspace dimension 3:
    // at dimension 4 the support growth makes near-every point escalate
    // and the row takes minutes; at 3 the certificate passes ~97% of
    // points and the row stays ~1.5 min single-core.
    let (xsub4, xsub16, xl4, xl16) = if smoke {
        (3, 3, 6, 12)
    } else {
        (4, 3, 64, 256)
    };
    let xn4 = cn4;
    let xn16 = cn16;
    let mut rng = StdRng::seed_from_u64(29);
    let xmodel4 = fedsc_subspace::SubspaceModel::random(&mut rng, cd, xsub4, xl4);
    let x4 = xmodel4.sample_dataset(&mut rng, &vec![xn4 / xl4; xl4], 0.0);
    let sw4 = Stopwatch::start();
    let cert_out = cand_affinity(&x4.data, 1, 64, 32, true);
    let t_cert = sw4.elapsed().as_nanos();
    let cert4 = cert_out.certified.iter().filter(|&&c| c).count();
    eprintln!(
        "{:>14} {:>24}  1t {t_cert:>12} ns   certified {cert4}/{xn4}",
        "ssc_aff_cert",
        format!("d={cd},n={xn4}")
    );
    entries.push(Entry {
        kernel: "ssc_affinity_cert",
        size: format!("d={cd},n={xn4}"),
        threads: 1,
        median_ns: t_cert,
        speedup: 1.0,
        extra: format!(
            ", \"certified\": {cert4}, \"escalated\": {}",
            cert_out.escalated_points
        ),
    });
    let xmodel16 = fedsc_subspace::SubspaceModel::random(&mut rng, cd, xsub16, xl16);
    let x16 = xmodel16.sample_dataset(&mut rng, &vec![xn16 / xl16; xl16], 0.0);
    let sw16 = Stopwatch::start();
    let cert_out16 = cand_affinity(&x16.data, tmax, 64, 32, true);
    let t_cert16 = sw16.elapsed().as_nanos();
    let cert16 = cert_out16.certified.iter().filter(|&&c| c).count();
    eprintln!(
        "{:>14} {:>24}  {tmax}t {t_cert16:>12} ns   certified {cert16}/{xn16}",
        "ssc_aff_cert",
        format!("d={cd},n={xn16}")
    );
    entries.push(Entry {
        kernel: "ssc_affinity_cert",
        size: format!("d={cd},n={xn16}"),
        threads: tmax,
        median_ns: t_cert16,
        speedup: 1.0,
        extra: format!(
            ", \"certified\": {cert16}, \"escalated\": {}",
            cert_out16.escalated_points
        ),
    });

    // Pool overhead: many tiny fan-outs, dominated by dispatch rather than
    // compute. These sit below `MIN_INLINE_ITEMS`, so `par_map` runs them
    // inline on the caller — BENCH_PR6 measured 5.1 ms per 32-item job at
    // 2 threads when every call paid a publish plus a futex wake.
    let (calls, items) = if smoke { (50, 32) } else { (400, 64) };
    entries.extend(bench_pair(
        "pool_overhead",
        format!("{calls}x{items}"),
        reps,
        tmax,
        |t| {
            for _ in 0..calls {
                std::hint::black_box(fedsc_linalg::par::par_map(items, t, |i| i * 17 + 1));
            }
        },
    ));

    // Pool wake latency: back-to-back fan-outs big enough to engage the
    // pool (>= MIN_INLINE_ITEMS). Out-of-work workers spin briefly on the
    // publish epoch, so each next job in the burst is claimed without a
    // park/unpark round trip.
    let (wake_calls, wake_items) = if smoke { (20, 256) } else { (100, 512) };
    entries.extend(bench_pair(
        "pool_wake",
        format!("{wake_calls}x{wake_items}"),
        reps,
        tmax,
        |t| {
            for _ in 0..wake_calls {
                std::hint::black_box(fedsc_linalg::par::par_map(wake_items, t, |i| i * 17 + 1));
            }
        },
    ));

    // End-to-end seeded Fed-SC over a non-IID partition.
    let (el, edim, edev, eper): (usize, usize, usize, usize) = if smoke {
        (3, 20, 8, 6)
    } else {
        (4, 40, 24, 12)
    };
    let mut rng = StdRng::seed_from_u64(5);
    let owners = (edev * 2).div_ceil(el).max(1);
    let syn = SyntheticConfig {
        ambient_dim: edim,
        subspace_dim: 3,
        num_subspaces: el,
        points_per_subspace: eper * owners,
        noise_std: 0.0,
    };
    let data = generate(&syn, &mut rng);
    let fed = partition_dataset(&data.data, edev, Partition::NonIid { l_prime: 2 }, &mut rng);
    entries.extend(bench_pair(
        "fedsc_e2e",
        format!("Z={edev},N={}", el * eper * owners),
        reps,
        tmax,
        |t| {
            let mut cfg = FedScConfig::new(el, CentralBackend::Ssc);
            cfg.threads = t;
            cfg.kernel_threads = t;
            cfg.seed = 7;
            std::hint::black_box(FedSc::new(cfg).run(&fed).expect("fed-sc run"));
        },
    ));

    // The same federated run with `candidate_threshold` dropped to 2:
    // every SSC — each device's local affinity and the server's central
    // clustering over the pooled samples — routes through the sketched
    // candidates, the CSR affinity, and the sparse spectral path. At these
    // sizes it measures routing overhead, not speedup; the point is a
    // perf-tracked e2e row that exercises the full subquadratic plumbing.
    entries.extend(bench_pair(
        "fedsc_e2e_cand",
        format!("Z={edev},N={}", el * eper * owners),
        reps,
        tmax,
        |t| {
            let mut cfg = FedScConfig::new(el, CentralBackend::Ssc);
            cfg.threads = t;
            cfg.kernel_threads = t;
            cfg.seed = 7;
            cfg.candidate_threshold = 2;
            std::hint::black_box(FedSc::new(cfg).run(&fed).expect("fed-sc candidate run"));
        },
    ));

    // Dense eigensolver at the shapes its callers use: k eigenvectors of
    // an n-node Laplacian. The graphs are SSC affinities of seeded
    // subspace mixtures with k subspaces, so the spectra carry the near-
    // degenerate bottom clusters real rounds hand the solver. Same shapes
    // in the smoke grid: they take milliseconds.
    for (en, ek) in [(50usize, 5usize), (160, 12)] {
        let mut rng = StdRng::seed_from_u64(17);
        let model = fedsc_subspace::SubspaceModel::random(&mut rng, 30, 3, ek);
        let sizes: Vec<usize> = (0..ek)
            .map(|c| en / ek + usize::from(c < en % ek))
            .collect();
        let pts = model.sample_dataset(&mut rng, &sizes, 0.01);
        let lap = normalized_laplacian(&Ssc::default().affinity(&pts.data).expect("affinity"));
        let t = median_ns(reps, || {
            let _ = std::hint::black_box(eigh_partial(&lap, ek).expect("dense eigh"));
        });
        eprintln!(
            "{:>14} {:>24}  1t {t:>12} ns",
            "eigh_dense",
            format!("n={en},k={ek}")
        );
        entries.push(Entry {
            kernel: "eigh_dense",
            size: format!("n={en},k={ek}"),
            threads: 1,
            median_ns: t,
            speedup: 1.0,
            extra: String::new(),
        });
    }

    // Sparse spectral stage (the PR 10 tentpole): thick-restart block
    // Lanczos with kernel-aware seeding vs the legacy lock-and-restart
    // deflation, on the same CSR normalized Laplacian of the deterministic
    // ideal k-cluster affinity (see `block_affinity`) — the exact k-fold
    // degenerate zero a perfect self-expression run hands the spectral
    // stage, which the seeded solver captures by construction while the
    // baseline deflates out one copy per restart cycle. The rows carry
    // the per-solve operator-apply count (`spectral.matvecs` delta) so the
    // algorithmic win is tracked separately from wall-clock; the harness
    // asserts the new solver needs strictly fewer applies on every grid,
    // and >= 3x less wall time on the full n = 4096, k = 64 instance.
    let (spb, spp, spk) = if smoke { (24, 25, 24) } else { (64, 64, 64) };
    let spn = spb * spp;
    let w_sp = block_affinity(spb, spp);
    let lap_sp = sparse_normalized_laplacian(&w_sp);
    let mv0 = counter("spectral.matvecs");
    let mut sp_rows = bench_pair(
        "spectral_sparse",
        format!("n={spn},k={spk}"),
        reps,
        tmax,
        |t| {
            let opts = ThickRestartOptions {
                seeds: kernel_seeds(&w_sp),
                threads: t,
                ..ThickRestartOptions::default()
            };
            let _ = std::hint::black_box(
                thick_restart_smallest(&lap_sp, spk, &opts).expect("thick restart"),
            );
        },
    );
    // The solve is deterministic and thread-invariant, so every rep costs
    // the same applies; bench_pair ran 2 * reps solves.
    let mv_new = (counter("spectral.matvecs") - mv0) / (2 * reps as u64);
    for row in &mut sp_rows {
        row.extra = format!(", \"matvecs\": {mv_new}");
    }
    let t_new = sp_rows[0].median_ns;
    entries.extend(sp_rows);
    let mv0_old = counter("spectral.matvecs");
    let t_old = median_ns(1, || {
        let _ = std::hint::black_box(
            deflated_lanczos_smallest_op(&lap_sp, spk, spk + 40).expect("deflated lanczos"),
        );
    });
    let mv_old = counter("spectral.matvecs") - mv0_old;
    eprintln!(
        "{:>14} {:>24}  1t {t_old:>12} ns   matvecs {mv_old} (new: {mv_new})",
        "spectral_old",
        format!("n={spn},k={spk}")
    );
    entries.push(Entry {
        kernel: "spectral_sparse_old",
        size: format!("n={spn},k={spk}"),
        threads: 1,
        median_ns: t_old,
        speedup: 1.0,
        extra: format!(", \"matvecs\": {mv_old}"),
    });
    // Matvec tripwire (CI bench-smoke runs this on the smoke grid too):
    // the blocked thick-restart solver must do strictly less operator work
    // than lock-and-restart on the same instance — wall-clock on a shared
    // runner is noise, operator applies are not.
    assert!(
        mv_new < mv_old,
        "thick-restart used {mv_new} operator applies vs legacy {mv_old} on n={spn},k={spk}"
    );
    if !smoke {
        assert!(
            t_new.saturating_mul(3) <= t_old,
            "thick-restart not 3x over lock-and-restart at n={spn},k={spk}: {t_new} ns vs {t_old} ns"
        );
        // The federated-scale point: k = 64 clusters over 16k pooled
        // samples. The legacy solver is unbenchable here (its apply count
        // scales with k * restarts * basis), so this row is new-solver
        // only, at the threaded grid point.
        let (bb, bp) = (64, 256);
        let bn = bb * bp;
        let w_big = block_affinity(bb, bp);
        let lap_big = sparse_normalized_laplacian(&w_big);
        let mv0_big = counter("spectral.matvecs");
        let t_big = median_ns(1, || {
            let opts = ThickRestartOptions {
                seeds: kernel_seeds(&w_big),
                threads: tmax,
                ..ThickRestartOptions::default()
            };
            let _ = std::hint::black_box(
                thick_restart_smallest(&lap_big, spk, &opts).expect("thick restart 16k"),
            );
        });
        let mv_big = counter("spectral.matvecs") - mv0_big;
        eprintln!(
            "{:>14} {:>24}  {tmax}t {t_big:>12} ns   matvecs {mv_big}",
            "spectral_sparse",
            format!("n={bn},k={spk}")
        );
        entries.push(Entry {
            kernel: "spectral_sparse",
            size: format!("n={bn},k={spk}"),
            threads: tmax,
            median_ns: t_big,
            speedup: 1.0,
            extra: format!(", \"matvecs\": {mv_big}"),
        });
    }

    // Wire rounds over real transports: wall-clock plus the uplink /
    // downlink byte totals as seen by the server. The in-memory reference
    // link counts payload bytes only; TCP accounting is wire-true —
    // framing headers and handshake frames included.
    let wdev = if smoke { 6 } else { 12 };
    let (wfed, wcfg) = fedsc::demo::demo_fixture(7, wdev, 3);
    let policy = fedsc::RoundPolicy::default();
    let wire_points: usize = wfed.devices.iter().map(|d| d.data.cols()).sum();
    for (kernel, run) in [
        (
            "wire_mem",
            Box::new(|| {
                fedsc::run_round(&wfed, &wcfg, &fedsc_transport::InMemoryTransport, &policy)
                    .expect("wire_mem round")
            }) as Box<dyn Fn() -> fedsc::WireRunOutput>,
        ),
        (
            "wire_tcp",
            Box::new(|| {
                fedsc::run_round(
                    &wfed,
                    &wcfg,
                    &fedsc_transport::TcpTransport::loopback(),
                    &policy,
                )
                .expect("wire_tcp round")
            }),
        ),
    ] {
        let mut last: Option<fedsc::WireRunOutput> = None;
        let t = median_ns(reps, || {
            last = Some(std::hint::black_box(run()));
        });
        let out = last.expect("at least one rep ran");
        eprintln!(
            "{kernel:>14} {:>24}  {wdev}dev {t:>12} ns   up {} B  down {} B",
            format!("Z={wdev},N={wire_points}"),
            out.uplink_bytes,
            out.downlink_bytes
        );
        entries.push(Entry {
            kernel,
            size: format!("Z={wdev},N={wire_points}"),
            threads: wdev,
            median_ns: t,
            speedup: 1.0,
            extra: format!(
                ", \"uplink_bytes\": {}, \"downlink_bytes\": {}",
                out.uplink_bytes, out.downlink_bytes
            ),
        });
    }

    // Regression tripwire: with real cores available, threading must never
    // cost more than 15% over serial on the full-size grid. Single-core CI
    // hosts (and the seconds-scale smoke grid) skip it — there the
    // multi-thread rows measure pool overhead by design.
    // `pool_overhead` / `pool_wake` are dispatch microbenchmarks with
    // near-zero compute per item; they measure the pool's fixed costs and
    // are exempt from the compute-speedup tripwire.
    let dispatch_only = ["pool_overhead", "pool_wake"];
    if !smoke && default_threads() >= 4 {
        for e in entries
            .iter()
            .filter(|e| e.threads > 1 && !dispatch_only.contains(&e.kernel))
        {
            assert!(
                e.speedup >= 1.0 / 1.15,
                "{} ({}) slowed down under {} threads: speedup {:.3}",
                e.kernel,
                e.size,
                e.threads,
                e.speedup
            );
        }
    }

    // Pool regression check: a persistent pool spawns each worker at most
    // once for the whole process, so the spawn counter is bounded by the
    // configured thread count. Spawn-per-call churn shows up here as counts
    // in the hundreds (BENCH_PR5.json recorded 530).
    let snap = fedsc_obs::metrics::snapshot();
    let spawned = snap
        .counters
        .get("pool.workers_spawned")
        .copied()
        .unwrap_or(0);
    assert!(
        spawned <= tmax as u64,
        "pool spawned {spawned} workers; configured thread count is {tmax}"
    );
    // Solver-counter contract: the Lasso homotopy must have been exercised
    // and exported (CI's bench-smoke job checks the same keys in the
    // written JSON).
    assert!(
        snap.counters
            .get("lasso.homotopy_steps")
            .is_some_and(|&s| s > 0),
        "lasso.homotopy_steps never incremented"
    );
    for key in [
        "lasso.sweeps",
        // The candidate pipeline's own contract: the sketch kernel and the
        // restricted solver must have run and exported their counters.
        "sketch.calls",
        "sketch.columns",
        "lasso.candidates_per_point",
        "lasso.escalations",
        // The spectral stage's contract: the thick-restart solver must have
        // run and exported its restart/apply/reorth/lock telemetry.
        "spectral.matvecs",
        "spectral.restarts",
        "spectral.reorth_passes",
        "spectral.ritz_locked",
        // The dense eigensolver's inverse iteration.
        "eigh.inverse_iterations",
        "eigh.unconverged",
    ] {
        assert!(
            snap.counters.contains_key(key),
            "metrics snapshot missing {key}"
        );
    }

    // Pool wake tripwire (the PR 8 satellite): back-to-back pool-engaging
    // fan-outs at > 1 thread must never cost more than 5x the inline serial
    // sweep — the 2-thread pathology fixed alongside this PR showed up as
    // ~20x here. Applies whenever the multi-thread row actually engaged
    // the pool (full grid only; smoke sizes park workers between calls).
    if !smoke && default_threads() >= 2 {
        let wake_1 = entries
            .iter()
            .find(|e| e.kernel == "pool_wake" && e.threads == 1)
            .map(|e| e.median_ns)
            .expect("pool_wake single-thread row");
        let wake_n = entries
            .iter()
            .find(|e| e.kernel == "pool_wake" && e.threads > 1)
            .map(|e| e.median_ns)
            .expect("pool_wake multi-thread row");
        assert!(
            wake_n <= wake_1.saturating_mul(5),
            "pool_wake multi-thread median {wake_n} ns exceeds 5x single-thread {wake_1} ns"
        );
    }

    let rows: Vec<String> = entries.iter().map(Entry::to_json).collect();
    let metrics = fedsc_obs::export::metrics_json(&snap);
    let json = format!(
        "{{\"rows\": [\n{}\n], \"metrics\": {}}}\n",
        rows.join(",\n"),
        metrics
    );
    let file = if smoke {
        "BENCH_SMOKE.json"
    } else {
        "BENCH_PR10.json"
    };
    let path = workspace_root().join(file);
    std::fs::write(&path, &json).expect("write benchmark JSON");
    println!("wrote {}", path.display());

    if let Some(out) = trace_out {
        let events = fedsc_obs::trace::uninstall();
        let trace = fedsc_obs::export::chrome_trace_json(&events);
        std::fs::write(&out, &trace).expect("write chrome trace JSON");
        println!("wrote {out} ({} span events)", events.len());
    }
}
