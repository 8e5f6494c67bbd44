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
//! - `pool_wake` — back-to-back `par_map` calls big enough to fan out;
//!   measures the fixed cost of one engaged call (spawning and joining its
//!   scoped helpers).
//! - `ssc_affinity_dense` / `ssc_affinity_cand` — the dense all-pairs
//!   sweep vs the screening sketched-candidate CSR pipeline on the same
//!   seeded noisy mixture (n = 4096 head-to-head; n = 8192 candidate-only
//!   at 1 thread, with a subquadratic-growth tripwire on the restricted
//!   solves over the doubling; n = 16384 candidate-only at the threaded
//!   grid point). Candidate rows carry their selection / solve split.
//! - `fedsc_e2e` — a full seeded Fed-SC run over a partitioned dataset.
//! - `fedsc_e2e_cand` — the same run with `candidate_threshold` dropped so
//!   every SSC (local and central) routes through the candidate pipeline.
//! - `eigh_dense` — the dense eigensolver at its call-site shapes: the
//!   `k` smallest eigenpairs of a seeded SSC affinity's normalized
//!   Laplacian at (n, k) = (50, 5), a device's local graph, and
//!   (160, 12), the `table3_emnist` server pool (single-threaded rows;
//!   the solver has no threaded path).
//! - `spectral_sparse` — the sparse spectral stage: kernel-seeded
//!   thick-restart block Lanczos on the CSR normalized Laplacian of the
//!   ideal `k`-block affinity, with the per-solve operator-apply count in
//!   the rows and an absolute tripwire of at most `2k` applies per solve
//!   (n = 600, k = 24 on the smoke grid; n = 4096 and n = 16384 at k = 64
//!   on the full one; single-threaded rows, the solver has no threaded
//!   path).
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
use fedsc_graph::sparse::sparse_normalized_laplacian;
use fedsc_linalg::eigh::eigh_partial;
use fedsc_linalg::par::default_threads;
use fedsc_linalg::thick_restart::{thick_restart_smallest, ThickRestartOptions};
use fedsc_linalg::Matrix;
use fedsc_obs::Stopwatch;
use fedsc_sparse::lasso::{ssc_lambda, LassoOptions, LassoSolver, LassoWorkspace};
use fedsc_sparse::restricted::solve_candidates;
use fedsc_subspace::algo::normalize_data;
use fedsc_subspace::candidates::select_candidates;
use fedsc_subspace::{ssc, CandidateOptions, Ssc, SubspaceClusterer};
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

/// The spectral tripwire: a kernel-seeded solve on the `k`-block affinity
/// uses at most `2k` operator applies.
fn assert_spectral_applies(applies: u64, n: usize, k: usize) {
    assert!(
        applies <= 2 * k as u64,
        "kernel-seeded thick restart used {applies} operator applies on n={n},k={k}; \
         the bound is 2k = {}",
        2 * k
    );
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
                let lambda = ssc_lambda(b, i, ssc::ALPHA);
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

    // Screened SSC on a seeded noisy subspace mixture: the dense
    // all-pairs sweep against the screening pipeline (sketch, top-k
    // selection, restricted solves, CSR assembly) on the same data.
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
    // The screening pipeline in two timed stages: normalization, sketch
    // and top-k selection, then the restricted solves and CSR assembly.
    let cand_affinity = |data: &Matrix, t: usize, k: usize, s: usize| {
        let opts = CandidateOptions {
            k,
            sketch_dim: s,
            min_points: 2,
            ..CandidateOptions::default()
        };
        let lasso = LassoOptions {
            threads: t,
            ..LassoOptions::default()
        };
        let sw = Stopwatch::start();
        let x = normalize_data(data);
        let cands = select_candidates(&x, &opts, t).expect("candidate selection");
        let select_ns = sw.elapsed().as_nanos();
        let codes = solve_candidates(&x, &cands, ssc::ALPHA, &lasso).expect("restricted solves");
        std::hint::black_box(fedsc_graph::SparseAffinity::from_codes(&codes));
        (select_ns, sw.elapsed().as_nanos() - select_ns)
    };
    // Screening rows run a leaner selection (k = 48, sketch dim 16) than
    // the `CandidateOptions` default (64/32). The config is part of the
    // row's `size` string so the trajectory stays comparable. The n = 8192
    // instance is drawn after the n = 16384 one, which keeps the latter's
    // data unchanged.
    let (sk, ss) = (48, 16);
    let cn8 = 2 * cn4;
    let c16 = cmodel.sample_dataset(&mut rng, &vec![cn16 / cl; cl], 0.01);
    let c8 = cmodel.sample_dataset(&mut rng, &vec![cn8 / cl; cl], 0.01);
    let median = |mut v: Vec<u128>| {
        v.sort_unstable();
        v[v.len() / 2]
    };
    let mut stages = Vec::new();
    for (data, n, t) in [(&c4, cn4, 1), (&c8, cn8, 1), (&c16, cn16, tmax)] {
        let size = format!("d={cd},n={n},k={sk},s={ss}");
        // Each stage's median over three runs.
        let runs: Vec<(u128, u128)> = (0..3)
            .map(|_| cand_affinity(&data.data, t, sk, ss))
            .collect();
        let select_ns = median(runs.iter().map(|r| r.0).collect());
        let solve_ns = median(runs.iter().map(|r| r.1).collect());
        let ns = select_ns + solve_ns;
        eprintln!(
            "{:>14} {size:>24}  {t}t {ns:>12} ns   select {select_ns} ns  solve {solve_ns} ns",
            "ssc_aff_cand"
        );
        entries.push(Entry {
            kernel: "ssc_affinity_cand",
            size,
            threads: t,
            median_ns: ns,
            speedup: 1.0,
            extra: format!(", \"select_ns\": {select_ns}, \"solve_ns\": {solve_ns}"),
        });
        stages.push((select_ns, solve_ns));
    }
    // Subquadratic-solve tripwire: each restricted solve costs O(k^2 d)
    // whatever n is, so doubling the point count must cost the
    // single-threaded solve stage less than 4x, the factor of quadratic
    // growth. Selection scores every pair in the sketch space, Theta(n^2 s),
    // so the whole route is not subquadratic and is only reported. Smoke
    // sizes are too small to amortize fixed costs, so only the full grid
    // asserts.
    if !smoke {
        let ((sel4, sol4), (sel8, sol8)) = (stages[0], stages[1]);
        eprintln!(
            "screening n={cn4} -> n={cn8}: route {:.2}x, selection {:.2}x, solves {:.2}x",
            (sel8 + sol8) as f64 / (sel4 + sol4) as f64,
            sel8 as f64 / sel4 as f64,
            sol8 as f64 / sol4 as f64
        );
        assert!(
            sol8 < sol4.saturating_mul(4),
            "restricted solves grew {:.2}x from n={cn4} to n={cn8}: {sol4} ns vs {sol8} ns",
            sol8 as f64 / sol4 as f64
        );
    }

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

    // Fan-out fixed cost: back-to-back fan-outs big enough to spawn helpers
    // (>= MIN_INLINE_ITEMS) over near-free items, so the multi-thread row
    // is almost all spawn-and-join.
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
        let w = Ssc::default().sparse_affinity(&pts.data).expect("affinity");
        let lap = sparse_normalized_laplacian(&w).to_dense();
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

    // Sparse spectral stage: thick-restart block Lanczos with kernel-aware
    // seeding on the CSR normalized Laplacian of the deterministic ideal
    // k-cluster affinity (see `block_affinity`) — the exact k-fold
    // degenerate zero a perfect self-expression run hands the spectral
    // stage, which the seeded solver captures by construction. The rows
    // carry the per-solve operator-apply count (`spectral.matvecs` delta)
    // so the algorithmic cost is tracked separately from wall-clock.
    let (spb, spp, spk) = if smoke { (24, 25, 24) } else { (64, 64, 64) };
    let spn = spb * spp;
    let w_sp = block_affinity(spb, spp);
    let lap_sp = sparse_normalized_laplacian(&w_sp);
    let mv0 = counter("spectral.matvecs");
    let sp_opts = ThickRestartOptions {
        seeds: kernel_seeds(&w_sp),
        ..ThickRestartOptions::default()
    };
    let t_sp = median_ns(reps, || {
        let _ = std::hint::black_box(
            thick_restart_smallest(&lap_sp, spk, &sp_opts).expect("thick restart"),
        );
    });
    // The solve is deterministic, so every rep costs the same applies.
    let mv_new = (counter("spectral.matvecs") - mv0) / reps as u64;
    eprintln!(
        "{:>14} {:>24}  1t {t_sp:>12} ns   matvecs {mv_new}",
        "spectral_sparse",
        format!("n={spn},k={spk}")
    );
    entries.push(Entry {
        kernel: "spectral_sparse",
        size: format!("n={spn},k={spk}"),
        threads: 1,
        median_ns: t_sp,
        speedup: 1.0,
        extra: format!(", \"matvecs\": {mv_new}"),
    });
    // Matvec tripwire (CI bench-smoke checks the smoke row too): the seeds
    // span the wanted k-dimensional kernel, so the solve needs one block of
    // k applies to form it and one to verify it — at most 2k. Wall-clock on
    // a shared runner is noise, operator applies are not.
    assert_spectral_applies(mv_new, spn, spk);
    if !smoke {
        // The federated-scale point: k = 64 clusters over 16k pooled
        // samples.
        let (bb, bp) = (64, 256);
        let bn = bb * bp;
        let w_big = block_affinity(bb, bp);
        let lap_big = sparse_normalized_laplacian(&w_big);
        let mv0_big = counter("spectral.matvecs");
        let t_big = median_ns(1, || {
            let opts = ThickRestartOptions {
                seeds: kernel_seeds(&w_big),
                ..ThickRestartOptions::default()
            };
            let _ = std::hint::black_box(
                thick_restart_smallest(&lap_big, spk, &opts).expect("thick restart 16k"),
            );
        });
        let mv_big = counter("spectral.matvecs") - mv0_big;
        assert_spectral_applies(mv_big, bn, spk);
        eprintln!(
            "{:>14} {:>24}  1t {t_big:>12} ns   matvecs {mv_big}",
            "spectral_sparse",
            format!("n={bn},k={spk}")
        );
        entries.push(Entry {
            kernel: "spectral_sparse",
            size: format!("n={bn},k={spk}"),
            threads: 1,
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
        // The flat round's one tier row is the server's accounting.
        let root = &out.tiers[0];
        eprintln!(
            "{kernel:>14} {:>24}  {wdev}dev {t:>12} ns   up {} B  down {} B",
            format!("Z={wdev},N={wire_points}"),
            root.uplink_bytes,
            root.downlink_bytes
        );
        entries.push(Entry {
            kernel,
            size: format!("Z={wdev},N={wire_points}"),
            // The round runs staged on the calling thread.
            threads: 1,
            median_ns: t,
            speedup: 1.0,
            extra: format!(
                ", \"uplink_bytes\": {}, \"downlink_bytes\": {}",
                root.uplink_bytes, root.downlink_bytes
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

    let snap = fedsc_obs::metrics::snapshot();
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

    // Fan-out cost tripwire: the fixed cost of one engaged call (spawning
    // and joining its helpers), `(wake_n - wake_1) / wake_calls`, must stay
    // within 1% of the single-thread `ssc_affinity` median, the smallest
    // unit of work the program fans out in parallel. Full grid only: the
    // smoke grid's `ssc_affinity` is too small to carry a 1% bound.
    if !smoke && default_threads() >= 2 {
        let median_of = |kernel: &str, multi: bool| {
            entries
                .iter()
                .find(|e| e.kernel == kernel && (e.threads > 1) == multi)
                .map(|e| e.median_ns)
                .expect("grid row present")
        };
        let (wake_1, wake_n) = (median_of("pool_wake", false), median_of("pool_wake", true));
        let per_call = wake_n.saturating_sub(wake_1) / wake_calls as u128;
        let unit = median_of("ssc_affinity", false);
        eprintln!("fan-out fixed cost {per_call} ns per call; ssc_affinity 1t {unit} ns");
        assert!(
            per_call * 100 <= unit,
            "one engaged fan-out costs {per_call} ns, above 1% of the \
             single-thread ssc_affinity median {unit} ns"
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
