//! Spectral cutover measurement: where does the seeded thick-restart block
//! Lanczos solver on the CSR normalized Laplacian start beating the dense
//! arm of `k_smallest` — `eigh_partial` forming only the `k` wanted
//! eigenvectors — on the same Laplacian?
//!
//! This is the measurement behind `fedsc_linalg::eigh::lanczos_beats_dense`
//! (methodology in DESIGN.md §13). For each grid point `(n, k)` it builds
//! the deterministic ring-of-blocks instance with `k` blocks of `n / k`
//! nodes, times both backends single-threaded (median of 3), and prints the
//! ratio together with what the shipped predicate decides — so a retune is
//! a rerun plus a constant edit, not an archaeology dig.
//!
//! Run: `cargo run --release -p fedsc-bench --bin cutover`

use fedsc_bench::harness::print_header;
use fedsc_bench::instances::ring_block_affinity;
use fedsc_clustering::spectral::kernel_seeds;
use fedsc_graph::laplacian::normalized_laplacian;
use fedsc_graph::sparse::sparse_normalized_laplacian;
use fedsc_linalg::eigh::{eigh_partial, lanczos_beats_dense};
use fedsc_linalg::thick_restart::{thick_restart_smallest, ThickRestartOptions};
use fedsc_obs::Stopwatch;

/// Median wall time of 3 runs, in nanoseconds.
fn median3(mut f: impl FnMut()) -> u128 {
    let mut times: Vec<u128> = (0..3)
        .map(|_| {
            let sw = Stopwatch::start();
            f();
            sw.elapsed().as_nanos()
        })
        .collect();
    times.sort_unstable();
    times[1]
}

fn main() {
    print_header(&[
        ("n", 6),
        ("k", 4),
        ("dense_ns", 12),
        ("lanczos_ns", 12),
        ("dense/lanczos", 14),
        ("predicate", 10),
    ]);
    for &n in &[256usize, 384, 512, 768, 1024, 1536] {
        for &k in &[8usize, 16, 32, 64, 96] {
            let per = n / k;
            if per < 4 {
                continue;
            }
            let w = ring_block_affinity(k, per);
            let nn = k * per;
            let dense_lap = normalized_laplacian(&w.to_graph());
            let csr_lap = sparse_normalized_laplacian(&w);
            let t_dense = median3(|| {
                let _ = std::hint::black_box(eigh_partial(&dense_lap, k).expect("dense eigh"));
            });
            let t_iter = median3(|| {
                let opts = ThickRestartOptions {
                    seeds: kernel_seeds(&w),
                    ..ThickRestartOptions::default()
                };
                let _ = std::hint::black_box(
                    thick_restart_smallest(&csr_lap, k, &opts).expect("thick restart"),
                );
            });
            let ratio = t_dense as f64 / t_iter.max(1) as f64;
            println!(
                "{nn:>6}  {k:>4}  {t_dense:>12}  {t_iter:>12}  {ratio:>14.2}  {:>10}",
                if lanczos_beats_dense(nn, k) {
                    "lanczos"
                } else {
                    "dense"
                }
            );
        }
    }
}
