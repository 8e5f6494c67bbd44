//! Figure 6: Fed-SC (SSC) and Fed-SC (TSC) against the five centralized SC
//! baselines (SSC, TSC, SSC-OMP, EnSC, NSN) on synthetic data with strong
//! heterogeneity (L = 50, L' = 3), as a function of Z. Reports ACC, NMI,
//! CONN (min and mean), and running time.
//!
//! Expected shape (paper): Fed-SC (SSC) leads in accuracy; Fed-SC (TSC)
//! climbs with Z; Fed-SC improves CONN over centralized SSC/TSC; Fed-SC
//! time is far below the centralized methods and the gap widens with Z.

use crate::harness::{cell, pick, print_header, scale};
use crate::methods::{run_centralized, run_fed_sc_fixed, MethodResult};
use fedsc::CentralBackend;
use fedsc_data::synthetic::{generate, SyntheticConfig};
use fedsc_federated::partition::{partition_dataset, Partition};
use fedsc_subspace::{Ensc, Nsn, Ssc, SscOmp, Tsc};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Regenerates Figure 6: Fed-SC vs the centralized SC baselines (ACC/NMI/CONN/time) as a function of Z.
pub fn run() {
    let s = scale();
    // Quick mode halves the paper's L = 50 so the Z range where the server
    // has enough samples per subspace (Z_l >= d + 1) stays laptop-sized;
    // full mode uses the paper's setting.
    let l = match s {
        crate::harness::Scale::Quick => 25usize,
        crate::harness::Scale::Full => 50usize,
    };
    let l_prime = 3usize;
    let m = 10usize;
    let z_grid = pick(s, &[60, 100, 160], &[200, 400, 800, 1600]);

    println!("# Figure 6: Fed-SC vs centralized SC (L = {l}, L' = {l_prime})");
    print_header(&[
        ("Z", 6),
        ("method", 14),
        ("ACC%", 8),
        ("NMI%", 8),
        ("CONN(c)", 9),
        ("CONN(cbar)", 11),
        ("T(s)", 9),
    ]);

    for &z in &z_grid {
        let mut rng = StdRng::seed_from_u64(0xf16 + z as u64);
        let owners = (z * l_prime).div_ceil(l).max(1);
        let ds = generate(&SyntheticConfig::paper(l, m * owners), &mut rng);
        let fed = partition_dataset(&ds.data, z, Partition::NonIid { l_prime }, &mut rng);
        let pooled = fed.pooled();
        let n_total = pooled.labels.len();

        let mut results: Vec<MethodResult> = vec![
            run_fed_sc_fixed(&fed, l, l_prime, CentralBackend::Ssc, 0xf16, true),
            run_fed_sc_fixed(
                &fed,
                l,
                l_prime,
                CentralBackend::Tsc { q: None },
                0xf16,
                true,
            ),
            run_centralized(&Ssc::default(), &pooled, l, 0xf16, true),
            run_centralized(
                &Tsc::new(Tsc::centralized_q(n_total, l)),
                &pooled,
                l,
                0xf16,
                true,
            ),
            run_centralized(&SscOmp { k_max: 8 }, &pooled, l, 0xf16, true),
            run_centralized(&Ensc::default(), &pooled, l, 0xf16, true),
            run_centralized(&Nsn::new(8, 5), &pooled, l, 0xf16, true),
        ];
        for r in results.drain(..) {
            println!(
                "{z:>6}  {:>14}  {:>8}  {:>8}  {:>9}  {:>11}  {:>9}",
                r.name,
                cell(r.acc, 2),
                cell(r.nmi, 2),
                cell(r.conn_min, 4),
                cell(r.conn_mean, 4),
                cell(r.secs(), 3),
            );
        }
        println!();
    }
}
