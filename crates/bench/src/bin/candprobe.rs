//! Scratch probe for the candidate pipeline's work profile at bench sizes.
//! Not part of the perf contract; run ad hoc when tuning
//! `CandidateOptions` defaults.

use fedsc_linalg::Matrix;
use fedsc_obs::Stopwatch;
use fedsc_subspace::{CandidateOptions, Ssc, SubspaceClusterer};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n: usize = args.get(1).and_then(|v| v.parse().ok()).unwrap_or(4096);
    let k: usize = args.get(2).and_then(|v| v.parse().ok()).unwrap_or(64);
    let s: usize = args.get(3).and_then(|v| v.parse().ok()).unwrap_or(32);
    let cl: usize = args.get(4).and_then(|v| v.parse().ok()).unwrap_or(8);
    let csub: usize = args.get(5).and_then(|v| v.parse().ok()).unwrap_or(6);
    let noise: f64 = args.get(6).and_then(|v| v.parse().ok()).unwrap_or(0.01);
    let cd = 64usize;
    let mut rng = StdRng::seed_from_u64(23);
    let model = fedsc_subspace::SubspaceModel::random(&mut rng, cd, csub, cl);
    let ds = model.sample_dataset(&mut rng, &vec![n / cl; cl], noise);
    let ssc = Ssc {
        candidates: Some(CandidateOptions {
            k,
            sketch_dim: s,
            min_points: 2,
            verify: !std::env::args().any(|a| a == "--no-verify"),
            ..CandidateOptions::default()
        }),
        ..Ssc::default()
    };
    if std::env::args().any(|a| a == "--dense") {
        let dense = Ssc {
            candidates: None,
            ..Ssc::default()
        };
        let sw = Stopwatch::start();
        let _g = dense.affinity(&ds.data).expect("dense affinity");
        eprintln!("dense affinity total {:?}", sw.elapsed());
        return;
    }
    if std::env::args().any(|a| a == "--e2e-dense") {
        let dense = Ssc {
            candidates: None,
            ..Ssc::default()
        };
        let mut opts = fedsc_clustering::SpectralOptions::new(cl);
        if let Some(r) = std::env::var("PROBE_RESTARTS")
            .ok()
            .and_then(|v| v.parse().ok())
        {
            opts.kmeans.restarts = r;
        }
        let mut crng = StdRng::seed_from_u64(7);
        let sw = Stopwatch::start();
        let g = dense.affinity(&ds.data).expect("dense affinity");
        let t_aff = sw.elapsed();
        let a = fedsc_clustering::spectral_clustering(&g, &opts, &mut crng).expect("spectral");
        eprintln!(
            "e2e dense: affinity {t_aff:?}, total {:?}, acc {:.2}",
            sw.elapsed(),
            fedsc_clustering::clustering_accuracy(&ds.labels, &a)
        );
        return;
    }
    if std::env::args().any(|a| a == "--e2e-cand") {
        let mut opts = fedsc_clustering::SpectralOptions::new(cl);
        if let Some(r) = std::env::var("PROBE_RESTARTS")
            .ok()
            .and_then(|v| v.parse().ok())
        {
            opts.kmeans.restarts = r;
        }
        let mut crng = StdRng::seed_from_u64(7);
        let sw = Stopwatch::start();
        let w = ssc.sparse_affinity(&ds.data).expect("sparse affinity");
        let t_aff = sw.elapsed();
        let lap = fedsc_graph::sparse::sparse_normalized_laplacian(&w);
        let t_lap = sw.elapsed();
        let lopts = fedsc_linalg::thick_restart::ThickRestartOptions {
            max_basis: 2 * cl + 40,
            ..Default::default()
        };
        let _eig =
            fedsc_linalg::thick_restart::thick_restart_smallest(&lap, cl, &lopts).expect("lanczos");
        let t_lan = sw.elapsed();
        let a = fedsc_clustering::spectral_clustering_sparse(&w, &opts, &mut crng)
            .expect("sparse spectral");
        eprintln!(
            "e2e cand: affinity {t_aff:?}, +lap {t_lap:?}, +lanczos {t_lan:?}, total-with-repeat {:?}, acc {:.2}",
            sw.elapsed(),
            fedsc_clustering::clustering_accuracy(&ds.labels, &a)
        );
        return;
    }
    let sw = Stopwatch::start();
    let out = ssc.candidate_codes(&ds.data).expect("codes");
    let t_codes = sw.elapsed();
    let certified = out.certified.iter().filter(|&&c| c).count();
    eprintln!(
        "n={n} k={k} s={s}: codes {t_codes:?}, certified {certified}/{}, escalated {}",
        out.certified.len(),
        out.escalated_points
    );
    let sw = Stopwatch::start();
    let _w = ssc.sparse_affinity(&ds.data).expect("affinity");
    eprintln!("sparse_affinity total {:?}", sw.elapsed());
    if std::env::args().any(|a| a == "--dense-kkt") {
        dense_kkt_audit(&ds.data, n.min(1024));
    }
    let snap = fedsc_obs::metrics::snapshot();
    for key in [
        "sketch.calls",
        "sketch.columns",
        "lasso.candidates_per_point",
        "lasso.escalations",
        "lasso.sweeps",
        "lasso.homotopy_steps",
    ] {
        eprintln!("{key} = {}", snap.counters.get(key).copied().unwrap_or(0));
    }
    let _ = Matrix::zeros(1, 1);
}

/// How far the *dense* solver's accepted codes sit from exact KKT: for each
/// point, the max out-of-support |X^T rho| over the threshold 1/lambda.
fn dense_kkt_audit(data: &Matrix, n_audit: usize) {
    use fedsc_linalg::vector;
    use fedsc_sparse::lasso::{ssc_lambda, LassoOptions, LassoSolver, LassoWorkspace};
    let mut x = data.clone();
    x.normalize_columns(1e-12);
    let sw = Stopwatch::start();
    let gram = x.gram_threaded(1);
    let solver = LassoSolver::new(&gram, LassoOptions::default());
    let mut ws = LassoWorkspace::new();
    let mut worst = 0.0f64;
    let mut over_1e4 = 0usize;
    let mut over_1e2 = 0usize;
    let mut ratios: Vec<f64> = Vec::new();
    for i in 0..n_audit {
        let b = gram.col(i);
        let lambda = ssc_lambda(b, i, 50.0);
        let code = solver.solve_in(b, lambda, i, &mut ws).expect("lasso solve");
        let mut f = vec![0.0f64; x.rows()];
        for (j, v) in code.iter() {
            vector::axpy(v, x.col(j), &mut f);
        }
        let u: Vec<f64> = x.col(i).iter().zip(&f).map(|(&xv, &fv)| xv - fv).collect();
        let r = x.tr_matvec(&u).expect("residual correlations");
        let t = 1.0 / lambda;
        let supp: Vec<usize> = code.iter().map(|(j, _)| j).collect();
        let mut m = 0.0f64;
        for (j, &rj) in r.iter().enumerate() {
            if j != i && !supp.contains(&j) {
                m = m.max(rj.abs() / t);
            }
        }
        ratios.push(supp.len() as f64);
        worst = worst.max(m);
        if m > 1.0 + 1e-4 {
            over_1e4 += 1;
        }
        if m > 1.01 {
            over_1e2 += 1;
        }
    }
    ratios.sort_by(f64::total_cmp);
    eprintln!(
        "dense KKT over {} pts in {:?}: worst ratio {worst:.6}, median support {}, >1+1e-4: {over_1e4}, >1.01: {over_1e2}",
        n_audit,
        sw.elapsed(),
        ratios[ratios.len() / 2]
    );
}
