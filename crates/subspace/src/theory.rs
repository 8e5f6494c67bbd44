//! Section V of the paper: the quantities behind Theorems 1–2 and
//! Corollaries 1–2, plus checkers for the SEP / exact-clustering criteria.
//!
//! Two of the paper's quantities are defined through optimization problems
//! that are expensive (or NP-hard) to evaluate exactly; we provide the
//! standard estimators and document the direction of the approximation:
//!
//! * **Subspace incoherence** (Definition 1) needs the dual direction
//!   `nu(x, X_{-i}) = argmax <x, nu> s.t. ||X^T nu||_inf <= 1`. We use the
//!   Lasso dual certificate `nu = lambda (x - X c*)` with large `lambda`,
//!   which converges to an optimal dual point as `lambda -> inf`.
//! * **Inradius** (Definition 4) of the symmetrized convex hull
//!   `P(X) = conv(+-x_1, ..., +-x_N)` restricted to its span equals
//!   `min_{w in span, ||w|| = 1} max_j |<x_j, w>|`. Exact evaluation is
//!   NP-hard in general; we run projected subgradient descent from many
//!   random restarts, which yields an **upper bound** that is tight in
//!   practice for the small instances the checkers run on.

use crate::model::SubspaceModel;
use fedsc_graph::SparseAffinity;
use fedsc_linalg::qr::orthonormal_basis;
use fedsc_linalg::{angles, vector, Matrix, Result};
use fedsc_sparse::lasso::{LassoOptions, LassoSolver};
use rand::Rng;

/// Largest affinity-graph weight between points of different ground-truth
/// clusters — `0` exactly when the self-expressiveness property holds.
/// One pass over the stored CSR entries.
pub fn sep_violation(graph: &SparseAffinity, truth: &[usize]) -> f64 {
    assert_eq!(graph.len(), truth.len(), "labeling must cover every node");
    let mut worst = 0.0f64;
    for i in 0..graph.len() {
        for (j, w) in graph.matrix().row(i) {
            if truth[i] != truth[j] {
                worst = worst.max(w);
            }
        }
    }
    worst
}

/// Whether SEP holds up to a weight tolerance.
pub fn holds_sep(graph: &SparseAffinity, truth: &[usize], eps: f64) -> bool {
    sep_violation(graph, truth) <= eps
}

/// The paper's *exact clustering* criterion: SEP **and** every ground-truth
/// cluster forms a single connected component of the affinity graph.
pub fn holds_exact_clustering(graph: &SparseAffinity, truth: &[usize], eps: f64) -> bool {
    if !holds_sep(graph, truth, eps) {
        return false;
    }
    let max_label = truth.iter().copied().max().map_or(0, |m| m + 1);
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); max_label];
    for (i, &l) in truth.iter().enumerate() {
        members[l].push(i);
    }
    members
        .into_iter()
        .filter(|m| !m.is_empty())
        .all(|nodes| graph.subgraph(&nodes).connected_components(eps) == 1)
}

/// Definition 2: the active set `alpha(l)` of each subspace, from per-device
/// ground-truth labels. `device_labels[z]` holds the subspace index of each
/// point on device `z`. Returns `active[l] = sorted set of k != l` that
/// co-occur with `l` on at least one device.
pub fn active_sets(device_labels: &[Vec<usize>], num_subspaces: usize) -> Vec<Vec<usize>> {
    let mut active = vec![std::collections::BTreeSet::new(); num_subspaces];
    for labels in device_labels {
        let mut present = std::collections::BTreeSet::new();
        for &l in labels {
            assert!(l < num_subspaces, "label {l} out of range");
            present.insert(l);
        }
        for &a in &present {
            for &b in &present {
                if a != b {
                    active[a].insert(b);
                }
            }
        }
    }
    active
        .into_iter()
        .map(|s| s.into_iter().collect())
        .collect()
}

/// Statistical-heterogeneity summary of a device partition: per-subspace
/// device counts `Z_l` and per-device cluster counts `L^(z)`; the paper's
/// footnote identity `sum_z L^(z) = sum_l Z_l` holds by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Heterogeneity {
    /// `Z_l`: number of devices holding data from subspace `l`.
    pub devices_per_subspace: Vec<usize>,
    /// `L^(z)`: number of distinct subspaces present on device `z`.
    pub subspaces_per_device: Vec<usize>,
}

impl Heterogeneity {
    /// Computes the summary from per-device labels.
    pub fn from_device_labels(device_labels: &[Vec<usize>], num_subspaces: usize) -> Self {
        let mut z_l = vec![0usize; num_subspaces];
        let mut l_z = Vec::with_capacity(device_labels.len());
        for labels in device_labels {
            let mut present = vec![false; num_subspaces];
            for &l in labels {
                present[l] = true;
            }
            let count = present.iter().filter(|&&p| p).count();
            l_z.push(count);
            for (l, &p) in present.iter().enumerate() {
                if p {
                    z_l[l] += 1;
                }
            }
        }
        Self {
            devices_per_subspace: z_l,
            subspaces_per_device: l_z,
        }
    }

    /// The paper's heterogeneity notion: some device sees fewer than all
    /// subspaces.
    pub fn is_heterogeneous(&self, num_subspaces: usize) -> bool {
        self.subspaces_per_device.iter().any(|&l| l < num_subspaces)
    }
}

/// Estimates the inradius of `P(X_{-i})` within `span(X_{-i})` via projected
/// subgradient descent with random restarts (an upper bound on the true
/// inradius; see module docs).
pub fn inradius_estimate<R: Rng + ?Sized>(
    x: &Matrix,
    exclude: Option<usize>,
    restarts: usize,
    rng: &mut R,
) -> Result<f64> {
    let cols: Vec<usize> = (0..x.cols()).filter(|&j| Some(j) != exclude).collect();
    if cols.is_empty() {
        return Ok(0.0);
    }
    let sub = x.select_columns(&cols);
    // Work in span coordinates: y_j = U^T x_j.
    let u = orthonormal_basis(&sub, 1e-10)?;
    let d = u.cols();
    if d == 0 {
        return Ok(0.0);
    }
    let y = u.tr_matmul(&sub)?;
    let m = y.cols();
    let h = |v: &[f64]| -> (f64, usize, f64) {
        let mut best = 0.0f64;
        let mut arg = 0usize;
        let mut sgn = 1.0f64;
        for j in 0..m {
            let c = vector::dot(y.col(j), v);
            if c.abs() > best {
                best = c.abs();
                arg = j;
                sgn = c.signum();
            }
        }
        (best, arg, sgn)
    };
    let mut best_val = f64::INFINITY;
    for _ in 0..restarts.max(1) {
        let mut v = fedsc_linalg::random::unit_sphere(rng, d);
        let mut step = 0.1;
        for _ in 0..200 {
            let (val, arg, sgn) = h(&v);
            best_val = best_val.min(val);
            // Subgradient of max_j |<y_j, v>| is sgn * y_arg; descend and
            // re-project to the unit sphere.
            let g = y.col(arg);
            for (vi, &gi) in v.iter_mut().zip(g) {
                *vi -= step * sgn * gi;
            }
            if vector::normalize(&mut v, 1e-12) <= 1e-12 {
                break;
            }
            step *= 0.98;
        }
        best_val = best_val.min(h(&v).0);
    }
    Ok(best_val)
}

/// Estimates the subspace incoherence `mu(X_l)` (Definition 1) for points
/// `x_l` lying on a subspace with orthonormal basis `basis_l`, against the
/// competitor points `others` (Definition 3 uses only the active set's
/// points; pass those for the *active* incoherence `mu~`).
///
/// The dual direction of each point is approximated by the Lasso dual
/// certificate at `lambda = dual_lambda` (larger is tighter).
pub fn incoherence_estimate(
    x_l: &Matrix,
    basis_l: &Matrix,
    others: &Matrix,
    dual_lambda: f64,
) -> Result<f64> {
    let n_l = x_l.cols();
    if n_l < 2 || others.cols() == 0 {
        return Ok(0.0);
    }
    let gram = x_l.gram();
    let solver = LassoSolver::new(&gram, LassoOptions::default());
    // V_l columns: projected, normalized dual directions.
    let mut v_cols: Vec<Vec<f64>> = Vec::with_capacity(n_l);
    for i in 0..n_l {
        let b = gram.col(i);
        let code = solver.solve(b, dual_lambda, i)?.to_dense();
        // nu = lambda (x_i - X c); project onto span(basis_l), normalize.
        let fit = x_l.matvec(&code)?;
        let mut nu: Vec<f64> = x_l
            .col(i)
            .iter()
            .zip(&fit)
            .map(|(&xi, &fi)| dual_lambda * (xi - fi))
            .collect();
        let coeffs = basis_l.tr_matvec(&nu)?;
        nu = basis_l.matvec(&coeffs)?;
        if vector::normalize(&mut nu, 1e-12) > 1e-12 {
            v_cols.push(nu);
        }
    }
    // mu = max over external points of ||V_l^T x||_inf.
    let mut mu = 0.0f64;
    for j in 0..others.cols() {
        let x = others.col(j);
        for v in &v_cols {
            mu = mu.max(vector::dot(v, x).abs());
        }
    }
    Ok(mu.min(1.0))
}

/// Corollary 1's sufficient bound on the maximum pairwise affinity for
/// Fed-SC (SSC), with explicit constants `c` and `t`:
/// `max aff < c sqrt(d log((Z' - 1) / d)) / (t log[L r' Z' (r' Z' + 1)])`.
/// Returns 0 when the logarithms are out of domain (too few devices).
pub fn ssc_affinity_bound(d: usize, l: usize, r_max: usize, z_prime: usize, c: f64, t: f64) -> f64 {
    if z_prime < 2 || d == 0 {
        return 0.0;
    }
    let ratio = (z_prime as f64 - 1.0) / d as f64;
    if ratio <= 1.0 {
        return 0.0;
    }
    let num = c * (d as f64 * ratio.ln()).sqrt();
    let rz = r_max as f64 * z_prime as f64;
    let den = t * (l as f64 * rz * (rz + 1.0)).ln();
    if den <= 0.0 {
        return 0.0;
    }
    num / den
}

/// Corollary 2's sufficient bound for Fed-SC (TSC):
/// `max aff <= sqrt(d) / (15 log(L r' Z'))`.
pub fn tsc_affinity_bound(d: usize, l: usize, r_max: usize, z_prime: usize) -> f64 {
    let arg = l as f64 * r_max as f64 * z_prime as f64;
    if arg <= 1.0 {
        return 0.0;
    }
    (d as f64).sqrt() / (15.0 * arg.ln())
}

/// Theorem 2's admissible TSC parameter range
/// `q in [c1 log(r' max_l Z_l), min_l Z_l / 6]` with
/// `c1 = 18 (12 pi)^(max_l d_l - 1)`; `None` when the interval is empty
/// (the paper's point: `Z_l` must be exponential in `d_l`).
pub fn tsc_q_range(d_max: usize, r_max: usize, z_max: usize, z_min: usize) -> Option<(f64, f64)> {
    let c1 = 18.0 * (12.0 * std::f64::consts::PI).powi(d_max.saturating_sub(1) as i32);
    let lo = c1 * ((r_max as f64 * z_max as f64).max(1.0)).ln();
    let hi = z_min as f64 / 6.0;
    (lo <= hi).then_some((lo, hi))
}

/// Checks the *global semi-random condition* of Corollary 1/2 for a concrete
/// subspace model: compares every pairwise affinity against the closed-form
/// bound. Returns the worst margin `bound - aff` (positive = satisfied).
pub fn semi_random_margin(model: &SubspaceModel, bound: f64) -> Result<f64> {
    let l = model.num_subspaces();
    let mut worst = f64::INFINITY;
    for a in 0..l {
        for b in a + 1..l {
            let aff = angles::subspace_affinity(&model.bases[a], &model.bases[b])?;
            worst = worst.min(bound - aff);
        }
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn graph_from_edges(n: usize, edges: &[(usize, usize)]) -> SparseAffinity {
        let mut m = Matrix::zeros(n, n);
        for &(i, j) in edges {
            m[(i, j)] = 1.0;
            m[(j, i)] = 1.0;
        }
        SparseAffinity::from_graph(&fedsc_graph::AffinityGraph::from_symmetric(&m))
    }

    #[test]
    fn sep_detects_cross_edges() {
        let g = graph_from_edges(4, &[(0, 1), (2, 3)]);
        assert!(holds_sep(&g, &[0, 0, 1, 1], 0.0));
        let bad = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert!(!holds_sep(&bad, &[0, 0, 1, 1], 0.0));
        assert_eq!(sep_violation(&bad, &[0, 0, 1, 1]), 1.0);
    }

    #[test]
    fn exact_clustering_requires_connectivity() {
        // SEP holds but cluster 0 splits into two components.
        let g = graph_from_edges(5, &[(0, 1), (3, 4)]);
        let truth = [0, 0, 0, 1, 1];
        assert!(holds_sep(&g, &truth, 0.0));
        assert!(!holds_exact_clustering(&g, &truth, 0.0));
        // Connecting node 2 restores exact clustering.
        let g2 = graph_from_edges(5, &[(0, 1), (1, 2), (3, 4)]);
        assert!(holds_exact_clustering(&g2, &truth, 0.0));
    }

    #[test]
    fn active_sets_from_figure_one() {
        // Fig. 1's setting: 4 subspaces, 4 devices, each device holds two
        // consecutive subspaces.
        let device_labels = vec![
            vec![0, 0, 1, 1],
            vec![1, 1, 2, 2],
            vec![2, 2, 3, 3],
            vec![3, 3, 0, 0],
        ];
        let active = active_sets(&device_labels, 4);
        assert_eq!(active[0], vec![1, 3]);
        assert_eq!(active[1], vec![0, 2]);
        assert_eq!(active[2], vec![1, 3]);
        assert_eq!(active[3], vec![0, 2]);
        let het = Heterogeneity::from_device_labels(&device_labels, 4);
        assert_eq!(het.devices_per_subspace, vec![2, 2, 2, 2]);
        assert_eq!(het.subspaces_per_device, vec![2, 2, 2, 2]);
        assert!(het.is_heterogeneous(4));
        // Footnote identity: sum L^(z) = sum Z_l.
        let s1: usize = het.subspaces_per_device.iter().sum();
        let s2: usize = het.devices_per_subspace.iter().sum();
        assert_eq!(s1, s2);
    }

    #[test]
    fn homogeneous_partition_is_not_heterogeneous() {
        let device_labels = vec![vec![0, 1], vec![0, 1]];
        let het = Heterogeneity::from_device_labels(&device_labels, 2);
        assert!(!het.is_heterogeneous(2));
    }

    #[test]
    fn inradius_of_orthonormal_cross_polytope() {
        // P(I_2) = conv(+-e1, +-e2): inradius 1/sqrt(2).
        let x = Matrix::identity(2);
        let mut rng = StdRng::seed_from_u64(1);
        let r = inradius_estimate(&x, None, 20, &mut rng).unwrap();
        assert!(
            (r - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-3,
            "r = {r}"
        );
    }

    #[test]
    fn inradius_shrinks_for_skewed_data() {
        // Fig. 3's message: well-dispersed data has larger inradius than
        // skewed data. Compare a 4-direction spread against two nearly
        // collinear directions in the plane.
        let spread = Matrix::from_columns(&[
            &[1.0, 0.0],
            &[0.0, 1.0],
            &[
                std::f64::consts::FRAC_1_SQRT_2,
                std::f64::consts::FRAC_1_SQRT_2,
            ],
            &[
                std::f64::consts::FRAC_1_SQRT_2,
                -std::f64::consts::FRAC_1_SQRT_2,
            ],
        ])
        .unwrap();
        let skewed = Matrix::from_columns(&[&[1.0, 0.0], &[0.999, 0.045]]).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let r_spread = inradius_estimate(&spread, None, 20, &mut rng).unwrap();
        let r_skewed = inradius_estimate(&skewed, None, 20, &mut rng).unwrap();
        assert!(r_spread > 2.0 * r_skewed, "{r_spread} vs {r_skewed}");
    }

    #[test]
    fn incoherence_zero_for_orthogonal_subspaces() {
        // Example 1 of the paper.
        let mut x_l = Matrix::zeros(4, 3);
        x_l[(0, 0)] = 1.0;
        x_l[(1, 1)] = 1.0;
        let s = std::f64::consts::FRAC_1_SQRT_2;
        x_l[(0, 2)] = s;
        x_l[(1, 2)] = s;
        let mut basis = Matrix::zeros(4, 2);
        basis[(0, 0)] = 1.0;
        basis[(1, 1)] = 1.0;
        // Others live in span{e2, e3}.
        let mut others = Matrix::zeros(4, 2);
        others[(2, 0)] = 1.0;
        others[(3, 1)] = 1.0;
        let mu = incoherence_estimate(&x_l, &basis, &others, 1e4).unwrap();
        assert!(mu < 1e-8, "mu = {mu}");
    }

    #[test]
    fn incoherence_positive_for_overlapping_subspaces() {
        let mut x_l = Matrix::zeros(3, 3);
        x_l[(0, 0)] = 1.0;
        x_l[(1, 1)] = 1.0;
        let s = std::f64::consts::FRAC_1_SQRT_2;
        x_l[(0, 2)] = s;
        x_l[(1, 2)] = s;
        let mut basis = Matrix::zeros(3, 2);
        basis[(0, 0)] = 1.0;
        basis[(1, 1)] = 1.0;
        // A competitor point sharing direction e0.
        let others = Matrix::from_columns(&[&[s, 0.0, s]]).unwrap();
        let mu = incoherence_estimate(&x_l, &basis, &others, 1e4).unwrap();
        assert!(mu > 0.3, "mu = {mu}");
    }

    #[test]
    fn affinity_bounds_shrink_with_more_devices() {
        // Corollary 1/2 discussion: the admissible affinity decreases as Z'
        // grows (log in the denominator dominates).
        let b1 = ssc_affinity_bound(5, 20, 3, 50, 1.0, 1.0);
        let b2 = ssc_affinity_bound(5, 20, 3, 5000, 1.0, 1.0);
        assert!(b1 > 0.0 && b2 > 0.0);
        let t1 = tsc_affinity_bound(5, 20, 3, 50);
        let t2 = tsc_affinity_bound(5, 20, 3, 5000);
        assert!(t1 > t2, "{t1} vs {t2}");
        assert_eq!(ssc_affinity_bound(5, 20, 3, 1, 1.0, 1.0), 0.0);
    }

    #[test]
    fn tsc_q_range_needs_exponentially_many_devices() {
        // d = 1: modest requirement; range exists for moderate Z.
        assert!(tsc_q_range(1, 3, 1000, 1000).is_some());
        // d = 5: c1 = 18 (12 pi)^4 ~ 3.6e7 — the range is empty for any
        // realistic device count (the paper's Theorem 2 caveat).
        assert!(tsc_q_range(5, 3, 1000, 1000).is_none());
    }

    #[test]
    fn semi_random_margin_sign() {
        let mut rng = StdRng::seed_from_u64(9);
        let model = SubspaceModel::random(&mut rng, 100, 2, 3);
        // Random planes in R^100 have tiny affinity: a bound of 0.5 is met.
        assert!(semi_random_margin(&model, 0.5).unwrap() > 0.0);
        // An impossible bound of 0 fails (affinity is non-negative and
        // almost surely positive).
        assert!(semi_random_margin(&model, 0.0).unwrap() <= 0.0);
    }
}
