//! Principal angles and the paper's subspace-affinity measure.
//!
//! Definition 5 of the paper:
//! `aff(S_k, S_l) = sqrt(cos^2 φ^(1) + ... + cos^2 φ^(d_k ∧ d_l))`
//! where `φ^(i)` are the canonical (principal) angles between the two
//! subspaces. With orthonormal bases `U_k`, `U_l`, the cosines of the
//! principal angles are the singular values of `U_k^T U_l`, so
//! `aff = ||U_k^T U_l||_F`.

use crate::error::Result;
use crate::matrix::Matrix;
use crate::svd::svd_gram;

/// Cosines of the principal angles between two subspaces given orthonormal
/// bases (descending order). Values are clamped into `[0, 1]`.
pub fn principal_angle_cosines(u_k: &Matrix, u_l: &Matrix) -> Result<Vec<f64>> {
    let m = u_k.tr_matmul(u_l)?;
    let svd = svd_gram(&m)?;
    Ok(svd.s.iter().map(|&s| s.clamp(0.0, 1.0)).collect())
}

/// The paper's affinity between subspaces (Definition 5):
/// `||U_k^T U_l||_F`, the root-sum-square of principal-angle cosines.
///
/// Ranges from `0` (orthogonal subspaces) to `sqrt(min(d_k, d_l))`
/// (one subspace contained in the other).
pub fn subspace_affinity(u_k: &Matrix, u_l: &Matrix) -> Result<f64> {
    let m = u_k.tr_matmul(u_l)?;
    Ok(m.fro_norm())
}

/// Normalized affinity `aff / sqrt(min(d_k, d_l))` in `[0, 1]` — the quantity
/// the paper's semi-random conditions bound (`aff / sqrt(d_k ∧ d_l)`).
pub fn normalized_affinity(u_k: &Matrix, u_l: &Matrix) -> Result<f64> {
    let d = u_k.cols().min(u_l.cols());
    if d == 0 {
        return Ok(0.0);
    }
    Ok(subspace_affinity(u_k, u_l)? / (d as f64).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::random_orthonormal_basis;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn axis_basis(n: usize, axes: &[usize]) -> Matrix {
        let mut m = Matrix::zeros(n, axes.len());
        for (j, &a) in axes.iter().enumerate() {
            m[(a, j)] = 1.0;
        }
        m
    }

    #[test]
    fn orthogonal_subspaces_have_zero_affinity() {
        let u1 = axis_basis(6, &[0, 1]);
        let u2 = axis_basis(6, &[2, 3]);
        assert!(subspace_affinity(&u1, &u2).unwrap() < 1e-12);
        let cos = principal_angle_cosines(&u1, &u2).unwrap();
        assert!(cos.iter().all(|c| c.abs() < 1e-12));
    }

    #[test]
    fn identical_subspaces_have_maximal_affinity() {
        let u = axis_basis(5, &[0, 1, 2]);
        let aff = subspace_affinity(&u, &u).unwrap();
        assert!((aff - 3.0f64.sqrt()).abs() < 1e-12);
        assert!((normalized_affinity(&u, &u).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shared_direction_counts_once() {
        // span{e0, e1} vs span{e1, e2}: one zero angle, one right angle.
        let u1 = axis_basis(4, &[0, 1]);
        let u2 = axis_basis(4, &[1, 2]);
        let cos = principal_angle_cosines(&u1, &u2).unwrap();
        assert!((cos[0] - 1.0).abs() < 1e-12);
        assert!(cos[1].abs() < 1e-12);
        assert!((subspace_affinity(&u1, &u2).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn forty_five_degree_planes() {
        // Line at 45 degrees to e0 inside the (e0, e1) plane.
        let u1 = axis_basis(3, &[0]);
        let s = std::f64::consts::FRAC_1_SQRT_2;
        let u2 = Matrix::from_columns(&[&[s, s, 0.0]]).unwrap();
        let cos = principal_angle_cosines(&u1, &u2).unwrap();
        assert!((cos[0] - s).abs() < 1e-12);
    }

    #[test]
    fn affinity_is_symmetric_and_bounded() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10 {
            let u1 = random_orthonormal_basis(&mut rng, 12, 3);
            let u2 = random_orthonormal_basis(&mut rng, 12, 5);
            let a12 = subspace_affinity(&u1, &u2).unwrap();
            let a21 = subspace_affinity(&u2, &u1).unwrap();
            assert!((a12 - a21).abs() < 1e-10);
            assert!(a12 >= 0.0 && a12 <= 3.0f64.sqrt() + 1e-10);
            let na = normalized_affinity(&u1, &u2).unwrap();
            assert!((0.0..=1.0 + 1e-12).contains(&na));
        }
    }
}
