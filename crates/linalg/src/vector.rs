//! Free functions on `&[f64]` vectors.
//!
//! Slices rather than a wrapper type keep these kernels usable on matrix
//! columns (which borrow as `&[f64]`) without copies.

/// Debug-build check that every entry is finite — catches NaN/inf escaping
/// a numerical kernel at the boundary where it is still attributable.
/// Compiles to nothing in release builds.
#[inline]
pub fn debug_assert_finite(x: &[f64], context: &str) {
    debug_assert!(
        x.iter().all(|v| v.is_finite()),
        "{context}: non-finite value in slice of length {}",
        x.len()
    );
}

/// Dot product. Panics in debug builds when lengths differ.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    // Eight-lane unrolled accumulation: one full cache line of each operand
    // per iteration, no loop-carried dependence between lanes, so the
    // autovectorizer can keep two 4-wide (or four 2-wide) FMA chains in
    // flight. Also more numerically stable than a single running sum.
    let mut acc = [0.0f64; 8];
    let chunks = a.len() / 8;
    for k in 0..chunks {
        let i = k * 8;
        acc[0] += a[i] * b[i];
        acc[1] += a[i + 1] * b[i + 1];
        acc[2] += a[i + 2] * b[i + 2];
        acc[3] += a[i + 3] * b[i + 3];
        acc[4] += a[i + 4] * b[i + 4];
        acc[5] += a[i + 5] * b[i + 5];
        acc[6] += a[i + 6] * b[i + 6];
        acc[7] += a[i + 7] * b[i + 7];
    }
    let mut tail = 0.0;
    for i in chunks * 8..a.len() {
        tail += a[i] * b[i];
    }
    (acc[0] + acc[4]) + (acc[1] + acc[5]) + ((acc[2] + acc[6]) + (acc[3] + acc[7])) + tail
}

/// Four simultaneous dot products against one shared right-hand side:
/// `[<a0, b>, <a1, b>, <a2, b>, <a3, b>]`.
///
/// The pairwise-dot matrix kernels (`gram`, `tr_matmul`) call this on four
/// consecutive output rows so every load of `b` is reused four times —
/// the classic register-blocking trick, worth ~2x on Gram products where
/// the panel of `b` is the bandwidth bottleneck. Each stream accumulates
/// in two independent lanes; results depend only on the operands, never on
/// blocking or thread count.
#[inline]
pub fn dot4(a0: &[f64], a1: &[f64], a2: &[f64], a3: &[f64], b: &[f64]) -> [f64; 4] {
    debug_assert!(
        a0.len() == b.len() && a1.len() == b.len() && a2.len() == b.len() && a3.len() == b.len()
    );
    let mut acc = [0.0f64; 8];
    let chunks = b.len() / 2;
    for k in 0..chunks {
        let i = k * 2;
        let (b0, b1) = (b[i], b[i + 1]);
        acc[0] += a0[i] * b0;
        acc[1] += a0[i + 1] * b1;
        acc[2] += a1[i] * b0;
        acc[3] += a1[i + 1] * b1;
        acc[4] += a2[i] * b0;
        acc[5] += a2[i + 1] * b1;
        acc[6] += a3[i] * b0;
        acc[7] += a3[i + 1] * b1;
    }
    if b.len() % 2 == 1 {
        let i = b.len() - 1;
        let bv = b[i];
        acc[0] += a0[i] * bv;
        acc[2] += a1[i] * bv;
        acc[4] += a2[i] * bv;
        acc[6] += a3[i] * bv;
    }
    [
        acc[0] + acc[1],
        acc[2] + acc[3],
        acc[4] + acc[5],
        acc[6] + acc[7],
    ]
}

/// Euclidean norm with overflow-safe scaling for large entries.
#[inline]
pub fn norm2(a: &[f64]) -> f64 {
    let max = a.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    if max == 0.0 || !max.is_finite() {
        return max;
    }
    let mut s = 0.0;
    for &v in a {
        let t = v / max;
        s += t * t;
    }
    max * s.sqrt()
}

/// `l1` norm.
#[inline]
pub fn norm1(a: &[f64]) -> f64 {
    a.iter().map(|v| v.abs()).sum()
}

/// `y += alpha * x`.
///
/// 4-wide unrolled: each lane updates independent elements, so the unroll
/// changes no result, and the missing loop-carried dependence lets the
/// autovectorizer emit SIMD fused multiply-adds for the blocked matrix
/// kernels and the Lasso panel sweeps whose inner loop this is. Measured
/// against an 8-wide variant on the `lasso_batch` scenario the narrower
/// unroll wins (~20%): panel updates are mostly 50-300 elements, where the
/// longer scalar tail and register pressure of 8 lanes cost more than the
/// extra in-flight FMAs buy. [`dot`] keeps the 8-wide form — reductions
/// hide the tail in independent accumulators.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    if alpha == 0.0 {
        return;
    }
    let chunks = x.len() / 4;
    for k in 0..chunks {
        let i = k * 4;
        y[i] += alpha * x[i];
        y[i + 1] += alpha * x[i + 1];
        y[i + 2] += alpha * x[i + 2];
        y[i + 3] += alpha * x[i + 3];
    }
    for i in chunks * 4..x.len() {
        y[i] += alpha * x[i];
    }
}

/// Scales `x` in place.
#[inline]
pub fn scale(x: &mut [f64], s: f64) {
    for v in x {
        *v *= s;
    }
}

/// Normalizes `x` to unit Euclidean norm in place and returns the original
/// norm. Leaves `x` untouched (and returns the norm) when it is below `eps`.
pub fn normalize(x: &mut [f64], eps: f64) -> f64 {
    let n = norm2(x);
    if n > eps {
        scale(x, 1.0 / n);
    }
    n
}

/// Squared Euclidean distance between two vectors.
#[inline]
pub fn dist2_sq(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut s = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        let d = x - y;
        s += d * d;
    }
    s
}

/// Soft-threshold operator `sign(v) * max(|v| - t, 0)` — the proximal map of
/// the `l1` norm, used by every Lasso-style solver in the workspace.
#[inline]
pub fn soft_threshold(v: f64, t: f64) -> f64 {
    if v > t {
        v - t
    } else if v < -t {
        v + t
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_naive() {
        let a: Vec<f64> = (0..13).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..13).map(|i| (i as f64) * 0.5 - 3.0).collect();
        let naive: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot(&a, &b) - naive).abs() < 1e-12);
    }

    #[test]
    fn dot4_matches_four_dots() {
        for len in [0usize, 1, 2, 7, 8, 13] {
            let mk = |s: usize| -> Vec<f64> {
                (0..len)
                    .map(|i| ((i * 13 + s * 5 + 1) % 9) as f64 - 4.0)
                    .collect()
            };
            let (a0, a1, a2, a3, b) = (mk(0), mk(1), mk(2), mk(3), mk(4));
            let got = dot4(&a0, &a1, &a2, &a3, &b);
            for (s, a) in [&a0, &a1, &a2, &a3].into_iter().enumerate() {
                let naive: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
                assert!((got[s] - naive).abs() < 1e-12, "len {len} stream {s}");
            }
        }
    }

    #[test]
    fn norm2_is_scale_safe() {
        let a = [3e200, 4e200];
        assert!((norm2(&a) - 5e200).abs() / 5e200 < 1e-12);
        assert_eq!(norm2(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn norms_hand_checked() {
        let a = [1.0, -2.0, 2.0];
        assert_eq!(norm1(&a), 5.0);
        assert_eq!(norm2(&a), 3.0);
    }

    #[test]
    fn axpy_accumulates() {
        let x = [1.0, 2.0];
        let mut y = [10.0, 20.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0]);
    }

    #[test]
    fn normalize_returns_original_norm() {
        let mut x = [3.0, 4.0];
        let n = normalize(&mut x, 1e-12);
        assert_eq!(n, 5.0);
        assert!((norm2(&x) - 1.0).abs() < 1e-12);
        let mut z = [0.0, 0.0];
        assert_eq!(normalize(&mut z, 1e-12), 0.0);
    }

    #[test]
    fn soft_threshold_cases() {
        assert_eq!(soft_threshold(3.0, 1.0), 2.0);
        assert_eq!(soft_threshold(-3.0, 1.0), -2.0);
        assert_eq!(soft_threshold(0.5, 1.0), 0.0);
        assert_eq!(soft_threshold(-0.5, 1.0), 0.0);
    }

    #[test]
    fn dist2_sq_hand_checked() {
        assert_eq!(dist2_sq(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }
}
