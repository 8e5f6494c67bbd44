//! Property-based tests for the dense matrix algebra: the ring/transpose
//! identities every downstream kernel silently relies on.

// Test code: a panic is a test failure, so unwrap is the idiom here
// (clippy's allow-unwrap-in-tests does not reach integration-test helpers).
#![allow(clippy::unwrap_used)]

use fedsc_linalg::{vector, Matrix};
use proptest::prelude::*;

fn matrix(
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
) -> impl Strategy<Value = Matrix> {
    (rows, cols).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0f64..10.0, r * c)
            .prop_map(move |data| Matrix::from_col_major(r, c, data).unwrap())
    })
}

/// Textbook ijk reference product, deliberately unblocked.
fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut s = 0.0;
            for k in 0..a.cols() {
                s += a[(i, k)] * b[(k, j)];
            }
            out[(i, j)] = s;
        }
    }
    out
}

/// Worst absolute entry difference; 0 for two empty matrices.
fn max_abs_diff(a: &Matrix, b: &Matrix) -> f64 {
    assert_eq!(a.shape(), b.shape());
    let mut worst = 0.0f64;
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        worst = worst.max((x - y).abs());
    }
    worst
}

/// Deterministic filler large enough to cross every block boundary
/// (BLOCK_TILE = 32, BLOCK_J = 64, BLOCK_K = 128, BLOCK_ROWS = 256).
fn big(rows: usize, cols: usize) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    for j in 0..cols {
        for i in 0..rows {
            m[(i, j)] = ((i * 31 + j * 7 + 3) % 17) as f64 * 0.25 - 2.0;
        }
    }
    m
}

#[test]
fn blocked_kernels_cross_block_boundaries() {
    // 300 rows > BLOCK_ROWS, 70/75 cols > BLOCK_TILE and > BLOCK_J is not
    // required (the last partial block is the interesting case anyway).
    let a = big(300, 70);
    let b = big(300, 75);
    let g = a.gram();
    let g_naive = naive_matmul(&a.transpose(), &a);
    assert!(
        max_abs_diff(&g, &g_naive) < 1e-7,
        "{}",
        max_abs_diff(&g, &g_naive)
    );
    let t = a.tr_matmul(&b).unwrap();
    let t_naive = naive_matmul(&a.transpose(), &b);
    assert!(max_abs_diff(&t, &t_naive) < 1e-7);
    let p = a.transpose().matmul(&b).unwrap();
    assert!(max_abs_diff(&p, &t_naive) < 1e-7);
    // Thread count never changes a bit, even across partial blocks.
    for threads in [2, 3, 8] {
        assert_eq!(a.gram_threaded(threads).as_slice(), g.as_slice());
        assert_eq!(
            a.tr_matmul_threaded(&b, threads).unwrap().as_slice(),
            t.as_slice()
        );
        assert_eq!(
            a.transpose()
                .matmul_threaded(&b, threads)
                .unwrap()
                .as_slice(),
            p.as_slice()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn transpose_of_product((a, b) in (1usize..5, 1usize..5, 1usize..5).prop_flat_map(|(m, k, n)| {
        (matrix(m..m + 1, k..k + 1), matrix(k..k + 1, n..n + 1))
    })) {
        let ab_t = a.matmul(&b).unwrap().transpose();
        let bt_at = b.transpose().matmul(&a.transpose()).unwrap();
        prop_assert!(ab_t.sub(&bt_at).unwrap().max_abs() < 1e-9);
    }

    #[test]
    fn matvec_agrees_with_matmul(a in matrix(1..6, 1..6)) {
        let x: Vec<f64> = (0..a.cols()).map(|i| i as f64 - 1.5).collect();
        let xs = Matrix::from_col_major(a.cols(), 1, x.clone()).unwrap();
        let via_mm = a.matmul(&xs).unwrap();
        let via_mv = a.matvec(&x).unwrap();
        for (i, &v) in via_mv.iter().enumerate() {
            prop_assert!((via_mm[(i, 0)] - v).abs() < 1e-10);
        }
    }

    #[test]
    fn gram_equals_tr_matmul_self(a in matrix(1..6, 1..6)) {
        let g = a.gram();
        let explicit = a.tr_matmul(&a).unwrap();
        prop_assert!(g.sub(&explicit).unwrap().max_abs() < 1e-10);
        // Gram is PSD: x^T G x >= 0 for a probe vector.
        let x: Vec<f64> = (0..a.cols()).map(|i| (i as f64) * 0.7 - 1.0).collect();
        let gx = g.matvec(&x).unwrap();
        prop_assert!(vector::dot(&x, &gx) >= -1e-9);
    }

    #[test]
    fn add_sub_inverse(a in matrix(1..6, 1..6)) {
        let b = a.clone();
        let sum = a.add(&b).unwrap();
        let back = sum.sub(&b).unwrap();
        prop_assert!(back.sub(&a).unwrap().max_abs() < 1e-12);
    }

    #[test]
    fn hcat_select_round_trip((a, b) in (1usize..5, 1usize..4, 1usize..4).prop_flat_map(|(r, c1, c2)| {
        (matrix(r..r + 1, c1..c1 + 1), matrix(r..r + 1, c2..c2 + 1))
    })) {
        let cat = Matrix::hcat(&[&a, &b]).unwrap();
        let left: Vec<usize> = (0..a.cols()).collect();
        let right: Vec<usize> = (a.cols()..a.cols() + b.cols()).collect();
        prop_assert_eq!(cat.select_columns(&left), a);
        prop_assert_eq!(cat.select_columns(&right), b);
    }

    #[test]
    fn blocked_matmul_matches_naive((a, b) in (0usize..7, 0usize..7, 0usize..7).prop_flat_map(|(m, k, n)| {
        // Degenerate shapes on purpose: empty dimensions and 1-column
        // matrices must round-trip the blocked kernel too.
        (matrix(m..m + 1, k..k + 1), matrix(k..k + 1, n..n + 1))
    })) {
        let blocked = a.matmul(&b).unwrap();
        prop_assert!(max_abs_diff(&blocked, &naive_matmul(&a, &b)) < 1e-12);
        // Threading must not change a single bit.
        for threads in [2, 4] {
            let t = a.matmul_threaded(&b, threads).unwrap();
            prop_assert_eq!(t.as_slice(), blocked.as_slice());
        }
    }

    #[test]
    fn blocked_gram_matches_naive(a in matrix(0..7, 0..7)) {
        let naive = naive_matmul(&a.transpose(), &a);
        let g = a.gram();
        prop_assert!(max_abs_diff(&g, &naive) < 1e-12);
        // Exactly symmetric by construction (upper triangle, mirrored).
        for i in 0..g.rows() {
            for j in 0..i {
                prop_assert_eq!(g[(i, j)], g[(j, i)]);
            }
        }
        for threads in [2, 4] {
            prop_assert_eq!(a.gram_threaded(threads).as_slice(), g.as_slice());
        }
    }

    #[test]
    fn blocked_tr_matmul_matches_naive((a, b) in (0usize..7, 0usize..6, 0usize..6).prop_flat_map(|(d, m, n)| {
        (matrix(d..d + 1, m..m + 1), matrix(d..d + 1, n..n + 1))
    })) {
        let blocked = a.tr_matmul(&b).unwrap();
        prop_assert!(max_abs_diff(&blocked, &naive_matmul(&a.transpose(), &b)) < 1e-12);
        for threads in [2, 4] {
            let t = a.tr_matmul_threaded(&b, threads).unwrap();
            prop_assert_eq!(t.as_slice(), blocked.as_slice());
        }
    }

    #[test]
    fn norm_triangle_inequality((x, y) in (1usize..12).prop_flat_map(|n| {
        (proptest::collection::vec(-5.0f64..5.0, n), proptest::collection::vec(-5.0f64..5.0, n))
    })) {
        let sum: Vec<f64> = x.iter().zip(&y).map(|(a, b)| a + b).collect();
        prop_assert!(vector::norm2(&sum) <= vector::norm2(&x) + vector::norm2(&y) + 1e-9);
        // Cauchy-Schwarz.
        prop_assert!(vector::dot(&x, &y).abs() <= vector::norm2(&x) * vector::norm2(&y) + 1e-9);
    }
}
