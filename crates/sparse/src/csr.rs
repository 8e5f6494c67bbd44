//! Compressed sparse row matrix.
//!
//! Affinity graphs built by the SC algorithms are stored sparsely (the paper
//! notes "the affinity matrices built by all the above algorithms are stored
//! as sparse matrices, which can be efficiently computed").

use crate::vec::SparseVec;
use fedsc_linalg::lanczos::SymOp;
use fedsc_linalg::{par, LinalgError, Matrix, Result};

/// A CSR matrix over `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// Row start offsets, length `rows + 1`.
    row_ptr: Vec<usize>,
    /// Column indices, sorted within each row.
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds from `(row, col, value)` triplets. Duplicate coordinates are
    /// summed; explicit zeros are dropped.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        let mut sorted: Vec<(usize, usize, f64)> = triplets
            .iter()
            .copied()
            .filter(|&(r, c, v)| {
                assert!(r < rows && c < cols, "triplet ({r}, {c}) out of bounds");
                v != 0.0
            })
            .collect();
        sorted.sort_by_key(|&(r, c, _)| (r, c));
        // Merge duplicates in place.
        let mut merged: Vec<(usize, usize, f64)> = Vec::with_capacity(sorted.len());
        for (r, c, v) in sorted {
            match merged.last_mut() {
                Some(&mut (lr, lc, ref mut lv)) if lr == r && lc == c => *lv += v,
                _ => merged.push((r, c, v)),
            }
        }

        let mut row_ptr = vec![0usize; rows + 1];
        let mut col_idx = Vec::with_capacity(merged.len());
        let mut values = Vec::with_capacity(merged.len());
        for &(r, c, v) in &merged {
            row_ptr[r + 1] += 1;
            col_idx.push(c);
            values.push(v);
        }
        for r in 0..rows {
            row_ptr[r + 1] += row_ptr[r];
        }
        Self {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// `(column, value)` pairs of row `r`.
    pub fn row(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        self.col_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Entry lookup (binary search within the row).
    pub fn get(&self, r: usize, c: usize) -> f64 {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        match self.col_idx[lo..hi].binary_search(&c) {
            Ok(k) => self.values[lo + k],
            Err(_) => 0.0,
        }
    }

    /// Sparse matrix-vector product.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "operand length mismatch");
        let mut y = vec![0.0; self.rows];
        for r in 0..self.rows {
            let mut s = 0.0;
            for (c, v) in self.row(r) {
                s += v * x[c];
            }
            y[r] = s;
        }
        y
    }

    /// Sparse matrix × multi-vector product (SpMM): `ncols` operand vectors
    /// stored **interleaved** (`x[i * ncols + j]` is row `i` of vector `j`),
    /// result in the same layout.
    ///
    /// This is the block-Lanczos hot kernel: each stored entry `(r, c, v)`
    /// is loaded from memory **once** and multiplied against all `ncols`
    /// operand values `x[c * ncols + ..]` (contiguous, so the inner loop is
    /// a stride-1 axpy), instead of re-traversing the matrix per vector the
    /// way `ncols` separate [`CsrMatrix::matvec`] calls would.
    ///
    /// Rows fan out over the persistent pool in contiguous chunks; every
    /// output element is written by exactly one task with a fixed
    /// accumulation order, so the result is bitwise identical for every
    /// `threads` value.
    pub fn matvec_block(&self, x: &[f64], ncols: usize, threads: usize) -> Vec<f64> {
        assert_eq!(x.len(), self.cols * ncols, "operand length mismatch");
        if ncols == 0 || self.rows == 0 {
            return vec![0.0; self.rows * ncols];
        }
        let threads = threads.max(1);
        // One chunk per pool participant is enough: chunk cost is uniform
        // in expectation (rows of a k-NN-bounded affinity have similar
        // nnz), and fewer chunks keep dispatch overhead off the kernel.
        let chunks = threads.min(self.rows);
        let per = self.rows.div_ceil(chunks);
        let parts: Vec<Vec<f64>> = par::par_map_heavy(chunks, threads, |ci| {
            let lo = (ci * per).min(self.rows);
            let hi = ((ci + 1) * per).min(self.rows);
            let mut out = vec![0.0; (hi - lo) * ncols];
            for r in lo..hi {
                let dst = &mut out[(r - lo) * ncols..(r - lo + 1) * ncols];
                for (c, v) in self.row(r) {
                    let src = &x[c * ncols..(c + 1) * ncols];
                    for (d, &s) in dst.iter_mut().zip(src) {
                        *d += v * s;
                    }
                }
            }
            out
        });
        let mut y = Vec::with_capacity(self.rows * ncols);
        for part in parts {
            y.extend_from_slice(&part);
        }
        y
    }

    /// Densifies (testing / small-graph use).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row(r) {
                m[(r, c)] = v;
            }
        }
        m
    }

    /// Row sums (degrees for an adjacency matrix).
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.rows)
            .map(|r| self.row(r).map(|(_, v)| v).sum())
            .collect()
    }

    /// Builds the symmetrized SSC affinity `|C| + |C|^T` (zero diagonal)
    /// from per-point self-expression codes, where `codes[i]` is column `i`
    /// of the coefficient matrix `C`.
    ///
    /// This is the sparse counterpart of the dense
    /// `AffinityGraph::from_coefficients` arithmetic: entry `(i, j)` becomes
    /// `|c_ij| + |c_ji|`, with absent coefficients contributing `0.0` — the
    /// triplet merge performs exactly that one addition, so the stored
    /// values are bitwise the dense ones.
    pub fn symmetrized_affinity(codes: &[SparseVec]) -> Self {
        let n = codes.len();
        let mut triplets = Vec::new();
        for (i, code) in codes.iter().enumerate() {
            assert_eq!(code.dim(), n, "code {i} has dimension {}", code.dim());
            for (j, v) in code.iter() {
                if j == i {
                    continue;
                }
                let a = v.abs();
                triplets.push((j, i, a));
                triplets.push((i, j, a));
            }
        }
        Self::from_triplets(n, n, &triplets)
    }
}

/// The CSR matrix as a symmetric Lanczos operator: lets the spectral stage
/// run `thick_restart_smallest` directly on a sparse normalized Laplacian
/// without densifying (`O(nnz)` per iteration instead of `O(n^2)`).
impl SymOp for CsrMatrix {
    fn dim(&self) -> usize {
        self.rows
    }

    fn apply(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                expected: (self.cols, 1),
                got: (x.len(), 1),
            });
        }
        Ok(self.matvec(x))
    }

    fn apply_block(&self, x: &[f64], ncols: usize, threads: usize) -> Result<Vec<f64>> {
        if x.len() != self.cols * ncols {
            return Err(LinalgError::ShapeMismatch {
                expected: (self.cols * ncols, 1),
                got: (x.len(), 1),
            });
        }
        Ok(self.matvec_block(x, ncols, threads))
    }

    fn gershgorin(&self) -> (f64, f64) {
        // Mirrors the dense impl: stored entries iterate in ascending column
        // order and the skipped zeros would have contributed `+0.0`, which is
        // a bitwise no-op on these non-negative partial sums.
        let mut sigma = f64::NEG_INFINITY;
        let mut scale = 0.0f64;
        for r in 0..self.rows {
            let mut row_sum = 0.0;
            for (c, v) in self.row(r) {
                row_sum += if r == c { v } else { v.abs() };
                scale = scale.max(v.abs());
            }
            sigma = sigma.max(row_sum);
        }
        (sigma, scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triplets_round_trip() {
        let m = CsrMatrix::from_triplets(3, 3, &[(0, 1, 2.0), (2, 0, -1.0), (1, 1, 3.0)]);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 1), 3.0);
        assert_eq!(m.get(2, 0), -1.0);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn duplicates_are_summed_and_zeros_dropped() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.0), (1, 1, 0.0)]);
        assert_eq!(m.get(0, 0), 3.0);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn matvec_matches_dense() {
        let m = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, -1.0)]);
        let y = m.matvec(&[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![7.0, -2.0]);
        let d = m.to_dense();
        assert_eq!(d.matvec(&[1.0, 2.0, 3.0]).unwrap(), y);
    }

    #[test]
    fn row_iteration_and_sums() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 4.0)]);
        let row0: Vec<(usize, f64)> = m.row(0).collect();
        assert_eq!(row0, vec![(0, 1.0), (1, 2.0)]);
        assert_eq!(m.row_sums(), vec![3.0, 4.0]);
    }

    #[test]
    fn matvec_block_matches_per_vector_matvec_bitwise() {
        // Deterministic sparse-ish rectangular matrix.
        let mut triplets = Vec::new();
        let mut state = 0x9e37u64;
        for r in 0..23 {
            for c in 0..17 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                if state.is_multiple_of(3) {
                    triplets.push((r, c, (state as f64 / u64::MAX as f64) - 0.5));
                }
            }
        }
        let m = CsrMatrix::from_triplets(23, 17, &triplets);
        let ncols = 5;
        let mut x = vec![0.0; 17 * ncols];
        for (i, slot) in x.iter_mut().enumerate() {
            *slot = ((i * 7 + 3) % 11) as f64 - 5.0;
        }
        let base = m.matvec_block(&x, ncols, 1);
        for j in 0..ncols {
            let col: Vec<f64> = (0..17).map(|i| x[i * ncols + j]).collect();
            let y = m.matvec(&col);
            for i in 0..23 {
                assert_eq!(
                    base[i * ncols + j].to_bits(),
                    y[i].to_bits(),
                    "entry ({i}, {j})"
                );
            }
        }
        for threads in [2usize, 4, 7] {
            let yt = m.matvec_block(&x, ncols, threads);
            for (a, b) in yt.iter().zip(&base) {
                assert_eq!(a.to_bits(), b.to_bits(), "{threads} threads");
            }
        }
    }

    #[test]
    fn empty_matrix() {
        let m = CsrMatrix::from_triplets(2, 2, &[]);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.matvec(&[1.0, 1.0]), vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn rejects_out_of_bounds_triplet() {
        CsrMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]);
    }
}
