//! Dense column-major matrix type used throughout the workspace.
//!
//! Data matrices in subspace clustering are naturally column-oriented
//! (`X = [x_1, ..., x_N]` with one column per data point), so the storage is
//! column-major: column `j` occupies the contiguous range
//! `data[j * rows .. (j + 1) * rows]`. Contiguous columns make the hot kernels
//! (per-point sparse regression, Gram products, basis extraction) cache
//! friendly and allow borrowing a column as a plain slice.

use crate::error::{LinalgError, Result};
use std::fmt;
use std::ops::{Index, IndexMut};

/// Output-column block width for `matmul` (one block of contiguous output
/// columns is one unit of parallel work).
const BLOCK_J: usize = 64;
/// Inner-dimension panel width for `matmul`: a panel of `self` columns is
/// streamed once per output block.
const BLOCK_K: usize = 128;
/// Column-tile width for the pairwise-dot kernels (`gram`, `tr_matmul`).
const BLOCK_TILE: usize = 32;
/// Row-panel height for the pairwise-dot kernels: a `BLOCK_TILE x
/// BLOCK_ROWS` tile of each operand (~64 KiB the pair) stays cache-resident
/// across a whole tile of dot products.
const BLOCK_ROWS: usize = 256;
/// Flop count below which the kernels stay single-threaded: spawning a
/// scoped pool costs more than it saves on small products.
const PAR_MIN_FLOPS: usize = 1 << 18;

/// Worker count a kernel should actually use for a product of `flops`
/// multiply-adds.
fn effective_threads(threads: usize, flops: usize) -> usize {
    if flops < PAR_MIN_FLOPS {
        1
    } else {
        threads.max(1)
    }
}

/// A dense, column-major, `f64` matrix.
///
/// ```
/// use fedsc_linalg::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
/// assert_eq!(a.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
/// assert_eq!(a.col(1), &[2.0, 4.0]); // columns are contiguous
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    /// Column-major storage.
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix that takes ownership of a column-major data buffer.
    ///
    /// Returns an error when `data.len() != rows * cols`.
    pub fn from_col_major(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::ShapeMismatch {
                expected: (rows, cols),
                got: (data.len(), 1),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Builds a matrix from a slice of rows (row-major convenience, used
    /// heavily in tests where literal matrices are written row by row).
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        if rows.iter().any(|row| row.len() != c) {
            return Err(LinalgError::RaggedRows);
        }
        let mut m = Self::zeros(r, c);
        for (i, row) in rows.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                m[(i, j)] = v;
            }
        }
        Ok(m)
    }

    /// Builds a matrix whose columns are the given slices.
    pub fn from_columns(cols: &[&[f64]]) -> Result<Self> {
        let c = cols.len();
        let r = cols.first().map_or(0, |col| col.len());
        if cols.iter().any(|col| col.len() != r) {
            return Err(LinalgError::RaggedRows);
        }
        let mut m = Self::zeros(r, c);
        for (j, col) in cols.iter().enumerate() {
            m.col_mut(j).copy_from_slice(col);
        }
        Ok(m)
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `true` when either dimension is zero.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0 || self.cols == 0
    }

    /// The raw column-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the raw column-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrows column `j` as a contiguous slice.
    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        debug_assert!(j < self.cols);
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Mutably borrows column `j`.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        debug_assert!(j < self.cols);
        &mut self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Copies row `i` into a new vector (rows are strided, so this allocates).
    pub fn row(&self, i: usize) -> Vec<f64> {
        (0..self.cols).map(|j| self[(i, j)]).collect()
    }

    /// Iterator over columns as slices.
    pub fn columns(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.rows.max(1)).take(self.cols)
    }

    /// Returns a new matrix containing the selected columns, in order.
    pub fn select_columns(&self, indices: &[usize]) -> Matrix {
        let mut m = Matrix::zeros(self.rows, indices.len());
        for (dst, &src) in indices.iter().enumerate() {
            m.col_mut(dst).copy_from_slice(self.col(src));
        }
        m
    }

    /// Horizontally concatenates matrices that share a row count.
    pub fn hcat(parts: &[&Matrix]) -> Result<Matrix> {
        if parts.is_empty() {
            return Ok(Matrix::zeros(0, 0));
        }
        let rows = parts[0].rows;
        if parts.iter().any(|p| p.rows != rows) {
            return Err(LinalgError::ShapeMismatch {
                expected: (rows, 0),
                got: (parts.iter().map(|p| p.rows).max().unwrap_or(0), 0),
            });
        }
        let cols = parts.iter().map(|p| p.cols).sum();
        let mut m = Matrix::zeros(rows, cols);
        let mut offset = 0;
        for p in parts {
            m.data[offset..offset + p.data.len()].copy_from_slice(&p.data);
            offset += p.data.len();
        }
        Ok(m)
    }

    /// Transpose (allocates).
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for j in 0..self.cols {
            let col = self.col(j);
            for (i, &v) in col.iter().enumerate() {
                t[(j, i)] = v;
            }
        }
        t
    }

    /// Matrix-matrix product `self * rhs`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        self.matmul_threaded(rhs, 1)
    }

    /// Cache-blocked matrix-matrix product `self * rhs`, fanned out over at
    /// most `threads` workers for large instances.
    ///
    /// jik order with k-panel × j-block tiling: a panel of `self` columns is
    /// reused across a block of output columns while it is still hot, and
    /// the inner axpy is the 4-wide unrolled [`crate::vector::axpy`]. Every
    /// output element accumulates over `k` in ascending order regardless of
    /// blocking or thread count, so the result is bit-identical to the naive
    /// kernel and to `threads = 1`.
    pub fn matmul_threaded(&self, rhs: &Matrix, threads: usize) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                expected: (self.cols, 0),
                got: (rhs.rows, rhs.cols),
            });
        }
        let (m, k_dim, n) = (self.rows, self.cols, rhs.cols);
        let mut out = Matrix::zeros(m, n);
        if m == 0 || n == 0 || k_dim == 0 {
            return Ok(out);
        }
        let threads = effective_threads(threads, m * k_dim * n);
        crate::par::par_chunks_mut(&mut out.data, m * BLOCK_J, threads, |jb, chunk| {
            let j0 = jb * BLOCK_J;
            for k0 in (0..k_dim).step_by(BLOCK_K) {
                let k1 = (k0 + BLOCK_K).min(k_dim);
                for (jo, ocol) in chunk.chunks_mut(m).enumerate() {
                    let rcol = rhs.col(j0 + jo);
                    for (k, &rv) in rcol[k0..k1].iter().enumerate() {
                        if rv == 0.0 {
                            continue;
                        }
                        crate::vector::axpy(rv, self.col(k0 + k), ocol);
                    }
                }
            }
        });
        Ok(out)
    }

    /// Matrix-vector product `self * x`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                expected: (self.cols, 1),
                got: (x.len(), 1),
            });
        }
        let mut y = vec![0.0; self.rows];
        for (k, &xv) in x.iter().enumerate() {
            if xv == 0.0 {
                continue;
            }
            let col = self.col(k);
            for (yo, &c) in y.iter_mut().zip(col) {
                *yo += xv * c;
            }
        }
        Ok(y)
    }

    /// Transposed matrix-vector product `self^T * x`.
    pub fn tr_matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                expected: (self.rows, 1),
                got: (x.len(), 1),
            });
        }
        let mut y = vec![0.0; self.cols];
        for (j, yo) in y.iter_mut().enumerate() {
            let col = self.col(j);
            *yo = crate::vector::dot(col, x);
        }
        Ok(y)
    }

    /// Gram matrix `self^T * self`: a symmetric rank-k update computed
    /// as a sum of row-panel contributions `G += A_p^T A_p` instead of one
    /// long dot product per column pair.
    pub fn gram(&self) -> Matrix {
        self.gram_threaded(1)
    }

    /// Cache-blocked [`Matrix::gram`] on at most `threads` workers.
    ///
    /// Only the upper triangle is computed (tiles `ib <= jb` of column
    /// pairs, accumulated row panel by row panel so both column segments
    /// stay in cache across the whole tile), then mirrored. Rows advance
    /// four at a time through the register-blocked [`crate::vector::dot4`]
    /// so each panel of `self[:, j]` is loaded once per four outputs. Each
    /// entry's panel accumulation depends only on its `(i, j)` position and
    /// the tile bounds — never on the thread count — so results are
    /// bit-identical across `threads`.
    pub fn gram_threaded(&self, threads: usize) -> Matrix {
        let (d, n) = (self.rows, self.cols);
        let mut g = Matrix::zeros(n, n);
        if n == 0 {
            return g;
        }
        let threads = effective_threads(threads, d * n * n / 2);
        crate::par::par_chunks_mut(&mut g.data, n * BLOCK_TILE, threads, |jb, chunk| {
            let j0 = jb * BLOCK_TILE;
            let j_count = chunk.len() / n.max(1);
            let j_max = j0 + j_count; // exclusive
            for i0 in (0..j_max).step_by(BLOCK_TILE) {
                for k0 in (0..d.max(1)).step_by(BLOCK_ROWS) {
                    let k1 = (k0 + BLOCK_ROWS).min(d);
                    for (jo, gcol) in chunk.chunks_mut(n).enumerate() {
                        let j = j0 + jo;
                        let aj = &self.col(j)[k0..k1];
                        let i_end = (i0 + BLOCK_TILE).min(j + 1);
                        let mut i = i0;
                        while i + 4 <= i_end {
                            let quad = crate::vector::dot4(
                                &self.col(i)[k0..k1],
                                &self.col(i + 1)[k0..k1],
                                &self.col(i + 2)[k0..k1],
                                &self.col(i + 3)[k0..k1],
                                aj,
                            );
                            gcol[i] += quad[0];
                            gcol[i + 1] += quad[1];
                            gcol[i + 2] += quad[2];
                            gcol[i + 3] += quad[3];
                            i += 4;
                        }
                        while i < i_end {
                            gcol[i] += crate::vector::dot(&self.col(i)[k0..k1], aj);
                            i += 1;
                        }
                    }
                }
            }
        });
        // Mirror the upper triangle down (cheap O(n^2) pass).
        for j in 0..n {
            for i in 0..j {
                g.data[i * n + j] = g.data[j * n + i];
            }
        }
        g
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Largest absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, v| m.max(v.abs()))
    }

    /// Scales every entry in place.
    pub fn scale(&mut self, s: f64) {
        for v in self.data.iter_mut() {
            *v *= s;
        }
    }

    /// Element-wise sum `self + rhs`.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                expected: self.shape(),
                got: rhs.shape(),
            });
        }
        let mut out = self.clone();
        for (o, &b) in out.data.iter_mut().zip(rhs.data.iter()) {
            *o += b;
        }
        Ok(out)
    }

    /// Element-wise difference `self - rhs`.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                expected: self.shape(),
                got: rhs.shape(),
            });
        }
        let mut out = self.clone();
        for (o, &b) in out.data.iter_mut().zip(rhs.data.iter()) {
            *o -= b;
        }
        Ok(out)
    }

    /// Normalizes every column to unit Euclidean norm in place. Columns with
    /// norm below `eps` are left untouched (they carry no direction).
    pub fn normalize_columns(&mut self, eps: f64) {
        for j in 0..self.cols {
            let col = self.col_mut(j);
            let n = crate::vector::norm2(col);
            if n > eps {
                for v in col {
                    *v /= n;
                }
            }
        }
    }

    /// `self^T * rhs`.
    pub fn tr_matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        self.tr_matmul_threaded(rhs, 1)
    }

    /// Cache-blocked `self^T * rhs` on at most `threads` workers.
    ///
    /// Same tiling as [`Matrix::gram_threaded`] without the triangular
    /// structure: `out(i, j) = <self[:, i], rhs[:, j]>` accumulated over row
    /// panels so a tile of `self` columns is reused across a block of `rhs`
    /// columns, four output rows at a time through the register-blocked
    /// [`crate::vector::dot4`]. Bit-identical across thread counts (each
    /// entry is computed by one worker with a fixed panel order).
    pub fn tr_matmul_threaded(&self, rhs: &Matrix, threads: usize) -> Result<Matrix> {
        if self.rows != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                expected: (self.rows, 0),
                got: (rhs.rows, rhs.cols),
            });
        }
        let (d, m, n) = (self.rows, self.cols, rhs.cols);
        let mut out = Matrix::zeros(m, n);
        if m == 0 || n == 0 {
            return Ok(out);
        }
        let threads = effective_threads(threads, d * m * n);
        crate::par::par_chunks_mut(&mut out.data, m * BLOCK_TILE, threads, |jb, chunk| {
            let j0 = jb * BLOCK_TILE;
            for i0 in (0..m).step_by(BLOCK_TILE) {
                let i1 = (i0 + BLOCK_TILE).min(m);
                for k0 in (0..d.max(1)).step_by(BLOCK_ROWS) {
                    let k1 = (k0 + BLOCK_ROWS).min(d);
                    for (jo, ocol) in chunk.chunks_mut(m).enumerate() {
                        let rcol = &rhs.col(j0 + jo)[k0..k1];
                        let mut i = i0;
                        while i + 4 <= i1 {
                            let quad = crate::vector::dot4(
                                &self.col(i)[k0..k1],
                                &self.col(i + 1)[k0..k1],
                                &self.col(i + 2)[k0..k1],
                                &self.col(i + 3)[k0..k1],
                                rcol,
                            );
                            ocol[i] += quad[0];
                            ocol[i + 1] += quad[1];
                            ocol[i + 2] += quad[2];
                            ocol[i + 3] += quad[3];
                            i += 4;
                        }
                        while i < i1 {
                            ocol[i] += crate::vector::dot(&self.col(i)[k0..k1], rcol);
                            i += 1;
                        }
                    }
                }
            }
        });
        Ok(out)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[j * self.rows + i]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[j * self.rows + i]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8.min(self.rows);
        let max_cols = 8.min(self.cols);
        for i in 0..max_rows {
            write!(f, "  ")?;
            for j in 0..max_cols {
                write!(f, "{:>10.4} ", self[(i, j)])?;
            }
            if max_cols < self.cols {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if max_rows < self.rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_expected_shape_and_entries() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn identity_is_identity() {
        let id = Matrix::identity(4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(id[(i, j)], if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_rows_round_trips_indices() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(1, 2)], 6.0);
        assert_eq!(m.col(1), &[2.0, 5.0]);
        assert_eq!(m.row(1), vec![4.0, 5.0, 6.0]);
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        assert!(Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).is_err());
    }

    #[test]
    fn from_col_major_validates_length() {
        assert!(Matrix::from_col_major(2, 2, vec![1.0; 3]).is_err());
        let m = Matrix::from_col_major(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m[(1, 0)], 2.0);
        assert_eq!(m[(0, 1)], 3.0);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        let expected = Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap();
        assert_eq!(c, expected);
    }

    #[test]
    fn matmul_rejects_mismatched_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn matvec_and_tr_matvec_agree_with_matmul() {
        let a = Matrix::from_rows(&[&[1.0, -1.0, 2.0], &[0.0, 3.0, 1.0]]).unwrap();
        let x = [2.0, 1.0, -1.0];
        assert_eq!(a.matvec(&x).unwrap(), vec![-1.0, 2.0]);
        let y = [1.0, 2.0];
        assert_eq!(a.tr_matvec(&y).unwrap(), vec![1.0, 5.0, 4.0]);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn gram_is_symmetric_and_correct() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0]]).unwrap();
        let g = a.gram();
        assert_eq!(g[(0, 0)], 2.0);
        assert_eq!(g[(0, 1)], 1.0);
        assert_eq!(g[(1, 0)], 1.0);
        assert_eq!(g[(1, 1)], 1.0);
    }

    #[test]
    fn select_columns_picks_in_order() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let s = a.select_columns(&[2, 0]);
        assert_eq!(s.col(0), &[3.0, 6.0]);
        assert_eq!(s.col(1), &[1.0, 4.0]);
    }

    #[test]
    fn hcat_concatenates() {
        let a = Matrix::from_rows(&[&[1.0], &[2.0]]).unwrap();
        let b = Matrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let c = Matrix::hcat(&[&a, &b]).unwrap();
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.col(2), &[4.0, 6.0]);
    }

    #[test]
    fn hcat_rejects_row_mismatch() {
        let a = Matrix::zeros(2, 1);
        let b = Matrix::zeros(3, 1);
        assert!(Matrix::hcat(&[&a, &b]).is_err());
    }

    #[test]
    fn normalize_columns_produces_unit_columns() {
        let mut a = Matrix::from_rows(&[&[3.0, 0.0], &[4.0, 0.0]]).unwrap();
        a.normalize_columns(1e-12);
        assert!((crate::vector::norm2(a.col(0)) - 1.0).abs() < 1e-12);
        // Zero column untouched.
        assert_eq!(a.col(1), &[0.0, 0.0]);
    }

    #[test]
    fn tr_matmul_matches_transpose_matmul() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]).unwrap();
        assert_eq!(a.tr_matmul(&b).unwrap(), a.transpose().matmul(&b).unwrap());
    }

    #[test]
    fn fro_norm_and_max_abs() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, -4.0]]).unwrap();
        assert!((a.fro_norm() - 5.0).abs() < 1e-12);
        assert_eq!(a.max_abs(), 4.0);
    }
}
