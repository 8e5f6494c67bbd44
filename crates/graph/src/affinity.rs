//! Dense symmetric affinity graphs.
//!
//! Every spectral-based SC method in the paper reduces to building a
//! non-negative symmetric affinity matrix `W` over the data points and
//! feeding it to spectral clustering. This module holds the dense form, with
//! the SSC constructor `|C| + |C|^T` from self-expression codes.
//!
//! The CSR [`SparseAffinity`](crate::sparse::SparseAffinity) is the graph
//! every tier and baseline builds, segments, returns and diagnoses (k-NN
//! graphs, subgraphs, components, the induced global graph). No pipeline
//! step forms the dense `n x n` graph: where a dense `eigh` runs, it runs
//! on the densified CSR *Laplacian*. The dense graph exists for
//! `SubspaceClusterer::affinity` callers (a benchmark's layer replay) and
//! as the test oracle the CSR constructors are pinned to.

use fedsc_linalg::Matrix;

/// A non-negative symmetric affinity matrix with zero diagonal.
#[derive(Debug, Clone)]
pub struct AffinityGraph {
    w: Matrix,
}

impl AffinityGraph {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.w.rows()
    }

    /// `true` when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.w.rows() == 0
    }

    /// The affinity matrix.
    pub fn matrix(&self) -> &Matrix {
        &self.w
    }

    /// Edge weight between `i` and `j`.
    pub fn weight(&self, i: usize, j: usize) -> f64 {
        self.w[(i, j)]
    }

    /// Builds `W = |C| + |C|^T` from a (generally asymmetric) coefficient
    /// matrix, zeroing the diagonal — the SSC affinity construction.
    pub fn from_coefficients(c: &Matrix) -> Self {
        assert_eq!(c.rows(), c.cols(), "coefficient matrix must be square");
        let n = c.rows();
        let mut w = Matrix::zeros(n, n);
        for j in 0..n {
            for i in 0..n {
                if i == j {
                    continue;
                }
                let v = c[(i, j)].abs() + c[(j, i)].abs();
                w[(i, j)] = v;
            }
        }
        let g = Self { w };
        g.debug_check();
        g
    }

    /// Wraps an existing symmetric non-negative matrix. Symmetry and
    /// non-negativity are enforced by averaging with the transpose, taking
    /// absolute values, and zeroing the diagonal.
    pub fn from_symmetric(m: &Matrix) -> Self {
        assert_eq!(m.rows(), m.cols(), "affinity matrix must be square");
        let n = m.rows();
        let mut w = Matrix::zeros(n, n);
        for j in 0..n {
            for i in 0..n {
                if i != j {
                    w[(i, j)] = 0.5 * (m[(i, j)].abs() + m[(j, i)].abs());
                }
            }
        }
        let g = Self { w };
        g.debug_check();
        g
    }

    /// Debug-build structural invariant: `W` is symmetric, non-negative,
    /// with a zero diagonal. Every constructor runs this before handing the
    /// graph to spectral clustering; compiles to nothing in release builds.
    fn debug_check(&self) {
        if cfg!(debug_assertions) {
            let n = self.len();
            for i in 0..n {
                debug_assert!(self.w[(i, i)].abs() <= 0.0, "nonzero diagonal at {i}");
                for j in i + 1..n {
                    debug_assert!(self.w[(i, j)] >= 0.0, "negative weight at ({i},{j})");
                    debug_assert!(
                        (self.w[(i, j)] - self.w[(j, i)]).abs() <= 1e-12,
                        "asymmetric weights at ({i},{j})"
                    );
                }
            }
        }
    }

    /// Node degrees (row sums).
    pub fn degrees(&self) -> Vec<f64> {
        let n = self.len();
        (0..n)
            .map(|i| (0..n).map(|j| self.w[(i, j)]).sum())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_coefficients_symmetrizes_and_zeroes_diagonal() {
        let c =
            Matrix::from_rows(&[&[5.0, -1.0, 0.0], &[2.0, 5.0, 0.0], &[0.0, 0.0, 5.0]]).unwrap();
        let g = AffinityGraph::from_coefficients(&c);
        assert_eq!(g.weight(0, 1), 3.0);
        assert_eq!(g.weight(1, 0), 3.0);
        assert_eq!(g.weight(0, 0), 0.0);
        assert_eq!(g.weight(2, 2), 0.0);
    }

    #[test]
    fn degrees_are_row_sums() {
        let m = Matrix::from_rows(&[&[0.0, 2.0], &[2.0, 0.0]]).unwrap();
        let g = AffinityGraph::from_symmetric(&m);
        assert_eq!(g.degrees(), vec![2.0, 2.0]);
    }

    #[test]
    fn empty_graph() {
        let g = AffinityGraph::from_symmetric(&Matrix::zeros(0, 0));
        assert!(g.is_empty());
    }
}
