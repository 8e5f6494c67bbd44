//! Sparse (CSR) affinity graphs and Laplacians.
//!
//! The CSR [`SparseAffinity`] is the graph the pipeline builds and keeps:
//! SSC codes have few nonzeros per column and a k-NN graph `q` per row, so
//! at `n = 16k` the affinity is ~99.7% zeros. This module keeps it in CSR
//! end to end: build from sparse codes, triplets or a k-NN similarity scan,
//! take degrees from row sums, subgraphs and connected components, and
//! assemble the normalized Laplacian as a CSR matrix that the Lanczos
//! solver consumes matrix-free (`SymOp` impl in `fedsc-sparse`) and that
//! the dense solver takes densified. The dense [`AffinityGraph`]
//! ([`SparseAffinity::to_graph`]) is formed only for
//! `SubspaceClusterer::affinity` callers (a benchmark's layer replay) and
//! test oracles.
//!
//! Every constructor mirrors the dense arithmetic operation for operation
//! (same products, same association, same accumulation order), so on graphs
//! where both representations are affordable the sparse path is **bitwise**
//! the dense path — the parity tests below pin that down.

use crate::affinity::AffinityGraph;
use fedsc_linalg::par;
use fedsc_sparse::{CsrMatrix, SparseVec};

/// A non-negative symmetric affinity matrix with zero diagonal, stored in
/// CSR. The sparse counterpart of [`AffinityGraph`].
#[derive(Debug, Clone)]
pub struct SparseAffinity {
    w: CsrMatrix,
}

impl SparseAffinity {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.w.rows()
    }

    /// `true` when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.w.rows() == 0
    }

    /// The CSR affinity matrix.
    pub fn matrix(&self) -> &CsrMatrix {
        &self.w
    }

    /// Edge weight between `i` and `j`.
    pub fn weight(&self, i: usize, j: usize) -> f64 {
        self.w.get(i, j)
    }

    /// Builds `W = |C| + |C|^T` (zero diagonal) from per-point
    /// self-expression codes, where `codes[i]` is column `i` of `C` — the
    /// sparse counterpart of `AffinityGraph::from_coefficients`, bitwise
    /// equal entry for entry (IEEE addition is commutative, and each entry
    /// is the same single `|c_ij| + |c_ji|` sum).
    pub fn from_codes(codes: &[SparseVec]) -> Self {
        Self {
            w: CsrMatrix::symmetrized_affinity(codes),
        }
    }

    /// An `n`-node graph from `(i, j, w)` triplets with `w > 0` and
    /// `i != j` that list both `(i, j)` and `(j, i)`; duplicate coordinates
    /// are summed.
    pub fn from_triplets(n: usize, triplets: &[(usize, usize, f64)]) -> Self {
        let g = Self {
            w: CsrMatrix::from_triplets(n, n, triplets),
        };
        debug_assert!(
            (0..n).all(|i| g
                .w
                .row(i)
                .all(|(j, w)| j != i && w > 0.0 && g.w.get(j, i) == w)),
            "affinity triplets are not symmetric, positive and off-diagonal"
        );
        g
    }

    /// The CSR form of a dense affinity: its nonzero weights, bitwise.
    /// `W` is symmetric, so row `i` is read off column `i` of the
    /// column-major store.
    pub fn from_graph(g: &AffinityGraph) -> Self {
        let n = g.len();
        let mut triplets = Vec::new();
        for i in 0..n {
            for (j, &v) in g.matrix().col(i).iter().enumerate() {
                if v != 0.0 {
                    triplets.push((i, j, v));
                }
            }
        }
        Self {
            w: CsrMatrix::from_triplets(n, n, &triplets),
        }
    }

    /// Builds a symmetric k-NN affinity graph: node `i` keeps edges to the
    /// `q` nodes with the largest `similarity(i, j)`, `j != i`, weighted by
    /// that similarity, and the result is symmetrized by max. This is the
    /// TSC construction with `similarity = |cos|` of spherical distance.
    /// The per-node scans (the `O(n^2)` similarity evaluations) fan out over
    /// `threads`; the max-merge runs sequentially in node order, so the edge
    /// set and weights are bitwise identical for every thread count.
    pub fn from_knn_similarity_threaded<F>(
        n: usize,
        q: usize,
        threads: usize,
        similarity: F,
    ) -> Self
    where
        F: Fn(usize, usize) -> f64 + Sync,
    {
        let q = q.min(n.saturating_sub(1));
        let top: Vec<Vec<(f64, usize)>> = par::par_map(n, threads, |i| {
            let mut sims: Vec<(f64, usize)> = (0..n)
                .filter(|&j| j != i)
                .map(|j| (similarity(i, j), j))
                .collect();
            sims.sort_by(|a, b| b.0.total_cmp(&a.0));
            sims.truncate(q);
            sims
        });
        // Max-symmetrize into per-row sorted adjacency (duplicate-summing
        // triplets can't express "max", so merge explicitly).
        let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        let put_max = |rows: &mut Vec<Vec<(usize, f64)>>, i: usize, j: usize, s: f64| {
            let row = &mut rows[i];
            match row.binary_search_by_key(&j, |&(c, _)| c) {
                Ok(k) => {
                    if s > row[k].1 {
                        row[k].1 = s;
                    }
                }
                Err(k) => row.insert(k, (j, s)),
            }
        };
        for (i, sims) in top.iter().enumerate() {
            for &(s, j) in sims {
                if s > 0.0 {
                    let current = rows[i]
                        .binary_search_by_key(&j, |&(c, _)| c)
                        .map(|k| rows[i][k].1)
                        .unwrap_or(0.0);
                    if s > current {
                        put_max(&mut rows, i, j, s);
                        put_max(&mut rows, j, i, s);
                    }
                }
            }
        }
        let mut triplets = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            for &(j, s) in row {
                triplets.push((i, j, s));
            }
        }
        Self {
            w: CsrMatrix::from_triplets(n, n, &triplets),
        }
    }

    /// Node degrees (row sums). Bitwise the dense `AffinityGraph::degrees`:
    /// stored entries sum in ascending column order and absent zeros would
    /// contribute `+0.0`, a bitwise no-op on these non-negative partials.
    pub fn degrees(&self) -> Vec<f64> {
        self.w.row_sums()
    }

    /// Densifies into an [`AffinityGraph`], for callers that want the dense
    /// graph itself (a layer replay, test oracles); the pipeline never does.
    /// `from_symmetric`'s `0.5 * (v + v)` is exact for finite weights, so the
    /// round trip is bitwise lossless.
    pub fn to_graph(&self) -> AffinityGraph {
        AffinityGraph::from_symmetric(&self.w.to_dense())
    }

    /// The subgraph induced by `nodes`, in the given order: node `a` of the
    /// subgraph is `nodes[a]`, and its stored weights are copied bitwise.
    /// `nodes` must be distinct. Costs `O(n)` plus the lengths of the
    /// selected rows; nothing is densified.
    pub fn subgraph(&self, nodes: &[usize]) -> SparseAffinity {
        let mut slot = vec![usize::MAX; self.len()];
        for (a, &i) in nodes.iter().enumerate() {
            debug_assert_eq!(slot[i], usize::MAX, "node {i} repeated");
            slot[i] = a;
        }
        let mut triplets = Vec::new();
        for (a, &i) in nodes.iter().enumerate() {
            for (j, w) in self.w.row(i) {
                if slot[j] != usize::MAX {
                    triplets.push((a, slot[j], w));
                }
            }
        }
        Self::from_triplets(nodes.len(), &triplets)
    }

    /// Number of connected components, counting edges with `|w| > tol`
    /// (isolated nodes are singleton components). One BFS sweep over the
    /// CSR rows — `O(n + nnz)`, no densification.
    ///
    /// The spectral guard needs this: a `c`-component graph's normalized
    /// Laplacian carries an exact `c`-fold zero eigenvalue, so an
    /// eigensolver that returns fewer zeros than components has provably
    /// missed part of the degenerate cluster.
    pub fn connected_components(&self, tol: f64) -> usize {
        self.component_labels(tol)
            .iter()
            .map(|&c| c + 1)
            .max()
            .unwrap_or(0)
    }

    /// Per-node component label in `0..connected_components(tol)`, assigned
    /// in discovery order (node 0's component is label 0, the next
    /// undiscovered node starts label 1, ...). Same BFS and edge predicate
    /// as [`SparseAffinity::connected_components`].
    ///
    /// The spectral stage uses the labels to build **kernel seeds**: for
    /// each component `c` the vector `D^{1/2} 1_c` is an *exact* zero
    /// eigenvector of the normalized Laplacian, so seeding the eigensolver
    /// with them captures the full degenerate zero eigenspace of a
    /// disconnected graph by construction.
    pub fn component_labels(&self, tol: f64) -> Vec<usize> {
        let n = self.len();
        let mut label = vec![usize::MAX; n];
        let mut queue = Vec::new();
        let mut components = 0usize;
        for start in 0..n {
            if label[start] != usize::MAX {
                continue;
            }
            label[start] = components;
            queue.push(start);
            while let Some(i) = queue.pop() {
                for (j, w) in self.w.row(i) {
                    if j != i && w.abs() > tol && label[j] == usize::MAX {
                        label[j] = components;
                        queue.push(j);
                    }
                }
            }
            components += 1;
        }
        label
    }
}

/// Builds the normalized Laplacian `I - D^{-1/2} W D^{-1/2}` in CSR,
/// mirroring the dense `normalized_laplacian` arithmetic exactly: same
/// `1/sqrt(d)` scalings, same `(inv_i * w) * inv_j` product order, diagonal
/// exactly `1.0` (isolated nodes keep their identity row).
pub fn sparse_normalized_laplacian(g: &SparseAffinity) -> CsrMatrix {
    let n = g.len();
    let deg = g.degrees();
    let inv_sqrt: Vec<f64> = deg
        .iter()
        .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 })
        .collect();
    let mut triplets = Vec::with_capacity(n + g.matrix().nnz());
    for i in 0..n {
        triplets.push((i, i, 1.0));
        for (j, w) in g.matrix().row(i) {
            if i != j && w != 0.0 {
                triplets.push((i, j, -(inv_sqrt[i] * w * inv_sqrt[j])));
            }
        }
    }
    CsrMatrix::from_triplets(n, n, &triplets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laplacian::normalized_laplacian;
    use fedsc_linalg::Matrix;

    /// Sparse codes and the equivalent dense coefficient matrix.
    fn sample_codes() -> (Vec<SparseVec>, Matrix) {
        let n = 6;
        let entries: [&[(usize, f64)]; 6] = [
            &[(1, 0.8), (2, -0.3)],
            &[(0, 0.7), (3, 0.1)],
            &[(0, -0.4), (4, 0.9)],
            &[(1, 0.2), (5, -0.6)],
            &[(2, 0.5)],
            &[(3, -0.75), (4, 0.05)],
        ];
        let mut dense = Matrix::zeros(n, n);
        let codes = entries
            .iter()
            .enumerate()
            .map(|(i, row)| {
                let mut idx = Vec::new();
                let mut val = Vec::new();
                for &(j, v) in row.iter() {
                    dense[(j, i)] = v;
                    idx.push(j);
                    val.push(v);
                }
                SparseVec::from_parts(n, idx, val)
            })
            .collect();
        (codes, dense)
    }

    #[test]
    fn from_codes_matches_dense_affinity_bitwise() {
        let (codes, dense) = sample_codes();
        let sparse = SparseAffinity::from_codes(&codes);
        let g = AffinityGraph::from_coefficients(&dense);
        for i in 0..6 {
            for j in 0..6 {
                assert_eq!(
                    sparse.weight(i, j).to_bits(),
                    g.weight(i, j).to_bits(),
                    "entry ({i},{j})"
                );
            }
        }
        assert_eq!(sparse.degrees(), g.degrees());
    }

    #[test]
    fn sparse_laplacian_matches_dense_bitwise() {
        let (codes, dense) = sample_codes();
        let sparse = SparseAffinity::from_codes(&codes);
        let lap_sparse = sparse_normalized_laplacian(&sparse);
        let lap_dense = normalized_laplacian(&AffinityGraph::from_coefficients(&dense));
        for i in 0..6 {
            for j in 0..6 {
                assert_eq!(
                    lap_sparse.get(i, j).to_bits(),
                    lap_dense[(i, j)].to_bits(),
                    "Laplacian entry ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn to_graph_round_trips_bitwise() {
        let (codes, _) = sample_codes();
        let sparse = SparseAffinity::from_codes(&codes);
        let g = sparse.to_graph();
        for i in 0..6 {
            for j in 0..6 {
                assert_eq!(g.weight(i, j).to_bits(), sparse.weight(i, j).to_bits());
            }
        }
    }

    #[test]
    fn from_graph_round_trips_bitwise() {
        let (_, dense) = sample_codes();
        let g = AffinityGraph::from_coefficients(&dense);
        let sparse = SparseAffinity::from_graph(&g);
        assert_eq!(sparse.matrix().nnz(), 12);
        for i in 0..6 {
            for j in 0..6 {
                assert_eq!(sparse.weight(i, j).to_bits(), g.weight(i, j).to_bits());
            }
        }
    }

    #[test]
    fn isolated_node_keeps_identity_row() {
        let codes = vec![
            SparseVec::from_parts(3, vec![1], vec![0.5]),
            SparseVec::from_parts(3, vec![0], vec![0.5]),
            SparseVec::from_parts(3, vec![], vec![]),
        ];
        let sparse = SparseAffinity::from_codes(&codes);
        let lap = sparse_normalized_laplacian(&sparse);
        assert_eq!(lap.get(2, 2), 1.0);
        assert_eq!(lap.get(2, 0), 0.0);
    }

    #[test]
    fn connected_components_counts_blocks_and_singletons() {
        // Two 2-cliques plus an isolated node: 3 components, one of which
        // is a degree-0 singleton.
        let codes = vec![
            SparseVec::from_parts(5, vec![1], vec![0.5]),
            SparseVec::from_parts(5, vec![0], vec![0.5]),
            SparseVec::from_parts(5, vec![3], vec![0.5]),
            SparseVec::from_parts(5, vec![2], vec![0.5]),
            SparseVec::from_parts(5, vec![], vec![]),
        ];
        let sparse = SparseAffinity::from_codes(&codes);
        assert_eq!(sparse.connected_components(0.0), 3);
        assert_eq!(sparse.component_labels(0.0), vec![0, 0, 1, 1, 2]);
        // A tolerance above the edge weight disconnects everything.
        assert_eq!(sparse.connected_components(2.0), 5);
        assert_eq!(sparse.component_labels(2.0), vec![0, 1, 2, 3, 4]);
        // Empty graph: zero components.
        assert_eq!(SparseAffinity::from_codes(&[]).connected_components(0.0), 0);
        assert!(SparseAffinity::from_codes(&[])
            .component_labels(0.0)
            .is_empty());
    }

    /// The dense k-NN construction, the oracle for the CSR one: per-node
    /// top-`q` lists, max-symmetrized into an `n x n` store in node order.
    fn dense_knn(n: usize, q: usize, sim: impl Fn(usize, usize) -> f64) -> Matrix {
        let q = q.min(n.saturating_sub(1));
        let mut w = Matrix::zeros(n, n);
        for i in 0..n {
            let mut sims: Vec<(f64, usize)> =
                (0..n).filter(|&j| j != i).map(|j| (sim(i, j), j)).collect();
            sims.sort_by(|a, b| b.0.total_cmp(&a.0));
            sims.truncate(q);
            for (s, j) in sims {
                if s > 0.0 && s > w[(i, j)] {
                    w[(i, j)] = s;
                    w[(j, i)] = s;
                }
            }
        }
        w
    }

    #[test]
    fn sparse_knn_matches_dense_knn_bitwise() {
        let sim = |i: usize, j: usize| 1.0 / (1.0 + (i as f64 - j as f64).abs());
        let dense = dense_knn(7, 2, sim);
        for threads in [1usize, 4] {
            let sparse = SparseAffinity::from_knn_similarity_threaded(7, 2, threads, sim);
            for i in 0..7 {
                for j in 0..7 {
                    assert_eq!(
                        sparse.weight(i, j).to_bits(),
                        dense[(i, j)].to_bits(),
                        "knn entry ({i},{j}), {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn knn_keeps_top_q() {
        // similarity = 1/(1+|i-j|): nearest indices are most similar.
        let g = SparseAffinity::from_knn_similarity_threaded(5, 1, 1, |i, j| {
            1.0 / (1.0 + (i as f64 - j as f64).abs())
        });
        // Node 0's best neighbor is 1.
        assert!(g.weight(0, 1) > 0.0);
        assert_eq!(g.weight(0, 3), 0.0);
        // Symmetry.
        assert_eq!(g.weight(1, 0), g.weight(0, 1));
    }

    fn from_rows(rows: &[&[f64]]) -> SparseAffinity {
        SparseAffinity::from_graph(&AffinityGraph::from_symmetric(
            &Matrix::from_rows(rows).unwrap(),
        ))
    }

    #[test]
    fn connected_components_two_blocks() {
        let g = from_rows(&[
            &[0.0, 1.0, 0.0, 0.0],
            &[1.0, 0.0, 0.0, 0.0],
            &[0.0, 0.0, 0.0, 2.0],
            &[0.0, 0.0, 2.0, 0.0],
        ]);
        let comp = g.component_labels(0.0);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[2], comp[3]);
        assert_ne!(comp[0], comp[2]);
        assert_eq!(g.connected_components(0.0), 2);
    }

    #[test]
    fn eps_threshold_cuts_weak_edges() {
        let g = from_rows(&[&[0.0, 0.1], &[0.1, 0.0]]);
        assert_eq!(g.connected_components(0.0), 1);
        assert_eq!(g.connected_components(0.5), 2);
    }

    #[test]
    fn subgraph_extracts_block() {
        let g = from_rows(&[&[0.0, 1.0, 2.0], &[1.0, 0.0, 3.0], &[2.0, 3.0, 0.0]]);
        let sub = g.subgraph(&[0, 2]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.weight(0, 1), 2.0);
        // Node order follows `nodes`, and weights are copied bitwise.
        let rev = g.subgraph(&[2, 1, 0]);
        for (a, &i) in [2usize, 1, 0].iter().enumerate() {
            for (b, &j) in [2usize, 1, 0].iter().enumerate() {
                assert_eq!(rev.weight(a, b).to_bits(), g.weight(i, j).to_bits());
            }
        }
        assert!(g.subgraph(&[]).is_empty());
    }

    #[test]
    fn empty_graph_has_no_components() {
        let g = SparseAffinity::from_graph(&AffinityGraph::from_symmetric(&Matrix::zeros(0, 0)));
        assert!(g.is_empty());
        assert_eq!(g.connected_components(0.0), 0);
    }
}
