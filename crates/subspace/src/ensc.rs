//! EnSC — Elastic-net Subspace Clustering with the ORGEN oracle active-set
//! solver (You, Li, Robinson & Vidal, CVPR 2016). Trades a little sparsity
//! for much better graph connectivity.

use crate::algo::{normalize_data, SubspaceClusterer};
use fedsc_graph::SparseAffinity;
use fedsc_linalg::{par, Matrix, Result};
use fedsc_sparse::elastic_net::{ElasticNetOptions, ElasticNetSolver};
use fedsc_sparse::SparseVec;

/// EnSC configuration.
#[derive(Debug, Clone)]
pub struct Ensc {
    /// Elastic-net solver options (`lambda` mixes l1/l2, `gamma` is the
    /// data-fidelity weight).
    pub elastic: ElasticNetOptions,
    /// Normalize columns before coding.
    pub normalize: bool,
    /// Worker threads for the Gram product and the per-point elastic-net
    /// solves. The coefficients are bitwise identical for every value.
    pub threads: usize,
}

impl Default for Ensc {
    fn default() -> Self {
        Self {
            elastic: ElasticNetOptions::default(),
            normalize: true,
            threads: 1,
        }
    }
}

impl Ensc {
    /// Per-point elastic-net self-expression codes: `codes[i]` is column
    /// `i` of the coefficient matrix `C` (no entry at `i`).
    ///
    /// The per-point ORGEN solves are independent, so like SSC's they fan
    /// out over the worker pool, and the codes are bitwise identical for
    /// every thread count.
    pub fn codes(&self, data: &Matrix) -> Result<Vec<SparseVec>> {
        let x = if self.normalize {
            normalize_data(data)
        } else {
            data.clone()
        };
        let n = x.cols();
        let threads = self.threads.max(1);
        let gram = x.gram_threaded(threads);
        let solver = ElasticNetSolver::new(&gram, self.elastic.clone());
        par::par_map(n, threads, |i| solver.solve(gram.col(i), i))
            .into_iter()
            .collect()
    }
}

impl SubspaceClusterer for Ensc {
    fn name(&self) -> &'static str {
        "EnSC"
    }

    fn sparse_affinity(&self, data: &Matrix) -> Result<SparseAffinity> {
        Ok(SparseAffinity::from_codes(&self.codes(data)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SubspaceModel;
    use crate::ssc::Ssc;
    use fedsc_clustering::clustering_accuracy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn clusters_well_separated_subspaces() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = SubspaceModel::random(&mut rng, 30, 3, 3);
        let ds = model.sample_dataset(&mut rng, &[15, 15, 15], 0.0);
        let labels = Ensc::default().cluster(&ds.data, 3, &mut rng).unwrap();
        let acc = clustering_accuracy(&ds.labels, &labels);
        assert!(acc > 90.0, "accuracy {acc}");
    }

    #[test]
    fn denser_codes_than_ssc() {
        // The ridge term spreads weight: EnSC affinities should have at
        // least as many edges as SSC's on the same data.
        let mut rng = StdRng::seed_from_u64(2);
        let model = SubspaceModel::random(&mut rng, 20, 3, 2);
        let ds = model.sample_dataset(&mut rng, &[15, 15], 0.0);
        let count_edges = |g: &fedsc_graph::AffinityGraph| {
            let n = g.len();
            let mut e = 0usize;
            for i in 0..n {
                for j in 0..i {
                    if g.weight(i, j) > 1e-8 {
                        e += 1;
                    }
                }
            }
            e
        };
        let en = Ensc {
            elastic: ElasticNetOptions {
                lambda: 0.5,
                gamma: 50.0,
                ..Default::default()
            },
            ..Default::default()
        };
        let e_en = count_edges(&en.affinity(&ds.data).unwrap());
        let e_ssc = count_edges(&Ssc::default().affinity(&ds.data).unwrap());
        assert!(e_en >= e_ssc, "EnSC edges {e_en} vs SSC edges {e_ssc}");
    }

    #[test]
    fn codes_bitwise_invariant_to_thread_count() {
        let mut rng = StdRng::seed_from_u64(4);
        let model = SubspaceModel::random(&mut rng, 20, 3, 2);
        let ds = model.sample_dataset(&mut rng, &[14, 14], 0.01);
        let serial = Ensc::default().codes(&ds.data).unwrap();
        for threads in [2usize, 8] {
            let en = Ensc {
                threads,
                ..Default::default()
            };
            let par = en.codes(&ds.data).unwrap();
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn diagonal_stays_zero() {
        let mut rng = StdRng::seed_from_u64(3);
        let model = SubspaceModel::random(&mut rng, 15, 2, 2);
        let ds = model.sample_dataset(&mut rng, &[8, 8], 0.0);
        let codes = Ensc::default().codes(&ds.data).unwrap();
        for (i, code) in codes.iter().enumerate() {
            assert!(code.iter().all(|(j, _)| j != i), "code {i} uses itself");
        }
    }
}
