//! Lloyd's k-means with k-means++ and farthest-point initialization.
//!
//! Three consumers in this workspace: the final step of normalized spectral
//! clustering (on Laplacian-embedding rows), the k-FED baseline's local
//! clustering, and k-FED's server-side aggregation (which uses
//! farthest-point seeding per Dennis et al.).

use fedsc_linalg::{vector, Matrix};
use rand::{Rng, RngExt as _};

/// Initialization strategy for the centroids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KMeansInit {
    /// k-means++: D^2-weighted random seeding (Arthur & Vassilvitskii).
    PlusPlus,
    /// Deterministic-after-first-pick farthest-point traversal — the
    /// seeding used by k-FED's server aggregation (Awasthi–Sheffet style).
    FarthestPoint,
}

/// Lloyd iterations per run.
const MAX_ITERS: usize = 100;

/// A run stops once the total centroid movement drops below this.
const MOVEMENT_TOL: f64 = 1e-9;

/// Options for Lloyd's iterations.
#[derive(Debug, Clone)]
pub struct KMeansOptions {
    /// Number of clusters.
    pub k: usize,
    /// Seeding strategy.
    pub init: KMeansInit,
    /// Number of random restarts; the run with the lowest inertia wins.
    pub restarts: usize,
}

impl Default for KMeansOptions {
    fn default() -> Self {
        Self {
            k: 2,
            init: KMeansInit::PlusPlus,
            restarts: 3,
        }
    }
}

/// Result of a k-means run.
#[derive(Debug, Clone)]
#[must_use = "dropping a k-means result discards the clustering"]
pub struct KMeansResult {
    /// Cluster label per point (column of the input).
    pub labels: Vec<usize>,
    /// Centroids as columns (`dim x k`).
    pub centroids: Matrix,
    /// Sum of squared distances to assigned centroids.
    pub inertia: f64,
}

/// Runs k-means over the columns of `data` (`dim x n`).
///
/// When `n < k` every point becomes its own cluster and the remaining
/// centroids are empty duplicates of the last point — callers in the
/// federated pipeline guard against that but the behavior is still defined.
pub fn kmeans<R: Rng + ?Sized>(data: &Matrix, opts: &KMeansOptions, rng: &mut R) -> KMeansResult {
    let n = data.cols();
    let k = opts.k.max(1);
    if n == 0 {
        return KMeansResult {
            labels: vec![],
            centroids: Matrix::zeros(data.rows(), 0),
            inertia: 0.0,
        };
    }
    let restarts = opts.restarts.max(1);
    let mut best = kmeans_once(data, k.min(n), opts, rng);
    for _ in 1..restarts {
        let run = kmeans_once(data, k.min(n), opts, rng);
        if run.inertia < best.inertia {
            best = run;
        }
    }
    best
}

fn kmeans_once<R: Rng + ?Sized>(
    data: &Matrix,
    k: usize,
    opts: &KMeansOptions,
    rng: &mut R,
) -> KMeansResult {
    let n = data.cols();
    let dim = data.rows();
    let mut centroids = match opts.init {
        KMeansInit::PlusPlus => init_plus_plus(data, k, rng),
        KMeansInit::FarthestPoint => init_farthest(data, k, rng),
    };
    let mut labels = vec![0usize; n];
    let mut inertia = f64::INFINITY;
    for _ in 0..MAX_ITERS {
        // Assignment step.
        inertia = 0.0;
        for j in 0..n {
            let p = data.col(j);
            let mut best_c = 0usize;
            let mut best_d = f64::INFINITY;
            for c in 0..k {
                let d = vector::dist2_sq(p, centroids.col(c));
                if d < best_d {
                    best_d = d;
                    best_c = c;
                }
            }
            labels[j] = best_c;
            inertia += best_d;
        }
        // Update step.
        let mut sums = Matrix::zeros(dim, k);
        let mut counts = vec![0usize; k];
        for j in 0..n {
            let c = labels[j];
            counts[c] += 1;
            vector::axpy(1.0, data.col(j), sums.col_mut(c));
        }
        let mut movement = 0.0;
        for c in 0..k {
            if counts[c] == 0 {
                // Re-seed an empty cluster at the point farthest from its
                // centroid (standard empty-cluster repair).
                let far = (0..n)
                    .max_by(|&a, &b| {
                        let da = vector::dist2_sq(data.col(a), centroids.col(labels[a]));
                        let db = vector::dist2_sq(data.col(b), centroids.col(labels[b]));
                        da.total_cmp(&db)
                    })
                    .unwrap_or(0);
                sums.col_mut(c).copy_from_slice(data.col(far));
                counts[c] = 1;
            }
            let inv = 1.0 / counts[c] as f64;
            let new_c: Vec<f64> = sums.col(c).iter().map(|v| v * inv).collect();
            movement += vector::dist2_sq(&new_c, centroids.col(c));
            centroids.col_mut(c).copy_from_slice(&new_c);
        }
        if movement < MOVEMENT_TOL {
            break;
        }
    }
    KMeansResult {
        labels,
        centroids,
        inertia,
    }
}

fn init_plus_plus<R: Rng + ?Sized>(data: &Matrix, k: usize, rng: &mut R) -> Matrix {
    let n = data.cols();
    let mut centroids = Matrix::zeros(data.rows(), k);
    let first = rng.random_range(0..n);
    centroids.col_mut(0).copy_from_slice(data.col(first));
    let mut d2: Vec<f64> = (0..n)
        .map(|j| vector::dist2_sq(data.col(j), centroids.col(0)))
        .collect();
    for c in 1..k {
        let total: f64 = d2.iter().sum();
        let pick = if total <= 0.0 {
            rng.random_range(0..n)
        } else {
            let mut target = rng.random::<f64>() * total;
            let mut chosen = n - 1;
            for (j, &w) in d2.iter().enumerate() {
                target -= w;
                if target <= 0.0 {
                    chosen = j;
                    break;
                }
            }
            chosen
        };
        centroids.col_mut(c).copy_from_slice(data.col(pick));
        for (j, d) in d2.iter_mut().enumerate() {
            *d = d.min(vector::dist2_sq(data.col(j), centroids.col(c)));
        }
    }
    centroids
}

fn init_farthest<R: Rng + ?Sized>(data: &Matrix, k: usize, rng: &mut R) -> Matrix {
    let n = data.cols();
    let mut centroids = Matrix::zeros(data.rows(), k);
    let first = rng.random_range(0..n);
    centroids.col_mut(0).copy_from_slice(data.col(first));
    let mut d2: Vec<f64> = (0..n)
        .map(|j| vector::dist2_sq(data.col(j), centroids.col(0)))
        .collect();
    for c in 1..k {
        let far = d2
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(j, _)| j)
            .unwrap_or(0);
        centroids.col_mut(c).copy_from_slice(data.col(far));
        for (j, d) in d2.iter_mut().enumerate() {
            *d = d.min(vector::dist2_sq(data.col(j), centroids.col(c)));
        }
    }
    centroids
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn two_blobs() -> Matrix {
        // Tight blobs around (0,0) and (10,10).
        Matrix::from_columns(&[
            &[0.0, 0.1],
            &[0.1, 0.0],
            &[-0.1, 0.05],
            &[10.0, 10.1],
            &[10.1, 9.9],
            &[9.9, 10.0],
        ])
        .unwrap()
    }

    #[test]
    fn separates_two_blobs() {
        let data = two_blobs();
        let mut rng = StdRng::seed_from_u64(1);
        let res = kmeans(
            &data,
            &KMeansOptions {
                k: 2,
                ..Default::default()
            },
            &mut rng,
        );
        assert_eq!(res.labels[0], res.labels[1]);
        assert_eq!(res.labels[0], res.labels[2]);
        assert_eq!(res.labels[3], res.labels[4]);
        assert_eq!(res.labels[3], res.labels[5]);
        assert_ne!(res.labels[0], res.labels[3]);
        assert!(res.inertia < 0.2);
    }

    #[test]
    fn farthest_point_seeding_also_works() {
        let data = two_blobs();
        let mut rng = StdRng::seed_from_u64(2);
        let opts = KMeansOptions {
            k: 2,
            init: KMeansInit::FarthestPoint,
            ..Default::default()
        };
        let res = kmeans(&data, &opts, &mut rng);
        assert_ne!(res.labels[0], res.labels[3]);
    }

    #[test]
    fn k_equals_one_returns_mean() {
        let data = Matrix::from_columns(&[&[0.0], &[2.0], &[4.0]]).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let res = kmeans(
            &data,
            &KMeansOptions {
                k: 1,
                ..Default::default()
            },
            &mut rng,
        );
        assert!((res.centroids[(0, 0)] - 2.0).abs() < 1e-9);
        assert!(res.labels.iter().all(|&l| l == 0));
    }

    #[test]
    fn more_clusters_than_points_is_defined() {
        let data = Matrix::from_columns(&[&[0.0], &[5.0]]).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let res = kmeans(
            &data,
            &KMeansOptions {
                k: 5,
                ..Default::default()
            },
            &mut rng,
        );
        assert_eq!(res.labels.len(), 2);
        assert!(res.inertia < 1e-9);
    }

    #[test]
    fn empty_input() {
        let data = Matrix::zeros(3, 0);
        let mut rng = StdRng::seed_from_u64(5);
        let res = kmeans(&data, &KMeansOptions::default(), &mut rng);
        assert!(res.labels.is_empty());
    }

    #[test]
    fn inertia_never_worse_with_more_restarts() {
        let data = two_blobs();
        let few = {
            let mut rng = StdRng::seed_from_u64(6);
            kmeans(
                &data,
                &KMeansOptions {
                    k: 2,
                    restarts: 1,
                    ..Default::default()
                },
                &mut rng,
            )
            .inertia
        };
        let many = {
            let mut rng = StdRng::seed_from_u64(6);
            kmeans(
                &data,
                &KMeansOptions {
                    k: 2,
                    restarts: 8,
                    ..Default::default()
                },
                &mut rng,
            )
            .inertia
        };
        assert!(many <= few + 1e-12);
    }
}
