//! The traced per-layer split of one round.
//!
//! Device layers come from the spans the program already records inside
//! Algorithm 2 (`local.affinity`, `local.eigengap`, `local.spectral`,
//! `local.basis_sample`). The server and link layers have no spans inside
//! the program, so this module calls into each of them itself, under its own
//! `bench` spans, on the very sample pool the round produced: the Gram
//! product, the SSC self-expression, the normalized Laplacian, the
//! eigensolve, k-means, and the uplink/downlink codec and transport.

use bytes::Bytes;
use fedsc::{FedScConfig, FedScOutput, SERVER_RNG_SALT};
use fedsc_clustering::kmeans::{kmeans, KMeansOptions};
use fedsc_clustering::spectral::SpectralOptions;
use fedsc_federated::channel::{DownlinkMessage, UplinkMessage};
use fedsc_graph::laplacian::normalized_laplacian;
use fedsc_linalg::eigh::k_smallest;
use fedsc_linalg::{vector, LinalgError, Matrix, Result};
use fedsc_obs::trace::SpanEvent;
use fedsc_subspace::{CandidateOptions, Ssc, SubspaceClusterer};
use fedsc_transport::{DeviceTransport, InMemoryTransport, ServerTransport, Transport};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::Duration;

/// Total span time per span name, in nanoseconds, plus the longest single
/// span of each name.
#[derive(Default)]
pub struct Folded {
    pub total_ns: BTreeMap<&'static str, u64>,
    pub max_ns: BTreeMap<&'static str, u64>,
}

impl Folded {
    pub fn ms(&self, name: &str) -> f64 {
        self.total_ns.get(name).copied().unwrap_or(0) as f64 / 1e6
    }

    pub fn max_ms(&self, name: &str) -> f64 {
        self.max_ns.get(name).copied().unwrap_or(0) as f64 / 1e6
    }
}

pub fn fold(events: &[SpanEvent]) -> Folded {
    let mut f = Folded::default();
    for ev in events {
        *f.total_ns.entry(ev.name).or_default() += ev.dur_ns;
        let m = f.max_ns.entry(ev.name).or_default();
        *m = (*m).max(ev.dur_ns);
    }
    f
}

/// Re-runs the server's central clustering on the round's pooled samples
/// layer by layer, exactly as the dense route of `central_cluster` does,
/// and returns the assignments it reaches (equal to the round's own when
/// the split mirrors the program).
pub fn server_split(samples: &Matrix, cfg: &FedScConfig) -> Result<Vec<usize>> {
    let ssc = Ssc {
        candidates: Some(CandidateOptions {
            min_points: cfg.candidate_threshold,
            ..CandidateOptions::default()
        }),
        ..Ssc::default()
    };
    let n = samples.cols();
    let opts = SpectralOptions::new(cfg.num_clusters);
    let k = opts.k.clamp(1, n.max(1));
    {
        // The Gram product the dense self-expression starts from; the
        // `server.affinity` span below includes it again, so the Lasso
        // layer is reported as the difference.
        let _s = fedsc_obs::span("bench", "server.gram");
        std::hint::black_box(fedsc_subspace::algo::normalize_data(samples).gram_threaded(1));
    }
    let graph = {
        let _s = fedsc_obs::span("bench", "server.affinity");
        ssc.affinity(samples)?
    };
    let lap = {
        let _s = fedsc_obs::span("bench", "server.laplacian");
        normalized_laplacian(&graph)
    };
    let eig = {
        let _s = fedsc_obs::span("bench", "server.eigensolve");
        k_smallest(&lap, k)?
    };
    let _s = fedsc_obs::span("bench", "server.kmeans");
    let mut emb = Matrix::zeros(k, n);
    for node in 0..n {
        for c in 0..k {
            emb[(c, node)] = eig.eigenvectors[(node, c)];
        }
        vector::normalize(emb.col_mut(node), 1e-12);
    }
    let km = KMeansOptions {
        k,
        ..opts.kmeans.clone()
    };
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ SERVER_RNG_SALT);
    Ok(kmeans(&emb, &km, &mut rng).labels)
}

fn link_err(_: fedsc_transport::TransportError) -> LinalgError {
    LinalgError::InvalidArgument("in-memory link failed")
}

/// Sends the round's uplinks and downlinks through the codec and the
/// lossless in-memory transport, one device after another, and checks that
/// the server decodes exactly the pool the round clustered. Returns the
/// bytes both ways.
pub fn link_split(out: &FedScOutput, devices: usize) -> Result<usize> {
    let wait = Duration::from_secs(10);
    let (mut server, mut links) = InMemoryTransport.open(devices).map_err(link_err)?;
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); devices];
    for (s, &z) in out.sample_device.iter().enumerate() {
        members[z].push(s);
    }
    let uplinks: Vec<Bytes> = {
        let _s = fedsc_obs::span("bench", "link.encode");
        members
            .iter()
            .map(|idx| {
                UplinkMessage {
                    dim: out.samples.rows(),
                    samples: out.samples.select_columns(idx),
                }
                .encode()
            })
            .collect()
    };
    let mut received: Vec<Bytes> = vec![Bytes::new(); devices];
    {
        let _s = fedsc_obs::span("bench", "link.transport");
        for (link, payload) in links.iter_mut().zip(&uplinks) {
            link.send_uplink(payload).map_err(link_err)?;
        }
        for _ in 0..devices {
            let (z, bytes) = server.recv_uplink(wait).map_err(link_err)?;
            received[z] = bytes;
        }
    }
    let (pooled, downlinks) = {
        let _s = fedsc_obs::span("bench", "link.encode");
        let mut mats = Vec::with_capacity(devices);
        for bytes in received {
            let msg = UplinkMessage::decode(bytes)
                .ok_or(LinalgError::InvalidArgument("undecodable uplink"))?;
            mats.push(msg.samples);
        }
        let refs: Vec<&Matrix> = mats.iter().collect();
        let downlinks: Vec<Bytes> = members
            .iter()
            .map(|idx| {
                let assignments = idx
                    .iter()
                    .map(|&s| out.sample_assignment[s] as u32)
                    .collect();
                DownlinkMessage { assignments }.encode()
            })
            .collect();
        (Matrix::hcat(&refs)?, downlinks)
    };
    if pooled.as_slice() != out.samples.as_slice() {
        return Err(LinalgError::InvalidArgument(
            "decoded uplinks differ from the pooled samples",
        ));
    }
    let replies = {
        let _s = fedsc_obs::span("bench", "link.transport");
        for (z, payload) in downlinks.iter().enumerate() {
            server.send_downlink(z, payload).map_err(link_err)?;
        }
        links
            .iter_mut()
            .map(|link| link.recv_downlink(wait).map_err(link_err))
            .collect::<Result<Vec<Bytes>>>()?
    };
    {
        let _s = fedsc_obs::span("bench", "link.encode");
        for (idx, bytes) in members.iter().zip(replies) {
            let msg = DownlinkMessage::decode(bytes)
                .ok_or(LinalgError::InvalidArgument("undecodable downlink"))?;
            if msg.assignments.len() != idx.len() {
                return Err(LinalgError::InvalidArgument("downlink length mismatch"));
            }
        }
    }
    let stats = server.stats();
    Ok(stats.bytes_received + stats.bytes_sent)
}
