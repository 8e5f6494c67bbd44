//! The SSC routes' trace layers. Alone in its test binary, with a single
//! test: the span recorder is process-global, so two tests recording at
//! once would see each other's spans.

// Test code: a panic is a test failure, so unwrap is the idiom here
// (clippy's allow-unwrap-in-tests does not reach integration-test helpers).
#![allow(clippy::unwrap_used)]

use fedsc_obs::trace;
use fedsc_subspace::{CandidateOptions, Ssc, SubspaceModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs `ssc.codes` under a caller span and returns how many spans of each
/// name in `names` landed directly under it.
fn spans_under_caller(ssc: &Ssc, data: &fedsc_linalg::Matrix, names: &[&str]) -> Vec<usize> {
    trace::install_ring(1 << 10);
    let caller = fedsc_obs::span("test", "caller");
    let caller_id = caller.id();
    let codes = ssc.codes(data).unwrap();
    drop(caller);
    let events = trace::uninstall();

    assert_eq!(codes.len(), data.cols());
    names
        .iter()
        .map(|name| {
            events
                .iter()
                .filter(|e| e.name == *name && e.parent == caller_id)
                .count()
        })
        .collect()
}

#[test]
fn both_routes_record_their_layer_spans_under_the_caller() {
    let mut rng = StdRng::seed_from_u64(3);
    let model = SubspaceModel::random(&mut rng, 20, 3, 3);
    let ds = model.sample_dataset(&mut rng, &[14, 14, 14], 0.01);
    let names = ["ssc.gram", "ssc.sketch", "ssc.lasso", "ssc.certify"];

    // Exact route: one Gram product, one sweep of per-point solves.
    let exact = Ssc::default();
    assert!(!exact.uses_candidates(ds.data.cols()));
    assert_eq!(spans_under_caller(&exact, &ds.data, &names), [1, 0, 1, 0]);

    // Candidate route, forced on this small pool: sketch selection, the
    // restricted solves, then verification with escalation.
    let cand = Ssc {
        candidates: Some(CandidateOptions {
            k: 12,
            sketch_dim: 16,
            min_points: 0,
            ..CandidateOptions::default()
        }),
        ..Ssc::default()
    };
    assert!(cand.uses_candidates(ds.data.cols()));
    assert_eq!(spans_under_caller(&cand, &ds.data, &names), [0, 1, 1, 1]);
}
