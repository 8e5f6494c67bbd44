//! The exact SSC route's trace layers. Alone in its test binary: the span
//! recorder is process-global.

// Test code: a panic is a test failure, so unwrap is the idiom here
// (clippy's allow-unwrap-in-tests does not reach integration-test helpers).
#![allow(clippy::unwrap_used)]

use fedsc_obs::trace;
use fedsc_subspace::{Ssc, SubspaceModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn exact_codes_record_gram_and_lasso_spans_under_the_caller() {
    let mut rng = StdRng::seed_from_u64(3);
    let model = SubspaceModel::random(&mut rng, 20, 3, 3);
    let ds = model.sample_dataset(&mut rng, &[14, 14, 14], 0.01);
    let ssc = Ssc::default();
    assert!(!ssc.uses_candidates(ds.data.cols()));

    trace::install_ring(1 << 10);
    let caller = fedsc_obs::span("test", "caller");
    let caller_id = caller.id();
    let codes = ssc.codes(&ds.data).unwrap();
    drop(caller);
    let events = trace::uninstall();

    assert_eq!(codes.len(), ds.data.cols());
    for name in ["ssc.gram", "ssc.lasso"] {
        let under: Vec<_> = events
            .iter()
            .filter(|e| e.name == name && e.parent == caller_id)
            .collect();
        assert_eq!(under.len(), 1, "{name} spans under the caller: {events:?}");
    }
}
