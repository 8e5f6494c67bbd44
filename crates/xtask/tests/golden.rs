//! Golden-file tests for `cargo xtask audit`.
//!
//! Each fixture under `tests/fixtures/` seeds violations of one rule
//! family; its `.expected` sibling holds the `file:line: [rule]` output the
//! engine must produce (file-level findings render without a line). The
//! fixtures are never compiled — they live outside `src/`, so the audit's
//! own workspace walk never sees them either. The fixtures are the
//! engine's specification: an edit that changes an `.expected` file
//! changes the policy.

use xtask::report::Diagnostic;
use xtask::rules::{audit_source, detect_lock_cycles, Allowlist, Profile};

/// Audits fixture `source` as `label` and renders every diagnostic —
/// including global lock-cycle findings — as `file[:line]: [rule]`.
fn run_fixture(label: &str, source: &str, allow: &Allowlist) -> Vec<String> {
    let out = audit_source(label, source, Profile::Strict, allow);
    let mut diags = out.diagnostics;
    diags.extend(detect_lock_cycles(&out.lock_edges));
    diags.sort_by(|a, b| (a.line, a.rule, &a.message).cmp(&(b.line, b.rule, &b.message)));
    diags.iter().map(render).collect()
}

fn render(d: &Diagnostic) -> String {
    if d.line == 0 {
        format!("{}: [{}]", d.file, d.rule)
    } else {
        format!("{}:{}: [{}]", d.file, d.line, d.rule)
    }
}

fn check_fixture(name: &str, label: &str, source: &str, expected: &str, allow: &Allowlist) {
    let got = run_fixture(label, source, allow);
    let want: Vec<String> = expected
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .map(str::to_string)
        .collect();
    assert_eq!(got, want, "fixture `{name}` diverged from its .expected");
}

macro_rules! golden {
    ($test:ident, $name:literal, $label:literal) => {
        golden!($test, $name, $label, Allowlist::default());
    };
    ($test:ident, $name:literal, $label:literal, $allow:expr) => {
        #[test]
        fn $test() {
            check_fixture(
                $name,
                $label,
                include_str!(concat!("fixtures/", $name, ".rs")),
                include_str!(concat!("fixtures/", $name, ".expected")),
                &$allow,
            );
        }
    };
}

golden!(
    rule1_panic_fixture,
    "rule1_panic",
    "crates/linalg/src/fixture.rs",
    // One entry: the fixture's final `.unwrap()` carries an INVARIANT
    // justification and must reconcile cleanly, not fire.
    Allowlist::parse("crates/linalg/src/fixture.rs 1\n")
);
golden!(
    rule2_rng_fixture,
    "rule2_rng",
    "crates/linalg/src/fixture.rs"
);
golden!(
    rule3_timing_fixture,
    "rule3_timing",
    "crates/subspace/src/fixture.rs"
);
golden!(
    rule4_must_use_fixture,
    "rule4_must_use",
    "crates/linalg/src/fixture.rs"
);
golden!(
    rule5_socket_fixture,
    "rule5_socket",
    "crates/core/src/fixture.rs"
);
golden!(
    rule5_timeouts_fixture,
    "rule5_timeouts",
    "crates/transport/src/fixture.rs"
);
golden!(
    rule6_spawn_fixture,
    "rule6_spawn",
    "crates/federated/src/fixture.rs"
);
golden!(
    rule8_ordering_fixture,
    "rule8_ordering",
    "crates/obs/src/fixture.rs"
);
golden!(
    rule9_lock_fixture,
    "rule9_lock",
    "crates/linalg/src/fixture.rs"
);
