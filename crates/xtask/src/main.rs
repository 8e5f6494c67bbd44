//! `cargo xtask` — workspace static-analysis driver.
//!
//! `cargo xtask audit` walks every `crates/*/src` tree (plus the root
//! `src/`; the list is read off the tree, and only `crates/bench/src` runs
//! the relaxed profile) through the token-level rule engine (`xtask::rules`) and
//! enforces the domain-specific correctness rules the stock toolchain
//! cannot express (see `DESIGN.md`, "Correctness & lint policy"):
//!
//! 1. **Panic freedom** — no `unwrap()` / `expect()` / `panic!` /
//!    `unreachable!` / `todo!` / `unimplemented!` in non-test library
//!    code. The few justified sites carry a `// INVARIANT:` comment and an
//!    exact-count entry in `crates/xtask/panic-allowlist.txt`.
//! 2. **Deterministic randomness** — no `thread_rng` / `from_entropy` /
//!    `OsRng` / `getrandom`, and no `HashMap` / `HashSet`
//!    (nondeterministic iteration order). All randomness flows from
//!    caller-provided seeds.
//! 3. **Sanctioned timing** — `Instant` / `SystemTime` only inside
//!    `crates/obs/src` and `transport/src/timing.rs`.
//! 4. **Unignorable results** — solver/decomposition result structs are
//!    `#[must_use]`; solver entry points return `Result` or `#[must_use]`.
//! 5. **Socket hygiene** — raw socket types only inside
//!    `crates/transport/src`, with both socket timeouts armed.
//! 6. **Spawn confinement** — thread creation only in the scoped fan-outs
//!    of `fedsc_linalg::par` and the TCP serve loops.
//! 8. **Atomics orderings** — every `Ordering::*` use carries an
//!    `// ORDERING:` justification; suspicious Release/Relaxed
//!    publish/observe pairs are flagged.
//! 9. **Lock order** — the static lock-acquisition graph is cycle-free.
//!
//! There is no rule 7: every workspace crate sets `unsafe_code = "forbid"`
//! and every `vendor/` shim carries `#![forbid(unsafe_code)]`, so the
//! compiler rejects `unsafe` before the audit could.
//!
//! `--report-out <file.json>` additionally writes a SARIF 2.1.0 report for
//! CI artifact upload. Exit status is non-zero iff any diagnostic fired;
//! every diagnostic is a `file:line: [rule] message` the terminal can jump
//! to.
//!
//! `cargo xtask validate-trace [--cross-process] <file.json>` checks that
//! an exported Chrome trace (`--trace-out`) is well-formed `trace_event`
//! JSON. With `--cross-process` it additionally validates a merged fleet
//! trace's causality: every span's `(parent_pid, parent_span)` must exist
//! in the trace, no child may start before its parent beyond the
//! clock-offset slack, and at least one parent edge must be present.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use xtask::report::Diagnostic;
use xtask::rules::{
    audit_source, detect_lock_cycles, reconcile_exact, Allowlist, LockEdge, Profile,
};

/// The one source root scanned with the relaxed profile (`expect` with a
/// message allowed; everything else — timing included — still enforced).
/// Every other `crates/*/src` and the root package's `src` are strict.
const RELAXED_ROOT: &str = "crates/bench/src";

const ALLOWLIST_PATH: &str = "crates/xtask/panic-allowlist.txt";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("audit") => {
            let mut report_out = None;
            loop {
                match args.next().as_deref() {
                    Some("--report-out") => match args.next() {
                        Some(p) => report_out = Some(p),
                        None => {
                            eprintln!("usage: cargo xtask audit [--report-out <report.json>]");
                            return ExitCode::FAILURE;
                        }
                    },
                    Some(other) => {
                        eprintln!("xtask audit: unknown flag `{other}`");
                        return ExitCode::FAILURE;
                    }
                    None => break,
                }
            }
            run_audit(report_out.as_deref())
        }
        Some("validate-trace") => {
            let mut cross_process = false;
            let mut path = None;
            for arg in args {
                if arg == "--cross-process" {
                    cross_process = true;
                } else {
                    path = Some(arg);
                }
            }
            match path {
                Some(path) => run_validate_trace(&path, cross_process),
                None => {
                    eprintln!("usage: cargo xtask validate-trace [--cross-process] <trace.json>");
                    ExitCode::FAILURE
                }
            }
        }
        Some(other) => {
            eprintln!("unknown xtask command `{other}`; available: audit, validate-trace");
            ExitCode::FAILURE
        }
        None => {
            eprintln!(
                "usage: cargo xtask audit [--report-out <report.json>] | \
                 cargo xtask validate-trace [--cross-process] <trace.json>"
            );
            ExitCode::FAILURE
        }
    }
}

/// Validates `path` as well-formed Chrome `trace_event` JSON; with
/// `cross_process`, additionally checks merged-fleet causality (every
/// parent edge resolves and respects clock-corrected ordering).
fn run_validate_trace(path: &str, cross_process: bool) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("xtask validate-trace: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if cross_process {
        return match fedsc_obs::export::validate_cross_process(&text) {
            Ok((n, edges)) => {
                println!(
                    "xtask validate-trace: {path}: {n} well-formed trace events, \
                     {edges} resolved parent edges"
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("xtask validate-trace: {path}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match fedsc_obs::export::validate_chrome_trace(&text) {
        Ok(n) => {
            println!("xtask validate-trace: {path}: {n} well-formed trace events");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("xtask validate-trace: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Locates the workspace root: the ancestor of the current directory (or of
/// this binary's manifest) containing the top-level `Cargo.toml` with a
/// `[workspace]` table.
fn workspace_root() -> Option<PathBuf> {
    let start = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .or_else(|| std::env::current_dir().ok())?;
    let mut dir: &Path = &start;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir.to_path_buf());
            }
        }
        dir = dir.parent()?;
    }
}

/// The `audit` driver: every rule over every scanned file, then the
/// cross-file reconciliations and the global lock-graph check.
fn run_audit(report_out: Option<&str>) -> ExitCode {
    let Some(root) = workspace_root() else {
        eprintln!("xtask: could not locate the workspace root");
        return ExitCode::FAILURE;
    };
    let allowlist = match Allowlist::load(&root.join(ALLOWLIST_PATH)) {
        Ok(list) => list,
        Err(e) => {
            eprintln!("xtask: cannot read {ALLOWLIST_PATH}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut diagnostics: Vec<Diagnostic> = Vec::new();
    let mut invariant_counts = BTreeMap::new();
    let mut lock_edges: Vec<LockEdge> = Vec::new();
    let mut files_scanned = 0usize;
    for rel in source_roots(&root) {
        let profile = if rel == RELAXED_ROOT {
            Profile::Relaxed
        } else {
            Profile::Strict
        };
        let mut files = Vec::new();
        collect_rs_files(&root.join(&rel), &mut files);
        files.sort();
        for path in files {
            let Ok(text) = std::fs::read_to_string(&path) else {
                diagnostics.push(Diagnostic::file_level(
                    rel_label(&root, &path),
                    "io",
                    "file is not valid UTF-8 or could not be read",
                ));
                continue;
            };
            files_scanned += 1;
            let label = rel_label(&root, &path);
            let outcome = audit_source(&label, &text, profile, &allowlist);
            diagnostics.extend(outcome.diagnostics);
            invariant_counts.insert(label, outcome.invariant_sites.len());
            lock_edges.extend(outcome.lock_edges);
        }
    }

    // Cross-file: the panic allowlist reconciles exactly, and the global
    // lock graph is cycle-checked.
    diagnostics.extend(reconcile_exact(
        &allowlist,
        ALLOWLIST_PATH,
        &invariant_counts,
    ));
    diagnostics.extend(detect_lock_cycles(&lock_edges));

    if let Some(path) = report_out {
        let doc = xtask::report::sarif(&diagnostics);
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("xtask audit: cannot write report to {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("xtask audit: SARIF report written to {path}");
    }

    if diagnostics.is_empty() {
        println!(
            "xtask audit: {files_scanned} files clean ({} lock edge(s), acyclic)",
            lock_edges.len()
        );
        ExitCode::SUCCESS
    } else {
        for d in &diagnostics {
            eprintln!("{d}");
        }
        eprintln!(
            "xtask audit: {} violation(s) in {files_scanned} files",
            diagnostics.len()
        );
        ExitCode::FAILURE
    }
}

fn rel_label(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Every source root the audit scans, workspace-relative and sorted: the
/// root package's `src` and each `crates/*/src`. Derived from the tree,
/// so a new crate is audited from its first commit.
fn source_roots(root: &Path) -> Vec<String> {
    let mut roots = vec!["src".to_string()];
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            if entry.path().join("src").is_dir() {
                roots.push(format!(
                    "crates/{}/src",
                    entry.file_name().to_string_lossy()
                ));
            }
        }
    }
    roots.sort();
    roots
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}
