//! Token-level rule engine behind `cargo xtask audit` (rules 1–6, 8 and 9).
//!
//! Rules 1–6 (panic freedom, deterministic randomness, sanctioned timing,
//! must-use results, socket hygiene, spawn confinement) run on the token
//! stream from [`crate::lexer`], which makes them exact on identifier
//! boundaries (`MyHashMap` does not match `HashMap`) and immune to
//! string/comment false positives by construction. Two structural rule
//! families sit on top:
//!
//! 8. **atomics-ordering** (`[ordering]`) — every `Ordering::Relaxed` /
//!    `Acquire` / `Release` / `AcqRel` / `SeqCst` use needs an
//!    `// ORDERING:` justification, and suspicious publish/observe pairs
//!    are flagged: a `store`-class op at `Release`/`AcqRel` on some atomic
//!    whose same-named `load` elsewhere in the file is `Relaxed` (and the
//!    mirror image) is a broken happens-before edge until justified.
//! 9. **lock-order** (`[lock-order]`) — a static lock-acquisition graph is
//!    extracted per file (receiver-name granularity, `file.rs:field`
//!    nodes): an edge `a → b` means `b` was acquired while `a` was held.
//!    The driver fails on any cycle in the global graph.
//!
//! There is no rule 7: `unsafe` is forbidden at compile time in every crate
//! (`unsafe_code = "forbid"` in the workspace lints, `#![forbid(unsafe_code)]`
//! in each vendored shim), and the other rules keep their numbers.
//!
//! The analysis is deliberately an approximation: lock identity is the
//! receiver field name qualified by file, guards bound by `let` live to the
//! end of their block (slightly longer than their true lexical lifetime),
//! and unbound guard temporaries die at the next `;`. Those choices can
//! over-report held sets (never invent a lock that was not acquired), so a
//! clean run is meaningful while a report deserves a human look.

use crate::lexer::{lex, match_delims, next_code, prev_code, Tok, TokKind};
use crate::report::Diagnostic;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// How strictly a file is held to the policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Library code: every rule applies.
    Strict,
    /// Bench/harness code: `expect(...)` (a message-carrying abort) is
    /// accepted; `unwrap()` and the other messageless panics remain
    /// forbidden, as do the nondeterminism, timing, socket and spawn rules.
    Relaxed,
}

/// The per-file count file `crates/xtask/panic-allowlist.txt` (INVARIANT
/// sites). Each line is `path count`; `#` comments and blank lines are
/// skipped.
#[derive(Debug, Default)]
pub struct Allowlist {
    entries: BTreeMap<String, usize>,
    /// One message per malformed or duplicate line, reported by
    /// [`reconcile_exact`]: a silently dropped entry would surface only as
    /// a misleading "grants 0" on the file it meant to cover.
    malformed: Vec<String>,
}

impl Allowlist {
    /// Reads and parses a count file.
    pub fn load(path: &Path) -> std::io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        Ok(Self::parse(&text))
    }

    /// Parses the count-file format. The first entry for a path wins; a
    /// line without exactly a path and an unsigned count, or repeating a
    /// path, is kept as a malformed-line message.
    pub fn parse(text: &str) -> Self {
        let mut list = Allowlist::default();
        let mut first_line: BTreeMap<&str, usize> = BTreeMap::new();
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let parts: Vec<&str> = line.split_whitespace().collect();
            let count = match parts[..] {
                [_, count] => count.parse::<usize>().ok(),
                _ => None,
            };
            let Some(count) = count else {
                list.malformed.push(format!(
                    "line {line_no} `{line}` is not `<path> <count>`; fix or remove it"
                ));
                continue;
            };
            let path = parts[0];
            if let Some(&first) = first_line.get(path) {
                list.malformed.push(format!(
                    "line {line_no} repeats the entry for `{path}` from line {first}; keep one"
                ));
                continue;
            }
            first_line.insert(path, line_no);
            list.entries.insert(path.to_string(), count);
        }
        list
    }

    /// Allowed site count for `file` (0 if unlisted).
    pub fn allowed(&self, file: &str) -> usize {
        self.entries.get(file).copied().unwrap_or(0)
    }

    /// The files named by entries, in sorted order.
    pub fn files(&self) -> impl Iterator<Item = &String> {
        self.entries.keys()
    }
}

/// The observability crate owns the process clock (`fedsc_obs::clock`);
/// every file in it may observe time.
pub const TIMING_SANCTUARY_DIR: &str = "crates/obs/src";

/// Extra files allowed to observe the wall clock: the transport crate's
/// deadline/retry module (socket budgets are inherently wall-clock).
pub const SANCTIONED_TIMING_FILES: &[&str] = &["crates/transport/src/timing.rs"];

/// The one directory where raw sockets are legal; any file in it that
/// touches them must arm both socket timeouts.
pub const SOCKET_SANCTUARY: &str = "crates/transport/src";

/// Files allowed to create OS threads directly: the scoped fan-out and
/// the TCP transport's accept/serve loops. Everything else fans out
/// through `fedsc_linalg::par`. The round's transport code is deliberately
/// absent: the wire roles and the tree driver (`crates/core/src/wire.rs`,
/// `crates/core/src/tree.rs`) run staged sweeps on the caller's thread.
pub const SPAWN_SANCTUARY_FILES: &[&str] =
    &["crates/linalg/src/par.rs", "crates/transport/src/tcp.rs"];

/// Solver/decomposition result structs that must be declared `#[must_use]`
/// (rule 4a): ignoring one silently drops a factorization.
pub const MUST_USE_STRUCTS: &[&str] = &[
    "Svd",
    "SymmetricEig",
    "Qr",
    "Cholesky",
    "SparseVec",
    "KMeansResult",
];

/// `pub fn` name prefixes that are solver entry points (rule 4b): they must
/// return `Result` or carry `#[must_use]`.
pub const SOLVER_FN_PREFIXES: &[&str] = &[
    "solve",
    "svd",
    "eigh",
    "lanczos",
    "omp",
    "kmeans",
    "spectral_clustering",
    "cluster",
];

/// One statically-extracted lock-acquisition edge: `acquired` was taken
/// while `held` was held.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockEdge {
    /// Lock already held (file-qualified, e.g. `par.rs:queue`).
    pub held: String,
    /// Lock being acquired under `held`.
    pub acquired: String,
    /// Workspace-relative path of the acquisition site.
    pub file: String,
    /// 1-based line of the acquisition site.
    pub line: usize,
}

/// Result of auditing one file.
#[derive(Debug, Default)]
pub struct AuditOutcome {
    /// Rule violations.
    pub diagnostics: Vec<Diagnostic>,
    /// Lines of `// INVARIANT:`-justified panic sites (rule 1), reconciled
    /// against `panic-allowlist.txt` by the driver.
    pub invariant_sites: Vec<usize>,
    /// Lines of non-test `Ordering::*` uses (rule 8).
    pub ordering_sites: Vec<usize>,
    /// Lock-acquisition edges (rule 9), cycle-checked globally by the
    /// driver via [`detect_lock_cycles`].
    pub lock_edges: Vec<LockEdge>,
}

/// Identifiers that are nondeterministic randomness / iteration sources
/// (rule 2).
const RNG_IDENTS: &[&str] = &[
    "thread_rng",
    "from_entropy",
    "from_os_rng",
    "OsRng",
    "getrandom",
    "HashMap",
    "HashSet",
];

/// Wall-clock type names (rule 3).
const TIMING_IDENTS: &[&str] = &["Instant", "SystemTime"];

/// Raw socket type names (rule 5).
const SOCKET_IDENTS: &[&str] = &["TcpStream", "TcpListener", "UdpSocket"];

/// `thread::X` members that create OS threads (rule 6).
const SPAWN_MEMBERS: &[&str] = &["spawn", "scope", "Builder"];

/// The five memory orderings rule 8 audits.
const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Atomic methods that publish a value (store-class, for pair analysis).
const STORE_CLASS: &[&str] = &[
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "compare_exchange",
    "compare_exchange_weak",
];

/// How far (in lines) an ORDERING justification comment may sit above
/// its site, skipping comments, attributes, blanks, and continuations.
const JUSTIFY_WALK: usize = 12;

/// One atomic operation site, for the rule-8 pair analysis.
struct AtomicOp {
    recv: String,
    method: String,
    ord: &'static str,
    line: usize,
}

/// Audits one file; `label` is its workspace-relative path.
pub fn audit_source(label: &str, text: &str, profile: Profile, allow: &Allowlist) -> AuditOutcome {
    let mut out = AuditOutcome::default();
    let lines: Vec<&str> = text.lines().collect();
    let toks = lex(text);
    let partner = match_delims(&toks);
    let mask = test_token_mask(&toks, &partner);

    let timing_sanctioned =
        label.starts_with(TIMING_SANCTUARY_DIR) || SANCTIONED_TIMING_FILES.contains(&label);
    let socket_sanctioned = label.starts_with(SOCKET_SANCTUARY);
    let spawn_sanctioned = SPAWN_SANCTUARY_FILES.contains(&label);

    // Deduped per line: one hit per (line, token) pair no matter how many
    // occurrences share the line.
    let mut panic_hits: BTreeSet<(usize, &'static str, bool)> = BTreeSet::new();
    let mut simple_hits: BTreeSet<(usize, &'static str, &'static str)> = BTreeSet::new();
    let mut socket_token_seen = false;
    let mut timeouts_armed: BTreeSet<&'static str> = BTreeSet::new();
    let mut atomic_ops: Vec<AtomicOp> = Vec::new();

    for i in 0..toks.len() {
        if mask[i] || toks[i].is_comment() || toks[i].kind != TokKind::Ident {
            continue;
        }
        let t = &toks[i];
        let line = t.line;
        match t.text.as_str() {
            // Rule 1: panic freedom.
            "unwrap" if follows_dot(&toks, i) && empty_call_after(&toks, i) => {
                panic_hits.insert((line, ".unwrap()", false));
            }
            "unwrap_unchecked" if follows_dot(&toks, i) && empty_call_after(&toks, i) => {
                panic_hits.insert((line, ".unwrap_unchecked()", false));
            }
            "expect" if follows_dot(&toks, i) && open_paren_after(&toks, i).is_some() => {
                panic_hits.insert((line, ".expect(", true));
            }
            "panic" if macro_bang_call(&toks, i) => {
                panic_hits.insert((line, "panic!(", false));
            }
            "unreachable" if macro_bang_call(&toks, i) => {
                panic_hits.insert((line, "unreachable!(", false));
            }
            "todo" if macro_bang_call(&toks, i) => {
                panic_hits.insert((line, "todo!(", false));
            }
            "unimplemented" if macro_bang_call(&toks, i) => {
                panic_hits.insert((line, "unimplemented!(", false));
            }
            // Rule 6: spawn confinement (`thread::spawn` and friends).
            "thread" if !spawn_sanctioned => {
                if let Some(member) = path_member(&toks, i, SPAWN_MEMBERS) {
                    simple_hits.insert((line, "spawn", member));
                }
            }
            // Rule 5 (file level): socket-timeout arming evidence.
            "set_read_timeout" if some_call_after(&toks, i) => {
                timeouts_armed.insert("set_read_timeout(Some(");
            }
            "set_write_timeout" if some_call_after(&toks, i) => {
                timeouts_armed.insert("set_write_timeout(Some(");
            }
            // Rule 4: must-use solver results (struct decls and entry points).
            "pub" => {
                check_pub_item(&toks, &partner, i, &lines, &mut out.diagnostics, label);
            }
            // Rule 8: atomics orderings.
            "Ordering" => {
                if let Some((oi, ord)) = path_member_idx(&toks, i, ORDERINGS) {
                    let ord_line = toks[oi].line;
                    out.ordering_sites.push(ord_line);
                    if !comment_on_or_above(&lines, ord_line, "// ORDERING:") {
                        out.diagnostics.push(Diagnostic {
                            file: label.to_string(),
                            line: ord_line,
                            rule: "ordering",
                            message: format!(
                                "`Ordering::{ord}` without an `// ORDERING:` justification on \
                                 or directly above the site; say what this ordering \
                                 synchronizes (or why nothing needs to be)"
                            ),
                        });
                    }
                    if let Some((recv, method)) = atomic_context(&toks, &partner, i) {
                        atomic_ops.push(AtomicOp {
                            recv,
                            method,
                            ord,
                            line: ord_line,
                        });
                    }
                }
            }
            name => {
                // Rules 2/3/5: plain forbidden identifiers.
                if let Some(&tok) = RNG_IDENTS.iter().find(|&&x| x == name) {
                    simple_hits.insert((line, "rng", tok));
                } else if let Some(&tok) = TIMING_IDENTS.iter().find(|&&x| x == name) {
                    if !timing_sanctioned {
                        simple_hits.insert((line, "timing", tok));
                    }
                } else if let Some(&tok) = SOCKET_IDENTS.iter().find(|&&x| x == name) {
                    if socket_sanctioned {
                        socket_token_seen = true;
                    } else {
                        simple_hits.insert((line, "socket", tok));
                    }
                }
            }
        }
    }

    // Emit rule 1, reconciling INVARIANT justifications.
    for &(line, token, relaxed_ok) in &panic_hits {
        if relaxed_ok && profile == Profile::Relaxed {
            continue;
        }
        let idx = line.saturating_sub(1);
        let same_line = lines.get(idx).is_some_and(|l| l.contains("// INVARIANT:"));
        if same_line || invariant_above(&lines, idx) {
            out.invariant_sites.push(line);
        } else {
            out.diagnostics.push(Diagnostic {
                file: label.to_string(),
                line,
                rule: "panic",
                message: format!(
                    "`{token}` in library code; return `Result` (or justify with an \
                     `// INVARIANT:` comment plus an allowlist entry)"
                ),
            });
        }
    }

    // Emit rules 2/3/5/6 ident hits.
    for &(line, rule, token) in &simple_hits {
        let message = match rule {
            "rng" => format!(
                "`{token}` is nondeterministic; derive randomness from a caller-provided \
                 seed (and use BTree collections for deterministic iteration)"
            ),
            "timing" => format!(
                "`{token}` outside `{TIMING_SANCTUARY_DIR}` (and `transport::timing`); route \
                 timing through `fedsc_obs::Stopwatch`/`now_ns`, `time_phase`/`par_map_timed`, \
                 or `Deadline`"
            ),
            "socket" => format!(
                "`{token}` outside `{SOCKET_SANCTUARY}`; route networking through the \
                 `fedsc_transport` traits"
            ),
            _ => format!(
                "`thread::{token}` outside the thread sanctuaries ({}); fan work out \
                 through `fedsc_linalg::par` so its `pool.workers_spawned` accounting and \
                 thread cap stay truthful",
                SPAWN_SANCTUARY_FILES
                    .iter()
                    .map(|f| format!("`{f}`"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        };
        out.diagnostics.push(Diagnostic {
            file: label.to_string(),
            line,
            rule,
            message,
        });
    }

    // Rule 5 (file level): raw-socket files must arm both timeouts.
    if socket_token_seen {
        for needle in ["set_read_timeout(Some(", "set_write_timeout(Some("] {
            if !timeouts_armed.contains(needle) {
                out.diagnostics.push(Diagnostic::file_level(
                    label.to_string(),
                    "socket",
                    &format!(
                        "file uses raw sockets but never calls `{needle}..))`; every blocking \
                         socket call must carry a finite timeout"
                    ),
                ));
            }
        }
    }

    // Rule 8 pair analysis: a Release-class publish whose same-named load is
    // Relaxed (or an Acquire-class load whose same-named store is Relaxed)
    // breaks the happens-before edge it implies. SeqCst publishes are
    // excluded: pairing them with Relaxed probes is an explicit idiom for
    // flags that tolerate stale reads (justified by the ORDERING comment).
    for op in &atomic_ops {
        let suspicious = if op.ord == "Relaxed" && op.method == "load" {
            atomic_ops
                .iter()
                .find(|o| {
                    o.recv == op.recv
                        && STORE_CLASS.contains(&o.method.as_str())
                        && matches!(o.ord, "Release" | "AcqRel")
                })
                .map(|o| ("published with `Release`", o.line))
        } else if op.ord == "Relaxed" && STORE_CLASS.contains(&op.method.as_str()) {
            atomic_ops
                .iter()
                .find(|o| {
                    o.recv == op.recv && o.method == "load" && matches!(o.ord, "Acquire" | "AcqRel")
                })
                .map(|o| ("loaded with `Acquire`", o.line))
        } else {
            None
        };
        if let Some((what, peer_line)) = suspicious {
            out.diagnostics.push(Diagnostic {
                file: label.to_string(),
                line: op.line,
                rule: "ordering",
                message: format!(
                    "suspicious pair: `{recv}.{method}` is `Relaxed` here but `{recv}` is \
                     {what} at line {peer_line}; one side of the happens-before edge is \
                     missing",
                    recv = op.recv,
                    method = op.method,
                ),
            });
        }
    }

    // Rule 9: lock-acquisition graph.
    let mut lock_scan = LockScan {
        toks: &toks,
        partner: &partner,
        mask: &mask,
        label,
        stem: file_stem(label),
        edges: Vec::new(),
    };
    let mut held = Vec::new();
    lock_scan.walk(0, toks.len(), &mut held);
    out.lock_edges = lock_scan.edges;

    // Reconcile this file's INVARIANT sites against its allowlist budget
    // (the cross-file direction is the driver's job).
    let allowed = allow.allowed(label);
    if out.invariant_sites.len() > allowed {
        for &line in &out.invariant_sites {
            out.diagnostics.push(Diagnostic {
                file: label.to_string(),
                line,
                rule: "allowlist",
                message: format!(
                    "{} INVARIANT site(s) but the allowlist grants {allowed}; add or tighten \
                     the `crates/xtask/panic-allowlist.txt` entry",
                    out.invariant_sites.len()
                ),
            });
        }
    }

    out.invariant_sites.sort_unstable();
    out.ordering_sites.sort_unstable();
    out.diagnostics
        .sort_by(|a, b| (a.line, a.rule, &a.message).cmp(&(b.line, b.rule, &b.message)));
    out
}

/// Exact two-way reconciliation of the panic allowlist: every scanned
/// file's INVARIANT-site count must equal its entry (0 if absent), and
/// every entry must name a scanned file. `seen` must contain one entry per
/// scanned file, zeros included. The count file's own malformed or
/// duplicate lines come first, as findings against `list_path`. Every
/// finding is an `[allowlist]` one.
pub fn reconcile_exact(
    list: &Allowlist,
    list_path: &str,
    seen: &BTreeMap<String, usize>,
) -> Vec<Diagnostic> {
    let mut out: Vec<Diagnostic> = list
        .malformed
        .iter()
        .map(|m| Diagnostic::file_level(list_path.to_string(), "allowlist", m))
        .collect();
    for (file, &actual) in seen {
        let allowed = list.allowed(file);
        if actual != allowed {
            out.push(Diagnostic::file_level(
                file.clone(),
                "allowlist",
                &format!(
                    "{actual} INVARIANT site(s) but `{list_path}` grants {allowed}; \
                     update the entry deliberately"
                ),
            ));
        }
    }
    for file in list.files() {
        if !seen.contains_key(file) {
            out.push(Diagnostic::file_level(
                file.clone(),
                "allowlist",
                &format!(
                    "`{list_path}` entry names a file that was not scanned (moved or \
                     deleted?); remove the entry"
                ),
            ));
        }
    }
    out
}

/// Cycle detection over the global lock graph: one diagnostic per distinct
/// cycle, anchored at a representative edge.
pub fn detect_lock_cycles(edges: &[LockEdge]) -> Vec<Diagnostic> {
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let mut site: BTreeMap<(&str, &str), (&str, usize)> = BTreeMap::new();
    for e in edges {
        adj.entry(&e.held).or_default().insert(&e.acquired);
        site.entry((&e.held, &e.acquired))
            .or_insert((&e.file, e.line));
    }

    // Iterative DFS with path tracking; each back edge closes a cycle.
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    let mut out = Vec::new();
    let nodes: Vec<&str> = adj.keys().copied().collect();
    for &start in &nodes {
        let mut path: Vec<&str> = vec![start];
        let mut iters: Vec<Vec<&str>> = vec![adj
            .get(start)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()];
        while let Some(succs) = iters.last_mut() {
            let Some(next) = succs.pop() else {
                path.pop();
                iters.pop();
                continue;
            };
            if let Some(pos) = path.iter().position(|&n| n == next) {
                // Normalize the cycle so each is reported once.
                let cyc: Vec<&str> = path[pos..].to_vec();
                let Some(min_at) = cyc
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, n)| **n)
                    .map(|(i, _)| i)
                else {
                    continue;
                };
                let mut norm: Vec<String> = cyc[min_at..]
                    .iter()
                    .chain(&cyc[..min_at])
                    .map(|s| s.to_string())
                    .collect();
                if reported.insert(norm.clone()) {
                    norm.push(norm[0].clone());
                    let (file, line) = site
                        .get(&(path[path.len() - 1], next))
                        .copied()
                        .unwrap_or(("", 0));
                    out.push(Diagnostic {
                        file: file.to_string(),
                        line,
                        rule: "lock-order",
                        message: format!(
                            "lock-order cycle: {}; two threads interleaving these \
                             acquisitions can deadlock",
                            norm.join(" -> ")
                        ),
                    });
                }
                continue;
            }
            if path.len() < 64 {
                path.push(next);
                iters.push(
                    adj.get(next)
                        .map(|s| s.iter().copied().collect())
                        .unwrap_or_default(),
                );
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Token-pattern helpers.

/// Whether the nearest preceding code token is `.`.
fn follows_dot(toks: &[Tok], i: usize) -> bool {
    i > 0 && prev_code(toks, i - 1).is_some_and(|j| toks[j].is_punct('.'))
}

/// Index of a `(` immediately following token `i` (comments skipped).
fn open_paren_after(toks: &[Tok], i: usize) -> Option<usize> {
    next_code(toks, i + 1).filter(|&j| toks[j].kind == TokKind::Open && toks[j].is_punct('('))
}

/// Whether token `i` is followed by an empty call `()`.
fn empty_call_after(toks: &[Tok], i: usize) -> bool {
    open_paren_after(toks, i)
        .and_then(|j| next_code(toks, j + 1))
        .is_some_and(|k| toks[k].kind == TokKind::Close && toks[k].is_punct(')'))
}

/// Whether token `i` begins `( Some (` — timeout-arming evidence.
fn some_call_after(toks: &[Tok], i: usize) -> bool {
    open_paren_after(toks, i)
        .and_then(|j| next_code(toks, j + 1))
        .is_some_and(|k| toks[k].is_ident("Some") && open_paren_after(toks, k).is_some())
}

/// Whether token `i` is a macro invocation head (`ident ! (`).
fn macro_bang_call(toks: &[Tok], i: usize) -> bool {
    next_code(toks, i + 1)
        .filter(|&j| toks[j].is_punct('!'))
        .and_then(|j| next_code(toks, j + 1))
        .is_some_and(|k| toks[k].is_punct('('))
}

/// For `base :: member` with `member` in `set`, the member's static entry.
fn path_member(toks: &[Tok], i: usize, set: &[&'static str]) -> Option<&'static str> {
    path_member_idx(toks, i, set).map(|(_, m)| m)
}

/// Like [`path_member`], also returning the member token index.
fn path_member_idx(toks: &[Tok], i: usize, set: &[&'static str]) -> Option<(usize, &'static str)> {
    let c1 = next_code(toks, i + 1).filter(|&j| toks[j].is_punct(':'))?;
    let c2 = next_code(toks, c1 + 1).filter(|&j| toks[j].is_punct(':'))?;
    let m = next_code(toks, c2 + 1)?;
    set.iter().find(|&&x| toks[m].is_ident(x)).map(|&x| (m, x))
}

/// Rule 4 at a `pub` token: flags undeclared `#[must_use]` on solver result
/// structs and solver entry points that return an ignorable type.
fn check_pub_item(
    toks: &[Tok],
    partner: &[usize],
    i: usize,
    lines: &[&str],
    diags: &mut Vec<Diagnostic>,
    label: &str,
) {
    let Some(mut j) = next_code(toks, i + 1) else {
        return;
    };
    // pub(crate) / pub(super): jump the visibility group.
    if toks[j].kind == TokKind::Open && toks[j].is_punct('(') {
        let close = partner[j];
        if close == usize::MAX {
            return;
        }
        let Some(after) = next_code(toks, close + 1) else {
            return;
        };
        j = after;
    }
    if toks[j].is_ident("struct") {
        let Some(k) = next_code(toks, j + 1).filter(|&k| toks[k].kind == TokKind::Ident) else {
            return;
        };
        let name = toks[k].text.as_str();
        if MUST_USE_STRUCTS.contains(&name) && !attr_above(lines, toks[i].line, "#[must_use") {
            diags.push(Diagnostic {
                file: label.to_string(),
                line: toks[i].line,
                rule: "must-use",
                message: format!("solver result struct `{name}` must be declared `#[must_use]`"),
            });
        }
        return;
    }
    if !toks[j].is_ident("fn") {
        return;
    }
    let Some(k) = next_code(toks, j + 1).filter(|&k| toks[k].kind == TokKind::Ident) else {
        return;
    };
    let name = toks[k].text.as_str();
    if !SOLVER_FN_PREFIXES.iter().any(|p| name.starts_with(p)) {
        return;
    }
    // Find the parameter list, then an arrow after it.
    let Some(po) =
        (k + 1..toks.len()).find(|&x| toks[x].kind == TokKind::Open && toks[x].is_punct('('))
    else {
        return;
    };
    let pc = partner[po];
    if pc == usize::MAX {
        return;
    }
    let Some(a1) = next_code(toks, pc + 1).filter(|&x| toks[x].is_punct('-')) else {
        return; // no arrow: returns unit, nothing to ignore
    };
    let Some(a2) = next_code(toks, a1 + 1).filter(|&x| toks[x].is_punct('>')) else {
        return;
    };
    // Collect return-type identifiers up to the body/`;`/`where`.
    let mut ret = String::new();
    let mut unignorable = false;
    let mut r = a2 + 1;
    while r < toks.len() {
        let t = &toks[r];
        if t.is_comment() {
            r += 1;
            continue;
        }
        if (t.kind == TokKind::Open && t.is_punct('{')) || t.is_punct(';') || t.is_ident("where") {
            break;
        }
        if t.kind == TokKind::Ident {
            if t.text == "Result" || MUST_USE_STRUCTS.contains(&t.text.as_str()) {
                unignorable = true;
            }
            if !ret.is_empty() {
                ret.push(' ');
            }
            ret.push_str(&t.text);
        }
        r += 1;
    }
    if !unignorable && !attr_above(lines, toks[i].line, "#[must_use") {
        diags.push(Diagnostic {
            file: label.to_string(),
            line: toks[i].line,
            rule: "must-use",
            message: format!(
                "solver entry point `{name}` returns `{ret}`: return `Result` or mark it \
                 `#[must_use]`"
            ),
        });
    }
}

// ---------------------------------------------------------------------------
// Justification-comment walks (line-based, over the raw source).

/// Whether an `// INVARIANT:` comment justifies the site at 0-based line
/// `idx`: walks upward through comment and statement-continuation lines,
/// six lines at most, so the comment may precede a multi-line expression
/// but never carries over a completed statement.
fn invariant_above(lines: &[&str], idx: usize) -> bool {
    let mut back = 0usize;
    let mut i = idx;
    while i > 0 && back < 6 {
        i -= 1;
        back += 1;
        let t = lines[i].trim();
        if t.starts_with("// INVARIANT:") {
            return true;
        }
        let is_comment = t.starts_with("//");
        let continues = !t.contains(';') && !t.ends_with('{') && !t.ends_with('}');
        if !is_comment && !continues {
            break;
        }
    }
    false
}

/// Whether `marker` (e.g. `// ORDERING:`) appears on the site's own line or
/// heads a comment directly above it. The upward walk skips comment lines,
/// attributes, blanks, and statement continuations, so the justification
/// may precede `#[inline]`-style attributes or a multi-line expression.
fn comment_on_or_above(lines: &[&str], line: usize, marker: &str) -> bool {
    let idx = line.saturating_sub(1);
    if lines.get(idx).is_some_and(|l| l.contains(marker)) {
        return true;
    }
    let mut back = 0usize;
    let mut i = idx;
    while i > 0 && back < JUSTIFY_WALK {
        i -= 1;
        back += 1;
        let t = lines[i].trim();
        if t.starts_with("//") {
            if t.starts_with(marker) {
                return true;
            }
            continue;
        }
        if t.is_empty() || t.starts_with("#[") {
            continue;
        }
        let continues = !t.contains(';') && !t.ends_with('{') && !t.ends_with('}');
        if !continues {
            break;
        }
    }
    false
}

/// Whether an attribute line containing `needle` sits in the contiguous
/// attribute/comment block directly above 1-based `line`.
fn attr_above(lines: &[&str], line: usize, needle: &str) -> bool {
    let mut i = line.saturating_sub(1);
    let mut back = 0usize;
    while i > 0 && back < 8 {
        i -= 1;
        back += 1;
        let t = lines[i].trim();
        if t.starts_with("#[") || t.starts_with("//") {
            if t.contains(needle) {
                return true;
            }
            continue;
        }
        break;
    }
    false
}

// ---------------------------------------------------------------------------
// Test-region masking.

/// Marks tokens covered by a `#[test]` or `#[cfg(test)]` attribute and the
/// item it gates (through the matching `}` or terminating `;`).
fn test_token_mask(toks: &[Tok], partner: &[usize]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_punct('#') {
            if let Some(open) = next_code(toks, i + 1)
                .filter(|&j| toks[j].kind == TokKind::Open && toks[j].is_punct('['))
            {
                let close = partner[open];
                if close != usize::MAX && attr_is_test(&toks[open + 1..close]) {
                    let end = item_end(toks, partner, close + 1).min(toks.len() - 1);
                    for m in mask.iter_mut().take(end + 1).skip(i) {
                        *m = true;
                    }
                    i = end + 1;
                    continue;
                }
            }
        }
        i += 1;
    }
    mask
}

/// Whether an attribute body is `test` or `cfg(test)` (and not, say,
/// `cfg(not(test))`).
fn attr_is_test(inner: &[Tok]) -> bool {
    let idents: Vec<&str> = inner
        .iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.as_str())
        .collect();
    idents == ["test"] || idents == ["cfg", "test"]
}

/// From the token after an attribute, the index of the token ending the
/// gated item: the `}` closing its body, or the terminating `;`.
fn item_end(toks: &[Tok], partner: &[usize], from: usize) -> usize {
    let mut j = from;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_comment() {
            j += 1;
            continue;
        }
        // Skip stacked attributes between the test attr and the item.
        if t.is_punct('#') {
            if let Some(open) = next_code(toks, j + 1)
                .filter(|&x| toks[x].kind == TokKind::Open && toks[x].is_punct('['))
            {
                if partner[open] != usize::MAX {
                    j = partner[open] + 1;
                    continue;
                }
            }
        }
        match t.kind {
            TokKind::Open if t.is_punct('{') => {
                return if partner[j] != usize::MAX {
                    partner[j]
                } else {
                    j
                };
            }
            TokKind::Open => {
                if partner[j] == usize::MAX {
                    return j;
                }
                j = partner[j] + 1;
            }
            _ if t.is_punct(';') => return j,
            _ => j += 1,
        }
    }
    toks.len().saturating_sub(1)
}

// ---------------------------------------------------------------------------
// Rule 8 context extraction.

/// For an `Ordering` path at token `i`, the `(receiver, method)` of the
/// atomic call it parameterizes, e.g. `idle.fetch_add(1, Ordering::Relaxed)`
/// → `("idle", "fetch_add")`. Index groups on the receiver are skipped, so
/// `slots[i].lock…` resolves to `slots`.
fn atomic_context(toks: &[Tok], partner: &[usize], i: usize) -> Option<(String, String)> {
    // Innermost enclosing `(` by backward scan.
    let mut depth = 0usize;
    let mut open = None;
    for j in (0..i).rev() {
        match toks[j].kind {
            TokKind::Close => depth += 1,
            TokKind::Open => {
                if depth == 0 {
                    if toks[j].is_punct('(') {
                        open = Some(j);
                    }
                    break;
                }
                depth -= 1;
            }
            _ => {}
        }
    }
    let open = open?;
    let mi = prev_code(toks, open.checked_sub(1)?)?;
    if toks[mi].kind != TokKind::Ident {
        return None;
    }
    let method = toks[mi].text.clone();
    let recv = receiver_before(toks, partner, mi)?;
    Some((recv, method))
}

/// The receiver identifier of a `.method` at token `mi`, skipping one
/// index group (`slots[i]` → `slots`).
fn receiver_before(toks: &[Tok], partner: &[usize], mi: usize) -> Option<String> {
    let dot = prev_code(toks, mi.checked_sub(1)?)?;
    if !toks[dot].is_punct('.') {
        return None;
    }
    let mut r = prev_code(toks, dot.checked_sub(1)?)?;
    if toks[r].kind == TokKind::Close && toks[r].is_punct(']') {
        let open = partner[r];
        if open == usize::MAX {
            return None;
        }
        r = prev_code(toks, open.checked_sub(1)?)?;
    }
    (toks[r].kind == TokKind::Ident).then(|| toks[r].text.clone())
}

// ---------------------------------------------------------------------------
// Rule 9: the lock walker.

/// The file-name stem used to qualify lock names (`crates/linalg/src/par.rs`
/// → `par.rs`).
fn file_stem(label: &str) -> String {
    label.rsplit('/').next().unwrap_or(label).to_string()
}

/// A currently-held lock during the walk.
struct Held {
    name: String,
    binding: Option<String>,
}

struct LockScan<'a> {
    toks: &'a [Tok],
    partner: &'a [usize],
    mask: &'a [bool],
    label: &'a str,
    stem: String,
    edges: Vec<LockEdge>,
}

impl LockScan<'_> {
    /// Walks tokens in `[start, end)`, tracking held locks: `let`-bound
    /// guards live to the end of the enclosing block, unbound temporaries
    /// to the next `;`, and `drop(g)` releases `g` early.
    fn walk(&mut self, start: usize, end: usize, held: &mut Vec<Held>) {
        let block_mark = held.len();
        let mut i = start;
        while i < end {
            if self.mask[i] || self.toks[i].is_comment() {
                i += 1;
                continue;
            }
            let t = &self.toks[i];
            if t.kind == TokKind::Open && t.is_punct('{') {
                let j = self.partner[i];
                if j == usize::MAX || j > end {
                    i += 1;
                    continue;
                }
                let inner_mark = held.len();
                self.walk(i + 1, j, held);
                held.truncate(inner_mark);
                i = j + 1;
                continue;
            }
            if t.is_punct(';') {
                // Unbound guard temporaries die with their statement.
                let mut k = held.len();
                while k > block_mark {
                    k -= 1;
                    if held[k].binding.is_none() {
                        held.remove(k);
                    }
                }
                i += 1;
                continue;
            }
            if t.is_ident("drop") {
                if let Some((dropped, after)) = self.dropped_binding(i) {
                    if let Some(pos) = held
                        .iter()
                        .rposition(|h| h.binding.as_deref() == Some(dropped.as_str()))
                    {
                        held.remove(pos);
                    }
                    i = after;
                    continue;
                }
            }
            if t.kind == TokKind::Ident
                && matches!(t.text.as_str(), "lock" | "read" | "write")
                && follows_dot(self.toks, i)
                && open_paren_after(self.toks, i).is_some()
            {
                if let Some(recv) = receiver_before(self.toks, self.partner, i) {
                    let name = format!("{}:{}", self.stem, recv);
                    for h in held.iter() {
                        self.edges.push(LockEdge {
                            held: h.name.clone(),
                            acquired: name.clone(),
                            file: self.label.to_string(),
                            line: t.line,
                        });
                    }
                    held.push(Held {
                        name,
                        binding: self.let_binding_before(i),
                    });
                }
            }
            i += 1;
        }
    }

    /// For a `drop` ident at `i`, the dropped binding name and the index
    /// after the call's `)` — `None` if this is not `drop(ident)`.
    fn dropped_binding(&self, i: usize) -> Option<(String, usize)> {
        let open = open_paren_after(self.toks, i)?;
        let arg = next_code(self.toks, open + 1)?;
        let close = next_code(self.toks, arg + 1)?;
        if self.toks[arg].kind == TokKind::Ident && self.toks[close].is_punct(')') {
            Some((self.toks[arg].text.clone(), close + 1))
        } else {
            None
        }
    }

    /// The binding a guard is assigned to, if the acquisition at token `i`
    /// sits right of an `=` in its statement: `let mut g = m.lock()` → `g`,
    /// `if let Ok(g) = m.lock()` → `g`. `None` for temporaries.
    fn let_binding_before(&self, i: usize) -> Option<String> {
        let mut j = i;
        while j > 0 {
            j -= 1;
            let t = &self.toks[j];
            if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
                return None;
            }
            if t.is_punct('=') {
                // Reject compound operators (`==`, `+=`, `<=`, …).
                if j > 0 && self.toks[j - 1].kind == TokKind::Punct {
                    let c = self.toks[j - 1].text.chars().next().unwrap_or(' ');
                    if "=<>!+-*/%&|^".contains(c) {
                        continue;
                    }
                }
                if self.toks.get(j + 1).is_some_and(|t| t.is_punct('=')) {
                    continue;
                }
                let b = prev_code(self.toks, j.checked_sub(1)?)?;
                if self.toks[b].kind == TokKind::Ident {
                    return Some(self.toks[b].text.clone());
                }
                if self.toks[b].kind == TokKind::Close && self.toks[b].is_punct(')') {
                    let open = self.partner[b];
                    if open != usize::MAX {
                        // Last ident inside the pattern: `Ok(mut g)` → `g`.
                        return self.toks[open..b]
                            .iter()
                            .rev()
                            .find(|t| t.kind == TokKind::Ident && t.text != "mut")
                            .map(|t| t.text.clone());
                    }
                }
                return None;
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strict(label: &str, text: &str) -> AuditOutcome {
        audit_source(label, text, Profile::Strict, &Allowlist::default())
    }

    fn relaxed(label: &str, text: &str) -> AuditOutcome {
        audit_source(label, text, Profile::Relaxed, &Allowlist::default())
    }

    fn has_rule(out: &AuditOutcome, rule: &str) -> bool {
        out.diagnostics.iter().any(|d| d.rule == rule)
    }

    fn rules_of(out: &AuditOutcome) -> Vec<(&str, usize)> {
        out.diagnostics.iter().map(|d| (d.rule, d.line)).collect()
    }

    #[test]
    fn unwrap_flagged_exact_ident_boundaries() {
        let out = strict("crates/linalg/src/x.rs", "fn f() { g().unwrap(); }\n");
        assert_eq!(rules_of(&out), vec![("panic", 1)]);
        assert!(format!("{}", out.diagnostics[0]).starts_with("crates/linalg/src/x.rs:1: [panic]"));
        // Idents that merely contain forbidden names are clean.
        let out = strict(
            "crates/linalg/src/x.rs",
            "fn f(m: MyHashMap, i: InstantLike) { let _ = (m, i); }\n",
        );
        assert!(out.diagnostics.is_empty(), "{:?}", out.diagnostics);
    }

    #[test]
    fn every_panic_construct_flagged() {
        for call in [
            "g().unwrap()",
            "g().unwrap_unchecked()",
            "g().expect(\"x\")",
            "panic!(\"x\")",
            "unreachable!()",
            "todo!()",
            "unimplemented!()",
        ] {
            let out = strict("crates/core/src/x.rs", &format!("fn f() {{ {call}; }}\n"));
            assert_eq!(rules_of(&out), vec![("panic", 1)], "{call}");
        }
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let src = "/// `x.unwrap()` and panic!() in prose\n//! thread_rng in prose\nfn f() {\n    let m = \"HashMap thread_rng Instant .unwrap()\";\n    let _ = m;\n}\n";
        let out = strict("crates/linalg/src/x.rs", src);
        assert!(out.diagnostics.is_empty(), "{:?}", out.diagnostics);
        // Raw strings and char literals are opaque too.
        let src = "fn f() {\n    let s = r#\"panic!( .unwrap() \"#;\n    let c = '\\u{1F600}';\n    let _ = (s, c);\n}\n";
        let out = strict("crates/linalg/src/x.rs", src);
        assert!(out.diagnostics.is_empty(), "{:?}", out.diagnostics);
    }

    #[test]
    fn test_regions_masked_at_token_level() {
        let src = "fn lib() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x().unwrap(); let h = HashMap::new(); let _ = h; }\n}\n";
        let out = strict("crates/linalg/src/x.rs", src);
        assert!(out.diagnostics.is_empty(), "{:?}", out.diagnostics);
        // cfg(not(test)) is NOT a test region.
        let src = "#[cfg(not(test))]\nfn lib() { x().unwrap(); }\n";
        let out = strict("crates/linalg/src/x.rs", src);
        assert_eq!(rules_of(&out), vec![("panic", 2)]);
    }

    #[test]
    fn code_after_test_module_checked_again() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { x().unwrap(); }\n}\n\nfn lib() { y().unwrap(); }\n";
        let out = strict("crates/linalg/src/x.rs", src);
        assert_eq!(rules_of(&out), vec![("panic", 6)]);
    }

    #[test]
    fn invariant_comment_covers_multiline_statement() {
        let src = "fn f() {\n    // INVARIANT: columns share length\n    let x = build(a, b)\n        .expect(\"ragged input\");\n}\n";
        let allow = Allowlist::parse("crates/linalg/src/x.rs 1\n");
        let out = audit_source("crates/linalg/src/x.rs", src, Profile::Strict, &allow);
        assert!(out.diagnostics.is_empty(), "{:?}", out.diagnostics);
        assert_eq!(out.invariant_sites, vec![4]);

        // A completed statement between the comment and the next panic site
        // ends the justification.
        let src = "fn f() {\n    // INVARIANT: for the first call only\n    let a = g().expect(\"first\");\n    let b = h().unwrap();\n}\n";
        let out = audit_source("crates/linalg/src/x.rs", src, Profile::Strict, &allow);
        assert_eq!(out.invariant_sites, vec![3]);
        assert_eq!(rules_of(&out), vec![("panic", 4)]);
    }

    #[test]
    fn invariant_sites_draw_on_the_allowlist_budget() {
        let label = "crates/linalg/src/x.rs";
        let one = "fn f() {\n    // INVARIANT: shapes agree by construction\n    let x = g().expect(\"shapes\");\n}\n";
        // No entry: the justified site is an over-budget allowlist finding.
        let out = strict(label, one);
        assert_eq!(out.invariant_sites, vec![3]);
        assert_eq!(rules_of(&out), vec![("allowlist", 3)]);
        // Two sites on a budget of one: both are reported.
        let two = "fn f() {\n    // INVARIANT: a\n    a().expect(\"a\");\n    // INVARIANT: b\n    b().expect(\"b\");\n}\n";
        let allow = Allowlist::parse("crates/linalg/src/x.rs 1\n");
        let out = audit_source(label, two, Profile::Strict, &allow);
        assert_eq!(rules_of(&out), vec![("allowlist", 3), ("allowlist", 5)]);
    }

    #[test]
    fn relaxed_profile_tolerates_expect_only() {
        let src = "fn f() {\n    let t = Instant::now();\n    let v = g().expect(\"context\");\n    let w = h().unwrap();\n    let _ = (t, v, w);\n}\n";
        let out = relaxed("crates/bench/src/x.rs", src);
        assert_eq!(rules_of(&out), vec![("timing", 2), ("panic", 4)]);
    }

    #[test]
    fn rng_idents_flagged() {
        for ident in RNG_IDENTS {
            let out = strict(
                "crates/clustering/src/x.rs",
                &format!("fn f() {{ let _ = {ident}(); }}\n"),
            );
            assert_eq!(rules_of(&out), vec![("rng", 1)], "{ident}");
        }
    }

    #[test]
    fn spawn_and_socket_and_timing_rules() {
        for member in SPAWN_MEMBERS {
            let src = format!("fn f() {{ let _ = std::thread::{member}(|| {{}}); }}\n");
            let out = strict("crates/federated/src/x.rs", &src);
            assert_eq!(rules_of(&out), vec![("spawn", 1)], "{member}");
            // The message names exactly the sanctuary files, no more.
            let msg = &out.diagnostics[0].message;
            let listed: Vec<&str> = msg
                .split_once("sanctuaries (")
                .and_then(|(_, rest)| rest.split_once(')'))
                .map(|(list, _)| list.split(", ").map(|f| f.trim_matches('`')).collect())
                .unwrap_or_default();
            assert_eq!(listed, SPAWN_SANCTUARY_FILES, "{msg}");
            // The relaxed (bench) profile gets no spawn exemption.
            assert!(has_rule(&relaxed("crates/bench/src/x.rs", &src), "spawn"));
            for sanctioned in SPAWN_SANCTUARY_FILES {
                assert!(
                    !has_rule(&strict(sanctioned, &src), "spawn"),
                    "{sanctioned}"
                );
            }
        }

        for ident in SOCKET_IDENTS {
            let src = format!("fn f() {{ let _ = std::net::{ident}::connect(a); }}\n");
            let out = strict("crates/core/src/x.rs", &src);
            assert_eq!(rules_of(&out), vec![("socket", 1)], "{ident}");
            assert!(has_rule(&relaxed("crates/bench/src/x.rs", &src), "socket"));
        }

        for src in [
            "fn f() { let t = Instant::now(); let _ = t; }\n",
            "fn f() { let t = std::time::SystemTime::now(); let _ = t; }\n",
        ] {
            // Timing sanctuaries: the obs crate (any depth) and the
            // transport's deadline module.
            for file in [
                "crates/obs/src/clock.rs",
                "crates/obs/src/deep/nested.rs",
                "crates/transport/src/timing.rs",
            ] {
                assert!(strict(file, src).diagnostics.is_empty(), "{file}");
            }
            // Everywhere else, the relaxed profile included, timing fires.
            for file in [
                "crates/subspace/src/x.rs",
                "crates/linalg/src/par.rs",
                "crates/core/src/scheme.rs",
                "crates/transport/src/tcp.rs",
            ] {
                assert_eq!(rules_of(&strict(file, src)), vec![("timing", 1)], "{file}");
            }
            let out = relaxed("crates/transport/src/tcp.rs", src);
            assert_eq!(rules_of(&out), vec![("timing", 1)]);
        }
    }

    #[test]
    fn round_transport_code_is_not_a_socket_or_spawn_sanctuary() {
        // The wire roles and the tree driver are thread- and socket-free by
        // design: the staged driver sequences every tier on the caller's
        // thread and reaches the network only through the transport traits.
        let socket = "fn f() { let _ = std::net::TcpStream::connect(a); }\n";
        let spawn = "fn f() { std::thread::spawn(|| {}); }\n";
        for file in ["crates/core/src/wire.rs", "crates/core/src/tree.rs"] {
            assert!(has_rule(&strict(file, socket), "socket"), "{file}");
            assert!(has_rule(&strict(file, spawn), "spawn"), "{file}");
        }
    }

    #[test]
    fn transport_socket_files_must_arm_both_timeouts() {
        let armed = "fn f(s: &std::net::TcpStream) -> std::io::Result<()> {\n    s.set_read_timeout(Some(d))?;\n    s.set_write_timeout(Some(d))?;\n    Ok(())\n}\n";
        assert!(strict("crates/transport/src/tcp.rs", armed)
            .diagnostics
            .is_empty());
        let half = "fn f(s: &std::net::TcpStream) -> std::io::Result<()> {\n    s.set_read_timeout(Some(d))?;\n    Ok(())\n}\n";
        let out = strict("crates/transport/src/tcp.rs", half);
        assert_eq!(out.diagnostics.len(), 1);
        assert_eq!(out.diagnostics[0].rule, "socket");
        assert_eq!(out.diagnostics[0].line, 0);
        // Timeouts armed only inside test code do not count.
        let test_armed = "fn f(s: &std::net::TcpStream) {}\n\n#[cfg(test)]\nmod tests {\n    fn t(s: &std::net::TcpStream) {\n        s.set_read_timeout(Some(d)).ok();\n        s.set_write_timeout(Some(d)).ok();\n    }\n}\n";
        let out = strict("crates/transport/src/tcp.rs", test_armed);
        assert_eq!(rules_of(&out), vec![("socket", 0), ("socket", 0)]);
    }

    #[test]
    fn must_use_struct_and_solver_fn() {
        let bad = "pub struct Svd {\n    pub u: u8,\n}\n";
        let out = strict("crates/linalg/src/svd.rs", bad);
        assert_eq!(rules_of(&out), vec![("must-use", 1)]);
        let good = "#[must_use = \"dropping a factorization discards the work\"]\npub struct Svd {\n    pub u: u8,\n}\n";
        assert!(strict("crates/linalg/src/svd.rs", good)
            .diagnostics
            .is_empty());

        let bad =
            "pub fn solve_least_squares(\n    b: &[f64],\n) -> Vec<f64> {\n    Vec::new()\n}\n";
        let out = strict("crates/linalg/src/qr.rs", bad);
        assert_eq!(rules_of(&out), vec![("must-use", 1)]);
        let ok = "pub fn solve_least_squares(b: &[f64]) -> Result<Vec<f64>, Error> {\n    Ok(Vec::new())\n}\n";
        assert!(strict("crates/linalg/src/qr.rs", ok).diagnostics.is_empty());
        let ok_type = "pub fn kmeans(d: &[f64]) -> KMeansResult {\n    run(d)\n}\n";
        assert!(strict("crates/clustering/src/kmeans.rs", ok_type)
            .diagnostics
            .is_empty());
        let ok_attr = "#[must_use]\npub fn solve_norm(b: &[f64]) -> f64 {\n    0.0\n}\n";
        assert!(strict("crates/linalg/src/qr.rs", ok_attr)
            .diagnostics
            .is_empty());
    }

    #[test]
    fn ordering_requires_justification() {
        let bad = "fn f(a: &AtomicUsize) -> usize {\n    a.load(Ordering::Relaxed)\n}\n";
        let out = strict("crates/obs/src/x.rs", bad);
        assert_eq!(rules_of(&out), vec![("ordering", 2)]);
        assert_eq!(out.ordering_sites, vec![2]);

        let good = "fn f(a: &AtomicUsize) -> usize {\n    // ORDERING: monotonic counter, no data published\n    a.load(Ordering::Relaxed)\n}\n";
        let out = strict("crates/obs/src/x.rs", good);
        assert!(out.diagnostics.is_empty(), "{:?}", out.diagnostics);

        // Attributes may sit between the justification and the site.
        let attr = "fn f(a: &AtomicUsize) {\n    // ORDERING: monotonic counter, no data published\n    #[allow(unused)]\n    let v = a.load(Ordering::Relaxed);\n}\n";
        let out = strict("crates/obs/src/x.rs", attr);
        assert!(out.diagnostics.is_empty(), "{:?}", out.diagnostics);
    }

    #[test]
    fn suspicious_release_relaxed_pair_flagged() {
        let src = "fn pub_side(a: &AtomicUsize) {\n    // ORDERING: publishes the buffer write\n    a.store(1, Ordering::Release);\n}\nfn sub_side(a: &AtomicUsize) -> usize {\n    // ORDERING: peek\n    a.load(Ordering::Relaxed)\n}\n";
        let out = strict("crates/obs/src/x.rs", src);
        assert_eq!(rules_of(&out), vec![("ordering", 7)]);
        assert!(out.diagnostics[0].message.contains("suspicious pair"));

        // SeqCst publish + Relaxed probe is the sanctioned flag idiom.
        let src = "fn f(a: &AtomicBool) {\n    // ORDERING: global toggle\n    a.store(true, Ordering::SeqCst);\n}\nfn g(a: &AtomicBool) -> bool {\n    // ORDERING: stale reads fine\n    a.load(Ordering::Relaxed)\n}\n";
        let out = strict("crates/obs/src/x.rs", src);
        assert!(out.diagnostics.is_empty(), "{:?}", out.diagnostics);
    }

    #[test]
    fn lock_edges_and_cycles() {
        let src = "fn f(s: &S) {\n    let g = s.alpha.lock();\n    let h = s.beta.lock();\n    drop(h);\n    drop(g);\n}\nfn g(s: &S) {\n    let h = s.beta.lock();\n    let g = s.alpha.lock();\n    drop(g);\n    drop(h);\n}\n";
        let out = strict("crates/linalg/src/par.rs", src);
        assert_eq!(out.lock_edges.len(), 2);
        let cycles = detect_lock_cycles(&out.lock_edges);
        assert_eq!(cycles.len(), 1, "{cycles:?}");
        assert_eq!(cycles[0].rule, "lock-order");
        assert!(cycles[0].message.contains("par.rs:alpha"));
    }

    #[test]
    fn drop_and_statement_scope_release_locks() {
        // After drop(g) the next acquisition carries no edge.
        let src = "fn f(s: &S) {\n    let g = s.alpha.lock();\n    drop(g);\n    let h = s.beta.lock();\n    drop(h);\n}\n";
        let out = strict("crates/linalg/src/par.rs", src);
        assert!(out.lock_edges.is_empty(), "{:?}", out.lock_edges);

        // An unbound guard dies at the `;`.
        let src = "fn f(s: &S) {\n    s.alpha.lock().push(1);\n    let h = s.beta.lock();\n    drop(h);\n}\n";
        let out = strict("crates/linalg/src/par.rs", src);
        assert!(out.lock_edges.is_empty(), "{:?}", out.lock_edges);

        // A bound guard lives to block end: nested acquisition makes an edge.
        let src = "fn f(s: &S) {\n    let g = s.alpha.lock();\n    let h = s.beta.lock();\n    let _ = (g, h);\n}\n";
        let out = strict("crates/linalg/src/par.rs", src);
        assert_eq!(out.lock_edges.len(), 1);
        assert_eq!(out.lock_edges[0].held, "par.rs:alpha");
        assert_eq!(out.lock_edges[0].acquired, "par.rs:beta");
    }

    #[test]
    fn exact_registry_reconcile() {
        let reg = Allowlist::parse("crates/a/src/x.rs 2\ncrates/a/src/gone.rs 1\n");
        let mut seen = BTreeMap::new();
        seen.insert("crates/a/src/x.rs".to_string(), 1usize);
        seen.insert("crates/a/src/clean.rs".to_string(), 0usize);
        seen.insert("crates/a/src/new.rs".to_string(), 3usize);
        let diags = reconcile_exact(&reg, "panic-allowlist.txt", &seen);
        // x.rs count drifted, gone.rs is stale, new.rs is unlisted.
        assert_eq!(diags.len(), 3, "{diags:?}");
        assert!(diags.iter().all(|d| d.rule == "allowlist"));
    }

    #[test]
    fn count_file_parse_skips_comments_and_blanks() {
        let a = Allowlist::parse("# header\n\ncrates/a/src/x.rs 2\n  crates/b/src/y.rs   1  \n");
        assert_eq!(a.allowed("crates/a/src/x.rs"), 2);
        assert_eq!(a.allowed("crates/b/src/y.rs"), 1);
        assert_eq!(a.allowed("crates/c/src/z.rs"), 0);
        assert!(reconcile_exact(&a, "list.txt", &BTreeMap::new())
            .iter()
            .all(|d| d.file != "list.txt"));
    }

    #[test]
    fn malformed_and_duplicate_count_lines_are_reported() {
        let reg = Allowlist::parse(
            "# header\ncrates/a/src/x.rs 2x\ncrates/a/src/y.rs\ncrates/a/src/z.rs 1\ncrates/a/src/z.rs 3\n",
        );
        let mut seen = BTreeMap::new();
        seen.insert("crates/a/src/z.rs".to_string(), 1usize);
        let diags = reconcile_exact(&reg, "crates/xtask/panic-allowlist.txt", &seen);
        let lines: Vec<String> = diags
            .iter()
            .filter(|d| d.file == "crates/xtask/panic-allowlist.txt")
            .map(|d| d.to_string())
            .collect();
        assert_eq!(lines.len(), 3, "{diags:?}");
        assert!(
            lines[0].contains("line 2 `crates/a/src/x.rs 2x`"),
            "{lines:?}"
        );
        assert!(lines[1].contains("line 3 `crates/a/src/y.rs`"), "{lines:?}");
        assert!(
            lines[2].contains("line 5 repeats") && lines[2].contains("line 4"),
            "{lines:?}"
        );
        assert!(diags.iter().all(|d| d.rule == "allowlist" && d.line == 0));
        // The first entry wins: z.rs's one site matches it.
        assert_eq!(diags.len(), 3, "{diags:?}");
    }
}
