//! Diagnostics and the SARIF-style JSON report for
//! `cargo xtask audit --report-out`.
//!
//! Emits a minimal SARIF 2.1.0 document — one run, one result per
//! diagnostic — hand-rolled because the workspace is dependency-free. The
//! subset used here (tool.driver with rule metadata, results with ruleId /
//! level / message / one physical location) is what code-scanning UIs and
//! `sarif-tools` consume; anything fancier is omitted.

use std::fmt::{self, Write as _};

/// One `file:line: [rule] message` finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line, or 0 for file-level findings.
    pub line: usize,
    /// Short rule tag (`panic`, `rng`, `timing`, `must-use`, `allowlist`, ...).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// A finding that concerns the whole file (rendered without a line).
    pub fn file_level(file: String, rule: &'static str, message: &str) -> Self {
        Diagnostic {
            file,
            line: 0,
            rule,
            message: message.to_string(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}: [{}] {}", self.file, self.rule, self.message)
        } else {
            write!(
                f,
                "{}:{}: [{}] {}",
                self.file, self.line, self.rule, self.message
            )
        }
    }
}

/// The rule vocabulary `audit` can emit, with one-line help text carried
/// into the report's rule metadata.
const RULE_HELP: &[(&str, &str)] = &[
    (
        "panic",
        "panic freedom: no unwrap/expect/panic! in library code",
    ),
    (
        "rng",
        "deterministic randomness: no entropy sources or hash-order iteration",
    ),
    (
        "timing",
        "sanctioned timing: wall clock confined to the obs crate",
    ),
    ("must-use", "solver results must be unignorable"),
    (
        "socket",
        "raw sockets confined to the transport crate, timeouts armed",
    ),
    (
        "spawn",
        "thread creation confined to the pool and transport sanctuaries",
    ),
    (
        "allowlist",
        "panic allowlist must match INVARIANT sites exactly",
    ),
    (
        "ordering",
        "atomics: ORDERING justifications and happens-before pairing",
    ),
    ("lock-order", "lock acquisition graph: no cycles"),
    ("io", "file could not be read as UTF-8"),
];

/// Renders `diagnostics` as a SARIF 2.1.0 JSON document.
pub fn sarif(diagnostics: &[Diagnostic]) -> String {
    let mut rules = String::new();
    for (i, (id, help)) in RULE_HELP.iter().enumerate() {
        if i > 0 {
            rules.push(',');
        }
        let _ = write!(
            rules,
            r#"{{"id":{},"shortDescription":{{"text":{}}}}}"#,
            json_str(id),
            json_str(help)
        );
    }

    let mut results = String::new();
    for (i, d) in diagnostics.iter().enumerate() {
        if i > 0 {
            results.push(',');
        }
        // SARIF regions are 1-based; file-level findings anchor at line 1.
        let line = d.line.max(1);
        let _ = write!(
            results,
            concat!(
                r#"{{"ruleId":{rule},"level":"error","message":{{"text":{msg}}},"#,
                r#""locations":[{{"physicalLocation":{{"artifactLocation":"#,
                r#"{{"uri":{uri}}},"region":{{"startLine":{line}}}}}}}]}}"#
            ),
            rule = json_str(d.rule),
            msg = json_str(&d.message),
            uri = json_str(&d.file),
            line = line,
        );
    }

    format!(
        concat!(
            r#"{{"version":"2.1.0","#,
            r#""$schema":"https://json.schemastore.org/sarif-2.1.0.json","#,
            r#""runs":[{{"tool":{{"driver":{{"name":"fedsc-xtask-audit","#,
            r#""informationUri":"https://example.invalid/fedsc","rules":[{rules}]}}}},"#,
            r#""results":[{results}]}}]}}"#
        ),
        rules = rules,
        results = results,
    )
}

/// JSON string literal with the escapes the diagnostics can contain.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_is_valid_shape() {
        let doc = sarif(&[]);
        assert!(doc.starts_with('{') && doc.ends_with('}'));
        assert!(doc.contains("\"version\":\"2.1.0\""));
        assert!(doc.contains("fedsc-xtask-audit"));
        assert!(doc.contains("\"results\":[]"));
    }

    #[test]
    fn diagnostics_round_into_results() {
        let d = Diagnostic {
            file: "crates/linalg/src/par.rs".to_string(),
            line: 42,
            rule: "ordering",
            message: "a \"quoted\" message\nwith newline".to_string(),
        };
        assert!(d
            .to_string()
            .starts_with("crates/linalg/src/par.rs:42: [ordering] a"));
        let doc = sarif(&[d]);
        assert!(doc.contains(r#""ruleId":"ordering""#));
        assert!(doc.contains(r#""startLine":42"#));
        assert!(doc.contains(r#"\"quoted\""#));
        assert!(doc.contains(r#"\n"#));
        // File-level findings clamp to line 1.
        let d0 = Diagnostic::file_level("x.rs".to_string(), "allowlist", "stale");
        assert_eq!(d0.to_string(), "x.rs: [allowlist] stale");
        assert!(sarif(&[d0]).contains(r#""startLine":1"#));
    }
}
