//! Exporters: Chrome `trace_event` JSON (Perfetto / `chrome://tracing`)
//! and a flat JSON metrics snapshot — plus a dependency-free validator
//! used by `cargo xtask validate-trace` and CI.
//!
//! Span events are emitted as complete (`"ph":"X"`) events with
//! microsecond `ts`/`dur`; the viewer reconstructs the span hierarchy
//! from time containment per `tid`, which matches how the spans nested
//! at runtime.

use crate::fleet::FleetSpan;
use crate::metrics::MetricsSnapshot;
use crate::trace::SpanEvent;
use std::fmt::Write as _;

/// Escapes a string into a JSON string body (no surrounding quotes).
fn escape_json(s: &str, out: &mut String) {
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
}

/// Nanoseconds → microseconds with three decimals, as Chrome expects.
fn push_us(ns: u64, out: &mut String) {
    let _ = write!(out, "{}.{:03}", ns / 1000, ns % 1000);
}

/// Emits one complete (`"ph":"X"`) event. `args` holds the span-identity
/// keys (`span_id`, and for parented spans `parent_span`/`parent_pid`;
/// none for id 0, a pre-identity or synthetic event) followed by the
/// count `fields`, and is left out when both are empty.
fn push_x_event(s: &FleetSpan, fields: &[(&str, u64)], out: &mut String) {
    out.push_str("{\"name\":\"");
    escape_json(&s.name, out);
    out.push_str("\",\"cat\":\"");
    escape_json(&s.cat, out);
    out.push_str("\",\"ph\":\"X\",\"ts\":");
    push_us(s.start_ns, out);
    out.push_str(",\"dur\":");
    push_us(s.dur_ns, out);
    let _ = write!(out, ",\"pid\":{},\"tid\":{}", s.pid, s.tid);
    if s.id != 0 || !fields.is_empty() {
        out.push_str(",\"args\":{");
        if s.id != 0 {
            let _ = write!(out, "\"span_id\":{}", s.id);
            if s.parent != 0 {
                let _ = write!(
                    out,
                    ",\"parent_span\":{},\"parent_pid\":{}",
                    s.parent, s.parent_pid
                );
            }
        }
        for (j, (key, value)) in fields.iter().enumerate() {
            if j > 0 || s.id != 0 {
                out.push(',');
            }
            out.push('"');
            escape_json(key, out);
            let _ = write!(out, "\":{value}");
        }
        out.push('}');
    }
    out.push('}');
}

/// Serializes span events as a Chrome `trace_event` JSON document, in
/// lane 1 with a local parent resolved to it ([`FleetSpan::from_event`]).
pub fn chrome_trace_json(events: &[SpanEvent]) -> String {
    let mut out = String::with_capacity(64 + events.len() * 96);
    out.push_str("{\"traceEvents\":[");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_x_event(&FleetSpan::from_event(ev, 1), &ev.fields, &mut out);
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// Serializes a merged fleet trace: one Chrome `pid` lane per process
/// (named via `process_name` metadata events from `process_names`), all
/// timestamps already aligned to the root clock by the envelope path.
pub fn fleet_chrome_trace_json(spans: &[FleetSpan], process_names: &[(u64, String)]) -> String {
    let mut out = String::with_capacity(128 + spans.len() * 128);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    for (pid, name) in process_names {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":{pid},\"args\":{{\"name\":\""
        );
        escape_json(name, &mut out);
        out.push_str("\"}}");
    }
    for s in spans {
        if !first {
            out.push(',');
        }
        first = false;
        push_x_event(s, &[], &mut out);
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// Serializes a metrics snapshot as flat JSON: `{"counters":{name:value,…}}`.
pub fn metrics_json(snap: &MetricsSnapshot) -> String {
    let mut out = String::with_capacity(256);
    out.push_str("{\"counters\":{");
    for (i, (name, value)) in snap.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_json(name, &mut out);
        let _ = write!(out, "\":{value}");
    }
    out.push_str("}}");
    out
}

// ---------------------------------------------------------------------------
// Validation: a minimal recursive-descent JSON reader, enough to check that
// an exported trace is well-formed `trace_event` JSON without pulling in a
// serde stack.
// ---------------------------------------------------------------------------

/// Parsed JSON value (validation-oriented: numbers stay `f64`).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object as ordered key/value pairs (duplicates preserved).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

const MAX_DEPTH: usize = 64;

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("json error at byte {}: {msg}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, want: u8) -> Result<(), String> {
        if self.bump() == Some(want) {
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", want as char)))
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(depth),
            Some(b'[') => self.parse_array(depth),
            Some(b'"') => self.parse_string().map(Json::Str),
            Some(b't') => self.parse_keyword("true", Json::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Json::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(c) => Err(self.err(&format!("unexpected `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn parse_number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid utf-8 in number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("malformed number"))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .bump()
                                .and_then(|c| (c as char).to_digit(16))
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            code = code * 16 + d;
                        }
                        // Surrogates collapse to the replacement char:
                        // fine for validation purposes.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(self.err("bad escape")),
                },
                Some(c) if c < 0x20 => return Err(self.err("raw control char in string")),
                Some(c) => {
                    // Re-assemble multi-byte utf-8 sequences.
                    let len = utf8_len(c);
                    if len == 1 {
                        out.push(c as char);
                    } else {
                        let start = self.pos - 1;
                        let end = start + len;
                        if end > self.bytes.len() {
                            return Err(self.err("truncated utf-8"));
                        }
                        let s = std::str::from_utf8(&self.bytes[start..end])
                            .map_err(|_| self.err("invalid utf-8"))?;
                        out.push_str(s);
                        self.pos = end;
                    }
                }
            }
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.parse_value(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Arr(items)),
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect_byte(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            let value = self.parse_value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Obj(pairs)),
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        0xF0..=0xF7 => 4,
        _ => 1,
    }
}

/// Parses a complete JSON document.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.parse_value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after document"));
    }
    Ok(v)
}

/// Validates that `text` is well-formed Chrome `trace_event` JSON: a root
/// object with a `traceEvents` array whose entries each carry a string
/// `name`, string `ph`, and numeric `ts` (plus numeric `dur` for `"X"`
/// complete events, whose `args`, when present, are all counts:
/// non-negative integers). Returns the event count.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    let doc = parse_json(text)?;
    let events = match doc.get("traceEvents") {
        Some(Json::Arr(events)) => events,
        Some(_) => return Err("`traceEvents` is not an array".to_string()),
        None => return Err("missing `traceEvents` key".to_string()),
    };
    for (i, ev) in events.iter().enumerate() {
        let obj = match ev {
            Json::Obj(_) => ev,
            _ => return Err(format!("traceEvents[{i}] is not an object")),
        };
        match obj.get("name") {
            Some(Json::Str(_)) => {}
            _ => return Err(format!("traceEvents[{i}] lacks a string `name`")),
        }
        let ph = match obj.get("ph") {
            Some(Json::Str(ph)) => ph.clone(),
            _ => return Err(format!("traceEvents[{i}] lacks a string `ph`")),
        };
        match obj.get("ts") {
            Some(Json::Num(ts)) if ts.is_finite() && *ts >= 0.0 => {}
            _ => return Err(format!("traceEvents[{i}] lacks a finite `ts`")),
        }
        if ph == "X" {
            match obj.get("dur") {
                Some(Json::Num(d)) if d.is_finite() && *d >= 0.0 => {}
                _ => return Err(format!("traceEvents[{i}] is `X` without a finite `dur`")),
            }
            let args = match obj.get("args") {
                None => &[][..],
                Some(Json::Obj(args)) => &args[..],
                Some(_) => return Err(format!("traceEvents[{i}] has non-object `args`")),
            };
            for (key, value) in args {
                match value {
                    Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => {}
                    _ => return Err(format!("traceEvents[{i}] arg `{key}` is not a count")),
                }
            }
        }
    }
    Ok(events.len())
}

/// Tolerance for the child-before-parent check, in microseconds. Clock
/// offsets come from a midpoint estimator whose worst-case error is half
/// the handshake RTT; on the loopback/LAN links the fleet runs over that
/// is well under a millisecond.
const CROSS_PROCESS_SLACK_US: f64 = 1_000.0;

/// Validates cross-process causality on a (merged) Chrome trace, on top
/// of [`validate_chrome_trace`]'s structural checks: every `X` event
/// carrying a `parent_span` arg must name a parent `(parent_pid,
/// parent_span)` that exists in the trace, and must not start earlier
/// than its parent (beyond the clock-offset slack). Returns `(events,
/// checked_edges)`; a trace with zero parented spans fails — a merged
/// fleet trace with no causal links means propagation is broken.
pub fn validate_cross_process(text: &str) -> Result<(usize, usize), String> {
    let n = validate_chrome_trace(text)?;
    let doc = parse_json(text)?;
    let events = match doc.get("traceEvents") {
        Some(Json::Arr(events)) => events,
        _ => return Err("missing `traceEvents` array".to_string()),
    };
    let num = |ev: &Json, key: &str| -> Option<f64> {
        match ev.get(key) {
            Some(Json::Num(v)) => Some(*v),
            _ => None,
        }
    };
    let arg = |ev: &Json, key: &str| -> Option<f64> { ev.get("args").and_then(|a| num(a, key)) };
    // First pass: index every span by (pid, span_id) → start ts.
    let mut starts: std::collections::BTreeMap<(u64, u64), f64> = std::collections::BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        if let (Some(pid), Some(id), Some(ts)) = (num(ev, "pid"), arg(ev, "span_id"), num(ev, "ts"))
        {
            if id != 0.0 && starts.insert((pid as u64, id as u64), ts).is_some() {
                return Err(format!(
                    "traceEvents[{i}]: duplicate span id {id} in pid {pid}"
                ));
            }
        }
    }
    // Second pass: resolve every parent edge.
    let mut edges = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let Some(parent) = arg(ev, "parent_span") else {
            continue;
        };
        let ppid = arg(ev, "parent_pid")
            .or_else(|| num(ev, "pid"))
            .unwrap_or(0.0);
        let key = (ppid as u64, parent as u64);
        let Some(&parent_ts) = starts.get(&key) else {
            return Err(format!(
                "traceEvents[{i}]: parent span {parent} in pid {ppid} does not exist in the trace"
            ));
        };
        let ts = num(ev, "ts").unwrap_or(0.0);
        if ts + CROSS_PROCESS_SLACK_US < parent_ts {
            return Err(format!(
                "traceEvents[{i}]: starts at {ts}us, {}us before its pid-{ppid} parent at {parent_ts}us",
                parent_ts - ts
            ));
        }
        edges += 1;
    }
    if edges == 0 {
        return Err("trace has no parent-linked spans — causal propagation is broken".to_string());
    }
    Ok((n, edges))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_event() -> SpanEvent {
        SpanEvent {
            cat: "phase",
            name: "local.ssc",
            tid: 2,
            id: 0,
            parent: 0,
            parent_pid: 0,
            start_ns: 1_234_567,
            dur_ns: 89_012,
            fields: vec![("device", 3), ("samples", 40)],
        }
    }

    #[test]
    fn chrome_export_round_trips_through_validator() {
        let text = chrome_trace_json(&[demo_event(), demo_event()]);
        assert_eq!(validate_chrome_trace(&text), Ok(2));
        // Microsecond conversion: 1_234_567 ns = 1234.567 us.
        assert!(text.contains("\"ts\":1234.567"), "{text}");
        assert!(text.contains("\"dur\":89.012"), "{text}");
        assert!(text.contains("\"args\":{\"device\":3,\"samples\":40}"));
    }

    #[test]
    fn count_fields_export_exactly() {
        // The whole document, pinned: identity args first, then the counts
        // in recording order, as trace readers expect them.
        let ev = SpanEvent {
            id: 5,
            parent: 3,
            ..demo_event()
        };
        assert_eq!(
            chrome_trace_json(&[ev]),
            "{\"traceEvents\":[{\"name\":\"local.ssc\",\"cat\":\"phase\",\"ph\":\"X\",\
             \"ts\":1234.567,\"dur\":89.012,\"pid\":1,\"tid\":2,\"args\":{\"span_id\":5,\
             \"parent_span\":3,\"parent_pid\":1,\"device\":3,\"samples\":40}}],\
             \"displayTimeUnit\":\"ms\"}"
        );
    }

    #[test]
    fn validator_rejects_args_that_are_not_counts() {
        let event = |args: &str| {
            format!(
                "{{\"traceEvents\":[{{\"name\":\"a\",\"ph\":\"X\",\"ts\":0,\"dur\":1,\"args\":{args}}}]}}"
            )
        };
        assert_eq!(validate_chrome_trace(&event("{\"n\":3}")), Ok(1));
        for (args, why) in [
            ("{\"rho\":0.5}", "float"),
            ("{\"n\":-1}", "negative"),
            ("{\"ok\":true}", "bool"),
            ("{\"backend\":\"ssc\"}", "string"),
            ("{\"bad\":null}", "null"),
            ("[1]", "args not an object"),
        ] {
            assert!(validate_chrome_trace(&event(args)).is_err(), "{why}");
        }
        // Metadata events keep their string names.
        let names = fleet_chrome_trace_json(&[], &[(1, "root".to_string())]);
        assert_eq!(validate_chrome_trace(&names), Ok(1));
    }

    #[test]
    fn empty_trace_is_valid() {
        let text = chrome_trace_json(&[]);
        assert_eq!(validate_chrome_trace(&text), Ok(0));
    }

    #[test]
    fn metrics_export_is_parseable_and_sorted() {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("b.count".to_string(), 2);
        snap.counters.insert("a.count".to_string(), 1);
        let text = metrics_json(&snap);
        let doc = parse_json(&text).expect("parses");
        // Counters are the one metric kind: the document has no other key.
        match &doc {
            Json::Obj(pairs) => {
                let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["counters"]);
            }
            other => panic!("metrics export is not an object: {other:?}"),
        }
        assert_eq!(
            doc.get("counters").and_then(|c| c.get("a.count")),
            Some(&Json::Num(1.0))
        );
        // BTree ordering: "a.count" serialized before "b.count".
        assert!(text.find("a.count") < text.find("b.count"));
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        for (text, why) in [
            ("", "empty"),
            ("{", "unclosed object"),
            ("[]", "no traceEvents"),
            ("{\"traceEvents\":1}", "traceEvents not an array"),
            ("{\"traceEvents\":[{\"ph\":\"X\"}]}", "event without name"),
            (
                "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\",\"ts\":0}]}",
                "X event without dur",
            ),
            ("{\"traceEvents\":[]} trailing", "trailing data"),
        ] {
            assert!(validate_chrome_trace(text).is_err(), "{why}");
        }
    }

    fn fleet_span(pid: u64, id: u64, parent: u64, parent_pid: u64, start_ns: u64) -> FleetSpan {
        FleetSpan {
            pid,
            tid: 1,
            id,
            parent,
            parent_pid,
            start_ns,
            dur_ns: 1_000,
            cat: "wire".to_string(),
            name: "wire.uplink".to_string(),
        }
    }

    #[test]
    fn identity_args_are_emitted_and_survive_validation() {
        let mut ev = demo_event();
        ev.id = 5;
        ev.parent = 3;
        let parent = SpanEvent {
            id: 3,
            parent: 0,
            fields: Vec::new(),
            start_ns: 1_000_000,
            ..demo_event()
        };
        let text = chrome_trace_json(&[parent, ev]);
        assert!(text.contains("\"span_id\":5"), "{text}");
        assert!(
            text.contains("\"parent_span\":3,\"parent_pid\":1"),
            "local parent resolves to pid 1: {text}"
        );
        let (events, edges) = validate_cross_process(&text).expect("valid");
        assert_eq!((events, edges), (2, 1));
    }

    #[test]
    fn local_and_fleet_exports_write_the_same_event() {
        // A field-less local span and its lane-1 fleet form are one event:
        // both exporters go through the one writer.
        for (id, parent, parent_pid) in [(0, 0, 0), (5, 0, 0), (5, 3, 0), (5, 3, 1000)] {
            let ev = SpanEvent {
                id,
                parent,
                parent_pid,
                fields: Vec::new(),
                ..demo_event()
            };
            let fleet = fleet_chrome_trace_json(&[FleetSpan::from_event(&ev, 1)], &[]);
            assert_eq!(chrome_trace_json(&[ev]), fleet);
        }
    }

    #[test]
    fn fleet_export_names_lanes_and_validates() {
        let spans = vec![
            fleet_span(1000, 1, 0, 0, 5_000_000),
            fleet_span(1, 2, 1, 1000, 9_000_000),
        ];
        let names = vec![
            (1u64, "root".to_string()),
            (1000u64, "device-0".to_string()),
        ];
        let text = fleet_chrome_trace_json(&spans, &names);
        assert!(text.contains("\"process_name\""), "{text}");
        assert!(text.contains("\"pid\":1000"), "{text}");
        let (events, edges) = validate_cross_process(&text).expect("valid fleet trace");
        assert_eq!(events, 4, "2 metadata + 2 spans");
        assert_eq!(edges, 1);
    }

    #[test]
    fn cross_process_validation_catches_broken_causality() {
        // Missing parent: the child names (pid 1000, id 9) which no one owns.
        let orphan = vec![fleet_span(1, 2, 9, 1000, 9_000_000)];
        let text = fleet_chrome_trace_json(&orphan, &[]);
        assert!(validate_cross_process(&text).is_err_and(|e| e.contains("does not exist")));

        // Child starts (beyond slack) before its parent: offsets are wrong.
        let skewed = vec![
            fleet_span(1000, 1, 0, 0, 9_000_000),
            fleet_span(1, 2, 1, 1000, 1_000_000),
        ];
        let text = fleet_chrome_trace_json(&skewed, &[]);
        assert!(validate_cross_process(&text).is_err_and(|e| e.contains("before its")));

        // No links at all: a merged trace must carry causal edges.
        let flat = vec![fleet_span(1, 1, 0, 0, 0), fleet_span(2, 1, 0, 0, 0)];
        let text = fleet_chrome_trace_json(&flat, &[]);
        assert!(validate_cross_process(&text).is_err_and(|e| e.contains("no parent-linked")));

        // Duplicate (pid, id): lanes collided.
        let dup = vec![fleet_span(1, 1, 0, 0, 0), fleet_span(1, 1, 0, 0, 5)];
        let text = fleet_chrome_trace_json(&dup, &[]);
        assert!(validate_cross_process(&text).is_err_and(|e| e.contains("duplicate")));
    }

    #[test]
    fn parser_handles_escapes_numbers_and_nesting() {
        let doc = parse_json(
            "{\"s\":\"a\\n\\u0041\\\"\",\"n\":[-1.5e2,0.25],\"b\":[true,false,null],\"o\":{\"k\":{}}}",
        )
        .expect("parses");
        assert_eq!(doc.get("s"), Some(&Json::Str("a\nA\"".to_string())));
        assert_eq!(
            doc.get("n"),
            Some(&Json::Arr(vec![Json::Num(-150.0), Json::Num(0.25)]))
        );
    }

    #[test]
    fn parser_depth_limit_is_enforced() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse_json(&deep).is_err());
    }
}
