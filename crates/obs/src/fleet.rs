//! Cross-process fleet telemetry: the in-band envelope that carries a
//! [`TraceContext`], a merged [`MetricsSnapshot`], and completed span
//! lanes up an aggregation tree, plus the [`FleetCollector`] each
//! receiving tier uses to absorb and re-merge them.
//!
//! ## Envelope wire format (`FSCE`, version 4)
//!
//! An envelope is an optional *prefix* on an uplink payload. All integers
//! are little-endian:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "FSCE"
//! 4       2     version (4)
//! 6       2     section flags (bit 0 ctx, bit 1 metrics, bit 2 spans)
//! 8       4     total envelope length = offset of the inner payload
//! 12      ...   sections, in flag-bit order
//! ```
//!
//! The ctx section is 16 fixed bytes: the sender's lane and span id
//! (`u64` each), so a ctx-only envelope is 28 bytes. The metrics section
//! is the counter table: a `u32` count of (name, `u64` value) pairs,
//! names as `u16` length + UTF-8. Versions 1 to 3 carried a 48-byte ctx,
//! and versions 1 and 2 further metric tables; an envelope of any of
//! them is rejected.
//! The spans section is a `u32` count of [`FleetSpan`] records. A
//! payload that does not start with the magic has no envelope; decoding
//! never guesses. The 16 high bits of the inner `UplinkMessage` sample
//! count would have to be `0x4546` ("EF") for a false positive — sample
//! counts are small, so the magic is unambiguous in practice.
//!
//! ## Clock alignment
//!
//! Every process stamps spans against its own trace epoch
//! ([`crate::now_ns`]). Before serializing, a sender shifts all span
//! timestamps (its own and any absorbed descendants') by its estimated
//! offset to its parent's clock, so offsets compose transitively up the
//! tree and the root receives root-clock times directly.

use crate::metrics::MetricsSnapshot;
use crate::trace::SpanEvent;
use std::collections::BTreeMap;

/// Envelope magic bytes.
pub const ENVELOPE_MAGIC: [u8; 4] = *b"FSCE";
/// Envelope wire version.
pub const ENVELOPE_VERSION: u16 = 4;

const SECT_CTX: u16 = 1 << 0;
const SECT_METRICS: u16 = 1 << 1;
const SECT_SPANS: u16 = 1 << 2;
const HEADER_LEN: usize = 12;
const CTX_LEN: usize = 16;

/// Causal context carried with an uplink: the one parent link of the
/// receiver's handling span, the span on the sender's side that the
/// receiver records via [`crate::Span::remote_parent`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceContext {
    /// Sender's process lane (Chrome `pid`).
    pub pid: u64,
    /// Id of the sender's completed span that the receiver's handling
    /// span links to (0 if the sender was untraced).
    pub parent_span: u64,
}

/// One completed span with its process lane attached — the cross-process
/// form of [`SpanEvent`] (fields are dropped; identity, timing, and
/// naming survive the wire).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetSpan {
    /// Process lane (Chrome `pid`).
    pub pid: u64,
    /// Recording thread within the process.
    pub tid: u64,
    /// Span id, unique within `pid`.
    pub id: u64,
    /// Parent span id, 0 for a root span.
    pub parent: u64,
    /// Lane of the parent span; equal to `pid` for a local parent.
    /// 0 if and only if `parent` is 0.
    pub parent_pid: u64,
    /// Start in the carrying process's clock (root clock at the root).
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Category.
    pub cat: String,
    /// Span name.
    pub name: String,
}

impl FleetSpan {
    /// Lifts a local [`SpanEvent`] into lane `pid`, resolving a local
    /// parent (`parent_pid == 0`) to the absolute lane.
    pub fn from_event(ev: &SpanEvent, pid: u64) -> Self {
        FleetSpan {
            pid,
            tid: ev.tid,
            id: ev.id,
            parent: ev.parent,
            parent_pid: if ev.parent == 0 {
                0
            } else if ev.parent_pid == 0 {
                pid
            } else {
                ev.parent_pid
            },
            start_ns: ev.start_ns,
            dur_ns: ev.dur_ns,
            cat: ev.cat.to_string(),
            name: ev.name.to_string(),
        }
    }

    /// Shifts the start timestamp by a clock offset (saturating at 0: a
    /// sender whose parent started later can at worst clamp to the
    /// parent's epoch, never wrap).
    pub fn shift(&mut self, offset_ns: i64) {
        self.start_ns = self.start_ns.saturating_add_signed(offset_ns);
    }
}

/// The decoded in-band telemetry prefix of an uplink payload.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Envelope {
    /// Causal context of this hop.
    pub ctx: Option<TraceContext>,
    /// Metrics merged over the sender's subtree (real-process mode only).
    pub metrics: Option<MetricsSnapshot>,
    /// Completed spans of the sender's subtree, in the sender's clock.
    pub spans: Vec<FleetSpan>,
}

impl Envelope {
    /// Whether the envelope carries nothing (and [`Envelope::wrap`] would
    /// return the payload unchanged).
    pub fn is_empty(&self) -> bool {
        self.ctx.is_none() && self.metrics.is_none() && self.spans.is_empty()
    }

    /// Serializes the envelope alone (header + sections).
    pub fn encode(&self) -> Vec<u8> {
        let mut flags = 0u16;
        if self.ctx.is_some() {
            flags |= SECT_CTX;
        }
        if self.metrics.is_some() {
            flags |= SECT_METRICS;
        }
        if !self.spans.is_empty() {
            flags |= SECT_SPANS;
        }
        let mut out = Vec::with_capacity(HEADER_LEN + CTX_LEN);
        out.extend_from_slice(&ENVELOPE_MAGIC);
        out.extend_from_slice(&ENVELOPE_VERSION.to_le_bytes());
        out.extend_from_slice(&flags.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes()); // total length, patched below
        if let Some(ctx) = &self.ctx {
            out.extend_from_slice(&ctx.pid.to_le_bytes());
            out.extend_from_slice(&ctx.parent_span.to_le_bytes());
        }
        if let Some(snap) = &self.metrics {
            encode_metrics(snap, &mut out);
        }
        if !self.spans.is_empty() {
            out.extend_from_slice(&(self.spans.len() as u32).to_le_bytes());
            for s in &self.spans {
                for v in [
                    s.pid,
                    s.tid,
                    s.id,
                    s.parent,
                    s.parent_pid,
                    s.start_ns,
                    s.dur_ns,
                ] {
                    out.extend_from_slice(&v.to_le_bytes());
                }
                encode_str(&s.cat, &mut out);
                encode_str(&s.name, &mut out);
            }
        }
        let total = out.len() as u32;
        out[8..12].copy_from_slice(&total.to_le_bytes());
        out
    }

    /// Serialized envelope length in bytes (0 when empty — [`wrap`]
    /// forwards an unprefixed payload then).
    ///
    /// [`wrap`]: Envelope::wrap
    pub fn encoded_len(&self) -> usize {
        if self.is_empty() {
            0
        } else {
            self.encode().len()
        }
    }

    /// Prefixes `payload` with this envelope. An empty envelope returns
    /// the payload unchanged, so untraced senders stay byte-identical.
    pub fn wrap(&self, payload: &[u8]) -> Vec<u8> {
        if self.is_empty() {
            return payload.to_vec();
        }
        let mut out = self.encode();
        out.extend_from_slice(payload);
        out
    }

    /// Splits a received payload into its optional envelope and the
    /// offset where the inner payload begins. A payload without the
    /// magic is passed through as `(None, 0)`; a payload *with* the
    /// magic that fails to decode is an error (never silently fed to the
    /// inner decoder).
    pub fn strip(bytes: &[u8]) -> Result<(Option<Envelope>, usize), &'static str> {
        if bytes.len() < HEADER_LEN || bytes[..4] != ENVELOPE_MAGIC {
            return Ok((None, 0));
        }
        let mut cur = Cursor { bytes, pos: 4 };
        let version = cur.u16()?;
        if version != ENVELOPE_VERSION {
            return Err("unsupported envelope version");
        }
        let flags = cur.u16()?;
        if flags & !(SECT_CTX | SECT_METRICS | SECT_SPANS) != 0 {
            return Err("unknown envelope section flags");
        }
        let total = cur.u32()? as usize;
        if total < HEADER_LEN || total > bytes.len() {
            return Err("envelope length out of range");
        }
        let mut env = Envelope::default();
        if flags & SECT_CTX != 0 {
            env.ctx = Some(TraceContext {
                pid: cur.u64()?,
                parent_span: cur.u64()?,
            });
        }
        if flags & SECT_METRICS != 0 {
            env.metrics = Some(decode_metrics(&mut cur)?);
        }
        if flags & SECT_SPANS != 0 {
            let n = cur.u32()? as usize;
            if n > (total - HEADER_LEN) / 58 + 1 {
                return Err("span count exceeds envelope length");
            }
            let mut spans = Vec::with_capacity(n);
            for _ in 0..n {
                let (pid, tid, id) = (cur.u64()?, cur.u64()?, cur.u64()?);
                let (parent, parent_pid) = (cur.u64()?, cur.u64()?);
                let (start_ns, dur_ns) = (cur.u64()?, cur.u64()?);
                let cat = cur.string()?;
                let name = cur.string()?;
                spans.push(FleetSpan {
                    pid,
                    tid,
                    id,
                    parent,
                    parent_pid,
                    start_ns,
                    dur_ns,
                    cat,
                    name,
                });
            }
            env.spans = spans;
        }
        if cur.pos != total {
            return Err("envelope sections disagree with declared length");
        }
        Ok((Some(env), total))
    }
}

fn encode_str(s: &str, out: &mut Vec<u8>) {
    let bytes = s.as_bytes();
    let len = bytes.len().min(u16::MAX as usize);
    out.extend_from_slice(&(len as u16).to_le_bytes());
    out.extend_from_slice(&bytes[..len]);
}

fn encode_metrics(snap: &MetricsSnapshot, out: &mut Vec<u8>) {
    out.extend_from_slice(&(snap.counters.len() as u32).to_le_bytes());
    for (name, v) in &snap.counters {
        encode_str(name, out);
        out.extend_from_slice(&v.to_le_bytes());
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], &'static str> {
        let end = self.pos.checked_add(n).ok_or("envelope offset overflow")?;
        if end > self.bytes.len() {
            return Err("truncated envelope");
        }
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u16(&mut self) -> Result<u16, &'static str> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, &'static str> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, &'static str> {
        let b = self.take(8)?;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(b);
        Ok(u64::from_le_bytes(buf))
    }

    fn string(&mut self) -> Result<String, &'static str> {
        let len = self.u16()? as usize;
        let b = self.take(len)?;
        String::from_utf8(b.to_vec()).map_err(|_| "invalid utf-8 in envelope string")
    }
}

fn decode_metrics(cur: &mut Cursor<'_>) -> Result<MetricsSnapshot, &'static str> {
    let mut snap = MetricsSnapshot::default();
    let cap = cur.bytes.len(); // every entry consumes ≥ 2 bytes; bounds the loop
    let n = cur.u32()? as usize;
    if n > cap {
        return Err("counter count exceeds envelope length");
    }
    for _ in 0..n {
        let name = cur.string()?;
        let v = cur.u64()?;
        snap.counters.insert(name, v);
    }
    Ok(snap)
}

/// Accumulates the telemetry of a subtree: absorbed child envelopes plus
/// the local process's own lane, ready to export at the root or to
/// forward (shifted into the parent's clock) from an aggregator.
#[derive(Debug, Clone, Default)]
pub struct FleetCollector {
    /// All collected spans, in this process's clock.
    pub spans: Vec<FleetSpan>,
    /// Merged metrics over the subtree.
    pub metrics: MetricsSnapshot,
    /// Total serialized envelope bytes absorbed — the exact payload
    /// overhead telemetry added on this node's ingress.
    pub envelope_bytes: usize,
}

impl FleetCollector {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs one child envelope whose serialized form occupied
    /// `env_bytes` bytes of uplink payload.
    pub fn absorb(&mut self, env: &Envelope, env_bytes: usize) {
        self.envelope_bytes += env_bytes;
        if let Some(m) = &env.metrics {
            self.metrics.merge(m);
        }
        self.spans.extend(env.spans.iter().cloned());
    }

    /// Adds this process's own completed spans under lane `pid`.
    pub fn add_local_events(&mut self, events: &[SpanEvent], pid: u64) {
        self.spans
            .extend(events.iter().map(|ev| FleetSpan::from_event(ev, pid)));
    }

    /// Merges this process's own metrics snapshot into the subtree's.
    pub fn merge_metrics(&mut self, snap: &MetricsSnapshot) {
        self.metrics.merge(snap);
    }

    /// Shifts every collected span into the parent's clock before
    /// forwarding (offsets compose transitively up the tree).
    pub fn shift(&mut self, offset_ns: i64) {
        for s in &mut self.spans {
            s.shift(offset_ns);
        }
    }

    /// Packages the subtree's telemetry for the next uplink hop.
    ///
    /// A one-shot sender necessarily ships while its enclosing round
    /// span is still open, so its completed spans may carry parent links
    /// to spans that will never leave the process. Any parent reference
    /// pointing outside the shipped set is cut here — the span survives
    /// as a lane root — so a merged fleet trace always resolves every
    /// parent edge it contains.
    pub fn to_envelope(&self, ctx: Option<TraceContext>) -> Envelope {
        let present: BTreeMap<(u64, u64), ()> =
            self.spans.iter().map(|s| ((s.pid, s.id), ())).collect();
        let mut spans = self.spans.clone();
        for s in &mut spans {
            if s.parent != 0 && !present.contains_key(&(s.parent_pid, s.parent)) {
                s.parent = 0;
                s.parent_pid = 0;
            }
        }
        let empty = MetricsSnapshot::default();
        Envelope {
            ctx,
            metrics: if self.metrics == empty {
                None
            } else {
                Some(self.metrics.clone())
            },
            spans,
        }
    }

    /// Sorted distinct process lanes seen so far.
    pub fn pids(&self) -> Vec<u64> {
        let set: BTreeMap<u64, ()> = self.spans.iter().map(|s| (s.pid, ())).collect();
        set.into_keys().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_ctx() -> TraceContext {
        TraceContext {
            pid: 1003,
            parent_span: 42,
        }
    }

    fn demo_span(pid: u64, id: u64) -> FleetSpan {
        FleetSpan {
            pid,
            tid: 1,
            id,
            parent: 0,
            parent_pid: 0,
            start_ns: 1_000,
            dur_ns: 500,
            cat: "wire".to_string(),
            name: "wire.device_round".to_string(),
        }
    }

    fn demo_metrics() -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("a".to_string(), 3);
        snap
    }

    #[test]
    fn to_envelope_cuts_parent_links_that_cannot_ship() {
        let mut fleet = FleetCollector::new();
        // Span 2 hangs off span 1 (an open round span that never ships);
        // span 3 hangs off span 2, which does ship.
        let mut orphan = demo_span(1003, 2);
        orphan.parent = 1;
        orphan.parent_pid = 1003;
        let mut child = demo_span(1003, 3);
        child.parent = 2;
        child.parent_pid = 1003;
        fleet.spans.push(orphan);
        fleet.spans.push(child);
        let env = fleet.to_envelope(None);
        assert_eq!((env.spans[0].parent, env.spans[0].parent_pid), (0, 0));
        assert_eq!((env.spans[1].parent, env.spans[1].parent_pid), (2, 1003));
        // The collector itself is untouched — only the shipped copy is cut.
        assert_eq!(fleet.spans[0].parent, 1);
    }

    #[test]
    fn envelope_round_trips_all_sections() {
        let env = Envelope {
            ctx: Some(demo_ctx()),
            metrics: Some(demo_metrics()),
            spans: vec![demo_span(1003, 1), demo_span(1003, 2)],
        };
        let payload = [1u8, 2, 3, 4];
        let wrapped = env.wrap(&payload);
        assert_eq!(env.encoded_len() + payload.len(), wrapped.len());
        let (decoded, at) = Envelope::strip(&wrapped).expect("valid envelope");
        assert_eq!(decoded, Some(env));
        assert_eq!(&wrapped[at..], &payload);
    }

    #[test]
    fn empty_envelope_is_byte_transparent() {
        let env = Envelope::default();
        assert!(env.is_empty());
        assert_eq!(env.encoded_len(), 0);
        let payload = [9u8, 8, 7];
        assert_eq!(env.wrap(&payload), payload.to_vec());
        let (decoded, at) = Envelope::strip(&payload).expect("no envelope");
        assert_eq!(decoded, None);
        assert_eq!(at, 0);
    }

    #[test]
    fn truncated_and_corrupt_envelopes_error_instead_of_passing_through() {
        let env = Envelope {
            ctx: Some(demo_ctx()),
            metrics: Some(demo_metrics()),
            spans: vec![demo_span(1, 1)],
        };
        let bytes = env.encode();
        for cut in HEADER_LEN..bytes.len() {
            assert!(
                Envelope::strip(&bytes[..cut]).is_err(),
                "cut at {cut} must not decode"
            );
        }
        let mut bad_version = bytes.clone();
        bad_version[4] = 0xFF;
        assert!(Envelope::strip(&bad_version).is_err());
        // Versions 1 to 3 carried a 48-byte ctx (and 1 and 2 more metric
        // tables than the counter table); none of those layouts decodes.
        for old in [1, 2, 3] {
            bad_version[4] = old;
            assert!(Envelope::strip(&bad_version).is_err(), "version {old}");
        }
        let mut bad_flags = bytes.clone();
        bad_flags[6] = 0xFF;
        assert!(Envelope::strip(&bad_flags).is_err());
    }

    #[test]
    fn collector_absorbs_merges_and_shifts() {
        let mut fleet = FleetCollector::new();
        let child = Envelope {
            ctx: Some(demo_ctx()),
            metrics: Some(demo_metrics()),
            spans: vec![demo_span(1003, 1)],
        };
        let child_bytes = child.encode().len();
        fleet.absorb(&child, child_bytes);
        fleet.absorb(&child, child_bytes);
        assert_eq!(fleet.envelope_bytes, 2 * child_bytes);
        assert_eq!(fleet.metrics.counters.get("a"), Some(&6));

        let ev = SpanEvent {
            cat: "wire",
            name: "wire.uplink",
            tid: 1,
            id: 9,
            parent: 5,
            parent_pid: 0,
            start_ns: 2_000,
            dur_ns: 10,
            fields: Vec::new(),
        };
        fleet.add_local_events(&[ev], 100);
        assert_eq!(fleet.pids(), vec![100, 1003]);
        let local = fleet.spans.last().expect("local span present");
        assert_eq!(local.parent_pid, 100, "local parent resolved to own lane");

        fleet.shift(-3_000);
        assert_eq!(fleet.spans[0].start_ns, 0, "saturates at the epoch");
        let env = fleet.to_envelope(None);
        assert_eq!(env.spans.len(), 3);
        assert!(env.metrics.is_some());
    }

    #[test]
    fn empty_collector_produces_empty_envelope() {
        let fleet = FleetCollector::new();
        let env = fleet.to_envelope(None);
        assert!(env.is_empty());
    }
}
