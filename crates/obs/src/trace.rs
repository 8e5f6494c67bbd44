//! Structured spans recorded into a lock-minimal ring buffer.
//!
//! A [`Span`] is an RAII guard: creation stamps the start time, drop
//! stamps the duration and pushes one [`SpanEvent`] into the installed
//! ring. Hierarchy is positional — a span opened while another is open
//! on the same thread nests inside it by time, which is exactly how the
//! Chrome `trace_event` viewer reconstructs the tree from `"X"` events.
//!
//! With no recorder installed (the default), [`span`] reads one relaxed
//! atomic and returns an inert guard: no clock read, no allocation, no
//! locking — the "no-op global recorder".

use crate::clock::now_ns;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// One completed span, as stored in the ring and fed to the exporters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Category (`"phase"`, `"wire"`, `"pool"`, …).
    pub cat: &'static str,
    /// Static span name (`"local.ssc"`, `"wire.device_uplink"`, …).
    pub name: &'static str,
    /// Small dense id of the recording thread (see [`thread_id`]).
    pub tid: u64,
    /// Process-unique span id (never 0 for a recorded span). Ids are only
    /// unique *within* a process; cross-process consumers key on
    /// `(pid, id)` where the pid lane comes from the fleet envelope.
    pub id: u64,
    /// Span id of the causal parent, or 0 for a root span. Local by
    /// default (the enclosing span on the same thread); a remote parent
    /// set via [`Span::remote_parent`] additionally carries `parent_pid`.
    pub parent: u64,
    /// Process lane of a remote parent, or 0 when the parent (if any)
    /// lives in the same process.
    pub parent_pid: u64,
    /// Start, nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Count annotations attached via [`Span::field`].
    pub fields: Vec<(&'static str, u64)>,
}

/// Fixed-capacity ring of completed spans. Claiming a slot is one
/// relaxed `fetch_add`; each slot has its own mutex, contended only when
/// two writers collide on the same index modulo capacity.
struct Ring {
    slots: Vec<Mutex<Option<SpanEvent>>>,
    head: AtomicUsize,
    overwritten: AtomicU64,
}

impl Ring {
    fn new(capacity: usize) -> Self {
        let cap = capacity.max(1);
        let mut slots = Vec::with_capacity(cap);
        for _ in 0..cap {
            slots.push(Mutex::new(None));
        }
        Ring {
            slots,
            head: AtomicUsize::new(0),
            overwritten: AtomicU64::new(0),
        }
    }

    fn push(&self, ev: SpanEvent) {
        // ORDERING: Relaxed — `head` only hands out unique slot indices;
        // the event payload itself is published by the slot mutex.
        let i = self.head.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        let mut slot = match self.slots[i].lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        if slot.replace(ev).is_some() {
            // ORDERING: Relaxed — statistical loss counter; eventual
            // visibility suffices (see `overwritten()`).
            self.overwritten.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Removes and returns every recorded event, oldest first.
    fn drain(&self) -> Vec<SpanEvent> {
        let mut out = Vec::new();
        for slot in &self.slots {
            let mut guard = match slot.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            if let Some(ev) = guard.take() {
                out.push(ev);
            }
        }
        out.sort_by(|a, b| (a.start_ns, a.tid, a.name).cmp(&(b.start_ns, b.tid, b.name)));
        out
    }
}

/// Fast-path gate: checked before anything else on every `span` call.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// The installed ring, if any. Read-locked only on the enabled path.
static RECORDER: RwLock<Option<Arc<Ring>>> = RwLock::new(None);

fn recorder() -> Option<Arc<Ring>> {
    let guard = match RECORDER.read() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    guard.as_ref().map(Arc::clone)
}

/// Installs a ring-buffer recorder with space for `capacity` spans and
/// enables tracing. Replaces (and discards) any previous recorder.
pub fn install_ring(capacity: usize) {
    let ring = Arc::new(Ring::new(capacity));
    match RECORDER.write() {
        Ok(mut g) => *g = Some(ring),
        Err(poisoned) => *poisoned.into_inner() = Some(ring),
    }
    // ORDERING: SeqCst — deliberate on/off edges: install/uninstall are
    // rare, and a single total order for the flag flips keeps the fast
    // path (`is_enabled`, `span`) safely Relaxed — worst case a span near
    // the edge is dropped, never torn, since payload flows via `RECORDER`.
    ENABLED.store(true, Ordering::SeqCst);
}

/// Disables tracing, removes the recorder, and returns everything it
/// held (oldest first). With no recorder installed, returns empty.
pub fn uninstall() -> Vec<SpanEvent> {
    // ORDERING: SeqCst — see the matching store in `install_ring`.
    ENABLED.store(false, Ordering::SeqCst);
    let ring = match RECORDER.write() {
        Ok(mut g) => g.take(),
        Err(poisoned) => poisoned.into_inner().take(),
    };
    ring.map(|r| r.drain()).unwrap_or_default()
}

/// Drains the currently installed ring without uninstalling it.
pub fn drain() -> Vec<SpanEvent> {
    recorder().map(|r| r.drain()).unwrap_or_default()
}

/// Number of spans lost to ring overwrites since install.
pub fn overwritten() -> u64 {
    // ORDERING: Relaxed — statistical loss counter; see `Ring::push`.
    recorder().map_or(0, |r| r.overwritten.load(Ordering::Relaxed))
}

/// Whether a recorder is installed and tracing is on.
pub fn is_enabled() -> bool {
    // ORDERING: Relaxed — advisory gate only; no data is published through
    // the flag (the ring travels via the `RECORDER` lock), so a stale read
    // merely records or skips a span near an install/uninstall edge.
    ENABLED.load(Ordering::Relaxed)
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);
thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
}

/// Process-wide span id allocator; 0 is reserved for "no span".
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
thread_local! {
    /// Ids of the spans currently open on this thread, innermost last.
    /// The top of the stack is the default parent for a new span.
    static SPAN_STACK: std::cell::RefCell<Vec<u64>> = const { std::cell::RefCell::new(Vec::new()) };
}

fn next_span_id() -> u64 {
    // ORDERING: Relaxed — the RMW alone guarantees unique ids; nothing
    // else is ordered by the span-id counter.
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

/// Small dense id for the calling thread (1, 2, … in first-use order),
/// used as the Chrome-trace `tid`.
pub fn thread_id() -> u64 {
    TID.with(|cell| {
        let v = cell.get();
        if v != 0 {
            return v;
        }
        // ORDERING: Relaxed — the RMW alone guarantees unique ids; no
        // other memory is ordered by the tid counter.
        let fresh = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        cell.set(fresh);
        fresh
    })
}

struct SpanInner {
    ring: Arc<Ring>,
    cat: &'static str,
    name: &'static str,
    tid: u64,
    id: u64,
    parent: u64,
    parent_pid: u64,
    start_ns: u64,
    fields: Vec<(&'static str, u64)>,
}

/// RAII span guard: records one [`SpanEvent`] on drop. Inert (all
/// methods are no-ops) when tracing is disabled.
#[must_use = "a span measures the scope it lives in; dropping it immediately records nothing useful"]
pub struct Span {
    inner: Option<SpanInner>,
}

impl Span {
    /// Attaches a count field (builder style; no-op when inert).
    pub fn field(mut self, key: &'static str, count: usize) -> Self {
        if let Some(inner) = &mut self.inner {
            inner.fields.push((key, count as u64));
        }
        self
    }

    /// Declares a causal parent in another process (builder style; no-op
    /// when inert, or when `id` is 0 — i.e. the sender was untraced).
    /// Overrides the positional local parent.
    pub fn remote_parent(mut self, pid: u64, id: u64) -> Self {
        if id != 0 {
            if let Some(inner) = &mut self.inner {
                inner.parent = id;
                inner.parent_pid = pid;
            }
        }
        self
    }

    /// This span's process-unique id, or 0 when inert. Carry it in a
    /// fleet envelope so the receiving process can link its span back
    /// here via [`Span::remote_parent`].
    pub fn id(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.id)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let end = now_ns();
            // Pop by id, scanning from the top: robust to non-LIFO drops
            // (a span returned from a function and closed later). A span
            // dropped on a different thread than it was opened on simply
            // isn't found — its entry is cleaned up when that stack drains.
            SPAN_STACK.with(|stack| {
                let mut stack = stack.borrow_mut();
                if let Some(pos) = stack.iter().rposition(|&id| id == inner.id) {
                    stack.remove(pos);
                }
            });
            inner.ring.push(SpanEvent {
                cat: inner.cat,
                name: inner.name,
                tid: inner.tid,
                id: inner.id,
                parent: inner.parent,
                parent_pid: inner.parent_pid,
                start_ns: inner.start_ns,
                dur_ns: end.saturating_sub(inner.start_ns),
                fields: inner.fields,
            });
        }
    }
}

/// Opens a span. When tracing is disabled this is one relaxed atomic
/// load and returns an inert guard — no clock read, no allocation.
pub fn span(cat: &'static str, name: &'static str) -> Span {
    // ORDERING: Relaxed — fast-path gate; see `is_enabled` for why a
    // stale read is harmless here.
    if !ENABLED.load(Ordering::Relaxed) {
        return Span { inner: None };
    }
    let Some(ring) = recorder() else {
        return Span { inner: None };
    };
    let id = next_span_id();
    let parent = SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let parent = stack.last().copied().unwrap_or(0);
        stack.push(id);
        parent
    });
    Span {
        inner: Some(SpanInner {
            ring,
            cat,
            name,
            tid: thread_id(),
            id,
            parent,
            parent_pid: 0,
            start_ns: now_ns(),
            fields: Vec::new(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, OnceLock};

    /// Tracing state is process-global; tests that install/uninstall
    /// serialize on this lock.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        match LOCK.get_or_init(|| Mutex::new(())).lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _g = guard();
        let _ = uninstall();
        let s = span("t", "noop").field("k", 1);
        drop(s);
        assert!(drain().is_empty());
    }

    #[test]
    fn spans_record_fields_and_nesting_order() {
        let _g = guard();
        install_ring(16);
        {
            let _outer = span("t", "outer").field("device", 3);
            let _inner = span("t", "inner").field("received", 2);
        }
        let events = uninstall();
        assert_eq!(events.len(), 2);
        // Sorted by start time: outer opened first.
        assert_eq!(events[0].name, "outer");
        assert_eq!(events[0].fields, vec![("device", 3)]);
        assert_eq!(events[1].name, "inner");
        assert_eq!(events[1].fields, vec![("received", 2)]);
        // The inner span closes before the outer: proper nesting by time.
        let (o, i) = (&events[0], &events[1]);
        assert!(i.start_ns >= o.start_ns);
        assert!(i.start_ns + i.dur_ns <= o.start_ns + o.dur_ns);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_losses() {
        let _g = guard();
        install_ring(2);
        for _ in 0..5 {
            drop(span("t", "x"));
        }
        assert_eq!(overwritten(), 3);
        let events = uninstall();
        assert_eq!(events.len(), 2);
    }

    #[test]
    fn spans_from_many_threads_all_land() {
        let _g = guard();
        install_ring(256);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..16 {
                        drop(span("t", "mt"));
                    }
                });
            }
        });
        let events = uninstall();
        assert_eq!(events.len(), 64);
        assert!(events.iter().all(|e| e.name == "mt"));
    }

    #[test]
    fn span_ids_link_children_to_parents() {
        let _g = guard();
        install_ring(16);
        {
            let outer = span("t", "outer");
            let outer_id = outer.id();
            assert_ne!(outer_id, 0);
            {
                let inner = span("t", "inner");
                assert_ne!(inner.id(), outer_id);
            }
            let _sibling = span("t", "sibling");
        }
        let events = uninstall();
        assert_eq!(events.len(), 3);
        let outer = events.iter().find(|e| e.name == "outer").unwrap();
        let inner = events.iter().find(|e| e.name == "inner").unwrap();
        let sibling = events.iter().find(|e| e.name == "sibling").unwrap();
        assert_eq!(outer.parent, 0, "outer is a root span");
        assert_eq!(inner.parent, outer.id);
        assert_eq!(sibling.parent, outer.id, "stack popped inner on drop");
        assert_eq!(inner.parent_pid, 0, "local parent has no pid");
    }

    #[test]
    fn remote_parent_overrides_local_nesting() {
        let _g = guard();
        install_ring(16);
        {
            let _outer = span("t", "outer");
            let _linked = span("t", "linked").remote_parent(42, 7);
        }
        let events = uninstall();
        let linked = events.iter().find(|e| e.name == "linked").unwrap();
        assert_eq!(linked.parent, 7);
        assert_eq!(linked.parent_pid, 42);
        // An untraced sender (id 0) must not clobber the local parent.
        install_ring(16);
        {
            let outer_id;
            {
                let outer = span("t", "outer2");
                outer_id = outer.id();
                let _kept = span("t", "kept").remote_parent(42, 0);
            }
            let events = uninstall();
            let kept = events.iter().find(|e| e.name == "kept").unwrap();
            assert_eq!(kept.parent, outer_id);
            assert_eq!(kept.parent_pid, 0);
        }
    }

    #[test]
    fn inert_spans_report_id_zero() {
        let _g = guard();
        let _ = uninstall();
        let s = span("t", "noop");
        assert_eq!(s.id(), 0);
        assert_eq!(s.remote_parent(1, 2).id(), 0);
    }

    #[test]
    fn thread_ids_are_stable_within_a_thread() {
        let a = thread_id();
        let b = thread_id();
        assert_eq!(a, b);
        let other = std::thread::spawn(thread_id).join();
        assert!(other.is_ok_and(|t| t != a));
    }
}
