//! Shared parallelism for the numerical kernels: a **persistent worker
//! pool**.
//!
//! Every parallel loop in the workspace — the blocked matrix kernels here in
//! `linalg`, the per-column Lasso fan-out in `sparse`/`subspace`, the
//! per-partition SVDs in `core`, and the per-device fan-out in `federated` —
//! funnels through this module, so there is exactly one place that spawns
//! threads and one ownership rule to reason about (see DESIGN.md §9:
//! the device fan-out owns `threads`, kernels own `kernel_threads`, and
//! neither nests inside the other's workers beyond that product).
//!
//! ## Pool design
//!
//! Earlier revisions spawned fresh scoped threads on every call, which made
//! many-small-call workloads (the per-point Lasso sweep issues hundreds of
//! `par_map`s) pay thread-creation latency each time and produced *negative*
//! parallel speedups end to end. The pool here is lazily initialized and
//! **persistent**:
//!
//! * Workers are spawned on first demand, parked on a condvar when idle, and
//!   never exit; `pool.workers_spawned` is therefore a high-water mark
//!   bounded by the largest `threads` any call requested (minus the caller,
//!   who always participates), not a per-call churn count.
//! * A worker that runs out of claimable tickets **spins briefly before
//!   parking** ([`SPIN_POLLS`] polls of a publish epoch): workloads that
//!   issue bursts of back-to-back parallel calls (the per-point Lasso sweep,
//!   the blocked kernels) would otherwise pay a futex wake on every call,
//!   which BENCH_PR6 measured at milliseconds of added latency per small
//!   job. An idle pool still parks — the spin is bounded and the park path
//!   re-scans the queue under the lock, so no wakeup can be lost.
//! * Requested thread counts are capped at [`default_threads`] (available
//!   parallelism): a helper beyond the core count can only time-slice
//!   against the caller, so on a saturated (or single-core) machine the
//!   call degrades to a smaller fan-out — or straight to the inline path —
//!   instead of paying wake latency for negative-value helpers. Results are
//!   unaffected (per-index arithmetic is thread-count independent).
//! * Fan-outs smaller than [`MIN_INLINE_ITEMS`] run inline on the caller
//!   ([`par_map`] / [`par_map_with`] only): publishing a job costs more
//!   than computing a handful of cheap items. Coarse fan-outs whose items
//!   are individually expensive — the per-device rounds, the per-partition
//!   SVDs — use [`par_map_heavy`], which always engages the pool.
//! * A call with `threads = t` publishes one **job** — a type-erased
//!   reference to its loop body — with `t - 1` helper tickets on a shared
//!   queue, runs the body on the calling thread, then cancels any tickets no
//!   worker claimed and waits for claimed ones to drain. The caller always
//!   makes progress by itself, so a busy pool degrades to sequential
//!   execution instead of deadlocking (this also makes nested calls —
//!   device fan-out over kernel fan-out — safe: the inner caller never
//!   blocks on a worker that might be waiting on it).
//! * The job body borrows the caller's stack. That borrow is sound because
//!   the caller does not return until every claimed ticket has finished
//!   running (`running == 0`), and cancellation removes unclaimed tickets
//!   under the same lock workers claim through.
//!
//! Three primitives:
//!
//! * [`par_map`] / [`par_map_timed`] — map `f` over `0..count` with an
//!   atomic work-stealing queue. Results come back **in index order**, and
//!   each index is computed by exactly one participant with thread-count-
//!   independent arithmetic, so seeded callers stay bit-reproducible.
//! * [`par_map_with`] — [`par_map`] with per-participant scratch state
//!   (`make_state` runs once per participating thread): the warm-start hook
//!   batch Lasso drivers use to reuse solver workspaces across a device's
//!   `N` per-point problems instead of reallocating in every solve.
//! * [`par_chunks_mut`] — split a flat buffer into contiguous chunks (the
//!   column panels of a column-major matrix) and process each chunk on
//!   exactly one participant; in-place, allocation-free result collection.
//!
//! Worker panics are caught, the **first** payload is preserved, and it is
//! re-raised on the calling thread after every participant has finished —
//! the same contract `crossbeam::thread::scope` gives, without the
//! dependency (this crate sits below `fedsc-federated` in the graph, which
//! is what lets `sparse`/`subspace`/`core` use the pool without a
//! dependency cycle).
//!
//! Timing goes through `fedsc_obs` ([`Stopwatch`]) — the workspace's only
//! sanctioned wall-clock access (`cargo xtask check` rule 3) — and the pool
//! reports itself to the metrics registry: `pool.tasks` (indices executed),
//! `pool.tasks_inline` (indices executed on the caller because
//! `threads == 1` or the fan-out was below [`MIN_INLINE_ITEMS`], i.e. no
//! job was ever published), `pool.steals` (tasks a
//! participant executed beyond its fair share of the queue), `pool.busy_ns`
//! (per-participant loop wall time, summed), and `pool.workers_spawned`
//! (persistent workers ever created — bounded by the configured thread
//! count, not by call volume).

use fedsc_obs::{LazyCounter, Stopwatch};
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicUsize;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

/// Indices executed by [`par_map`] / chunks written by [`par_chunks_mut`].
static POOL_TASKS: LazyCounter = LazyCounter::new("pool.tasks");
/// Indices executed inline on the caller because `threads == 1` or the
/// fan-out was below [`MIN_INLINE_ITEMS`] (no job was published at all).
static POOL_TASKS_INLINE: LazyCounter = LazyCounter::new("pool.tasks_inline");
/// Tasks executed beyond a participant's fair share `ceil(count / threads)`
/// — the number of successful steals from slower participants' shares.
static POOL_STEALS: LazyCounter = LazyCounter::new("pool.steals");
/// Summed per-participant busy wall time (claim loop + task execution), ns.
static POOL_BUSY_NS: LazyCounter = LazyCounter::new("pool.busy_ns");
/// Persistent worker threads ever spawned (high-water mark, not churn).
static POOL_WORKERS: LazyCounter = LazyCounter::new("pool.workers_spawned");

/// Default worker count: available parallelism, floor 1.
pub fn default_threads() -> usize {
    // Cached: `available_parallelism` costs a syscall plus cgroup-quota
    // file reads on Linux (~17 us), and the inline-dispatch path calls
    // this per fan-out — uncached it multiplied `pool_overhead`'s
    // per-call cost ~400x. The pool is process-global and never resizes,
    // so a process-lifetime snapshot is the consistent choice anyway.
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Fan-outs smaller than this run inline on the caller in [`par_map`] /
/// [`par_map_with`]: publishing a job and waking a helper costs tens of
/// microseconds even when the pool is warm, which dwarfs a handful of
/// cheap per-item bodies (BENCH_PR6's `pool_overhead` measured 5.1 ms per
/// 32-item job at 2 threads against 15 µs inline). Coarse fan-outs with
/// individually-expensive items bypass the threshold via
/// [`par_map_heavy`].
pub const MIN_INLINE_ITEMS: usize = 128;

/// How many times an out-of-work worker polls the publish epoch before
/// parking on the condvar. Each poll is a load plus a `spin_loop` hint, so
/// the spin window is a few microseconds — enough to bridge the gap
/// between back-to-back parallel calls, short enough that an idle pool
/// parks almost immediately.
const SPIN_POLLS: usize = 4096;

/// Upper bound of the adaptive spin window. A worker that keeps finding
/// work inside its spin window doubles the window (up to this cap) and a
/// worker woken from a park re-arms straight to the cap — BENCH_PR7's
/// `pool_wake` scenario showed the first post-idle job paying the full
/// park/unpark round trip (17 µs → 2.5 ms); staying hot through a burst
/// amortizes that wake across the whole burst. A worker that spins out
/// resets to [`SPIN_POLLS`], so an idle pool still parks quickly.
const MAX_SPIN_POLLS: usize = 8 * SPIN_POLLS;

/// Indices claimed per `fetch_add` in the fan-out loops. Claiming blocks
/// instead of single indices cuts contention on the shared claim counter by
/// 8x and makes each participant's result-slot writes mostly contiguous, so
/// participants stop invalidating each other's cache lines through the
/// `Slots` vector (the false-sharing component of BENCH_PR7's `lasso_batch`
/// 2-thread regression). Small enough that a 128-item fan-out (the
/// [`MIN_INLINE_ITEMS`] floor) still splits into 16 stealable blocks.
const CLAIM_BLOCK: usize = 8;

/// A cache-line-isolated atomic claim counter. 128-byte alignment keeps the
/// hot `fetch_add` line out of the adjacent-line prefetcher's reach of any
/// neighboring shared state (the slots vector, the job latch).
#[repr(align(128))]
struct PaddedCounter(AtomicUsize);

type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// Type-erased pointer to a job body borrowed from the submitting stack.
///
/// Sent to persistent workers even though the pointee is not `'static`.
// SAFETY: `Job::wait` blocks the submitting call until `tickets == 0` and
// `running == 0`, so no worker dereferences the pointer after the borrow
// ends; claims and cancellation are serialized through `Job::state`.
#[allow(unsafe_code)]
struct BodyPtr(*const (dyn Fn() + Sync));
#[allow(unsafe_code)]
// SAFETY: see `BodyPtr` — lifetime is enforced by the job completion latch.
unsafe impl Send for BodyPtr {}
#[allow(unsafe_code)]
// SAFETY: the pointee is `Sync`, so shared `&` access from workers is sound.
unsafe impl Sync for BodyPtr {}

/// Mutable job bookkeeping, guarded by `Job::state`.
struct JobState {
    /// Helper invitations not yet claimed by a worker.
    tickets: usize,
    /// Workers currently executing the body.
    running: usize,
    /// First panic payload raised by any participant.
    panic: Option<PanicPayload>,
}

/// One published parallel call: a body plus its completion latch.
struct Job {
    body: BodyPtr,
    state: Mutex<JobState>,
    done: Condvar,
}

impl Job {
    fn new(body: *const (dyn Fn() + Sync), tickets: usize) -> Self {
        Job {
            body: BodyPtr(body),
            state: Mutex::new(JobState {
                tickets,
                running: 0,
                panic: None,
            }),
            done: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, JobState> {
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Runs the body once on the current thread, recording the first panic.
    #[allow(unsafe_code)]
    fn run(&self) {
        // SAFETY: a ticket for this job was claimed (or the caller is
        // running its own body), so the submitting stack frame is still
        // alive — it cannot return until this thread reports completion.
        let body = unsafe { &*self.body.0 };
        let result = catch_unwind(AssertUnwindSafe(body));
        if let Err(payload) = result {
            let mut st = self.lock();
            if st.panic.is_none() {
                st.panic = Some(payload);
            }
        }
    }

    /// Cancels unclaimed tickets, waits for claimed ones to finish, and
    /// returns the first recorded panic payload.
    fn wait(&self) -> Option<PanicPayload> {
        let mut st = self.lock();
        st.tickets = 0;
        while st.running > 0 {
            st = self
                .done
                .wait(st)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        st.panic.take()
    }
}

/// The process-global pool: a job queue, a worker wakeup, and spawn
/// bookkeeping.
struct PoolShared {
    queue: Mutex<VecDeque<Arc<Job>>>,
    work_ready: Condvar,
    /// Persistent workers spawned so far (high-water mark).
    spawned: Mutex<usize>,
    /// Workers currently parked on `work_ready` (advisory, for spawn
    /// decisions only).
    idle: AtomicUsize,
    /// Bumped on every job publish; out-of-work workers poll it lock-free
    /// while spinning, so a burst of small jobs never pays a futex wake.
    epoch: AtomicUsize,
}

fn pool() -> &'static PoolShared {
    static POOL: OnceLock<PoolShared> = OnceLock::new();
    POOL.get_or_init(|| PoolShared {
        queue: Mutex::new(VecDeque::new()),
        work_ready: Condvar::new(),
        spawned: Mutex::new(0),
        idle: AtomicUsize::new(0),
        epoch: AtomicUsize::new(0),
    })
}

/// The persistent worker loop: claim a ticket, run the body, report, and
/// when out of work spin briefly on the publish epoch before parking.
fn worker_loop() {
    let shared = pool();
    // Adaptive spin window: doubles (up to [`MAX_SPIN_POLLS`]) every time a
    // publish lands inside it, re-arms to the cap after a park/unpark round
    // trip (the burst has clearly started — stay hot for the rest of it),
    // and resets to [`SPIN_POLLS`] when a full window expires unused.
    let mut spin_window = SPIN_POLLS;
    loop {
        let job: Arc<Job> = {
            let mut q = shared
                .queue
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            // Set once a full epoch-poll window expired without a publish;
            // the next failed claim pass parks instead of spinning again.
            let mut spun_out = false;
            'claim: loop {
                // Claim a ticket from the oldest job that still has one;
                // drained jobs are pruned as we pass them.
                let mut claimed = None;
                while let Some(front) = q.front() {
                    let mut st = front.lock();
                    if st.tickets > 0 {
                        st.tickets -= 1;
                        st.running += 1;
                        drop(st);
                        claimed = Some(Arc::clone(front));
                        break;
                    }
                    drop(st);
                    q.pop_front();
                }
                if let Some(job) = claimed {
                    break 'claim job;
                }
                if spun_out {
                    // Lost-wakeup safety: this wait happens while holding
                    // the queue lock after an empty claim pass, and the
                    // publisher pushes under the same lock before
                    // notifying — a publish between our scan and the wait
                    // is observed by the post-wake re-scan.
                    // ORDERING: Relaxed — `idle` is an advisory gauge for
                    // spawn decisions; the queue mutex orders all job data.
                    shared.idle.fetch_add(1, Ordering::Relaxed);
                    q = shared
                        .work_ready
                        .wait(q)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                    // ORDERING: Relaxed — see the matching `fetch_add`.
                    shared.idle.fetch_sub(1, Ordering::Relaxed);
                    spun_out = false;
                    // Re-arm after wake: the park/unpark latency was just
                    // paid once; a wide window keeps this worker hot for
                    // the burst that woke it.
                    spin_window = MAX_SPIN_POLLS;
                    continue 'claim;
                }
                // Nothing claimable: release the lock and watch the
                // publish epoch for a bounded window, so the next job in a
                // burst is claimed without a park/unpark round trip.
                // ORDERING: Acquire — pairs with the Release bump in
                // `run_on_pool`, so observing a new epoch also lets the
                // re-locked claim pass observe the pushed job.
                let seen = shared.epoch.load(Ordering::Acquire);
                drop(q);
                let mut polls = 0;
                while polls < spin_window {
                    // ORDERING: Acquire — see `seen` above.
                    if shared.epoch.load(Ordering::Acquire) != seen {
                        break;
                    }
                    std::hint::spin_loop();
                    polls += 1;
                }
                spun_out = polls >= spin_window;
                spin_window = if spun_out {
                    SPIN_POLLS
                } else {
                    (spin_window * 2).min(MAX_SPIN_POLLS)
                };
                q = shared
                    .queue
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        };
        job.run();
        let mut st = job.lock();
        st.running -= 1;
        if st.running == 0 && st.tickets == 0 {
            job.done.notify_all();
        }
    }
}

/// Ensures at least `min` persistent workers exist (never shrinks; spawn
/// failures degrade gracefully to fewer helpers).
fn ensure_workers(min: usize) {
    let shared = pool();
    let mut spawned = shared
        .spawned
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    while *spawned < min {
        let builder = std::thread::Builder::new().name(format!("fedsc-par-{}", *spawned));
        if builder.spawn(worker_loop).is_err() {
            break;
        }
        *spawned += 1;
        POOL_WORKERS.inc();
    }
}

/// Publishes `body` with `helpers` pool tickets, runs it on the calling
/// thread too, waits for every claimed ticket, and re-raises the first
/// panic (original payload) on the caller.
#[allow(unsafe_code)]
fn run_on_pool(helpers: usize, body: &(dyn Fn() + Sync)) {
    // SAFETY: the lifetime is erased only for transport to pool workers;
    // `Job::wait` pins this stack frame until every claimed ticket has
    // finished running, so no worker touches `body` after it returns.
    let erased: &'static (dyn Fn() + Sync) =
        unsafe { std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(body) };
    let job = Arc::new(Job::new(erased as *const (dyn Fn() + Sync), helpers));
    {
        let shared = pool();
        ensure_workers(helpers.min(default_threads().saturating_sub(1)).max(1));
        let mut q = shared
            .queue
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        q.push_back(Arc::clone(&job));
        drop(q);
        // ORDERING: Release — pairs with the Acquire epoch polls in
        // `worker_loop`: a spinning worker that observes the bump is
        // guaranteed to observe the push above once it re-locks the queue.
        shared.epoch.fetch_add(1, Ordering::Release);
        shared.work_ready.notify_all();
    }
    // The caller is always a participant: if every worker is busy (or none
    // could be spawned), the call still completes sequentially.
    job.run();
    let payload = job.wait();
    // Prune this job from the queue in case no worker walked past it.
    {
        let mut q = pool()
            .queue
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        q.retain(|j| !Arc::ptr_eq(j, &job));
    }
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

/// Write-once result slots indexed by the work queue.
///
/// The atomic queue in [`par_map`] hands each index in `0..count` to exactly
/// one participant, so every `UnsafeCell` is written by at most one thread,
/// and none is read until the job latch has drained every participant.
struct Slots<T>(Vec<UnsafeCell<Option<T>>>);

// SAFETY: disjoint-by-construction writes (one claimed index per slot) and
// no reads before the owning call joins every participant.
#[allow(unsafe_code)]
unsafe impl<T: Send> Sync for Slots<T> {}

impl<T> Slots<T> {
    fn new(count: usize) -> Self {
        Self((0..count).map(|_| UnsafeCell::new(None)).collect())
    }

    /// Stores `value` at `i`. Caller must hold the unique claim on `i`.
    #[allow(unsafe_code)]
    fn put(&self, i: usize, value: T) {
        // SAFETY: `i` was claimed exactly once from the atomic queue, so no
        // other thread writes this cell, and readers wait for the join.
        unsafe { *self.0[i].get() = Some(value) };
    }
}

/// Maps `f` over `0..count` on `threads` participants (the caller plus
/// `threads - 1` pool workers; atomic work stealing), returning results in
/// index order.
///
/// Each index is computed exactly once with the same arithmetic regardless
/// of `threads`, so results are bit-identical across thread counts; callers
/// needing reproducible randomness derive per-index RNGs from a base seed.
pub fn par_map<T, F>(count: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_map_with(count, threads, || (), move |(), i| f(i))
}

/// [`par_map`] with per-participant scratch state.
///
/// `make_state` runs once on every participating thread (including the
/// caller) before it claims its first index; `f` receives that thread's
/// state mutably alongside each index. This is the warm-start hook for
/// batch solvers: the state carries reusable scratch buffers, and because
/// each index's computation must not depend on *which* indices the state
/// already served, results remain bit-identical across thread counts —
/// callers are responsible for fully re-initializing per-solve values
/// (cheap) while reusing allocations (the expensive part).
pub fn par_map_with<S, T, I, F>(count: usize, threads: usize, make_state: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    par_map_with_inner(count, threads, MIN_INLINE_ITEMS, make_state, f)
}

/// [`par_map`] for coarse fan-outs whose items are individually expensive —
/// the per-device federated rounds and the per-partition local SVDs.
///
/// Ignores the [`MIN_INLINE_ITEMS`] inline threshold and always engages the
/// pool when `threads > 1`: a round of four device fits is exactly the shape
/// the threshold would wrongly serialize.
pub fn par_map_heavy<T, F>(count: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_map_with_inner(count, threads, 0, || (), move |(), i| f(i))
}

/// Shared body of [`par_map_with`] / [`par_map_heavy`]: fan-outs smaller
/// than `inline_below` run inline on the caller without publishing a job.
fn par_map_with_inner<S, T, I, F>(
    count: usize,
    threads: usize,
    inline_below: usize,
    make_state: I,
    f: F,
) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    // Cap at the machine's parallelism: helpers beyond the core count can
    // only time-slice against the caller (on the 1-core bench container the
    // uncapped 2-thread `pool_wake` path cost 147x the inline path), so the
    // surplus request degrades to the inline/smaller fan-out instead.
    let threads = threads.max(1).min(count.max(1)).min(default_threads());
    if count == 0 {
        return Vec::new();
    }
    if threads == 1 || count < inline_below {
        POOL_TASKS.add(count as u64);
        POOL_TASKS_INLINE.add(count as u64);
        let mut state = make_state();
        return (0..count).map(|i| f(&mut state, i)).collect();
    }
    let next = PaddedCounter(AtomicUsize::new(0));
    let slots = Slots::new(count);
    // Fair share per participant; anything executed past it was stolen from
    // a slower participant's share of the queue.
    let fair = (count as u64).div_ceil(threads as u64);
    run_on_pool(threads - 1, &|| {
        let sw = Stopwatch::start();
        let mut executed = 0u64;
        let mut state = make_state();
        loop {
            // ORDERING: Relaxed — the counter only hands out unique
            // index blocks; the slot writes it guards are published to the
            // caller by the job completion latch, not by this claim.
            let start = next.0.fetch_add(CLAIM_BLOCK, Ordering::Relaxed);
            if start >= count {
                break;
            }
            for i in start..(start + CLAIM_BLOCK).min(count) {
                slots.put(i, f(&mut state, i));
                executed += 1;
            }
        }
        POOL_TASKS.add(executed);
        POOL_STEALS.add(executed.saturating_sub(fair));
        POOL_BUSY_NS.add(sw.elapsed_ns());
    });
    // INVARIANT: run_on_pool returned without re-raising a panic, so every
    // index in 0..count was claimed exactly once and its slot written.
    slots
        .0
        .into_iter()
        .map(|c| c.into_inner().expect("every index processed"))
        .collect()
}

/// [`par_map_heavy`] that also reports each item's wall time (via the
/// `fedsc_obs` stopwatch, so this crate never touches the clock directly).
///
/// Built on the heavy variant because its only callers are the per-device
/// federated fan-outs, whose handful of items are each worth milliseconds —
/// the [`MIN_INLINE_ITEMS`] threshold must not serialize them.
pub fn par_map_timed<T, F>(count: usize, threads: usize, f: F) -> Vec<(T, Duration)>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_map_heavy(count, threads, |i| {
        let sw = Stopwatch::start();
        let r = f(i);
        (r, sw.elapsed())
    })
}

/// Base pointer of an in-place chunk fan-out, shared across participants.
// SAFETY: participants derive disjoint subslices from it — every chunk
// index is claimed exactly once from an atomic queue, and chunk ranges
// never overlap; the caller's `&mut` borrow outlives the job (see
// `run_on_pool`).
#[allow(unsafe_code)]
struct ChunkBase(*mut f64);
#[allow(unsafe_code)]
// SAFETY: see `ChunkBase` — disjointness plus the job completion latch.
unsafe impl Send for ChunkBase {}
#[allow(unsafe_code)]
// SAFETY: see `ChunkBase`.
unsafe impl Sync for ChunkBase {}

impl ChunkBase {
    /// The shared base pointer (method access keeps closures capturing the
    /// `Sync` wrapper rather than the raw pointer field).
    fn ptr(&self) -> *mut f64 {
        self.0
    }
}

/// Splits `data` into contiguous `chunk_len`-sized chunks (`chunks_mut`
/// semantics: the last chunk may be shorter) and calls `f(chunk_index,
/// chunk)` for each, claiming chunks from an atomic queue across `threads`
/// participants (the caller plus `threads - 1` pool workers).
///
/// This is the in-place fan-out for the blocked matrix kernels: a chunk is a
/// column panel of a column-major output, every panel is written by exactly
/// one participant, and the per-panel arithmetic never depends on the thread
/// count — so threaded kernels produce bit-identical buffers to `threads =
/// 1`.
#[allow(unsafe_code)]
pub fn par_chunks_mut<F>(data: &mut [f64], chunk_len: usize, threads: usize, f: F)
where
    F: Fn(usize, &mut [f64]) + Sync,
{
    if data.is_empty() || chunk_len == 0 {
        return;
    }
    let n_chunks = data.len().div_ceil(chunk_len);
    // Same parallelism cap as `par_map_with_inner`: surplus helpers on a
    // saturated machine only add wake/contention latency.
    let threads = threads.max(1).min(n_chunks).min(default_threads());
    if threads == 1 {
        POOL_TASKS.add(n_chunks as u64);
        POOL_TASKS_INLINE.add(n_chunks as u64);
        for (c, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(c, chunk);
        }
        return;
    }
    let len = data.len();
    let base = ChunkBase(data.as_mut_ptr());
    let next = PaddedCounter(AtomicUsize::new(0));
    let fair = (n_chunks as u64).div_ceil(threads as u64);
    run_on_pool(threads - 1, &|| {
        let sw = Stopwatch::start();
        let mut written = 0u64;
        loop {
            // ORDERING: Relaxed — unique chunk claims only; the chunk
            // writes are published to the caller by the job completion
            // latch, not by this counter.
            let c = next.0.fetch_add(1, Ordering::Relaxed);
            if c >= n_chunks {
                break;
            }
            let start = c * chunk_len;
            let end = (start + chunk_len).min(len);
            // SAFETY: chunk `c` was claimed exactly once, chunk ranges are
            // disjoint by construction, and the caller's `&mut data` borrow
            // is pinned until the job latch drains (see `ChunkBase`).
            let chunk =
                unsafe { std::slice::from_raw_parts_mut(base.ptr().add(start), end - start) };
            f(c, chunk);
            written += 1;
        }
        POOL_TASKS.add(written);
        POOL_STEALS.add(written.saturating_sub(fair));
        POOL_BUSY_NS.add(sw.elapsed_ns());
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_results_in_index_order() {
        for threads in [1, 2, 8] {
            let r = par_map(33, threads, |i| i * 7 + 1);
            assert_eq!(r, (0..33).map(|i| i * 7 + 1).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_empty_and_oversubscribed() {
        assert!(par_map(0, 8, |i| i).is_empty());
        assert_eq!(par_map(2, 64, |i| i), vec![0, 1]);
    }

    #[test]
    fn par_map_panic_preserves_payload() {
        // `par_map_heavy` so the 16-item job actually goes through the
        // pool's catch/re-raise path instead of the inline fast path.
        let caught = std::panic::catch_unwind(|| {
            par_map_heavy(16, 4, |i| {
                if i == 9 {
                    panic!("slot 9 exploded");
                }
                i
            })
        });
        let payload = caught.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "slot 9 exploded");

        // The inline path must propagate panics too.
        let caught = std::panic::catch_unwind(|| {
            par_map(16, 4, |i| {
                if i == 9 {
                    panic!("inline slot 9 exploded");
                }
                i
            })
        });
        let payload = caught.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "inline slot 9 exploded");
    }

    #[test]
    fn par_map_with_reuses_state_per_participant() {
        // Each participant's state counts how many indices it served; the
        // counts must sum to the item count, and every result must be
        // correct regardless of which participant computed it.
        for threads in [1, 2, 4] {
            let served = AtomicUsize::new(0);
            let r = par_map_with(
                29,
                threads,
                || 0usize,
                |state, i| {
                    *state += 1;
                    served.fetch_add(1, Ordering::Relaxed);
                    i * 3
                },
            );
            assert_eq!(r, (0..29).map(|i| i * 3).collect::<Vec<_>>());
            assert_eq!(served.load(Ordering::Relaxed), 29, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_timed_reports_durations() {
        let r = par_map_timed(4, 2, |i| {
            std::thread::sleep(Duration::from_millis(2));
            i
        });
        assert_eq!(r.len(), 4);
        assert!(r.iter().all(|(_, d)| *d >= Duration::from_millis(2)));
        assert_eq!(
            r.iter().map(|(v, _)| *v).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn par_map_timed_index_order_is_thread_invariant() {
        // The per-device fan-out contract: results come back in index
        // order however the pool interleaves the work, and empty or
        // oversubscribed fan-outs are fine.
        let expected: Vec<usize> = (0..33).map(|i| i * 7 + 1).collect();
        for threads in [1, 2, 8] {
            let r = par_map_timed(33, threads, |i| i * 7 + 1);
            let vals: Vec<usize> = r.into_iter().map(|(v, _)| v).collect();
            assert_eq!(vals, expected, "threads = {threads}");
            assert!(par_map_timed(0, threads, |i| i).is_empty());
        }
        assert_eq!(par_map_timed(2, 64, |i| i).len(), 2);
    }

    #[test]
    fn par_chunks_mut_writes_every_chunk_once() {
        for threads in [1, 2, 3, 8] {
            let mut data = vec![0.0f64; 23];
            par_chunks_mut(&mut data, 5, threads, |c, chunk| {
                for v in chunk.iter_mut() {
                    *v += (c + 1) as f64;
                }
            });
            let expected: Vec<f64> = (0..23).map(|i| (i / 5 + 1) as f64).collect();
            assert_eq!(data, expected, "threads = {threads}");
        }
    }

    #[test]
    fn par_chunks_mut_empty_and_degenerate() {
        let mut empty: Vec<f64> = Vec::new();
        par_chunks_mut(&mut empty, 4, 4, |_, _| panic!("must not run"));
        let mut data = vec![1.0f64; 3];
        par_chunks_mut(&mut data, 0, 4, |_, _| panic!("must not run"));
        assert_eq!(data, vec![1.0; 3]);
    }

    #[test]
    fn par_chunks_mut_panic_preserves_payload() {
        let caught = std::panic::catch_unwind(|| {
            let mut data = vec![0.0f64; 64];
            par_chunks_mut(&mut data, 4, 4, |c, _| {
                if c == 7 {
                    panic!("chunk 7 exploded");
                }
            });
        });
        let payload = caught.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "chunk 7 exploded");
    }

    #[test]
    fn nested_parallel_calls_complete() {
        // Device-over-kernel nesting: an outer fan-out whose bodies issue
        // inner fan-outs must terminate even when the pool is saturated,
        // because every caller participates in its own job. Heavy variants
        // so both layers really publish jobs.
        let r = par_map_heavy(4, 4, |i| {
            let inner = par_map_heavy(8, 4, move |j| i * 10 + j);
            inner.iter().sum::<usize>()
        });
        let expected: Vec<usize> = (0..4).map(|i| (0..8).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(r, expected);
    }

    #[test]
    fn repeated_calls_do_not_spawn_per_call() {
        // The no-churn regression: hundreds of parallel calls at a fixed
        // thread count may grow the pool by at most `threads - 1` workers
        // (concurrently-running tests may have grown it already, so assert
        // on the delta, not the absolute count).
        let before = POOL_WORKERS.get();
        for _ in 0..200 {
            let r = par_map_heavy(16, 2, |i| i + 1);
            assert_eq!(r.len(), 16);
        }
        let delta = POOL_WORKERS.get() - before;
        assert!(delta <= 1, "200 calls at 2 threads spawned {delta} workers");
    }

    #[test]
    fn workers_spawned_bounded_by_thread_count() {
        // `pool.workers_spawned` is a high-water mark: after any number of
        // calls at `threads = t`, the pool has spawned at most `t - 1`
        // workers on behalf of those calls.
        let before = POOL_WORKERS.get();
        for _ in 0..50 {
            par_map_heavy(32, 4, |i| i * 2);
            let mut buf = vec![0.0f64; 64];
            par_chunks_mut(&mut buf, 8, 4, |_, chunk| {
                for v in chunk.iter_mut() {
                    *v += 1.0;
                }
            });
        }
        let delta = POOL_WORKERS.get() - before;
        assert!(delta <= 3, "calls at 4 threads spawned {delta} workers");
    }

    #[test]
    fn small_fan_out_runs_inline_on_caller() {
        // Below MIN_INLINE_ITEMS, par_map must compute every item on the
        // calling thread — no job publish, no handoff to pool workers.
        let caller = std::thread::current().id();
        let ids = par_map(MIN_INLINE_ITEMS - 1, 8, |_| std::thread::current().id());
        assert!(ids.iter().all(|id| *id == caller));
        // At or above the threshold the call is eligible for the pool;
        // results must stay in index order either way.
        let r = par_map(MIN_INLINE_ITEMS + 5, 4, |i| i * 2);
        assert_eq!(
            r,
            (0..MIN_INLINE_ITEMS + 5).map(|i| i * 2).collect::<Vec<_>>()
        );
    }

    #[test]
    fn burst_of_small_jobs_stays_correct() {
        // Back-to-back publishes hit the workers' spin window (the
        // BENCH_PR6 pathology): every job in the burst must still hand
        // each index to exactly one participant.
        for round in 0..300 {
            let r = par_map_heavy(8, 2, move |i| round * 100 + i);
            assert_eq!(r, (0..8).map(|i| round * 100 + i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
