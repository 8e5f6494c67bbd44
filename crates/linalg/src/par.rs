//! Shared parallelism for the numerical kernels: **scoped fan-outs** on
//! `std::thread::scope`.
//!
//! Every parallel loop in the workspace — the blocked matrix kernels, the
//! per-point Lasso and neighbor fan-outs, and the per-device fan-out — runs
//! through this module, the one place that spawns threads (DESIGN.md §9.2:
//! the device fan-out owns `threads`, kernels own `kernel_threads`).
//!
//! A call with `threads = t` spawns `min(t, default_threads()) - 1` scoped
//! helpers and **takes part itself**, so nested calls always make progress.
//! Participants claim indices from one shared counter (chunks from one
//! locked `chunks_mut` iterator) and keep their results in vectors of their
//! own, which are scattered back into index order after the join. Each
//! index is computed by exactly one participant with thread-count-independent
//! arithmetic, so results are bit-identical for every `threads`. Panics are
//! caught on every participant, and the first payload (the caller's, then
//! the helpers' in spawn order) is re-raised once every helper has joined.
//!
//! `threads == 1`, and [`par_map`] / [`par_map_with`] calls below
//! [`MIN_INLINE_ITEMS`] items, run as plain loops on the caller;
//! [`par_map_heavy`] skips that threshold for coarse fan-outs such as the
//! per-device rounds.
//!
//! Timing goes through `fedsc_obs` ([`Stopwatch`]), and every call reports
//! to the metrics registry: `pool.tasks` (items executed),
//! `pool.tasks_inline` (items executed as a plain loop on the caller),
//! `pool.steals` (items a participant executed beyond its fair share),
//! `pool.busy_ns` (per-participant loop wall time, summed) and
//! `pool.workers_spawned` (helpers started).

use fedsc_obs::{LazyCounter, Stopwatch};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// Indices executed by [`par_map`] / chunks written by [`par_chunks_mut`].
static POOL_TASKS: LazyCounter = LazyCounter::new("pool.tasks");
/// Indices executed as a plain loop on the caller because `threads == 1`
/// or the fan-out was below [`MIN_INLINE_ITEMS`] (no helper was spawned).
static POOL_TASKS_INLINE: LazyCounter = LazyCounter::new("pool.tasks_inline");
/// Tasks executed beyond a participant's fair share `ceil(count / threads)`
/// — the number of successful steals from slower participants' shares.
static POOL_STEALS: LazyCounter = LazyCounter::new("pool.steals");
/// Summed per-participant busy wall time (claim loop + task execution), ns.
static POOL_BUSY_NS: LazyCounter = LazyCounter::new("pool.busy_ns");
/// Scoped helper threads started, over all calls.
static POOL_WORKERS: LazyCounter = LazyCounter::new("pool.workers_spawned");

/// Default worker count: available parallelism, floor 1.
pub fn default_threads() -> usize {
    // Cached: `available_parallelism` costs a syscall plus cgroup-quota
    // file reads on Linux (~17 us), and the inline-dispatch path calls
    // this per fan-out. A process-lifetime snapshot keeps every call's
    // cap consistent.
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Fan-outs smaller than this run inline on the caller in [`par_map`] /
/// [`par_map_with`]: starting and joining a helper costs tens of
/// microseconds (24–38 µs per 2-thread call on a 2-vCPU Linux host), which
/// dwarfs a handful of cheap per-item bodies. Coarse fan-outs with individually-expensive items bypass the threshold
/// via [`par_map_heavy`].
pub const MIN_INLINE_ITEMS: usize = 128;

/// Indices claimed per `fetch_add` in [`par_map`]: 8x less contention on
/// the claim counter than single indices, and still 16 stealable blocks in
/// a [`MIN_INLINE_ITEMS`]-item fan-out.
const CLAIM_BLOCK: usize = 8;

/// Runs `body` on the caller and on `helpers` scoped helper threads, joins
/// every helper, and returns each participant's output (the caller's
/// first). A helper that fails to spawn is skipped: the claim loops hand
/// its share to the others. The first panic payload is re-raised once
/// every helper has joined.
fn fan_out<R, B>(helpers: usize, body: B) -> Vec<R>
where
    R: Send,
    B: Fn() -> R + Sync,
{
    let body = &body;
    let outcomes = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..helpers)
            .filter_map(|h| {
                std::thread::Builder::new()
                    .name(format!("fedsc-par-{h}"))
                    .spawn_scoped(scope, body)
                    .ok()
            })
            .collect();
        POOL_WORKERS.add(handles.len() as u64);
        let mut outcomes = vec![catch_unwind(AssertUnwindSafe(body))];
        outcomes.extend(handles.into_iter().map(|h| h.join()));
        outcomes
    });
    outcomes
        .into_iter()
        .map(|outcome| outcome.unwrap_or_else(|payload| resume_unwind(payload)))
        .collect()
}

/// Maps `f` over `0..count` on `threads` participants (the caller plus
/// `threads - 1` scoped helpers; atomic work stealing), returning results
/// in index order.
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
/// the per-device federated rounds.
///
/// Ignores the [`MIN_INLINE_ITEMS`] inline threshold and always spawns
/// helpers when `threads > 1`: a round of four device fits is exactly the
/// shape the threshold would wrongly serialize.
pub fn par_map_heavy<T, F>(count: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_map_with_inner(count, threads, 0, || (), move |(), i| f(i))
}

/// Shared body of [`par_map_with`] / [`par_map_heavy`]: fan-outs smaller
/// than `inline_below` run inline on the caller without spawning.
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
    let next = AtomicUsize::new(0);
    // Fair share per participant; anything executed past it was stolen from
    // a slower participant's share of the queue.
    let fair = (count as u64).div_ceil(threads as u64);
    let parts = fan_out(threads - 1, || {
        let sw = Stopwatch::start();
        let mut state = make_state();
        let mut mine = Vec::new();
        loop {
            // ORDERING: Relaxed — the counter only hands out unique index
            // blocks; the results travel back to the caller through the
            // scope join, not through this claim.
            let start = next.fetch_add(CLAIM_BLOCK, Ordering::Relaxed);
            if start >= count {
                break;
            }
            for i in start..(start + CLAIM_BLOCK).min(count) {
                mine.push((i, f(&mut state, i)));
            }
        }
        POOL_TASKS.add(mine.len() as u64);
        POOL_STEALS.add((mine.len() as u64).saturating_sub(fair));
        POOL_BUSY_NS.add(sw.elapsed_ns());
        mine
    });
    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    for (i, value) in parts.into_iter().flatten() {
        slots[i] = Some(value);
    }
    // INVARIANT: `fan_out` returned without re-raising a panic, so the
    // claim loop handed every index in 0..count to exactly one participant.
    slots
        .into_iter()
        .map(|s| s.expect("every index processed"))
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

/// Splits `data` into contiguous `chunk_len`-sized chunks (`chunks_mut`
/// semantics: the last chunk may be shorter) and calls `f(chunk_index,
/// chunk)` for each, handing chunks out one at a time across `threads`
/// participants (the caller plus `threads - 1` scoped helpers).
///
/// This is the in-place fan-out for the blocked matrix kernels: a chunk is a
/// column panel of a column-major output, every panel is written by exactly
/// one participant, and the per-panel arithmetic never depends on the thread
/// count — so threaded kernels produce bit-identical buffers to `threads =
/// 1`.
pub fn par_chunks_mut<F>(data: &mut [f64], chunk_len: usize, threads: usize, f: F)
where
    F: Fn(usize, &mut [f64]) + Sync,
{
    if data.is_empty() || chunk_len == 0 {
        return;
    }
    let n_chunks = data.len().div_ceil(chunk_len);
    let threads = threads.max(1).min(n_chunks).min(default_threads());
    if threads == 1 {
        POOL_TASKS.add(n_chunks as u64);
        POOL_TASKS_INLINE.add(n_chunks as u64);
        for (c, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(c, chunk);
        }
        return;
    }
    // The lock guards only the hand-out of the next chunk: the guard is a
    // temporary of the claim statement, so it is released before `f` runs.
    let chunks = Mutex::new(data.chunks_mut(chunk_len).enumerate());
    let fair = (n_chunks as u64).div_ceil(threads as u64);
    fan_out(threads - 1, || {
        let sw = Stopwatch::start();
        let mut written = 0u64;
        loop {
            let claimed = chunks
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .next();
            let Some((c, chunk)) = claimed else {
                break;
            };
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
    fn fan_outs_run_on_at_most_the_capped_threads_including_the_caller() {
        // A call at `threads = t` runs on at most `min(t, default_threads())`
        // distinct threads, one of them the caller. Every participant holds
        // its items until the caller has arrived (so the caller's share does
        // not depend on how fast helpers start) and, for a short window,
        // until one thread more than the cap has arrived (so a surplus
        // helper would claim work before the 128 claims drain).
        let caller = std::thread::current().id();
        for threads in [2usize, 4, 64] {
            let cap = threads.min(default_threads());
            let run = |call: &dyn Fn(&(dyn Fn() + Sync)), what: &str| {
                let arrived = Mutex::new(Vec::new());
                let window = Stopwatch::start();
                call(&|| loop {
                    let me = std::thread::current().id();
                    let (n, caller_in) = {
                        let mut ids = arrived.lock().expect("ids lock");
                        if !ids.contains(&me) {
                            ids.push(me);
                        }
                        (ids.len(), ids.contains(&caller))
                    };
                    let t = window.elapsed();
                    if (caller_in || t > Duration::from_secs(30))
                        && (n > cap || t > Duration::from_millis(100))
                    {
                        break;
                    }
                    std::thread::yield_now();
                });
                let ids = arrived.into_inner().expect("ids lock");
                assert!(ids.contains(&caller), "{what}: caller idle at {threads}");
                assert!(
                    ids.len() <= cap,
                    "{what}: {} threads ran at threads = {threads}, cap {cap}",
                    ids.len()
                );
            };
            run(
                &|item| {
                    par_map_heavy(128 * CLAIM_BLOCK, threads, |_| item());
                },
                "par_map_heavy",
            );
            run(
                &|item| par_chunks_mut(&mut [0.0f64; 128], 1, threads, |_, _| item()),
                "par_chunks_mut",
            );
        }
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
        // Back-to-back fan-outs each start and join their own helpers:
        // every call in the burst must still hand each index to exactly
        // one participant.
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
