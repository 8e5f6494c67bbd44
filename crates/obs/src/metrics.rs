//! Process-global metrics registry: counters and fixed-bucket histograms.
//!
//! Metrics are **always on** — a handful of relaxed atomic adds per
//! instrumented operation — because unlike spans they never read the
//! clock and never allocate on the hot path. Instrumentation sites
//! declare a `static` [`LazyCounter`] / [`LazyHistogram`] that registers
//! itself on first use, so recording is one `OnceLock` read plus one
//! atomic op.
//!
//! The registry key space is flat dotted names (`"transport.bytes_sent"`,
//! `"pool.tasks"`); [`snapshot`] walks it in sorted (BTree) order so the
//! exported JSON is deterministic.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Monotone counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        // ORDERING: Relaxed — statistical telemetry; counts need to be
        // eventually visible and lost-update-free (RMW), never to order
        // any other memory. Same for every metric cell in this module.
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // ORDERING: Relaxed — see `Counter::add`.
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        // ORDERING: Relaxed — see `Counter::add`.
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Fixed-bucket histogram: bucket `i` counts observations `<= bounds[i]`
/// (non-cumulative storage), with one overflow bucket past the last bound.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[u64]) -> Self {
        let mut sorted: Vec<u64> = bounds.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut buckets = Vec::with_capacity(sorted.len() + 1);
        for _ in 0..=sorted.len() {
            buckets.push(AtomicU64::new(0));
        }
        Histogram {
            bounds: sorted,
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn observe(&self, v: u64) {
        let idx = self.bounds.partition_point(|&b| b < v);
        // ORDERING: Relaxed — statistical telemetry (see `Counter::add`);
        // bucket/count/sum need not be mutually consistent at any instant,
        // only individually lost-update-free.
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed); // ORDERING: as above.
        self.sum.fetch_add(v, Ordering::Relaxed); // ORDERING: as above.
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        // ORDERING: Relaxed — statistical telemetry; see `Counter::add`.
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        // ORDERING: Relaxed — statistical telemetry; see `Counter::add`.
        self.sum.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        for b in &self.buckets {
            // ORDERING: Relaxed — statistical telemetry; see `Counter::add`.
            b.store(0, Ordering::Relaxed);
        }
        // ORDERING: Relaxed — statistical telemetry; see `Counter::add`.
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed); // ORDERING: as above.
    }
}

/// A registered metric of any kind.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Histogram(Arc<Histogram>),
}

static REGISTRY: RwLock<BTreeMap<&'static str, Metric>> = RwLock::new(BTreeMap::new());

fn read_registry() -> std::sync::RwLockReadGuard<'static, BTreeMap<&'static str, Metric>> {
    match REGISTRY.read() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn write_registry() -> std::sync::RwLockWriteGuard<'static, BTreeMap<&'static str, Metric>> {
    match REGISTRY.write() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Returns (registering on first use) the counter named `name`. If the
/// name is already registered as a different kind, a detached counter is
/// returned instead of panicking — the collision shows up in review as a
/// metric that never moves in snapshots.
pub fn counter(name: &'static str) -> Arc<Counter> {
    if let Some(Metric::Counter(c)) = read_registry().get(name) {
        return Arc::clone(c);
    }
    let mut reg = write_registry();
    match reg.get(name) {
        Some(Metric::Counter(c)) => Arc::clone(c),
        Some(_) => Arc::new(Counter::default()),
        None => {
            let c = Arc::new(Counter::default());
            reg.insert(name, Metric::Counter(Arc::clone(&c)));
            c
        }
    }
}

/// Returns (registering on first use) the histogram named `name` with the
/// given upper bucket bounds. The first registration fixes the bounds;
/// kind collisions yield a detached histogram, as with [`counter`].
pub fn histogram(name: &'static str, bounds: &[u64]) -> Arc<Histogram> {
    if let Some(Metric::Histogram(h)) = read_registry().get(name) {
        return Arc::clone(h);
    }
    let mut reg = write_registry();
    match reg.get(name) {
        Some(Metric::Histogram(h)) => Arc::clone(h),
        Some(_) => Arc::new(Histogram::new(bounds)),
        None => {
            let h = Arc::new(Histogram::new(bounds));
            reg.insert(name, Metric::Histogram(Arc::clone(&h)));
            h
        }
    }
}

/// A `static`-friendly counter handle: resolves its registry entry once.
#[derive(Debug)]
pub struct LazyCounter {
    name: &'static str,
    cell: OnceLock<Arc<Counter>>,
}

impl LazyCounter {
    /// Declares a counter named `name` (registered on first use).
    pub const fn new(name: &'static str) -> Self {
        LazyCounter {
            name,
            cell: OnceLock::new(),
        }
    }

    /// The underlying counter.
    pub fn handle(&self) -> &Counter {
        self.cell.get_or_init(|| counter(self.name))
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.handle().add(n);
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.handle().inc();
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.handle().get()
    }
}

/// A `static`-friendly histogram handle: resolves its registry entry once.
#[derive(Debug)]
pub struct LazyHistogram {
    name: &'static str,
    bounds: &'static [u64],
    cell: OnceLock<Arc<Histogram>>,
}

impl LazyHistogram {
    /// Declares a histogram named `name` with upper bucket bounds `bounds`.
    pub const fn new(name: &'static str, bounds: &'static [u64]) -> Self {
        LazyHistogram {
            name,
            bounds,
            cell: OnceLock::new(),
        }
    }

    /// The underlying histogram.
    pub fn handle(&self) -> &Histogram {
        self.cell.get_or_init(|| histogram(self.name, self.bounds))
    }

    /// Records one observation.
    pub fn observe(&self, v: u64) {
        self.handle().observe(v);
    }
}

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Upper bucket bounds, ascending.
    pub bounds: Vec<u64>,
    /// Per-bucket counts; `buckets[i]` pairs with `bounds[i]`, with one
    /// trailing overflow bucket (`> bounds.last()`).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Merges `other` into `self` by **union of bounds**: each bucket
    /// count stays attached to its original upper bound, the merged bound
    /// set is the sorted union, and the overflow buckets add. Because a
    /// count never moves to a different bound, the operation is
    /// associative and commutative — any merge order across an
    /// aggregation tree yields the identical snapshot. The price is that
    /// a merged bucket's count only means "observations ≤ this bound
    /// recorded by a process using this bound", not a re-bucketing.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        let mut per_bound: BTreeMap<u64, u64> = BTreeMap::new();
        let mut overflow = 0u64;
        for snap in [&*self, other] {
            for (i, &c) in snap.buckets.iter().enumerate() {
                match snap.bounds.get(i) {
                    Some(&b) => *per_bound.entry(b).or_insert(0) += c,
                    None => overflow += c,
                }
            }
        }
        self.bounds = per_bound.keys().copied().collect();
        self.buckets = per_bound.values().copied().collect();
        self.buckets.push(overflow);
        self.count += other.count;
        self.sum += other.sum;
    }
}

/// Point-in-time copy of the whole registry, sorted by name. Keys are
/// owned strings so snapshots can cross process boundaries via the fleet
/// envelope (see [`crate::fleet`]) and merge up an aggregation tree.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Merges `other` into `self`: counters add per name,
    /// histograms merge by union of bounds (see
    /// [`HistogramSnapshot::merge`]). Associative and commutative, so a
    /// root export is independent of the tier merge order.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(h);
        }
    }
}

/// Snapshots every registered metric.
pub fn snapshot() -> MetricsSnapshot {
    let mut snap = MetricsSnapshot::default();
    for (&name, metric) in read_registry().iter() {
        match metric {
            Metric::Counter(c) => {
                snap.counters.insert(name.to_string(), c.get());
            }
            Metric::Histogram(h) => {
                snap.histograms.insert(
                    name.to_string(),
                    HistogramSnapshot {
                        bounds: h.bounds.clone(),
                        buckets: h
                            .buckets
                            .iter()
                            // ORDERING: Relaxed — statistical telemetry; a
                            // snapshot racing concurrent observes is a
                            // point-in-time approximation by design.
                            .map(|b| b.load(Ordering::Relaxed))
                            .collect(),
                        count: h.count(),
                        sum: h.sum(),
                    },
                );
            }
        }
    }
    snap
}

/// Zeroes every registered metric (handles held by `Lazy*` statics stay
/// valid). Intended for test/bench isolation, not for production paths.
pub fn reset() {
    for metric in read_registry().values() {
        match metric {
            Metric::Counter(c) => c.reset(),
            Metric::Histogram(h) => h.reset(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The registry is process-global and one test calls [`reset`];
    /// serialize so value assertions cannot race.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        match LOCK.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    #[test]
    fn counters_register_and_accumulate() {
        let _g = guard();
        static C: LazyCounter = LazyCounter::new("test.metrics.counter_a");
        C.add(2);
        C.inc();
        assert_eq!(C.get(), 3);
        let snap = snapshot();
        assert_eq!(snap.counters.get("test.metrics.counter_a"), Some(&3));
    }

    #[test]
    fn registry_returns_the_same_instance_per_name() {
        let _g = guard();
        let a = counter("test.metrics.shared");
        let b = counter("test.metrics.shared");
        a.add(1);
        b.add(1);
        assert_eq!(a.get(), 2);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn kind_collision_yields_detached_metric_not_panic() {
        let _g = guard();
        let c = counter("test.metrics.collide");
        c.add(7);
        let h = histogram("test.metrics.collide", &[10]);
        h.observe(99);
        // The original counter is untouched and still registered.
        assert_eq!(counter("test.metrics.collide").get(), 7);
        let snap = snapshot();
        assert_eq!(snap.counters.get("test.metrics.collide"), Some(&7));
        assert!(!snap.histograms.contains_key("test.metrics.collide"));
    }

    #[test]
    fn histogram_buckets_partition_correctly() {
        let _g = guard();
        static H: LazyHistogram = LazyHistogram::new("test.metrics.hist", &[10, 100, 1000]);
        for v in [1, 10, 11, 100, 5000] {
            H.observe(v);
        }
        let snap = snapshot();
        let h = snap.histograms.get("test.metrics.hist").unwrap();
        assert_eq!(h.bounds, vec![10, 100, 1000]);
        // <=10: {1, 10}; <=100: {11, 100}; <=1000: {}; overflow: {5000}.
        assert_eq!(h.buckets, vec![2, 2, 0, 1]);
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 1 + 10 + 11 + 100 + 5000);
    }

    #[test]
    fn reset_zeroes_but_keeps_handles_alive() {
        let _g = guard();
        static C: LazyCounter = LazyCounter::new("test.metrics.reset_me");
        C.add(9);
        reset();
        assert_eq!(C.get(), 0);
        C.add(4);
        assert_eq!(C.get(), 4);
    }

    #[test]
    fn concurrent_adds_do_not_lose_updates() {
        let _g = guard();
        static C: LazyCounter = LazyCounter::new("test.metrics.concurrent");
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        C.inc();
                    }
                });
            }
        });
        assert_eq!(C.get(), 4000);
    }
}
