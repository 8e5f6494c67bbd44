//! Process-global metrics registry: monotone counters, the one metric kind.
//!
//! Metrics are **always on** — a handful of relaxed atomic adds per
//! instrumented operation — because unlike spans they never read the
//! clock and never allocate on the hot path. Time lives in spans; a
//! metric only counts. Instrumentation sites declare a `static`
//! [`LazyCounter`] that registers itself on first use, so recording is
//! one `OnceLock` read plus one atomic op.
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
        // any other memory.
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
}

static REGISTRY: RwLock<BTreeMap<&'static str, Arc<Counter>>> = RwLock::new(BTreeMap::new());

fn read_registry() -> std::sync::RwLockReadGuard<'static, BTreeMap<&'static str, Arc<Counter>>> {
    match REGISTRY.read() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn write_registry() -> std::sync::RwLockWriteGuard<'static, BTreeMap<&'static str, Arc<Counter>>> {
    match REGISTRY.write() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Returns (registering on first use) the counter named `name`.
pub fn counter(name: &'static str) -> Arc<Counter> {
    if let Some(c) = read_registry().get(name) {
        return Arc::clone(c);
    }
    Arc::clone(write_registry().entry(name).or_default())
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

/// Point-in-time copy of the whole registry, sorted by name. Keys are
/// owned strings so snapshots can cross process boundaries via the fleet
/// envelope (see [`crate::fleet`]) and merge up an aggregation tree.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
}

impl MetricsSnapshot {
    /// Merges `other` into `self`: counters add per name. Associative
    /// and commutative, so a root export is independent of the tier
    /// merge order.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
    }
}

/// Snapshots every registered counter.
pub fn snapshot() -> MetricsSnapshot {
    let counters = read_registry()
        .iter()
        .map(|(&name, c)| (name.to_string(), c.get()))
        .collect();
    MetricsSnapshot { counters }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_register_and_accumulate() {
        static C: LazyCounter = LazyCounter::new("test.metrics.counter_a");
        C.add(2);
        C.inc();
        assert_eq!(C.get(), 3);
        let snap = snapshot();
        assert_eq!(snap.counters.get("test.metrics.counter_a"), Some(&3));
    }

    #[test]
    fn registry_returns_the_same_instance_per_name() {
        let a = counter("test.metrics.shared");
        let b = counter("test.metrics.shared");
        a.add(1);
        b.add(1);
        assert_eq!(a.get(), 2);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn concurrent_adds_do_not_lose_updates() {
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
