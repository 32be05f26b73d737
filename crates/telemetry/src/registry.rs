//! The metrics registry: named handles, shared ownership, snapshots.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::metrics::{Counter, Gauge, Histogram};
use crate::snapshot::Snapshot;

#[derive(Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A named collection of metrics.
///
/// Registration (`counter`/`gauge`/`histogram`) takes a mutex and is
/// idempotent — asking for an existing name returns the same underlying
/// metric — so subsystems fetch handles once and record through the
/// returned `Arc`s locklessly. A `BTreeMap` keys the metrics so snapshots
/// and their JSON are deterministically ordered.
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

impl Registry {
    /// An empty registry.
    pub const fn new() -> Registry {
        Registry { metrics: Mutex::new(BTreeMap::new()) }
    }

    fn register<T>(
        &self,
        name: &str,
        make: impl FnOnce() -> Metric,
        get: impl FnOnce(&Metric) -> Option<Arc<T>>,
    ) -> Arc<T> {
        let mut metrics = self.metrics.lock().expect("registry lock poisoned");
        let metric = metrics.entry(name.to_string()).or_insert_with(make);
        match get(metric) {
            Some(handle) => handle,
            None => panic!("metric {name:?} already registered as a {}", metric.kind()),
        }
    }

    /// The counter registered under `name` (created on first use).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.register(
            name,
            || Metric::Counter(Arc::new(Counter::new())),
            |m| match m {
                Metric::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
        )
    }

    /// The gauge registered under `name` (created on first use).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.register(
            name,
            || Metric::Gauge(Arc::new(Gauge::new())),
            |m| match m {
                Metric::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
        )
    }

    /// The histogram registered under `name` (created on first use).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.register(
            name,
            || Metric::Histogram(Arc::new(Histogram::new())),
            |m| match m {
                Metric::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
        )
    }

    /// A name-prefixing view of this registry for per-instance metric
    /// families: every metric created through the returned [`Scoped`] is
    /// registered as `<prefix>.<name>`.
    ///
    /// Shards, workers, and other replicated subsystems use this to get
    /// distinct metric series (`net.shard0.rx_datagrams`,
    /// `net.shard1.rx_datagrams`, ...) without threading format strings
    /// through every call site. The view borrows the registry; handles it
    /// returns are plain `Arc`s and outlive it.
    pub fn scoped(&self, prefix: impl Into<String>) -> Scoped<'_> {
        Scoped { registry: self, prefix: prefix.into() }
    }

    /// Captures every metric's current value.
    pub fn snapshot(&self) -> Snapshot {
        let metrics = self.metrics.lock().expect("registry lock poisoned");
        let mut snap = Snapshot::default();
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => {
                    snap.counters.insert(name.clone(), c.get());
                }
                Metric::Gauge(g) => {
                    snap.gauges.insert(name.clone(), g.get());
                }
                Metric::Histogram(h) => {
                    snap.histograms.insert(name.clone(), h.snapshot());
                }
            }
        }
        snap
    }
}

/// A prefix-applying view of a [`Registry`], from [`Registry::scoped`].
///
/// Metric names pass through as `<prefix>.<name>`; registration semantics
/// (idempotence, kind-mismatch panics) are the underlying registry's.
pub struct Scoped<'r> {
    registry: &'r Registry,
    prefix: String,
}

impl Scoped<'_> {
    fn full(&self, name: &str) -> String {
        let mut full = String::with_capacity(self.prefix.len() + 1 + name.len());
        full.push_str(&self.prefix);
        full.push('.');
        full.push_str(name);
        full
    }

    /// The counter registered under `<prefix>.<name>`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.registry.counter(&self.full(name))
    }

    /// The gauge registered under `<prefix>.<name>`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.registry.gauge(&self.full(name))
    }
}

impl std::fmt::Debug for Scoped<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scoped").field("prefix", &self.prefix).finish()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let metrics = self.metrics.lock().expect("registry lock poisoned");
        f.debug_struct("Registry").field("metrics", &metrics.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        crate::set_enabled(true);
        let r = Registry::new();
        r.counter("a").add(3);
        r.counter("a").add(4);
        assert_eq!(r.snapshot().counter("a"), Some(7));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter("x");
        let _ = r.gauge("x");
    }

    #[test]
    fn snapshot_carries_all_kinds() {
        crate::set_enabled(true);
        let r = Registry::new();
        r.counter("c").inc();
        r.gauge("g").set(1.5);
        r.histogram("h").record(10);
        let s = r.snapshot();
        assert_eq!(s.counter("c"), Some(1));
        assert_eq!(s.gauge("g"), Some(1.5));
        assert_eq!(s.histogram("h").map(|h| h.count), Some(1));
        assert_eq!(s.counter("missing"), None);
    }

    #[test]
    fn scoped_prefixes_names_and_shares_handles() {
        crate::set_enabled(true);
        let r = Registry::new();
        let shard = r.scoped("net.shard0");
        shard.counter("rx").add(2);
        // The scoped handle and the fully-qualified name are the same metric.
        r.counter("net.shard0.rx").inc();
        assert_eq!(r.snapshot().counter("net.shard0.rx"), Some(3));
        shard.gauge("depth").set(1.0);
        assert_eq!(r.snapshot().gauge("net.shard0.depth"), Some(1.0));
    }
}
