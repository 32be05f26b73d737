//! Zero-dependency runtime observability for the network-coding stack.
//!
//! The paper's argument is a ladder of *measured* optimizations; this
//! crate is the measuring instrument the other crates share. It provides
//! a lock-cheap metrics registry — atomic [`Counter`]s, [`Gauge`]s, and
//! fixed-bucket [`Histogram`]s with p50/p95/p99 — plus monotonic span
//! timers, a process-wide [`default_registry`], and a [`Snapshot`] type
//! that serializes to (and parses back from) JSON without any external
//! dependency.
//!
//! Design constraints, in order:
//!
//! 1. **Hot-path cost.** Every record operation is a branch on one
//!    relaxed atomic (the kill switch) followed by one-to-four relaxed
//!    atomic read-modify-writes. No locks, no allocation, no syscalls.
//!    Metric *registration* takes a mutex, so callers hold `Arc` handles
//!    obtained once (at construction / via `OnceLock`) and record through
//!    them.
//! 2. **Kill switch.** `NC_TELEMETRY=off` (or `0`/`false`) disables all
//!    recording process-wide; the hot path then compiles down to a
//!    relaxed load + predictable branch. [`set_enabled`] overrides the
//!    environment at runtime (overhead ablations, tests).
//! 3. **Machine-readable export.** [`Snapshot`] captures a registry at a
//!    point in time and round-trips through JSON ([`Snapshot::to_json`] /
//!    [`Snapshot::from_json`]), so bench runs and CI can diff counters
//!    across commits.
//!
//! ```
//! use nc_telemetry::{default_registry, Registry};
//!
//! // Subsystems grab handles once...
//! let frames = default_registry().counter("doc.frames_sent");
//! let wait = default_registry().histogram("doc.pacing_wait_ns");
//! // ...and record on the hot path.
//! frames.inc();
//! wait.record(1500);
//! {
//!     let _span = wait.span(); // records elapsed nanoseconds on drop
//! }
//!
//! let snap = default_registry().snapshot();
//! let json = snap.to_json();
//! assert_eq!(nc_telemetry::Snapshot::from_json(&json).unwrap(), snap);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod json;
mod metrics;
mod registry;
mod snapshot;

pub use json::JsonError;
pub use metrics::{Counter, Gauge, Histogram, Span};
pub use registry::{Registry, Scoped};
pub use snapshot::{HistogramSnapshot, Snapshot};

use std::sync::atomic::{AtomicU8, Ordering};

/// Kill-switch state: 0 = uninitialized, 1 = on, 2 = off.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// Whether telemetry recording is on. The first call reads the
/// `NC_TELEMETRY` environment variable (`off`, `0`, or `false` — case
/// insensitive — disable it; anything else, including unset, enables it);
/// subsequent calls are a single relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => init_enabled(),
    }
}

#[cold]
fn init_enabled() -> bool {
    let off = std::env::var("NC_TELEMETRY")
        .map(|v| {
            let v = v.trim().to_ascii_lowercase();
            v == "off" || v == "0" || v == "false"
        })
        .unwrap_or(false);
    ENABLED.store(if off { 2 } else { 1 }, Ordering::Relaxed);
    !off
}

/// Overrides the kill switch at runtime (tests, overhead ablations).
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

/// The process-wide default registry every subsystem records into.
pub fn default_registry() -> &'static Registry {
    static DEFAULT: Registry = Registry::new();
    &DEFAULT
}

/// Captures a [`Snapshot`] of the [`default_registry`].
pub fn snapshot() -> Snapshot {
    default_registry().snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_switch_stops_recording() {
        let registry = Registry::new();
        let counter = registry.counter("t.counter");
        let gauge = registry.gauge("t.gauge");
        let histogram = registry.histogram("t.hist");

        set_enabled(false);
        counter.inc();
        gauge.set(4.2);
        histogram.record(100);
        assert_eq!(counter.get(), 0);
        assert_eq!(gauge.get(), 0.0);
        assert_eq!(histogram.count(), 0);

        set_enabled(true);
        counter.inc();
        gauge.set(4.2);
        histogram.record(100);
        assert_eq!(counter.get(), 1);
        assert_eq!(gauge.get(), 4.2);
        assert_eq!(histogram.count(), 1);
    }

    #[test]
    fn default_registry_is_shared() {
        set_enabled(true);
        let a = default_registry().counter("lib.shared");
        let b = default_registry().counter("lib.shared");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
    }
}
