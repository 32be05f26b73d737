//! Telemetry handles for the buffer pools.
//!
//! Handles are fetched once into a `OnceLock` so the hot paths record
//! through pre-resolved `Arc`s; with `NC_TELEMETRY=off` every call site
//! reduces to a relaxed atomic load and a branch.

use std::sync::{Arc, OnceLock};

use nc_telemetry::Counter;

pub(crate) struct PoolMetrics {
    /// Buffer requests served from a recycled allocation.
    pub(crate) buffer_hits: Arc<Counter>,
    /// Buffer requests that had to allocate fresh.
    pub(crate) buffer_misses: Arc<Counter>,
    /// Capacity (bytes) returned to a pool shelf by recycling.
    pub(crate) bytes_recycled: Arc<Counter>,
}

pub(crate) fn metrics() -> &'static PoolMetrics {
    static METRICS: OnceLock<PoolMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = nc_telemetry::default_registry();
        PoolMetrics {
            buffer_hits: r.counter("pool.buffer_hits"),
            buffer_misses: r.counter("pool.buffer_misses"),
            bytes_recycled: r.counter("pool.bytes_recycled"),
        }
    })
}
