//! Telemetry handles for the CPU coding paths.
//!
//! Handles are fetched once into a `OnceLock` so the hot paths record
//! through pre-resolved `Arc`s; with `NC_TELEMETRY=off` every call site
//! reduces to a relaxed atomic load and a branch.

use std::sync::{Arc, OnceLock};

use nc_telemetry::{Counter, Histogram};

pub(crate) struct CpuMetrics {
    /// Segments fully decoded by [`crate::ParallelSegmentDecoder`].
    pub(crate) segments_decoded: Arc<Counter>,
    /// Segments whose decode returned an error.
    pub(crate) segment_errors: Arc<Counter>,
    /// Time a decode wave spends joining its worker threads (the
    /// multi-segment barrier).
    pub(crate) segment_barrier_wait_ns: Arc<Histogram>,
}

pub(crate) fn metrics() -> &'static CpuMetrics {
    static METRICS: OnceLock<CpuMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = nc_telemetry::default_registry();
        CpuMetrics {
            segments_decoded: r.counter("cpu.segments_decoded"),
            segment_errors: r.counter("cpu.segment_errors"),
            segment_barrier_wait_ns: r.histogram("cpu.segment_barrier_wait_ns"),
        }
    })
}
