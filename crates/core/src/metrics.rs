//! Telemetry handles for the coding hot paths.
//!
//! Handles into the process-wide default registry, resolved once into a
//! `OnceLock`. Every recording call is gated on the `NC_TELEMETRY` kill
//! switch inside `nc-telemetry`, so with telemetry off each call site costs
//! one relaxed atomic load and a branch.

use std::sync::{Arc, OnceLock};

use nc_telemetry::{Counter, Histogram};

pub(crate) struct CoreMetrics {
    /// Coded blocks produced by [`crate::Encoder`] (all paths: random,
    /// caller-supplied coefficients, systematic).
    pub blocks_coded: Arc<Counter>,
    /// The subset of `blocks_coded` that are systematic: a source block
    /// verbatim under unit coefficients, no field work (the dense stream
    /// sender's frames `seq < n`).
    pub blocks_systematic: Arc<Counter>,
    /// Source blocks the dense [`crate::stream::StreamDecoder`] had to
    /// solve at completion because they did not arrive verbatim.
    pub rows_solved: Arc<Counter>,
    /// Coded blocks offered to the progressive [`crate::Decoder`].
    pub blocks_received: Arc<Counter>,
    /// Arrivals that increased decoder rank.
    pub blocks_innovative: Arc<Counter>,
    /// Arrivals that reduced to zero and were discarded.
    pub blocks_dependent: Arc<Counter>,
    /// [`crate::TwoStageDecoder`] stage 1 — `[C | I]` inversion time.
    pub stage1_invert_ns: Arc<Histogram>,
    /// [`crate::TwoStageDecoder`] stage 2 — `C⁻¹ · x` multiplication time.
    pub stage2_multiply_ns: Arc<Histogram>,
}

pub(crate) fn metrics() -> &'static CoreMetrics {
    static METRICS: OnceLock<CoreMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = nc_telemetry::default_registry();
        CoreMetrics {
            blocks_coded: r.counter("core.blocks_coded"),
            blocks_systematic: r.counter("core.blocks_systematic"),
            rows_solved: r.counter("core.rows_solved"),
            blocks_received: r.counter("core.blocks_received"),
            blocks_innovative: r.counter("core.blocks_innovative"),
            blocks_dependent: r.counter("core.blocks_dependent"),
            stage1_invert_ns: r.histogram("core.stage1_invert_ns"),
            stage2_multiply_ns: r.histogram("core.stage2_multiply_ns"),
        }
    })
}
