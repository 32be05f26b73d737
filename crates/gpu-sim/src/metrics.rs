//! Telemetry handles for the simulator's launch path.

use std::sync::{Arc, OnceLock};

use nc_telemetry::{Counter, Histogram};

pub(crate) struct SimMetrics {
    /// Kernel launches executed (full and sampled).
    pub(crate) launches: Arc<Counter>,
    /// Thread blocks functionally executed on the host.
    pub(crate) blocks_executed: Arc<Counter>,
    /// Modeled device time per launch, in nanoseconds.
    pub(crate) modeled_time_ns: Arc<Histogram>,
    /// Host wall-clock spent simulating each launch, in nanoseconds.
    pub(crate) host_time_ns: Arc<Histogram>,
}

pub(crate) fn metrics() -> &'static SimMetrics {
    static METRICS: OnceLock<SimMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = nc_telemetry::default_registry();
        SimMetrics {
            launches: r.counter("gpu_sim.launches"),
            blocks_executed: r.counter("gpu_sim.blocks_executed"),
            modeled_time_ns: r.histogram("gpu_sim.modeled_time_ns"),
            host_time_ns: r.histogram("gpu_sim.host_time_ns"),
        }
    })
}
