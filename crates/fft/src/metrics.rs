//! Telemetry handles for the FFT erasure backend.
//!
//! Process-wide aggregates in the default registry under `fft.*` names;
//! the stream layer additionally publishes the negotiated codec id per
//! session through `session.codec_id` in the transport's per-session
//! snapshots (see `nc-net`).

use std::sync::{Arc, OnceLock};

use nc_telemetry::{Counter, Gauge, Histogram};

pub(crate) struct FftMetrics {
    /// Wall time of one segment encode (IFFT sweep + FFT), nanoseconds.
    pub encode_ns: Arc<Histogram>,
    /// Wall time of one segment erasure decode, nanoseconds.
    pub decode_ns: Arc<Histogram>,
    /// Segments reassembled by pure copy because every original shard
    /// arrived (the systematic fast path — no field work at all).
    pub systematic_fast_path: Arc<Counter>,
    /// Segments that went through the full FFT erasure decode.
    pub decodes: Arc<Counter>,
    /// Recovery shards produced by encodes.
    pub recovery_shards: Arc<Counter>,
    /// Which GF(2^16) rung the process dispatches to
    /// ([`crate::simd::Gf16Kernel::id`]), set when it is first selected.
    pub kernel_id: Arc<Gauge>,
    /// `NC_GF16_BACKEND` values that were ignored (unknown name, or a rung
    /// this CPU lacks).
    pub backend_override_unavailable: Arc<Counter>,
}

pub(crate) fn metrics() -> &'static FftMetrics {
    static METRICS: OnceLock<FftMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = nc_telemetry::default_registry();
        FftMetrics {
            encode_ns: r.histogram("fft.encode_ns"),
            decode_ns: r.histogram("fft.decode_ns"),
            systematic_fast_path: r.counter("fft.systematic_fast_path"),
            decodes: r.counter("fft.decodes"),
            recovery_shards: r.counter("fft.recovery_shards"),
            kernel_id: r.gauge("fft.kernel_id"),
            backend_override_unavailable: r.counter("fft.backend_override_unavailable"),
        }
    })
}
