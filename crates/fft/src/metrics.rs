//! Telemetry handles for the FFT erasure backend.
//!
//! Process-wide aggregates in the default registry under `fft.*` names;
//! the stream layer additionally publishes the negotiated codec id per
//! session through `session.codec_id` in the transport's per-session
//! snapshots (see `nc-net`). Which GF rung ran is `nc-gf256`'s
//! `gf.kernel_id` gauge: both fields run on the one rung.

use std::sync::{Arc, OnceLock};

use nc_telemetry::{Counter, Histogram};

pub(crate) struct FftMetrics {
    /// Wall time of one segment encode (IFFT sweep + FFT), nanoseconds.
    pub(crate) encode_ns: Arc<Histogram>,
    /// Wall time of one segment erasure decode, nanoseconds.
    pub(crate) decode_ns: Arc<Histogram>,
    /// Segments reassembled by pure copy because every original shard
    /// arrived (the systematic fast path — no field work at all).
    pub(crate) systematic_fast_path: Arc<Counter>,
    /// Segments that went through the full FFT erasure decode.
    pub(crate) decodes: Arc<Counter>,
    /// Halves of the decode transform folded, 1 or 2 per decode: one per
    /// half of the evaluation points that holds erased originals.
    pub(crate) decode_folds: Arc<Counter>,
    /// Recovery shards produced by encodes.
    pub(crate) recovery_shards: Arc<Counter>,
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
            decode_folds: r.counter("fft.decode_folds"),
            recovery_shards: r.counter("fft.recovery_shards"),
        }
    })
}
