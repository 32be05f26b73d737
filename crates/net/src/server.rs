//! The serving vocabulary shared by [`crate::shard::ShardedServer`] and its
//! callers: [`ServerConfig`] (per-session and per-step tuning) and
//! [`ServedTransfer`] (one reaped transfer with its report and telemetry).
//!
//! A server publishes streams under session ids. Any receiver that sends a
//! `Request` for a published id gets its own independent sender session
//! keyed by `(peer address, session id)`; sessions take turns with
//! bursts bounded by [`BURST_PER_STEP`](crate::BURST_PER_STEP), so a fast
//! peer cannot starve a slow one. The serve loop itself lives in
//! [`crate::shard`].

use std::net::SocketAddr;

use crate::session::{SenderConfig, SenderReport};

/// Tuning knobs for the server's sessions.
#[derive(Clone, Debug, Default)]
pub struct ServerConfig {
    /// Per-session sender tuning (pacing, redundancy, timeouts).
    pub sender: SenderConfig,
    /// Kernel receive-buffer size to request on the server socket(s), so
    /// feedback bursts from many concurrent receivers survive until the
    /// next batched drain. `None` keeps the kernel default; best-effort
    /// on the portable path (see
    /// [`BatchSocket::set_recv_buffer`](crate::channel::BatchSocket::set_recv_buffer)).
    pub recv_buffer_bytes: Option<usize>,
}

/// One completed (or timed-out) transfer.
#[derive(Clone, Debug)]
pub struct ServedTransfer {
    /// The receiver the stream was pushed to.
    pub peer: SocketAddr,
    /// The session id served.
    pub session: u64,
    /// Which shard served it: [`shard_owner`](crate::shard::shard_owner)
    /// of `(peer, session)`.
    pub shard: usize,
    /// Full sender-side statistics for the transfer.
    pub report: SenderReport,
    /// Per-session telemetry (`session.*` metrics) captured at reap time;
    /// serializes via [`nc_telemetry::Snapshot::to_json`].
    pub metrics: nc_telemetry::Snapshot,
}
