//! The serving vocabulary shared by [`crate::shard::ShardedServer`] and its
//! callers: [`ServerConfig`] (per-session and per-step tuning) and
//! [`ServedTransfer`] (one reaped transfer with its report and telemetry).
//!
//! A server publishes streams under session ids. Any receiver that sends a
//! `Request` for a published id gets its own independent sender session
//! keyed by `(peer address, session id)`; sessions are polled round-robin
//! with bounded per-step bursts so a fast peer cannot starve a slow one.
//! Outgoing datagrams can optionally pass through a seeded
//! [`FaultInjector`](crate::channel::FaultInjector) — the same fault model
//! the in-process tests use, applied per-destination. The serve loop itself
//! lives in [`crate::shard`].

use std::net::SocketAddr;
use std::time::Duration;

use crate::channel::FaultProfile;
use crate::session::{SenderConfig, SenderReport};

/// Tuning knobs for the server loop.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Per-session sender tuning (pacing, redundancy, timeouts).
    pub sender: SenderConfig,
    /// Seeded fault profile applied to *outgoing* datagrams, if any.
    pub faults: Option<(FaultProfile, u64)>,
    /// Max coded frames one session may emit per scheduling step (fairness
    /// bound across concurrent receivers).
    pub burst_per_step: u32,
    /// Upper bound on one blocking receive wait. The loop sleeps until the
    /// earliest session deadline (pacing, stall, announce-retry), capped
    /// here so reaps and `serve` deadline checks stay responsive; incoming
    /// datagrams interrupt the wait either way. This is a *cap*, not a
    /// tick — an idle server wakes at this cadence, not every 2ms.
    pub poll_interval: Duration,
    /// Kernel receive-buffer size to request on the server socket(s), so
    /// feedback bursts from many concurrent receivers survive until the
    /// next batched drain. `None` keeps the kernel default; best-effort
    /// on the portable path (see
    /// [`BatchSocket::set_recv_buffer`](crate::channel::BatchSocket::set_recv_buffer)).
    pub recv_buffer_bytes: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            sender: SenderConfig::default(),
            faults: None,
            burst_per_step: 32,
            poll_interval: Duration::from_millis(25),
            recv_buffer_bytes: None,
        }
    }
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
