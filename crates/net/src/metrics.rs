//! Telemetry handles for the coded transport.
//!
//! Process-wide aggregates live in the default registry under `net.*`
//! names; each [`crate::session::SenderSession`] additionally keeps its own
//! pacing-wait histogram so the [`crate::shard::ShardedServer`] can attach
//! a per-session snapshot to every finished transfer.

use std::sync::{Arc, OnceLock};

use nc_telemetry::{Counter, Gauge, Histogram};

pub(crate) struct NetMetrics {
    /// Coded data frames handed to the wire by any sender session.
    pub frames_sent: Arc<Counter>,
    /// Announce datagrams sent.
    pub announces_sent: Arc<Counter>,
    /// ACK datagrams folded into any sender session.
    pub acks_received: Arc<Counter>,
    /// Sender sessions constructed.
    pub sessions_started: Arc<Counter>,
    /// Sessions that ended with receiver-confirmed recovery.
    pub sessions_completed: Arc<Counter>,
    /// Sessions that ended in idle timeout or deadline.
    pub sessions_failed: Arc<Counter>,
    /// Datagrams the fault model dropped.
    pub frames_dropped: Arc<Counter>,
    /// Extra deliveries the fault model duplicated.
    pub frames_duplicated: Arc<Counter>,
    /// Bytes copied off a socket/receive buffer into a (recycled) pool
    /// buffer on the receive path — the one copy that remains after the
    /// per-datagram `to_vec` allocations were removed.
    pub rx_bytes_copied: Arc<Counter>,
    /// User-space payload bytes copied on the send path: a data frame
    /// copied into its datagram by `Datagram::encode`, and the fault
    /// injector's copies. The sender session's encode-in-place path adds
    /// nothing here.
    pub tx_bytes_copied: Arc<Counter>,
    /// Wire bytes handed to the kernel by `BatchSocket::flush` and
    /// `UdpChannel::send` (one add per flush / send).
    pub tx_bytes: Arc<Counter>,
    /// Datagrams any parse rejected for a checksum mismatch.
    pub rx_crc_rejected: Arc<Counter>,
    /// Most recent EMA loss estimate of any session.
    pub loss_estimate: Arc<Gauge>,
    /// Most recent redundancy factor (`1/(1-loss)`, clamped).
    pub redundancy_factor: Arc<Gauge>,
    /// Most recent flow-window occupancy (estimated in-flight / window).
    pub window_occupancy: Arc<Gauge>,
    /// Goodput of the most recently completed session, bytes/second.
    pub goodput_bytes_per_s: Arc<Gauge>,
    /// Token-bucket wait quoted to sender sessions, in nanoseconds.
    pub pacing_wait_ns: Arc<Histogram>,
    /// Syscalls issued by the batched-I/O seam ([`crate::sysio`]):
    /// sends, receives, polls, and (on the portable path) mode changes.
    pub syscalls: Arc<Counter>,
    /// Datagrams handed to the kernel through [`crate::channel::BatchSocket`].
    pub tx_datagrams: Arc<Counter>,
    /// Datagrams received through [`crate::channel::BatchSocket`].
    pub rx_datagrams: Arc<Counter>,
    /// Datagrams per batched send, sampled at every flush.
    pub tx_batch: Arc<Histogram>,
    /// Datagrams per batched receive, sampled at every non-empty drain.
    pub rx_batch: Arc<Histogram>,
    /// How late a shard loop woke relative to its quoted deadline, ns.
    pub deadline_miss_ns: Arc<Histogram>,
    /// Datagrams re-routed between shards because the kernel's flow hash
    /// (or the portable race-first fallback) disagreed with the
    /// owner-hash shard assignment.
    pub shard_forwards: Arc<Counter>,
}

pub(crate) fn metrics() -> &'static NetMetrics {
    static METRICS: OnceLock<NetMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = nc_telemetry::default_registry();
        NetMetrics {
            frames_sent: r.counter("net.frames_sent"),
            announces_sent: r.counter("net.announces_sent"),
            acks_received: r.counter("net.acks_received"),
            sessions_started: r.counter("net.sessions_started"),
            sessions_completed: r.counter("net.sessions_completed"),
            sessions_failed: r.counter("net.sessions_failed"),
            frames_dropped: r.counter("net.frames_dropped"),
            frames_duplicated: r.counter("net.frames_duplicated"),
            rx_bytes_copied: r.counter("net.rx_bytes_copied"),
            tx_bytes_copied: r.counter("net.tx_bytes_copied"),
            tx_bytes: r.counter("net.tx_bytes"),
            rx_crc_rejected: r.counter("net.rx_crc_rejected"),
            loss_estimate: r.gauge("net.loss_estimate"),
            redundancy_factor: r.gauge("net.redundancy_factor"),
            window_occupancy: r.gauge("net.window_occupancy"),
            goodput_bytes_per_s: r.gauge("net.goodput_bytes_per_s"),
            pacing_wait_ns: r.histogram("net.pacing_wait_ns"),
            syscalls: r.counter("net.syscalls"),
            tx_datagrams: r.counter("net.tx_datagrams"),
            rx_datagrams: r.counter("net.rx_datagrams"),
            tx_batch: r.histogram("net.tx_batch"),
            rx_batch: r.histogram("net.rx_batch"),
            deadline_miss_ns: r.histogram("net.deadline_miss_ns"),
            shard_forwards: r.counter("net.shard_forwards"),
        }
    })
}
