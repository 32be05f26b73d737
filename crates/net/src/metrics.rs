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
    pub(crate) frames_sent: Arc<Counter>,
    /// Announce datagrams sent.
    pub(crate) announces_sent: Arc<Counter>,
    /// ACK datagrams folded into any sender session.
    pub(crate) acks_received: Arc<Counter>,
    /// Sender sessions constructed.
    pub(crate) sessions_started: Arc<Counter>,
    /// Sessions that ended with receiver-confirmed recovery.
    pub(crate) sessions_completed: Arc<Counter>,
    /// Sessions that ended in idle timeout or deadline.
    pub(crate) sessions_failed: Arc<Counter>,
    /// Datagrams the fault model dropped.
    pub(crate) frames_dropped: Arc<Counter>,
    /// Extra deliveries the fault model duplicated.
    pub(crate) frames_duplicated: Arc<Counter>,
    /// Bytes copied off a socket receive slot into a (recycled) pool
    /// buffer: `UdpChannel::recv_timeout`'s one copy. Batched receives
    /// (`recv_batch`, what the drivers and the server use) lend the slot
    /// and add nothing.
    pub(crate) rx_bytes_copied: Arc<Counter>,
    /// User-space payload bytes copied on the send path: a data frame
    /// copied into its datagram by `Datagram::encode`, the fault
    /// injector's copies, and the pooled copy `UdpChannel::send` queues
    /// of a borrowed datagram. The sender session's encode-in-place path
    /// and `send_batch` add nothing here.
    pub(crate) tx_bytes_copied: Arc<Counter>,
    /// Wire bytes handed to the kernel by `BatchSocket::flush` (one add
    /// per flush; every `UdpChannel` send is one).
    pub(crate) tx_bytes: Arc<Counter>,
    /// Datagrams any parse rejected for a checksum mismatch.
    pub(crate) rx_crc_rejected: Arc<Counter>,
    /// Which CRC-32 body the wire codec runs, set at its first detection:
    /// 0 = slice-by-16, 1 = the PCLMULQDQ fold.
    pub(crate) crc_kernel: Arc<Gauge>,
    /// Most recent EMA loss estimate of any session.
    pub(crate) loss_estimate: Arc<Gauge>,
    /// Most recent redundancy factor (`1/(1-loss)`, clamped).
    pub(crate) redundancy_factor: Arc<Gauge>,
    /// Flow-window occupancy (estimated in-flight / window) of the most
    /// recent session found with its window closed, so always >= 1 once
    /// set; an open window never writes it.
    pub(crate) window_occupancy: Arc<Gauge>,
    /// Goodput of the most recently completed session, bytes/second.
    pub(crate) goodput_bytes_per_s: Arc<Gauge>,
    /// Token-bucket waits quoted to sender sessions, in nanoseconds.
    /// Each session records into its own histogram and adds it here once,
    /// when it ends ([`Histogram::absorb`]), so a session still running
    /// is not in it yet.
    pub(crate) pacing_wait_ns: Arc<Histogram>,
    /// `SenderSession::poll` calls made by shard steps.
    pub(crate) shard_polls: Arc<Counter>,
    /// Shard-step turns in which a session was polled and sent nothing:
    /// its first poll returned `Wait`.
    pub(crate) shard_idle_polls: Arc<Counter>,
    /// Syscalls issued by the batched-I/O seam ([`crate::sysio`]):
    /// sends, receives, polls, and (on the portable path) mode changes.
    pub(crate) syscalls: Arc<Counter>,
    /// Datagrams handed to the kernel through [`crate::channel::BatchSocket`].
    pub(crate) tx_datagrams: Arc<Counter>,
    /// Messages (`mmsghdr`s) the kernel accepted for those datagrams: one
    /// per datagram, or one per `UDP_SEGMENT` run ([`crate::sysio`]).
    pub(crate) tx_messages: Arc<Counter>,
    /// Coalesced messages the kernel refused, each of which turned
    /// segmentation offload off for its socket (the Linux batched path
    /// only: the portable path never coalesces).
    #[cfg(all(target_os = "linux", not(nc_portable_io)))]
    pub(crate) tx_gso_refused: Arc<Counter>,
    /// Datagrams received through [`crate::channel::BatchSocket`].
    pub(crate) rx_datagrams: Arc<Counter>,
    /// Messages (`mmsghdr`s) the kernel filled for those datagrams: one
    /// per datagram, or one per `UDP_GRO` run ([`crate::sysio`]), so
    /// `net.rx_datagrams / net.rx_messages` is the receive-side
    /// coalescing factor.
    pub(crate) rx_messages: Arc<Counter>,
    /// Datagrams longer than their receive slot, skipped (Linux path
    /// only: the portable path cannot see truncation).
    pub(crate) rx_truncated: Arc<Counter>,
    /// Datagrams per batched send, sampled at every flush.
    pub(crate) tx_batch: Arc<Histogram>,
    /// Messages per batched receive, sampled at every non-empty drain.
    pub(crate) rx_batch: Arc<Histogram>,
    /// How late a shard loop woke relative to its quoted deadline, ns.
    pub(crate) deadline_miss_ns: Arc<Histogram>,
    /// Datagrams re-routed between shards because the kernel's flow hash
    /// (or the portable race-first fallback) disagreed with the
    /// owner-hash shard assignment.
    pub(crate) shard_forwards: Arc<Counter>,
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
            crc_kernel: r.gauge("net.crc_kernel"),
            loss_estimate: r.gauge("net.loss_estimate"),
            redundancy_factor: r.gauge("net.redundancy_factor"),
            window_occupancy: r.gauge("net.window_occupancy"),
            goodput_bytes_per_s: r.gauge("net.goodput_bytes_per_s"),
            pacing_wait_ns: r.histogram("net.pacing_wait_ns"),
            shard_polls: r.counter("net.shard_polls"),
            shard_idle_polls: r.counter("net.shard_idle_polls"),
            syscalls: r.counter("net.syscalls"),
            tx_datagrams: r.counter("net.tx_datagrams"),
            tx_messages: r.counter("net.tx_messages"),
            #[cfg(all(target_os = "linux", not(nc_portable_io)))]
            tx_gso_refused: r.counter("net.tx_gso_refused"),
            rx_datagrams: r.counter("net.rx_datagrams"),
            rx_messages: r.counter("net.rx_messages"),
            rx_truncated: r.counter("net.rx_truncated"),
            tx_batch: r.histogram("net.tx_batch"),
            rx_batch: r.histogram("net.rx_batch"),
            deadline_miss_ns: r.histogram("net.deadline_miss_ns"),
            shard_forwards: r.counter("net.shard_forwards"),
        }
    })
}
