//! Datagram channels: real UDP sockets, in-process pairs, and a
//! deterministic fault injector usable around either.
//!
//! The [`Channel`] trait is the transport's only I/O seam: a bidirectional,
//! unreliable, message-boundary-preserving pipe (UDP semantics) that moves
//! one datagram at a time or a burst at a time. Tests run the full
//! sender/receiver state machines over [`memory_pair`] channels with a
//! seeded [`FaultyChannel`] in between, so every loss-recovery test is
//! reproducible; deployment runs the same state machines over
//! [`UdpChannel`], optionally still wrapped in the fault injector.
//!
//! There is one socket implementation: [`BatchSocket`] stages sends for
//! one `sendmmsg` per flush and drains receives per `recvmmsg`, borrowed
//! from its slots and split out of `UDP_GRO` runs (one datagram per
//! syscall on the portable path).
//! [`UdpChannel`] is a peer address over one of them, and the sharded
//! server is a group of them.

use nc_pool::{BytesPool, PooledBuf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::time::Duration;

use crate::sysio::MAX_BATCH;
use crate::wire::MAX_DATAGRAM_BYTES;

/// A bidirectional unreliable datagram pipe (UDP semantics: whole
/// datagrams, no delivery or ordering guarantee).
pub trait Channel: Send {
    /// Sends one datagram (best-effort).
    ///
    /// # Errors
    ///
    /// I/O errors from the underlying transport; a lost datagram is *not*
    /// an error.
    fn send(&mut self, bytes: &[u8]) -> io::Result<()>;

    /// Receives one datagram, waiting up to `timeout` (a zero timeout
    /// polls). `Ok(None)` means nothing arrived in time.
    ///
    /// The datagram arrives in a [`PooledBuf`] (deref: `&[u8]`) whose
    /// storage returns to the process-wide [`BytesPool`] on drop, so a
    /// hot receive loop recycles one allocation instead of `Vec`-ing
    /// every datagram.
    ///
    /// # Errors
    ///
    /// I/O errors from the underlying transport.
    fn recv_timeout(&mut self, timeout: Duration) -> io::Result<Option<PooledBuf>>;

    /// Sends every datagram in `batch`, in order, leaving `batch` empty
    /// and its buffers returned to the [`BytesPool`] (draw them from it).
    /// [`UdpChannel`] hands the whole burst to the kernel at once; the
    /// default sends one datagram at a time.
    ///
    /// # Errors
    ///
    /// As [`send`](Channel::send); the batch is drained either way.
    fn send_batch(&mut self, batch: &mut Vec<Vec<u8>>) -> io::Result<()> {
        let mut result = Ok(());
        for bytes in batch.drain(..) {
            if result.is_ok() {
                result = self.send(&bytes);
            }
            BytesPool::global().recycle(bytes);
        }
        result
    }

    /// Receives up to a batch of datagrams, waiting up to `timeout` for
    /// the first (a zero timeout polls), and hands each to `on` borrowed.
    /// Returns how many arrived; `0` means none did in time. The default
    /// is one [`recv_timeout`](Channel::recv_timeout) per datagram.
    ///
    /// # Errors
    ///
    /// I/O errors from the underlying transport.
    fn recv_batch(&mut self, timeout: Duration, on: &mut dyn FnMut(&[u8])) -> io::Result<usize> {
        let mut got = 0;
        let mut wait = timeout;
        while got < MAX_BATCH {
            let Some(bytes) = self.recv_timeout(wait)? else { break };
            on(&bytes);
            got += 1;
            wait = Duration::ZERO;
        }
        Ok(got)
    }
}

// ---------------------------------------------------------------------------
// Real sockets
// ---------------------------------------------------------------------------

/// A connected UDP socket as a [`Channel`]: the peer's address over one
/// [`BatchSocket`], so a burst costs one `sendmmsg` and a receive batch
/// one `poll` + `recvmmsg`, on the same `sysio` path as the server.
#[derive(Debug)]
pub struct UdpChannel {
    socket: BatchSocket,
    peer: SocketAddr,
    /// Datagrams received but not yet handed out, in arrival order: the
    /// rest of a coalesced run whose first datagram
    /// [`recv_timeout`](Channel::recv_timeout) returned.
    held: VecDeque<PooledBuf>,
}

impl UdpChannel {
    /// Binds `local` and connects to `peer`.
    ///
    /// # Errors
    ///
    /// Any socket bind/connect error.
    pub fn connect(local: impl ToSocketAddrs, peer: impl ToSocketAddrs) -> io::Result<UdpChannel> {
        let socket = UdpSocket::bind(local)?;
        socket.connect(peer)?;
        Ok(UdpChannel::from_socket(socket))
    }

    /// Wraps an already-connected socket. (An unconnected one still
    /// receives; its sends fail, having no peer to go to.)
    pub fn from_socket(socket: UdpSocket) -> UdpChannel {
        let peer = socket.peer_addr().unwrap_or_else(|_| SocketAddr::from(([0, 0, 0, 0], 0)));
        let socket = BatchSocket::from_socket(socket, MAX_DATAGRAM_BYTES);
        UdpChannel { socket, peer, held: VecDeque::new() }
    }

    /// The socket's local address.
    ///
    /// # Errors
    ///
    /// Propagates `UdpSocket::local_addr` errors.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }
}

impl Channel for UdpChannel {
    /// A burst of one: the bytes are copied into a pooled buffer, queued
    /// and flushed.
    fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        crate::metrics::metrics().tx_bytes_copied.add(bytes.len() as u64);
        self.socket.queue(self.peer, BytesPool::global().take_vec_copy(bytes))?;
        self.socket.flush().map(drop)
    }

    /// The oldest held datagram, or else a one-slot receive, copied out
    /// of the slot into [`PooledBuf`]s: a coalesced run's first datagram
    /// is returned and the rest held for the next calls.
    fn recv_timeout(&mut self, timeout: Duration) -> io::Result<Option<PooledBuf>> {
        if self.held.is_empty() {
            let held = &mut self.held;
            self.socket.recv_up_to(1, timeout, |_, bytes| {
                crate::metrics::metrics().rx_bytes_copied.add(bytes.len() as u64);
                held.push_back(BytesPool::global().take_copy(bytes));
            })?;
        }
        Ok(self.held.pop_front())
    }

    fn send_batch(&mut self, batch: &mut Vec<Vec<u8>>) -> io::Result<()> {
        for bytes in batch.drain(..) {
            self.socket.queue(self.peer, bytes)?;
        }
        self.socket.flush().map(drop)
    }

    /// Held datagrams first, without waiting; else one batched receive.
    fn recv_batch(&mut self, timeout: Duration, on: &mut dyn FnMut(&[u8])) -> io::Result<usize> {
        if self.held.is_empty() {
            return self.socket.recv_batch(timeout, |_, bytes| on(bytes));
        }
        let held = self.held.len();
        for bytes in self.held.drain(..) {
            on(&bytes);
        }
        Ok(held)
    }
}

// ---------------------------------------------------------------------------
// Batched sockets (the server side, and under every `UdpChannel`)
// ---------------------------------------------------------------------------

/// A UDP socket with batched send/receive — the building block of the
/// sharded server and of [`UdpChannel`].
///
/// Outgoing datagrams are staged with [`BatchSocket::queue`] and handed to
/// the kernel in one `sendmmsg` per [`flush`](BatchSocket::flush), each
/// run of same-destination, same-length datagrams as one `UDP_SEGMENT`
/// message where the kernel offers it (one syscall per datagram on the
/// portable path — same API, fewer savings).
/// Incoming datagrams arrive through [`recv_batch`](BatchSocket::recv_batch),
/// which drains up to a batch of messages per wait; where the kernel
/// offers `UDP_GRO`, one message is a whole run of datagrams, which it
/// splits back apart. Queue buffers are drawn from and recycled to the
/// process-wide [`BytesPool`], so a steady-state server sends without
/// allocating.
#[derive(Debug)]
pub struct BatchSocket {
    socket: UdpSocket,
    /// The longest datagram a receive delivers.
    slot_bytes: usize,
    /// Whether `socket` is connected: its sends then name no address.
    connected: bool,
    /// Whether flushes coalesce same-destination runs into `UDP_SEGMENT`
    /// messages: probed when the socket is wrapped, cleared for good the
    /// first time the kernel refuses one (see the `sysio` module).
    segment: bool,
    /// Whether the kernel hands receives coalesced runs (`UDP_GRO`), set
    /// when the socket is wrapped; each slot then holds a whole run.
    gro: bool,
    /// Receive slots, allocated on the first receive: a socket that only
    /// ever sends carries none, a receiving one `MAX_BATCH`, each of
    /// `slot_bytes`, or [`GRO_SLOT_BYTES`] under `gro`.
    slots: Vec<Vec<u8>>,
    meta: Vec<(usize, SocketAddr, usize)>,
    out: Vec<(SocketAddr, Vec<u8>)>,
}

impl BatchSocket {
    /// Binds one batching socket on `addr`. `slot_bytes` caps the largest
    /// datagram a receive can deliver — size it from
    /// `crate::wire::ack_wire_bytes` (servers receive only feedback) or
    /// `MAX_DATAGRAM_BYTES` (anything).
    ///
    /// # Errors
    ///
    /// Address resolution or socket errors.
    pub fn bind(addr: impl ToSocketAddrs, slot_bytes: usize) -> io::Result<BatchSocket> {
        let mut group = BatchSocket::group(addr, 1, slot_bytes)?;
        Ok(group.remove(0))
    }

    /// Wraps an existing socket, connected or not; `slot_bytes` as for
    /// [`bind`](BatchSocket::bind). On a connected socket every send goes
    /// to the peer whatever address it was queued with.
    pub(crate) fn from_socket(socket: UdpSocket, slot_bytes: usize) -> BatchSocket {
        BatchSocket {
            connected: socket.peer_addr().is_ok(),
            segment: crate::sysio::probe_segmentation(&socket),
            gro: crate::sysio::enable_gro(&socket),
            socket,
            slot_bytes: slot_bytes.clamp(64, MAX_DATAGRAM_BYTES),
            slots: Vec::new(),
            meta: Vec::new(),
            out: Vec::new(),
        }
    }

    /// Binds `shards` sockets sharing one address. On Linux this is a
    /// real `SO_REUSEPORT` group (the kernel hashes each peer's flow to a
    /// stable member); elsewhere it is one socket cloned `shards` times,
    /// and peers land on whichever clone reads first. A single socket is
    /// bound plainly everywhere, so it never shares its port.
    ///
    /// # Errors
    ///
    /// Address resolution or socket errors.
    pub(crate) fn group(
        addr: impl ToSocketAddrs,
        shards: usize,
        slot_bytes: usize,
    ) -> io::Result<Vec<BatchSocket>> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address"))?;
        let sockets = crate::sysio::bind_group(addr, shards.max(1))?;
        Ok(sockets.into_iter().map(|socket| BatchSocket::from_socket(socket, slot_bytes)).collect())
    }

    fn ensure_slots(&mut self, n: usize) {
        let bytes = if self.gro { GRO_SLOT_BYTES } else { self.slot_bytes };
        while self.slots.len() < n {
            self.slots.push(vec![0u8; bytes]);
        }
        // `meta` is refilled per receive; sized once, it never regrows.
        self.meta.reserve(n);
    }

    /// Whether this build coalesces syscalls (`sendmmsg`/`recvmmsg`) or
    /// falls back to one datagram per syscall.
    pub fn batched() -> bool {
        crate::sysio::batched()
    }

    /// The socket's local address.
    ///
    /// # Errors
    ///
    /// Propagates `UdpSocket::local_addr` errors.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// Requests a `bytes`-sized kernel receive buffer so batched drains
    /// can absorb bursts instead of shedding them as loss. Best-effort:
    /// Linux grants up to `net.core.rmem_max`; the portable path keeps
    /// the kernel default (see the fallback table in the `sysio` module).
    ///
    /// # Errors
    ///
    /// `setsockopt` failures on the Linux path.
    pub fn set_recv_buffer(&self, bytes: usize) -> io::Result<()> {
        crate::sysio::set_recv_buffer(&self.socket, bytes)
    }

    /// Stages one datagram for the next flush, flushing eagerly when a
    /// full batch has accumulated. Takes ownership of `bytes` (draw it
    /// from the [`BytesPool`]); the buffer is recycled after the flush.
    ///
    /// # Errors
    ///
    /// I/O errors from an eager flush.
    pub fn queue(&mut self, to: SocketAddr, bytes: Vec<u8>) -> io::Result<()> {
        self.out.push((to, bytes));
        if self.out.len() >= MAX_BATCH {
            self.flush()?;
        }
        Ok(())
    }

    /// Sends everything staged by [`queue`](BatchSocket::queue) and
    /// recycles the buffers. Returns the number of datagrams the kernel
    /// accepted (backpressure and ICMP feedback drop the rest — loss, not
    /// failure).
    ///
    /// # Errors
    ///
    /// Non-loss I/O errors from the send path.
    pub fn flush(&mut self) -> io::Result<usize> {
        if self.out.is_empty() {
            return Ok(0);
        }
        let result =
            crate::sysio::send_to_batch(&self.socket, &self.out, self.connected, &mut self.segment);
        let m = crate::metrics::metrics();
        m.tx_batch.record(self.out.len() as u64);
        for (_, bytes) in self.out.drain(..) {
            BytesPool::global().recycle(bytes);
        }
        let (sent, sent_bytes) = result?;
        m.tx_datagrams.add(sent as u64);
        m.tx_bytes.add(sent_bytes);
        Ok(sent)
    }

    /// Receives up to one batch of messages, waiting at most `timeout`
    /// for the first (zero polls). `on` sees each datagram's source and
    /// payload *borrowed from the receive slot* — no per-datagram copy —
    /// in arrival order, a coalesced run split into its datagrams.
    /// Returns the number of datagrams received.
    ///
    /// # Errors
    ///
    /// I/O errors from the receive path.
    pub fn recv_batch(
        &mut self,
        timeout: Duration,
        on: impl FnMut(SocketAddr, &[u8]),
    ) -> io::Result<usize> {
        self.recv_up_to(MAX_BATCH, timeout, on).map(|(_, datagrams)| datagrams)
    }

    /// [`recv_batch`](BatchSocket::recv_batch) into the first `max` slots;
    /// returns the messages and the datagrams received. A skipped message
    /// (unknown source, or truncated) counts as one datagram, and so does
    /// each datagram longer than `slot_bytes`, which is skipped and
    /// counted in `net.rx_truncated`.
    pub(crate) fn recv_up_to(
        &mut self,
        max: usize,
        timeout: Duration,
        mut on: impl FnMut(SocketAddr, &[u8]),
    ) -> io::Result<(usize, usize)> {
        self.ensure_slots(max);
        let got = crate::sysio::recv_from_batch(
            &self.socket,
            timeout,
            &mut self.slots[..max],
            &mut self.meta,
        )?;
        if got == 0 {
            return Ok((0, 0));
        }
        let m = crate::metrics::metrics();
        m.rx_batch.record(got as u64);
        m.rx_messages.add(got as u64);
        let (mut datagrams, mut delivered) = (0, 0);
        for (&(len, from, segment), slot) in self.meta[..got].iter().zip(&self.slots) {
            if len == 0 {
                datagrams += 1; // undecodable source or truncated message
                continue;
            }
            for datagram in slot[..len].chunks(segment) {
                datagrams += 1;
                if datagram.len() > self.slot_bytes {
                    m.rx_truncated.inc();
                    continue;
                }
                delivered += 1;
                on(from, datagram);
            }
        }
        m.rx_datagrams.add(delivered);
        Ok((got, datagrams))
    }
}

/// A receive slot under `UDP_GRO`: the largest message the kernel builds,
/// so a coalesced run is never truncated.
const GRO_SLOT_BYTES: usize = 64 * 1024;

// ---------------------------------------------------------------------------
// In-process pairs
// ---------------------------------------------------------------------------

/// One end of an in-process datagram pair (see [`memory_pair`]).
#[derive(Debug)]
pub struct MemoryChannel {
    tx: crossbeam::channel::Sender<Vec<u8>>,
    rx: crossbeam::channel::Receiver<Vec<u8>>,
}

/// Creates a connected pair of in-process channels: bytes sent on one end
/// arrive (reliably, in order) at the other. Wrap an end in
/// [`FaultyChannel`] to make it lossy.
pub fn memory_pair() -> (MemoryChannel, MemoryChannel) {
    let (a_tx, a_rx) = crossbeam::channel::unbounded();
    let (b_tx, b_rx) = crossbeam::channel::unbounded();
    (MemoryChannel { tx: a_tx, rx: b_rx }, MemoryChannel { tx: b_tx, rx: a_rx })
}

impl Channel for MemoryChannel {
    fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        // A dropped peer is loss, not failure (UDP semantics). The copy
        // reuses pool capacity; the receiving end's `PooledBuf` returns
        // it when the datagram is consumed.
        let _ = self.tx.send(BytesPool::global().take_vec_copy(bytes));
        Ok(())
    }

    fn recv_timeout(&mut self, timeout: Duration) -> io::Result<Option<PooledBuf>> {
        use crossbeam::channel::{RecvTimeoutError, TryRecvError};
        if timeout.is_zero() {
            return match self.rx.try_recv() {
                Ok(bytes) => Ok(Some(BytesPool::global().wrap(bytes))),
                Err(TryRecvError::Empty | TryRecvError::Disconnected) => Ok(None),
            };
        }
        match self.rx.recv_timeout(timeout) {
            Ok(bytes) => Ok(Some(BytesPool::global().wrap(bytes))),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            // The peer hung up; nothing will ever arrive, but a datagram
            // transport has no connection state to report.
            Err(RecvTimeoutError::Disconnected) => {
                std::thread::sleep(timeout);
                Ok(None)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// Probabilities of each datagram fault, applied independently per send.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct FaultProfile {
    /// Probability the datagram is silently dropped.
    pub(crate) drop: f64,
    /// Probability the datagram is delivered twice.
    pub(crate) duplicate: f64,
    /// Probability the datagram is held back behind later traffic
    /// (reordering / latency jitter).
    pub(crate) reorder: f64,
    /// Maximum number of later sends a reordered datagram is held behind.
    pub(crate) reorder_depth: usize,
    /// Probability one random bit of the datagram is flipped.
    pub(crate) bit_flip: f64,
}

impl FaultProfile {
    /// No faults at all.
    pub fn lossless() -> FaultProfile {
        FaultProfile { drop: 0.0, duplicate: 0.0, reorder: 0.0, reorder_depth: 0, bit_flip: 0.0 }
    }

    /// Pure random loss at rate `drop`.
    pub fn lossy(drop: f64) -> FaultProfile {
        FaultProfile { drop, ..FaultProfile::lossless() }
    }

    /// The hostile mix used by the loss-matrix tests: loss plus
    /// reordering, duplication, and occasional bit corruption.
    pub fn hostile(drop: f64) -> FaultProfile {
        FaultProfile { drop, duplicate: 0.02, reorder: 0.05, reorder_depth: 8, bit_flip: 0.01 }
    }

    /// Returns the profile with a different reorder setting.
    pub fn with_reorder(mut self, probability: f64, depth: usize) -> FaultProfile {
        self.reorder = probability;
        self.reorder_depth = depth;
        self
    }
}

/// Counts of injected faults (reported by tests and the bench runner).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Datagrams admitted for sending.
    pub admitted: u64,
    /// Datagrams dropped.
    pub dropped: u64,
    /// Extra deliveries from duplication.
    pub(crate) duplicated: u64,
    /// Datagrams held back for reordering.
    pub reordered: u64,
    /// Datagrams with a bit flipped.
    pub(crate) bit_flipped: u64,
}

/// Deterministic, seedable fault injection over opaque datagrams, the
/// model behind [`FaultyChannel`]. `admit` returns the datagrams to put on
/// the wire *now*; reordered datagrams surface on later admits.
#[derive(Debug)]
pub(crate) struct FaultInjector {
    profile: FaultProfile,
    rng: StdRng,
    seq: u64,
    held: Vec<(u64, Vec<u8>)>,
    stats: FaultStats,
}

impl FaultInjector {
    /// A new injector; identical `(profile, seed)` pairs replay the exact
    /// same fault pattern.
    pub(crate) fn new(profile: FaultProfile, seed: u64) -> FaultInjector {
        FaultInjector {
            profile,
            rng: StdRng::seed_from_u64(seed),
            seq: 0,
            held: Vec::new(),
            stats: FaultStats::default(),
        }
    }

    /// Passes one datagram through the fault model; returns what reaches
    /// the wire now (possibly nothing, possibly previously held datagrams,
    /// possibly duplicates).
    pub(crate) fn admit(&mut self, bytes: &[u8]) -> Vec<Vec<u8>> {
        self.seq += 1;
        self.stats.admitted += 1;
        let mut out = self.release_due();

        if self.rng.gen_bool(self.profile.drop) {
            self.stats.dropped += 1;
            crate::metrics::metrics().frames_dropped.inc();
            return out;
        }
        // Every copy the model makes is a pooled buffer; whoever puts it
        // on the wire recycles it (`Channel::send_batch`, `BatchSocket::flush`).
        let pool = BytesPool::global();
        let mut bytes = pool.take_vec_copy(bytes);
        if self.rng.gen_bool(self.profile.bit_flip) && !bytes.is_empty() {
            let bit = self.rng.gen_range(0..bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
            self.stats.bit_flipped += 1;
        }
        let duplicate = self.rng.gen_bool(self.profile.duplicate);
        crate::metrics::metrics()
            .tx_bytes_copied
            .add(bytes.len() as u64 * (1 + u64::from(duplicate)));
        if self.profile.reorder_depth > 0 && self.rng.gen_bool(self.profile.reorder) {
            let delay = self.rng.gen_range(1..=self.profile.reorder_depth) as u64;
            self.stats.reordered += 1;
            if duplicate {
                // The duplicate takes the fast path — classic mis-ordered
                // duplicate delivery.
                self.stats.duplicated += 1;
                crate::metrics::metrics().frames_duplicated.inc();
                out.push(pool.take_vec_copy(&bytes));
            }
            self.held.push((self.seq + delay, bytes));
            return out;
        }
        if duplicate {
            self.stats.duplicated += 1;
            crate::metrics::metrics().frames_duplicated.inc();
            out.push(pool.take_vec_copy(&bytes));
        }
        out.push(bytes);
        out
    }

    /// Fault counters so far.
    pub(crate) fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Moves every held datagram whose release point has come out of
    /// `held`, in the order it was held.
    fn release_due(&mut self) -> Vec<Vec<u8>> {
        let seq = self.seq;
        self.held
            .extract_if(.., |(release_at, _)| *release_at <= seq)
            .map(|(_, bytes)| bytes)
            .collect()
    }
}

/// A [`Channel`] whose *outgoing* datagrams pass through a seeded
/// `FaultInjector`. Wrap the data-path end (the sender's channel) to
/// model a lossy forward link; wrap both ends for a symmetric lossy link.
///
/// The fault model sees datagrams one by one in send order, so a burst
/// meets exactly the faults the same datagrams sent singly would; what
/// survives a call goes to the inner channel as one batch.
#[derive(Debug)]
pub struct FaultyChannel<C> {
    inner: C,
    injector: FaultInjector,
    /// What the injector put on the wire this call, handed on in one
    /// [`Channel::send_batch`]; empty between calls.
    wire: Vec<Vec<u8>>,
}

impl<C: Channel> FaultyChannel<C> {
    /// Wraps `inner` with deterministic faults.
    pub fn new(inner: C, profile: FaultProfile, seed: u64) -> FaultyChannel<C> {
        FaultyChannel { inner, injector: FaultInjector::new(profile, seed), wire: Vec::new() }
    }

    fn admit(&mut self, bytes: &[u8]) {
        self.wire.extend(self.injector.admit(bytes));
    }

    /// Fault counters so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.injector.stats()
    }
}

impl<C: Channel> Channel for FaultyChannel<C> {
    fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.admit(bytes);
        self.inner.send_batch(&mut self.wire)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> io::Result<Option<PooledBuf>> {
        self.inner.recv_timeout(timeout)
    }

    fn send_batch(&mut self, batch: &mut Vec<Vec<u8>>) -> io::Result<()> {
        for bytes in batch.drain(..) {
            self.admit(&bytes);
            BytesPool::global().recycle(bytes);
        }
        self.inner.send_batch(&mut self.wire)
    }

    fn recv_batch(&mut self, timeout: Duration, on: &mut dyn FnMut(&[u8])) -> io::Result<usize> {
        self.inner.recv_batch(timeout, on)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_pair_delivers_both_directions() {
        let (mut a, mut b) = memory_pair();
        a.send(b"ping").unwrap();
        b.send(b"pong").unwrap();
        assert_eq!(b.recv_timeout(Duration::from_millis(50)).unwrap().unwrap(), b"ping");
        assert_eq!(a.recv_timeout(Duration::from_millis(50)).unwrap().unwrap(), b"pong");
        assert_eq!(a.recv_timeout(Duration::ZERO).unwrap(), None);
    }

    #[test]
    fn udp_loopback_roundtrip() {
        let a = UdpSocket::bind("127.0.0.1:0").unwrap();
        let b = UdpSocket::bind("127.0.0.1:0").unwrap();
        a.connect(b.local_addr().unwrap()).unwrap();
        b.connect(a.local_addr().unwrap()).unwrap();
        let mut a = UdpChannel::from_socket(a);
        let mut b = UdpChannel::from_socket(b);
        a.send(b"hello").unwrap();
        assert_eq!(b.recv_timeout(Duration::from_millis(200)).unwrap().unwrap(), b"hello");
        assert_eq!(b.recv_timeout(Duration::from_millis(1)).unwrap(), None);
        assert_eq!(b.recv_timeout(Duration::ZERO).unwrap(), None);
    }

    #[test]
    fn batch_socket_queue_flush_roundtrip() {
        let mut rx = BatchSocket::bind("127.0.0.1:0", 2048).unwrap();
        let mut tx = BatchSocket::bind("127.0.0.1:0", 2048).unwrap();
        let to = rx.local_addr().unwrap();
        for i in 0..20u8 {
            tx.queue(to, vec![i; 100]).unwrap();
        }
        assert_eq!(tx.flush().unwrap(), 20);
        assert_eq!(tx.flush().unwrap(), 0, "flush drains the stage");

        let mut seen = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while seen.len() < 20 && std::time::Instant::now() < deadline {
            rx.recv_batch(Duration::from_millis(200), |from, bytes| {
                assert_eq!(from, tx.local_addr().unwrap());
                seen.push(bytes.to_vec());
            })
            .unwrap();
        }
        seen.sort();
        assert_eq!(seen, (0..20u8).map(|i| vec![i; 100]).collect::<Vec<_>>());
        assert_eq!(rx.recv_batch(Duration::ZERO, |_, _| {}).unwrap(), 0, "zero timeout polls");
    }

    #[test]
    fn batch_socket_skips_and_counts_truncated_datagrams() {
        let truncated = &crate::metrics::metrics().rx_truncated;
        let before = truncated.get();
        let mut rx = BatchSocket::bind("127.0.0.1:0", 64).unwrap();
        let mut tx = BatchSocket::bind("127.0.0.1:0", 64).unwrap();
        let to = rx.local_addr().unwrap();
        let (long, short) = (vec![7u8; 300], vec![9u8; 40]);
        tx.queue(to, long).unwrap();
        tx.queue(to, short.clone()).unwrap();
        assert_eq!(tx.flush().unwrap(), 2);

        let mut seen = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !seen.contains(&short) && std::time::Instant::now() < deadline {
            rx.recv_batch(Duration::from_millis(200), |_, bytes| seen.push(bytes.to_vec()))
                .unwrap();
        }
        if BatchSocket::batched() {
            assert_eq!(seen, [short], "a datagram longer than its slot is skipped");
            assert_eq!(truncated.get() - before, 1, "and counted");
        } else {
            // `std` cannot see truncation: the datagram arrives cut short.
            assert_eq!(seen, [vec![7u8; 64], short]);
        }
    }

    #[test]
    fn udp_channel_moves_bursts_both_ways() {
        let a = UdpSocket::bind("127.0.0.1:0").unwrap();
        let b = UdpSocket::bind("127.0.0.1:0").unwrap();
        a.connect(b.local_addr().unwrap()).unwrap();
        b.connect(a.local_addr().unwrap()).unwrap();
        let mut a = UdpChannel::from_socket(a);
        let mut b = UdpChannel::from_socket(b);
        let mut burst: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; 8]).collect();
        a.send_batch(&mut burst).unwrap();
        assert!(burst.is_empty(), "send_batch drains the burst");
        let mut seen = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while seen.len() < 10 && std::time::Instant::now() < deadline {
            b.recv_batch(Duration::from_millis(200), &mut |bytes| seen.push(bytes.to_vec()))
                .unwrap();
        }
        seen.sort();
        assert_eq!(seen, (0..10u8).map(|i| vec![i; 8]).collect::<Vec<_>>());
        assert_eq!(b.recv_batch(Duration::ZERO, &mut |_| {}).unwrap(), 0, "zero timeout polls");
        // Interleaves cleanly with the one-at-a-time path, both ways.
        a.send(b"tail").unwrap();
        assert_eq!(b.recv_timeout(Duration::from_secs(5)).unwrap().unwrap(), b"tail");
        b.send(b"back").unwrap();
        let mut back = Vec::new();
        a.recv_batch(Duration::from_secs(5), &mut |bytes| back.push(bytes.to_vec())).unwrap();
        assert_eq!(back, [b"back".to_vec()]);
    }

    #[test]
    fn udp_channel_hands_out_a_coalesced_run_one_datagram_per_call() {
        let a = UdpSocket::bind("127.0.0.1:0").unwrap();
        let b = UdpSocket::bind("127.0.0.1:0").unwrap();
        a.connect(b.local_addr().unwrap()).unwrap();
        b.connect(a.local_addr().unwrap()).unwrap();
        let (mut a, mut b) = (UdpChannel::from_socket(a), UdpChannel::from_socket(b));
        b.socket.set_recv_buffer(1 << 20).unwrap();
        // 64 x 1068 B: one `UDP_SEGMENT` run of 61 and one of 3, each one
        // receive slot where the kernel offers `UDP_GRO`.
        let burst: Vec<Vec<u8>> =
            (0..64usize).map(|i| (0..1068).map(|j| (i * 31 + j) as u8).collect()).collect();
        a.send_batch(&mut burst.clone()).unwrap();
        let mut seen = Vec::new();
        let one = |b: &mut UdpChannel| {
            b.recv_timeout(Duration::from_secs(5)).unwrap().expect("nothing is lost").to_vec()
        };
        for _ in 0..32 {
            seen.push(one(&mut b));
        }
        // A batch receive in between takes the held rest of the run first.
        b.recv_batch(Duration::from_secs(5), &mut |bytes| seen.push(bytes.to_vec())).unwrap();
        while seen.len() < burst.len() {
            seen.push(one(&mut b));
        }
        assert_eq!(seen, burst, "every datagram, once, in order");
        assert_eq!(b.recv_timeout(Duration::ZERO).unwrap(), None);
    }

    #[test]
    fn fault_model_is_batch_invariant() {
        // The same datagrams through the same seeded model, once a send at
        // a time and once in bursts: same bytes on the far side, same
        // order, same fault counts.
        fn deliver(burst: usize, batched: bool) -> (Vec<Vec<u8>>, FaultStats) {
            let (a, mut b) = memory_pair();
            let mut faulty = FaultyChannel::new(a, FaultProfile::hostile(0.2), 17);
            let datagrams: Vec<Vec<u8>> =
                (0..640u32).map(|i| [i.to_le_bytes(), (i * 31).to_le_bytes()].concat()).collect();
            for chunk in datagrams.chunks(burst) {
                if batched {
                    let mut batch = chunk.to_vec();
                    faulty.send_batch(&mut batch).unwrap();
                    assert!(batch.is_empty());
                } else {
                    for bytes in chunk {
                        faulty.send(bytes).unwrap();
                    }
                }
            }
            let mut delivered = Vec::new();
            while let Some(bytes) = b.recv_timeout(Duration::ZERO).unwrap() {
                delivered.push(bytes.to_vec());
            }
            (delivered, faulty.fault_stats())
        }
        for burst in [1, 7, 64] {
            let (singly, singly_stats) = deliver(burst, false);
            let (batched, batched_stats) = deliver(burst, true);
            let s = singly_stats;
            assert!(s.dropped * s.duplicated * s.reordered * s.bit_flipped > 0, "{s:?}");
            assert_eq!(batched, singly, "burst {burst}: bytes and order");
            assert_eq!(batched_stats, singly_stats, "burst {burst}: fault counts");
        }
    }

    #[test]
    fn fault_injection_is_deterministic() {
        let profile = FaultProfile::hostile(0.2);
        let run = |seed| {
            let mut injector = FaultInjector::new(profile, seed);
            let mut delivered = Vec::new();
            for i in 0..500u32 {
                for bytes in injector.admit(&i.to_le_bytes()) {
                    delivered.push(bytes);
                }
            }
            (delivered, injector.stats())
        };
        let (d1, s1) = run(42);
        let (d2, s2) = run(42);
        assert_eq!(d1, d2);
        assert_eq!(s1, s2);
        let (d3, _) = run(43);
        assert_ne!(d1, d3, "different seeds must differ");
    }

    #[test]
    fn drop_rate_is_approximately_honored() {
        let mut injector = FaultInjector::new(FaultProfile::lossy(0.2), 7);
        for i in 0..5000u32 {
            injector.admit(&i.to_le_bytes());
        }
        let dropped = injector.stats().dropped as f64 / 5000.0;
        assert!((0.15..0.25).contains(&dropped), "drop rate {dropped}");
    }

    #[test]
    fn reordering_holds_and_releases() {
        let profile = FaultProfile::lossless().with_reorder(1.0, 3);
        let mut injector = FaultInjector::new(profile, 1);
        // Every datagram is held, so early admits release nothing...
        let first = injector.admit(b"a");
        assert!(first.is_empty());
        let mut total = first.len();
        for _ in 0..20 {
            total += injector.admit(b"x").len();
        }
        // ...but held datagrams drain as later sends push the clock.
        assert!(total > 0, "held datagrams never released");
        total += injector.held.len();
        assert_eq!(total, 21, "every admitted datagram eventually surfaces");
    }

    #[test]
    fn lossless_profile_is_transparent() {
        let (a, mut b) = memory_pair();
        let mut faulty = FaultyChannel::new(a, FaultProfile::lossless(), 9);
        for i in 0..50u8 {
            faulty.send(&[i]).unwrap();
        }
        for i in 0..50u8 {
            assert_eq!(b.recv_timeout(Duration::from_millis(10)).unwrap().unwrap(), vec![i]);
        }
        assert_eq!(faulty.fault_stats().dropped, 0);
    }
}
