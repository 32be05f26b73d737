//! The multi-receiver server — the "seed node pushing to a swarm" role
//! from the paper's Avalanche-style deployment, in the §5.1.1 capacity
//! configuration.
//!
//! The paper's headline serving claim is that once encoding is cheap, the
//! bottleneck is pushing packets — so the server must scale across cores
//! and amortize kernel crossings. [`ShardedServer`] is the crate's only
//! serve loop; `shards: 1` is the single-socket server:
//!
//! * **One socket per shard**, bound as an `SO_REUSEPORT` group (portable
//!   fallback: clones of one socket), so shards receive concurrently with
//!   no shared descriptor contention.
//! * **One shard per `nc-pool` worker**, placed with
//!   [`nc_pool::Scope::spawn_pinned`] so a shard's sessions always run on
//!   the same thread.
//! * **Per-shard session maps.** Shard `s` owns session key `(peer, id)`
//!   iff [`shard_owner`]`(peer, id, shards) == s`. Only the owner ever
//!   inserts, advances, or reaps that key, so there is no cross-shard
//!   session lock at all — the alternative (one sharded-lock map) still
//!   serializes hot reap/insert pairs and defeats NUMA-friendly locality.
//! * **Mailbox forwarding.** The kernel's flow hash (or the portable
//!   race-to-read fallback) does not consult [`shard_owner`], so a shard
//!   may receive a datagram it does not own; it forwards the raw bytes to
//!   the owner's `Mailbox` (a short mutexed queue — the only
//!   cross-shard structure) and counts `net.shard_forwards`. Receive
//!   traffic at a sender-side server is only feedback (requests, ACKs,
//!   FINs), so forwarded volume is a small fraction of datagrams moved.
//! * **Batched syscalls.** Frames are staged per shard and flushed with
//!   `sendmmsg`; feedback drains with `poll` + `recvmmsg`
//!   ([`crate::channel::BatchSocket`]).
//!
//! The concurrency protocol (exactly-one-owner dispatch, mailbox
//! no-loss, finish-ledger stop) is mirrored as an `nc_check` model in
//! `crates/check/tests/shard_models.rs`.

use nc_check::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use nc_check::sync::{Arc, Mutex};
use nc_rlnc::codec::StreamCodecSender;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::time::{Duration, Instant};

use crate::channel::{BatchSocket, FaultInjector};
use crate::server::{ServedTransfer, ServerConfig};
use crate::session::{SenderEvent, SenderSession};
use crate::wire::{ack_wire_bytes, Datagram, Payload, MAX_SEGMENTS};

/// Tuning for the sharded server.
#[derive(Clone, Debug)]
pub struct ShardedServerConfig {
    /// Per-session and per-step tuning (`poll_interval` is the per-shard
    /// sleep cap).
    pub server: ServerConfig,
    /// Number of sockets/session-maps/pinned workers.
    pub shards: usize,
    /// Receive-slot size per batched receive. A serving shard only ever
    /// receives feedback datagrams, so this defaults to
    /// [`ack_wire_bytes`] of the largest tolerated ACK rather than a full
    /// 64 KiB datagram; raise it only if peers send oversized traffic
    /// worth observing.
    pub recv_slot_bytes: usize,
}

impl Default for ShardedServerConfig {
    fn default() -> ShardedServerConfig {
        ShardedServerConfig {
            server: ServerConfig::default(),
            shards: 4,
            // Covers ACK bitmaps for streams up to 16k segments; larger
            // streams' ACKs arrive truncated and fail CRC, exactly like
            // any other damaged datagram (the sender keeps pushing).
            recv_slot_bytes: ack_wire_bytes(MAX_SEGMENTS.min(16 * 1024)),
        }
    }
}

/// The shard that owns session key `(peer, session)` in a group of
/// `shards`: an FNV-1a fold over address, port, and session id.
///
/// Deterministic and stable across shards/platforms so every shard routes
/// a datagram identically — the exactly-one-owner invariant the model
/// test checks reduces to this function being a function.
pub fn shard_owner(peer: SocketAddr, session: u64, shards: usize) -> usize {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    let mut mix = |byte: u8| {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(PRIME);
    };
    match peer.ip() {
        std::net::IpAddr::V4(ip) => ip.octets().into_iter().for_each(&mut mix),
        std::net::IpAddr::V6(ip) => ip.octets().into_iter().for_each(&mut mix),
    }
    peer.port().to_le_bytes().into_iter().for_each(&mut mix);
    session.to_le_bytes().into_iter().for_each(&mut mix);
    (hash % shards.max(1) as u64) as usize
}

/// A cross-shard hand-off queue: raw datagrams a non-owner shard received
/// and the owner must handle. The only structure two shards ever touch
/// concurrently.
struct Mailbox {
    queue: Mutex<VecDeque<(SocketAddr, Vec<u8>)>>,
}

impl Mailbox {
    fn new() -> Mailbox {
        Mailbox { queue: Mutex::new(VecDeque::new()) }
    }

    fn push(&self, peer: SocketAddr, bytes: Vec<u8>) {
        self.queue.lock().expect("mailbox lock").push_back((peer, bytes));
    }

    fn pop(&self) -> Option<(SocketAddr, Vec<u8>)> {
        self.queue.lock().expect("mailbox lock").pop_front()
    }
}

/// Completion bookkeeping shared by every shard: each reap is recorded
/// exactly once, and the serve stops when `expected` transfers exist.
struct FinishLedger {
    transfers: Mutex<Vec<ServedTransfer>>,
    expected: usize,
    stop: AtomicBool,
}

impl FinishLedger {
    fn new(expected: usize) -> FinishLedger {
        // lint: allow(vec-capacity) — one ledger per serve call, grown once per finished transfer.
        FinishLedger { transfers: Mutex::new(Vec::new()), expected, stop: AtomicBool::new(false) }
    }

    /// Records one finished transfer; flips the stop flag when the target
    /// count is reached (count and record are under one lock, so two
    /// shards reaping concurrently cannot lose a transfer or stop early).
    fn record(&self, transfer: ServedTransfer) {
        let mut transfers = self.transfers.lock().expect("ledger lock");
        transfers.push(transfer);
        if transfers.len() >= self.expected {
            self.stop.store(true, Ordering::Release);
        }
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }
}

/// State shared (read-mostly) by every shard for one serve call.
struct ServeShared {
    content: HashMap<u64, Arc<dyn StreamCodecSender>>,
    mailboxes: Vec<Mailbox>,
    ledger: FinishLedger,
    /// Process-unique session seeds (sender RNG streams must differ).
    seed: AtomicU64,
    error: Mutex<Option<io::Error>>,
}

impl ServeShared {
    fn fail(&self, err: io::Error) {
        let mut slot = self.error.lock().expect("error lock");
        slot.get_or_insert(err);
        self.ledger.stop.store(true, Ordering::Release);
    }
}

/// A multi-receiver coded-transport server sharded across sockets and
/// pool workers.
pub struct ShardedServer {
    config: ShardedServerConfig,
    sockets: Vec<BatchSocket>,
    content: HashMap<u64, Arc<dyn StreamCodecSender>>,
}

impl ShardedServer {
    /// Binds a `config.shards`-wide socket group on `addr`.
    ///
    /// # Errors
    ///
    /// Address resolution or socket errors.
    pub fn bind(
        addr: impl ToSocketAddrs,
        config: ShardedServerConfig,
    ) -> io::Result<ShardedServer> {
        let sockets = BatchSocket::group(addr, config.shards.max(1), config.recv_slot_bytes)?;
        if let Some(bytes) = config.server.recv_buffer_bytes {
            for socket in &sockets {
                socket.set_recv_buffer(bytes)?;
            }
        }
        Ok(ShardedServer { config, sockets, content: HashMap::new() })
    }

    /// The shared address every shard socket is bound to.
    ///
    /// # Errors
    ///
    /// Propagates `UdpSocket::local_addr` errors.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.sockets[0].local_addr()
    }

    /// Number of shards actually bound.
    pub fn shards(&self) -> usize {
        self.sockets.len()
    }

    /// Publishes a stream under `session` id (before serving). Any codec
    /// backend works — the announce carries its id.
    pub fn publish(&mut self, session: u64, encoder: Arc<dyn StreamCodecSender>) {
        self.content.insert(session, encoder);
    }

    /// Serves until `expected` transfers finish or `deadline` passes,
    /// running one pinned shard loop per pool worker. Returns every
    /// finished transfer (its [`ServedTransfer::shard`] says which shard
    /// served it).
    ///
    /// # Errors
    ///
    /// The first socket I/O error any shard hit (datagram loss is not an
    /// error).
    pub fn serve(
        &mut self,
        expected: usize,
        deadline: Duration,
    ) -> io::Result<Vec<ServedTransfer>> {
        let shards = self.sockets.len();
        let shared = ServeShared {
            content: self.content.clone(),
            mailboxes: (0..shards).map(|_| Mailbox::new()).collect(),
            ledger: FinishLedger::new(expected.max(1)),
            seed: AtomicU64::new(0),
            error: Mutex::new(None),
        };
        let until = Instant::now() + deadline;
        let config = &self.config;
        let shared_ref = &shared;
        // A dedicated pool (not `Pool::shared`): shard loops are
        // long-running and must not compete with coder tasks for workers,
        // and dropping the pool reclaims the threads when serving ends.
        let pool = nc_pool::Pool::new(shards);
        pool.scope(|scope| {
            for (shard, socket) in self.sockets.iter_mut().enumerate() {
                scope.spawn_pinned(shard, move || {
                    shard_main(shard, shards, socket, shared_ref, config, until);
                });
            }
        });
        if let Some(err) = shared.error.lock().expect("error lock").take() {
            return Err(err);
        }
        let transfers = std::mem::take(&mut *shared.ledger.transfers.lock().expect("ledger lock"));
        Ok(transfers)
    }
}

/// One shard's serve loop: receive a batch (or sleep until the earliest
/// session deadline), drain the mailbox, advance owned sessions, flush
/// the staged frame batch.
fn shard_main(
    shard: usize,
    shards: usize,
    socket: &mut BatchSocket,
    shared: &ServeShared,
    config: &ShardedServerConfig,
    until: Instant,
) {
    let scoped = nc_telemetry::default_registry().scoped(format!("net.shard{shard}"));
    let rx_owned = scoped.counter("rx_owned");
    let rx_forwarded = scoped.counter("rx_forwarded");
    let tx = scoped.counter("tx");
    let sessions_gauge = scoped.gauge("sessions");
    let served = scoped.counter("served");

    let mut sessions: HashMap<(SocketAddr, u64), SenderSession> = HashMap::new();
    let mut burst_max: HashMap<(SocketAddr, u64), u64> = HashMap::new();
    let mut injector: Option<FaultInjector<SocketAddr>> = config
        .server
        .faults
        .map(|(profile, seed)| FaultInjector::new(profile, seed.wrapping_add(shard as u64)));
    // lint: allow(vec-capacity) — per-shard scratch made once per serve call; `drain`/`clear` keep its capacity across wake-ups.
    let mut inbox: Vec<(SocketAddr, Datagram)> = Vec::new();
    // lint: allow(vec-capacity) — as `inbox`.
    let mut keys: Vec<(SocketAddr, u64)> = Vec::new();
    let mut next_timeout = config.server.poll_interval;

    while !shared.ledger.stopped() {
        let now = Instant::now();
        if now >= until {
            break;
        }
        let timeout = next_timeout.min(config.server.poll_interval).min(until - now);

        // Receive a batch; route each datagram to its owner.
        let asked = Instant::now();
        let received = socket.recv_batch(timeout, |peer, bytes| {
            let Ok(datagram) = Datagram::decode(bytes) else { return };
            let owner = shard_owner(peer, datagram.session, shards);
            if owner == shard {
                rx_owned.inc();
                inbox.push((peer, datagram));
            } else {
                rx_forwarded.inc();
                crate::metrics::metrics().shard_forwards.inc();
                shared.mailboxes[owner]
                    .push(peer, nc_pool::BytesPool::global().take_vec_copy(bytes));
            }
        });
        match received {
            Ok(0) => {
                // Woke with nothing: how late past the quoted deadline?
                crate::metrics::metrics()
                    .deadline_miss_ns
                    .record_duration(asked.elapsed().saturating_sub(timeout));
            }
            Ok(_) => {}
            Err(err) => {
                shared.fail(err);
                break;
            }
        }

        // Datagrams other shards received on this shard's behalf.
        while let Some((peer, bytes)) = shared.mailboxes[shard].pop() {
            if let Ok(datagram) = Datagram::decode(&bytes) {
                inbox.push((peer, datagram));
            }
            nc_pool::BytesPool::global().recycle(bytes);
        }

        let now = Instant::now();
        for (peer, datagram) in inbox.drain(..) {
            dispatch(peer, datagram, &mut sessions, shared, config, now);
        }

        // Advance every owned session, staging frames into the batch.
        keys.clear();
        keys.extend(sessions.keys().copied());
        let mut next = config.server.poll_interval;
        for &key in &keys {
            match advance(
                key,
                shard,
                &mut sessions,
                &mut burst_max,
                &mut injector,
                socket,
                shared,
                config,
                now,
            ) {
                Ok(Some(wait)) => next = next.min(wait),
                Ok(None) => served.inc(),
                Err(err) => {
                    shared.fail(err);
                    return;
                }
            }
        }
        match socket.flush() {
            Ok(sent) => tx.add(sent as u64),
            Err(err) => {
                shared.fail(err);
                return;
            }
        }
        sessions_gauge.set(sessions.len() as f64);
        next_timeout = next;
    }
    let _ = socket.flush();
}

/// Handles one owned datagram: existing session, or a `Request` that
/// spawns one.
fn dispatch(
    peer: SocketAddr,
    datagram: Datagram,
    sessions: &mut HashMap<(SocketAddr, u64), SenderSession>,
    shared: &ServeShared,
    config: &ShardedServerConfig,
    now: Instant,
) {
    let key = (peer, datagram.session);
    if let Some(session) = sessions.get_mut(&key) {
        session.handle_datagram(&datagram, now);
        return;
    }
    if matches!(datagram.payload, Payload::Request) {
        if let Some(encoder) = shared.content.get(&datagram.session) {
            // Process-unique seed: sender RNG streams must differ across
            // shards, so the counter is shared, not per-shard.
            let seed = shared.seed.fetch_add(1, Ordering::AcqRel) + 1;
            if let Ok(mut session) = SenderSession::new(
                Arc::clone(encoder),
                datagram.session,
                config.server.sender.clone(),
                seed,
                now,
            ) {
                session.handle_datagram(&datagram, now);
                sessions.insert(key, session);
            }
        }
    }
}

/// Runs one session's burst, staging transmits into the socket's batch.
/// `Ok(Some(wait))` quotes the session's next deadline, `Ok(None)` means
/// it finished and was recorded.
#[allow(clippy::too_many_arguments)]
fn advance(
    key: (SocketAddr, u64),
    shard: usize,
    sessions: &mut HashMap<(SocketAddr, u64), SenderSession>,
    burst_max: &mut HashMap<(SocketAddr, u64), u64>,
    injector: &mut Option<FaultInjector<SocketAddr>>,
    socket: &mut BatchSocket,
    shared: &ServeShared,
    config: &ShardedServerConfig,
    now: Instant,
) -> io::Result<Option<Duration>> {
    let mut burst = 0u64;
    let note = |burst_max: &mut HashMap<(SocketAddr, u64), u64>, burst: u64| {
        let max = burst_max.entry(key).or_insert(0);
        *max = (*max).max(burst);
    };
    loop {
        let Some(session) = sessions.get_mut(&key) else { return Ok(None) };
        match session.poll(now) {
            SenderEvent::Transmit(bytes) => {
                match injector {
                    Some(injector) => {
                        for (to, wire) in injector.admit(key.0, &bytes) {
                            socket.queue(to, wire)?;
                        }
                        nc_pool::BytesPool::global().recycle(bytes);
                    }
                    // No faults: hand the encoded frame to the batch
                    // without copying; `flush` recycles it.
                    None => socket.queue(key.0, bytes)?,
                }
                burst += 1;
                if burst >= u64::from(config.server.burst_per_step) {
                    note(burst_max, burst);
                    return Ok(Some(Duration::ZERO)); // fairness: yield
                }
            }
            SenderEvent::Wait(wait) => {
                note(burst_max, burst);
                return Ok(Some(wait));
            }
            SenderEvent::Finished => {
                note(burst_max, burst);
                let session = sessions.remove(&key).expect("session present");
                let mut metrics = session.metrics_snapshot(now);
                metrics.counters.insert("session.max_burst_per_step".into(), burst_max[&key]);
                burst_max.remove(&key);
                shared.ledger.record(ServedTransfer {
                    peer: key.0,
                    session: key.1,
                    shard,
                    report: session.report(now),
                    metrics,
                });
                return Ok(None);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::UdpChannel;
    use crate::receiver::{run_receiver, ReceiverConfig, ReceiverSession};
    use nc_rlnc::stream::StreamEncoder;
    use nc_rlnc::CodingConfig;

    fn stream(len: usize, fill: impl Fn(usize) -> u8) -> (Arc<StreamEncoder>, Vec<u8>) {
        let config = CodingConfig::new(8, 256).unwrap();
        let data: Vec<u8> = (0..len).map(fill).collect();
        (Arc::new(StreamEncoder::new(config, &data).unwrap()), data)
    }

    fn receive(server: SocketAddr, session: u64) -> Option<Vec<u8>> {
        let mut channel = UdpChannel::connect("127.0.0.1:0", server).unwrap();
        let mut rx = ReceiverSession::new(session, ReceiverConfig::default(), Instant::now());
        run_receiver(&mut channel, &mut rx).unwrap();
        rx.into_recovered()
    }

    /// Serves one published stream to `receivers` concurrent receivers and
    /// checks every one recovered it bit-exact.
    fn serve_to(receivers: usize, len: usize, config: ShardedServerConfig) -> Vec<ServedTransfer> {
        let (encoder, data) = stream(len, |i| (i % 239) as u8);
        let mut server = ShardedServer::bind("127.0.0.1:0", config).unwrap();
        server.publish(5, encoder);
        let addr = server.local_addr().unwrap();
        let handles: Vec<_> = (0..receivers)
            // lint: allow(thread-spawn) — test driver threads; product threading goes through nc-pool.
            .map(|_| std::thread::spawn(move || receive(addr, 5)))
            .collect();
        let transfers = server.serve(receivers, Duration::from_secs(60)).unwrap();
        for handle in handles {
            assert_eq!(handle.join().unwrap().as_deref(), Some(data.as_slice()), "bit-exact");
        }
        assert_eq!(transfers.len(), receivers);
        transfers
    }

    #[test]
    fn shard_owner_is_deterministic_and_in_range() {
        let peer: SocketAddr = "10.1.2.3:4567".parse().unwrap();
        for shards in 1..=9 {
            for session in 0..50u64 {
                let owner = shard_owner(peer, session, shards);
                assert!(owner < shards);
                assert_eq!(owner, shard_owner(peer, session, shards), "deterministic");
            }
        }
        // Different sessions spread across shards (not all on one).
        let owners: std::collections::HashSet<_> =
            (0..64u64).map(|s| shard_owner(peer, s, 8)).collect();
        assert!(owners.len() > 1, "hash must actually spread: {owners:?}");
    }

    #[test]
    fn sharded_server_serves_concurrent_receivers_bit_exact() {
        // `shards: 1` is the single-socket server: every session on one map.
        for shards in [1, 4] {
            let config = ShardedServerConfig { shards, ..ShardedServerConfig::default() };
            let transfers = serve_to(6, 60_000, config);
            let peers: std::collections::HashSet<_> = transfers.iter().map(|t| t.peer).collect();
            assert_eq!(peers.len(), 6, "one session per receiver");
            for t in &transfers {
                assert!(t.report.overhead_ratio().is_some());
                assert_eq!(t.report.segments_completed, t.report.segments_total);
                assert_eq!(t.shard, shard_owner(t.peer, t.session, shards), "owner served it");
                assert!(
                    t.metrics.counter("session.max_burst_per_step").is_some(),
                    "burst metric attached"
                );
            }
        }
    }

    #[test]
    fn sharded_server_survives_outgoing_faults() {
        use crate::channel::FaultProfile;
        for (shards, faults) in
            [(2, (FaultProfile::lossy(0.15), 3)), (1, (FaultProfile::hostile(0.2), 11))]
        {
            let config = ShardedServerConfig {
                shards,
                server: ServerConfig { faults: Some(faults), ..ServerConfig::default() },
                ..ShardedServerConfig::default()
            };
            let transfers = serve_to(1, 20_000, config);
            // More frames sent than the receiver found innovative: the
            // fault model sat on the path.
            let overhead = transfers[0].report.overhead_ratio().expect("completed");
            assert!(overhead > 1.0, "fault model was exercised: overhead {overhead}");
        }
    }

    #[test]
    fn unpublished_session_and_garbage_are_ignored() {
        let (encoder, _) = stream(10_000, |i| (i % 251) as u8);
        let mut server =
            ShardedServer::bind("127.0.0.1:0", ShardedServerConfig::default()).unwrap();
        server.publish(1, encoder);
        let addr = server.local_addr().unwrap();
        let received = &crate::metrics::metrics().rx_datagrams;
        let before = received.get();

        let client = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
        let request = Datagram::new(12345, Payload::Request).encode().unwrap();
        // lint: allow(raw-udp-io) — test client poking the server socket directly.
        client.send_to(&request, addr).unwrap();
        // lint: allow(raw-udp-io) — test client poking the server socket directly.
        client.send_to(b"not a datagram at all", addr).unwrap();

        let transfers = server.serve(1, Duration::from_millis(300)).unwrap();
        assert!(transfers.is_empty(), "nothing published under that id: {transfers:?}");
        assert!(received.get() - before >= 2, "both datagrams reached a shard loop");
    }
}
