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
//! * **One thread per shard** for the whole `serve` call: a named
//!   `std::thread::scope` thread (`nc-shard-{i}`) that borrows its socket,
//!   so a shard's sessions always run on the same thread.
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
//! * **Due sessions only.** Each shard loop is an I/O shell around a
//!   sans-I/O `Step` (the one the [`Client`](crate::client::Client)
//!   runs its receivers on) that owns the session map and a deadline
//!   index: a wake-up polls the sessions a datagram touched or whose
//!   quoted wait ran out, not every session (`net.shard_polls`,
//!   `net.shard_idle_polls`). A paced peer then costs about the datagrams
//!   it is sent. The shell opens a session for each published `Request`
//!   and turns each finished one into a [`ServedTransfer`].
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

use crate::channel::BatchSocket;
use crate::server::{ServedTransfer, ServerConfig};
use crate::session::{SenderConfig, SenderSession};
use crate::step::Step;
use crate::wire::{ack_wire_bytes, session_of, DatagramRef, Payload};

/// Upper bound on one blocking receive wait. A shard sleeps until its
/// earliest session deadline (pacing, stall, announce-retry), capped here
/// so reaps and `serve` deadline checks stay responsive; incoming
/// datagrams interrupt the wait either way. This is a *cap*, not a tick —
/// an idle shard wakes at this cadence, not every 2 ms.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Receive-slot size per batched receive. A serving shard only ever
/// receives feedback, so a slot holds the largest tolerated ACK rather
/// than a full 64 KiB datagram: ACK bitmaps for streams up to 16k
/// segments. Larger streams' ACKs arrive truncated and are skipped,
/// exactly like any other damaged datagram (the sender keeps pushing).
const RECV_SLOT_BYTES: usize = ack_wire_bytes(16 * 1024);

/// Tuning for the sharded server.
#[derive(Clone, Debug)]
pub struct ShardedServerConfig {
    /// Per-session tuning.
    pub server: ServerConfig,
    /// Number of sockets, session maps and shard threads.
    pub shards: usize,
}

impl Default for ShardedServerConfig {
    fn default() -> ShardedServerConfig {
        ShardedServerConfig { server: ServerConfig::default(), shards: 4 }
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

    /// Hands every waiting datagram to `deliver`, recycling the
    /// forwarded buffers.
    fn drain(&self, mut deliver: impl FnMut(SocketAddr, &[u8])) {
        while let Some((peer, bytes)) = self.pop() {
            deliver(peer, &bytes);
            nc_pool::BytesPool::global().recycle(bytes);
        }
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
/// threads.
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
        let sockets = BatchSocket::group(addr, config.shards.max(1), RECV_SLOT_BYTES)?;
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

    /// Publishes a stream under `session` id (before serving). Any codec
    /// backend works — the announce carries its id.
    pub fn publish(&mut self, session: u64, encoder: Arc<dyn StreamCodecSender>) {
        self.content.insert(session, encoder);
    }

    /// Serves until `expected` transfers finish or `deadline` passes,
    /// running one shard loop per scoped thread (`nc-shard-{i}`), all
    /// joined before it returns. Returns every
    /// finished transfer (its [`ServedTransfer::shard`] says which shard
    /// served it).
    ///
    /// # Errors
    ///
    /// The first socket I/O error any shard hit (datagram loss is not an
    /// error).
    ///
    /// # Panics
    ///
    /// If a shard loop panics, its payload is resumed on the caller once
    /// every shard has joined.
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
        let (config, shared_ref) = (&self.config, &shared);
        // One named scoped thread per shard, each borrowing its own socket;
        // a shard that cannot be spawned stops the others and is the error.
        // Every shard joins before the first panic's own payload is
        // resumed: a bare `scope` would swap it for a generic message.
        let panic = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .sockets
                .iter_mut()
                .enumerate()
                .filter_map(|(shard, socket)| {
                    std::thread::Builder::new()
                        .name(format!("nc-shard-{shard}"))
                        .spawn_scoped(scope, move || {
                            shard_main(shard, shards, socket, shared_ref, config, until);
                        })
                        .map_err(|err| shared_ref.fail(err))
                        .ok()
                })
                .collect();
            handles.into_iter().fold(None, |first, handle| first.or(handle.join().err()))
        });
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
        if let Some(err) = shared.error.lock().expect("error lock").take() {
            return Err(err);
        }
        let transfers = std::mem::take(&mut *shared.ledger.transfers.lock().expect("ledger lock"));
        Ok(transfers)
    }
}

/// A session key: the peer and the stream id it asked for.
type Key = (SocketAddr, u64);

/// The sender session a datagram opens, if it is a `Request` for a
/// published stream.
fn open_session(
    content: &HashMap<u64, Arc<dyn StreamCodecSender>>,
    seeds: &AtomicU64,
    config: &SenderConfig,
    bytes: &[u8],
    now: Instant,
) -> Option<SenderSession> {
    let request = DatagramRef::parse(bytes).ok()?;
    let encoder =
        content.get(&request.session).filter(|_| matches!(request.payload, Payload::Request))?;
    // Process-unique seeds: sender RNG streams must differ across shards.
    let seed = seeds.fetch_add(1, Ordering::AcqRel) + 1;
    SenderSession::new(Arc::clone(encoder), request.session, config.clone(), seed, now).ok()
}

/// One shard's serve loop, the I/O shell around a [`Step`]: receive a
/// batch (sleeping at most until the step's next due session) and hand
/// each owned datagram to its session, opening one for a published
/// `Request`; drain the mailbox likewise; step; flush the staged frame
/// batch; record each finished session as a [`ServedTransfer`].
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
    let m = crate::metrics::metrics();

    let mut step: Step<Key, SenderSession> = Step::new();
    let deliver = |step: &mut Step<Key, SenderSession>, peer, id, bytes: &[u8], now| {
        let sender = &config.server.sender;
        step.deliver((peer, id), bytes, now, || {
            open_session(&shared.content, &shared.seed, sender, bytes, now)
        });
    };
    let mut next_due: Option<Instant> = None;

    while !shared.ledger.stopped() {
        let now = Instant::now();
        if now >= until {
            break;
        }
        let timeout = next_due
            .map_or(POLL_INTERVAL, |due| due.saturating_duration_since(now))
            .min(POLL_INTERVAL)
            .min(until - now);

        // Receive a batch; route each datagram to its owner. One clock
        // read per batch: its datagrams arrived together.
        let asked = Instant::now();
        let mut arrived = None;
        let received = socket.recv_batch(timeout, |peer, bytes| {
            let Some(id) = session_of(bytes) else { return };
            let owner = shard_owner(peer, id, shards);
            if owner == shard {
                rx_owned.inc();
                deliver(&mut step, peer, id, bytes, *arrived.get_or_insert_with(Instant::now));
            } else {
                rx_forwarded.inc();
                m.shard_forwards.inc();
                shared.mailboxes[owner]
                    .push(peer, nc_pool::BytesPool::global().take_vec_copy(bytes));
            }
        });
        match received {
            Ok(0) => {
                // Woke with nothing: how late past the quoted deadline?
                m.deadline_miss_ns.record_duration(asked.elapsed().saturating_sub(timeout));
            }
            Ok(_) => {}
            Err(err) => {
                shared.fail(err);
                break;
            }
        }
        let now = Instant::now();
        shared.mailboxes[shard].drain(|peer, bytes| {
            if let Some(id) = session_of(bytes) {
                deliver(&mut step, peer, id, bytes, now);
            }
        });

        // Hand the encoded frame to the batch without copying; `flush`
        // recycles it.
        let mut emit = |(to, _): Key, bytes: Vec<u8>| socket.queue(to, bytes);
        let mut finished = |(peer, session): Key, sender: SenderSession, max_burst: u64| {
            let mut metrics = sender.metrics_snapshot(now);
            metrics.counters.insert("session.max_burst_per_step".into(), max_burst);
            let report = sender.report(now);
            served.inc();
            shared.ledger.record(ServedTransfer { peer, session, shard, report, metrics });
        };
        let stepped = step.step(now, &mut emit, &mut finished);
        let stats = step.stats();
        m.shard_polls.add(stats.polls);
        m.shard_idle_polls.add(stats.idle_polls);
        match stepped {
            Ok(due) => next_due = due,
            Err(err) => {
                shared.fail(err);
                return;
            }
        }
        match socket.flush() {
            Ok(sent) => tx.add(sent as u64),
            Err(err) => {
                shared.fail(err);
                return;
            }
        }
        sessions_gauge.set(step.sessions() as f64);
    }
    let _ = socket.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::UdpChannel;
    use crate::client::Client;
    use crate::receiver::{ReceiverConfig, ReceiverSession};
    use crate::session::{SenderReport, ACK_WAIT, ANNOUNCE_INTERVAL, STALL_GRACE};
    use crate::sim::{drive, Link, Node, Run};
    use crate::step::BURST_PER_STEP;
    use crate::wire::Datagram;
    use nc_rlnc::stream::StreamEncoder;
    use nc_rlnc::CodingConfig;

    fn stream(len: usize, fill: impl Fn(usize) -> u8) -> (Arc<StreamEncoder>, Vec<u8>) {
        let config = CodingConfig::new(8, 256).unwrap();
        let data: Vec<u8> = (0..len).map(fill).collect();
        (Arc::new(StreamEncoder::new(config, &data).unwrap()), data)
    }

    /// One client on one socket asking `server` for streams
    /// `0..sessions`; the recovered bytes, by stream.
    fn receive(server: SocketAddr, sessions: usize) -> Vec<Option<Vec<u8>>> {
        let channel = UdpChannel::connect("127.0.0.1:0", server).unwrap();
        let mut client = Client::new(channel, ReceiverConfig::default());
        (0..sessions as u64).for_each(|id| client.request(id));
        let mut recovered = vec![None; sessions];
        for rx in client.run().unwrap() {
            let id = rx.session_id() as usize;
            recovered[id] = rx.into_recovered();
        }
        recovered
    }

    /// Held by every test that serves over loopback, so a test that looks
    /// for live shard threads sees only its own server's.
    fn serving() -> std::sync::MutexGuard<'static, ()> {
        static SERVING: std::sync::Mutex<()> = std::sync::Mutex::new(());
        SERVING.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// A server of `config` publishing one stream of `len` bytes under
    /// ids `0..receivers`.
    fn publish(
        receivers: usize,
        len: usize,
        config: ShardedServerConfig,
    ) -> (ShardedServer, Vec<u8>) {
        let (encoder, data) = stream(len, |i| (i % 239) as u8);
        let mut server = ShardedServer::bind("127.0.0.1:0", config).unwrap();
        (0..receivers as u64).for_each(|id| server.publish(id, encoder.clone()));
        (server, data)
    }

    /// Serves one published stream to `receivers` concurrent receivers and
    /// checks every one recovered it bit-exact.
    fn serve_to(receivers: usize, len: usize, config: ShardedServerConfig) -> Vec<ServedTransfer> {
        let (mut server, data) = publish(receivers, len, config);
        serve_round(&mut server, receivers, &data)
    }

    /// One `serve` call of `data`, published under ids `0..receivers`,
    /// to one new client that asks for each of them.
    fn serve_round(
        server: &mut ShardedServer,
        receivers: usize,
        data: &[u8],
    ) -> Vec<ServedTransfer> {
        let _serving = serving();
        let addr = server.local_addr().unwrap();
        let (transfers, recovered) = std::thread::scope(|scope| {
            let client = scope.spawn(|| receive(addr, receivers));
            (server.serve(receivers, Duration::from_secs(60)).unwrap(), client.join().unwrap())
        });
        for stream in recovered {
            assert_eq!(stream.as_deref(), Some(data), "bit-exact");
        }
        assert_eq!(transfers.len(), receivers);
        transfers
    }

    /// Names of this process's live `nc-shard-*` threads.
    fn shard_threads() -> Vec<String> {
        let tasks = std::fs::read_dir("/proc/self/task").expect("procfs");
        tasks
            .flatten()
            .filter_map(|task| std::fs::read_to_string(task.path().join("comm")).ok())
            .map(|comm| comm.trim_end().to_owned())
            .filter(|name| name.starts_with("nc-shard-"))
            .collect()
    }

    /// What a shard's [`Step`] opens sessions from: its config, the
    /// published content (stream 1: dense 16 x 64 B, `segments` segments)
    /// and the seeds.
    struct World {
        config: ServerConfig,
        content: HashMap<u64, Arc<dyn StreamCodecSender>>,
        seeds: AtomicU64,
        segments: usize,
    }

    impl World {
        fn new(config: ServerConfig, segments: usize) -> World {
            let coding = CodingConfig::new(16, 64).unwrap();
            let data: Vec<u8> = (0..segments * 16 * 64).map(|i| (i % 247) as u8).collect();
            let encoder: Arc<dyn StreamCodecSender> =
                Arc::new(StreamEncoder::new(coding, &data).unwrap());
            let content = HashMap::from([(1, encoder)]);
            World { config, content, seeds: AtomicU64::new(0), segments }
        }

        fn step(&self) -> Step<Key, SenderSession> {
            Step::new()
        }

        /// The session `bytes` open, as the shard shell opens it.
        fn open(&self, bytes: &[u8], now: Instant) -> Option<SenderSession> {
            open_session(&self.content, &self.seeds, &self.config.sender, bytes, now)
        }

        /// Delivers `bytes` from `peer` as the shard shell does.
        fn deliver(
            &self,
            step: &mut Step<Key, SenderSession>,
            peer: SocketAddr,
            bytes: &[u8],
            now: Instant,
        ) {
            let key = (peer, session_of(bytes).unwrap());
            step.deliver(key, bytes, now, || self.open(bytes, now));
        }

        /// Wire bytes of one data datagram of stream 1.
        fn datagram_bytes(&self) -> usize {
            crate::wire::HEADER_BYTES + self.content[&1].frame_wire_bytes()
        }

        fn ack(&self, received: u64) -> Vec<u8> {
            let completed = crate::wire::SegmentBitmap::new(self.segments);
            Datagram::new(1, Payload::Ack { received, innovative: received, completed })
                .encode()
                .unwrap()
        }
    }

    fn peer(i: usize) -> SocketAddr {
        SocketAddr::from(([10, 0, (i >> 8) as u8, i as u8], 4000))
    }

    fn request() -> Vec<u8> {
        Datagram::new(1, Payload::Request).encode().unwrap()
    }

    fn kind(bytes: &[u8]) -> &'static str {
        match Datagram::decode(bytes).unwrap().payload {
            Payload::Announce(_) => "announce",
            Payload::Data(_) => "data",
            _ => "feedback",
        }
    }

    #[test]
    fn paced_sessions_are_polled_only_when_due() {
        // 4096 peers at ~100 datagrams/s each, their requests spread over
        // the first 10 ms: a step polls the sessions that came due or
        // were touched, never all of them, and a turn that sends nothing
        // is the exception.
        const PEERS: usize = 4096;
        let world = World::new(ServerConfig::default(), 16);
        let datagram = world.datagram_bytes() as f64;
        let world = World {
            config: ServerConfig {
                sender: SenderConfig {
                    pace_bytes_per_s: Some(100.0 * datagram),
                    burst_bytes: 4.0 * datagram,
                    ..SenderConfig::default()
                },
                ..ServerConfig::default()
            },
            ..world
        };
        let mut step = world.step();
        let t0 = Instant::now();
        let arrivals = (0..PEERS)
            .map(|i| (t0 + Duration::from_micros(150 * (i % 64) as u64), peer(i), request()));
        let (mut steps, mut polls, mut emitted_total) = (0u64, 0u64, 0u64);
        let mut node = Node {
            step: &mut step,
            open: |bytes, now| world.open(bytes, now),
            watch: |step, _, sent| {
                let (stats, emitted) = (step.stats(), sent.len() as u64);
                // Only due and touched sessions run (a paced turn never
                // uses up its burst, so nothing yields).
                assert!(stats.turns <= stats.due + stats.arrived, "{stats:?}");
                assert!(stats.idle_polls as usize <= stats.turns, "{stats:?}");
                // Every poll either sent a datagram or ended a turn.
                assert!(stats.polls <= emitted + stats.turns as u64, "{stats:?}");
                assert!(step.index.heap.len() <= 2 * step.index.armed + 1);
                steps += 1;
                polls += stats.polls;
                emitted_total += emitted;
            },
        };
        drive(&mut [&mut node], t0, arrivals, None, t0 + Duration::from_millis(300));
        assert_eq!(step.sessions(), PEERS);
        println!(
            "{PEERS} paced sessions, 300 ms: {steps} steps, {:.1} polls per step, \
             {:.3} polls per datagram ({emitted_total} datagrams)",
            polls as f64 / steps as f64,
            polls as f64 / emitted_total as f64,
        );
        assert!(emitted_total >= (PEERS * 25) as u64, "{emitted_total} datagrams");
        assert!(polls <= 2 * emitted_total, "{polls} polls for {emitted_total} datagrams");
    }

    #[test]
    fn re_arming_keeps_the_heap_within_twice_the_live_entries() {
        let world = World::new(ServerConfig::default(), 4);
        let mut step = world.step();
        let t0 = Instant::now();
        world.deliver(&mut step, peer(0), &request(), t0);
        let key = (peer(0), 1);
        let far = t0 + Duration::from_secs(3600);
        for i in 0..10_000u32 {
            // Each quote is earlier than the armed one: a fresh entry.
            let slot = step.slots.get_mut(&key).unwrap();
            step.index.arm(key, &mut slot.due, far - Duration::from_millis(u64::from(i)));
            step.index.compact(&step.slots);
            assert_eq!(step.index.armed, 1);
            assert!(step.index.heap.len() <= 2 * step.index.armed + 1, "after {i} re-arms");
        }
        let latest = far - Duration::from_millis(9_999);
        assert_eq!(step.index.next_due(&step.slots), Some(latest));
        // A later quote keeps the earlier entry.
        let slot = step.slots.get_mut(&key).unwrap();
        step.index.arm(key, &mut slot.due, far);
        assert_eq!(step.index.next_due(&step.slots), Some(latest));
        assert_eq!(step.index.pop_due(latest, &mut step.slots), Some(key));
        assert_eq!((step.index.armed, step.index.next_due(&step.slots)), (0, None));
    }

    #[test]
    fn announce_retry_and_stall_timers_fire_within_ack_wait_of_due() {
        // One unpaced session and no other traffic, so nothing but its own
        // quotes wakes the step. A repeated request 19 ms after the
        // announce makes it quote a timer 1 ms out, which the `ACK_WAIT`
        // floor turns into 2 ms.
        let world = World::new(ServerConfig::default(), 4);
        let mut step = world.step();
        let t0 = Instant::now();
        let ack_at = t0 + Duration::from_millis(70);
        let arrivals = [
            (t0, peer(0), request()),
            (t0 + Duration::from_millis(19), peer(0), request()),
            (ack_at, peer(0), world.ack(8)),
        ];
        let mut sent: Vec<(Instant, &str)> = Vec::new();
        let mut node = Node {
            step: &mut step,
            open: |bytes, now| world.open(bytes, now),
            watch: |_, now, out| {
                sent.extend(out.iter().map(|(_, bytes)| (now, kind(bytes))));
            },
        };
        drive(&mut [&mut node], t0, arrivals, None, ack_at + 2 * STALL_GRACE);
        let announces: Vec<Instant> =
            sent.iter().filter(|(_, k)| *k == "announce").map(|(at, _)| *at).collect();
        assert!(announces.len() >= 3, "{announces:?}");
        for pair in announces.windows(2) {
            let late = pair[1] - (pair[0] + ANNOUNCE_INTERVAL);
            assert!(late <= ACK_WAIT, "announce retry {late:?} late");
        }
        // After the ACK the regranted budget goes out at once; then the
        // session starves until the stall trickle at ACK + `STALL_GRACE`.
        let trickle_due = ack_at + STALL_GRACE;
        let trickled = sent
            .iter()
            .find(|(at, k)| *at > ack_at && *k == "data" && *at + ACK_WAIT >= trickle_due)
            .expect("the stall trickle released frames")
            .0;
        assert!(trickled >= trickle_due, "trickled {:?} early", trickle_due - trickled);
        assert!(trickled - trickle_due <= ACK_WAIT, "{:?} late", trickled - trickle_due);
    }

    #[test]
    fn every_ready_session_gets_its_first_burst_before_any_gets_a_second() {
        const PEERS: usize = 64;
        let world = World::new(ServerConfig::default(), 16);
        let mut step = world.step();
        let t0 = Instant::now();
        let arrivals = (0..PEERS).map(|i| (t0, peer(i), request()));
        let mut order: Vec<SocketAddr> = Vec::new();
        let mut node = Node {
            step: &mut step,
            open: |bytes, now| world.open(bytes, now),
            watch: |_, _, sent| order.extend(sent.iter().map(|&((to, _), _)| to)),
        };
        drive(&mut [&mut node], t0, arrivals, None, t0);
        let bursts: Vec<(SocketAddr, usize)> =
            order.chunk_by(|a, b| a == b).map(|run| (run[0], run.len())).collect();
        assert!(bursts.len() >= 2 * PEERS, "{} bursts", bursts.len());
        let first: Vec<SocketAddr> = bursts[..PEERS].iter().map(|&(to, _)| to).collect();
        assert_eq!(first, (0..PEERS).map(peer).collect::<Vec<_>>(), "arrival order");
        assert!(
            bursts[..PEERS].iter().all(|&(_, len)| len == BURST_PER_STEP as usize),
            "full bursts"
        );
        let second: Vec<SocketAddr> = bursts[PEERS..2 * PEERS].iter().map(|&(to, _)| to).collect();
        assert_eq!(second, first, "yields run again in the same order");
    }

    #[test]
    fn a_forwarded_datagram_touches_its_session_at_the_owners_next_step() {
        let world = World::new(ServerConfig::default(), 4);
        let mut step = world.step();
        let t0 = Instant::now();
        world.deliver(&mut step, peer(0), &request(), t0);
        let mut emit = |_, bytes| {
            nc_pool::BytesPool::global().recycle(bytes);
            Ok(())
        };
        // Announce and budget out, a burst per step; the session then
        // waits on timers.
        let due = loop {
            let due = step.step(t0, &mut emit, &mut |_, _, _| {}).unwrap().expect("armed");
            if due > t0 {
                break due;
            }
        };
        let now = t0 + Duration::from_millis(1);
        assert!(due > now, "nothing is due at {now:?}");
        // Another shard received this session's ACK and forwarded it.
        let mailbox = Mailbox::new();
        mailbox.push(peer(0), world.ack(8));
        mailbox.drain(|from, bytes| world.deliver(&mut step, from, bytes, now));
        assert!(mailbox.pop().is_none());
        step.step(now, &mut emit, &mut |_, _, _| {}).unwrap();
        let stats = step.stats();
        assert_eq!((stats.arrived, stats.due, stats.turns), (1, 0, 1), "{stats:?}");
        let session = &step.slots[&(peer(0), 1)].session;
        assert_eq!(session.report(now).acks_received, 1);
    }

    /// A 16-segment stream served by one server step to one client step
    /// over a 3 ms link that drops a seeded 10 % of datagrams, with no
    /// socket: what the client recovered and how many data frames it
    /// received, the datagrams each side sent, when the last event ran, and
    /// the server session's report as of the last step it was live in.
    fn converse(seed: u64) -> (Option<Vec<u8>>, u64, [u64; 2], Duration, Option<SenderReport>) {
        let world = World::new(ServerConfig::default(), 16);
        let t0 = Instant::now();
        let mut receiver = ReceiverSession::new(1, ReceiverConfig::default(), t0);
        let (mut server, mut client) = (world.step(), Step::new());
        client.insert(1, &mut receiver);
        let (mut served, mut asked, mut report) = (0, 0, None);
        let open = |bytes: &[u8], now| world.open(bytes, now);
        let watch = |step: &Step<Key, SenderSession>, now, out: &[(Key, Vec<u8>)]| {
            served += out.len() as u64;
            if let Some(slot) = step.slots.values().next() {
                report = Some(slot.session.report(now));
            }
        };
        let mut server_node = Node { step: &mut server, open, watch };
        let mut client_node =
            Node { step: &mut client, open: |_, _| None, watch: |_, _, out| asked += out.len() };
        let coin = rand::SeedableRng::seed_from_u64(seed);
        let link = Link { delay: Duration::from_millis(3), loss: 0.1, coin };
        let nodes: &mut [&mut dyn Run] = &mut [&mut server_node, &mut client_node];
        let ended = drive(nodes, t0, [], Some(link), t0 + Duration::from_secs(10));
        assert_eq!((server.sessions(), client.sessions()), (0, 0), "both sides finished");
        let received = receiver.report().received;
        (receiver.into_recovered(), received, [served, asked as u64], ended, report)
    }

    #[test]
    fn a_server_step_and_a_client_step_converse_over_a_lossy_link() {
        let (recovered, received, sent, ended, report) = converse(7);
        let data: Vec<u8> = (0..16 * 16 * 64).map(|i| (i % 247) as u8).collect();
        assert_eq!(recovered.as_deref(), Some(data.as_slice()), "bit-exact");
        assert!(received < sent[0] * 19 / 20, "{received} of {sent:?} arrived: nothing lost");
        assert!(ended < Duration::from_secs(1), "finished at {ended:?}");
        // More frames sent than the receiver found innovative: the loss
        // sat on the path and the sender made up for it.
        let overhead = report.and_then(|r| r.overhead_ratio()).expect("the client reported");
        assert!(overhead > 1.0, "the lossy link was exercised: overhead {overhead}");
        let (_, _, again, again_ended, _) = converse(7);
        assert_eq!((again, again_ended), (sent, ended), "the same seed, the same transcript");
        println!("{sent:?} datagrams sent (server, client), {received} frames received, {ended:?}");
    }

    /// A node whose first announce the wire loses.
    struct LosesFirstAnnounce<'a> {
        node: &'a mut dyn Run,
        lost: bool,
    }

    impl Run for LosesFirstAnnounce<'_> {
        fn deliver(&mut self, from: SocketAddr, bytes: &[u8], now: Instant) {
            self.node.deliver(from, bytes, now);
        }

        fn run(&mut self, now: Instant, send: &mut dyn FnMut(Vec<u8>)) -> Option<Instant> {
            let lost = &mut self.lost;
            self.node.run(now, &mut |bytes| {
                if is_announce(&bytes) && !*lost {
                    *lost = true;
                    nc_pool::BytesPool::global().recycle(bytes);
                } else {
                    send(bytes);
                }
            })
        }
    }

    fn is_announce(bytes: &[u8]) -> bool {
        DatagramRef::parse(bytes).is_ok_and(|d| matches!(d.payload, Payload::Announce(_)))
    }

    /// A 16-segment stream served by one server step to one client step
    /// over a lossless 1 ms link that loses the server's first announce
    /// if `lose`: what the client recovered, how many announces the
    /// server sent, and when the client completed.
    fn announce_round(lose: bool) -> (Option<Vec<u8>>, usize, Duration) {
        let world = World::new(ServerConfig::default(), 16);
        let t0 = Instant::now();
        let mut receiver = ReceiverSession::new(1, ReceiverConfig::default(), t0);
        let (mut server, mut client) = (world.step(), Step::new());
        client.insert(1, &mut receiver);
        let (mut announces, mut completed) = (0, None);
        let open = |bytes: &[u8], now| world.open(bytes, now);
        let mut server_node = Node {
            step: &mut server,
            open,
            watch: |_, _, out| announces += out.iter().filter(|(_, b)| is_announce(b)).count(),
        };
        let mut client_node = Node {
            step: &mut client,
            open: |_, _| None,
            watch: |step, now, _| {
                let done = step.slots.get(&1).is_none_or(|slot| slot.session.is_complete());
                if done && completed.is_none() {
                    completed = Some(now - t0);
                }
            },
        };
        let mut lossy = LosesFirstAnnounce { node: &mut server_node, lost: !lose };
        let coin = rand::SeedableRng::seed_from_u64(1);
        let link = Link { delay: Duration::from_millis(1), loss: 0.0, coin };
        let nodes: &mut [&mut dyn Run] = &mut [&mut lossy, &mut client_node];
        drive(nodes, t0, [], Some(link), t0 + Duration::from_secs(10));
        assert_eq!((server.sessions(), client.sessions()), (0, 0), "both sides finished");
        (receiver.into_recovered(), announces, completed.expect("the client completed"))
    }

    #[test]
    fn a_lost_announce_is_answered_within_a_round_trip_of_the_first_data() {
        let data: Vec<u8> = (0..16 * 16 * 64).map(|i| (i % 247) as u8).collect();
        let (recovered, announces, lossless) = announce_round(false);
        assert_eq!(recovered.as_deref(), Some(data.as_slice()), "bit-exact");
        assert_eq!(announces, 1, "a lossless run announces once");
        let (recovered, announces, lost) = announce_round(true);
        assert_eq!(recovered.as_deref(), Some(data.as_slice()), "bit-exact");
        assert_eq!(announces, 2, "one lost, one answering the receiver's early request");
        // Data reaches the receiver at 2 ms, its request the server at
        // 3 ms and the announce the receiver at 4 ms; waiting for the
        // announce retry would put it past 21 ms.
        assert!(lost < Duration::from_millis(10), "completed at {lost:?}");
        println!("completed at {lossless:?} lossless, {lost:?} with the first announce lost");
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
            let keys: std::collections::HashSet<_> =
                transfers.iter().map(|t| (t.peer, t.session)).collect();
            assert_eq!(keys.len(), 6, "one session per request");
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
    fn serves_256_sessions_to_one_client_bit_exact() {
        // One client socket: the kernel hands all its feedback to one
        // shard, which forwards what the other owns.
        const SESSIONS: usize = 256;
        let config = ShardedServerConfig { shards: 2, ..ShardedServerConfig::default() };
        let (mut server, data) = publish(SESSIONS, 8_000, config);
        let transfers = serve_round(&mut server, SESSIONS, &data);
        let shards: std::collections::HashSet<_> = transfers.iter().map(|t| t.shard).collect();
        assert_eq!(shards.len(), 2, "both shards served");
    }

    #[test]
    fn serve_joins_every_shard_thread_and_serves_again() {
        let config = ShardedServerConfig { shards: 3, ..ShardedServerConfig::default() };
        let (mut server, data) = publish(4, 30_000, config);
        for call in 0..2 {
            serve_round(&mut server, 4, &data);
            if cfg!(target_os = "linux") {
                assert_eq!(shard_threads(), Vec::<String>::new(), "call {call} left shard threads");
            }
        }
    }

    #[test]
    fn unpublished_session_and_garbage_are_ignored() {
        let (encoder, _) = stream(10_000, |i| (i % 251) as u8);
        let mut server =
            ShardedServer::bind("127.0.0.1:0", ShardedServerConfig::default()).unwrap();
        server.publish(1, encoder);
        let addr = server.local_addr().unwrap();
        let _serving = serving();
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
