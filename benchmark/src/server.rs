//! The three server workloads: one `ShardedServer` (its shard threads)
//! against one client thread that multiplexes every `ReceiverSession`
//! over a single `BatchSocket`, all on loopback.
//!
//! * `server_steady_16x` — closed loop, few long streams: batching, the
//!   shard loop and the buffer pool carry steady-state goodput.
//! * `server_churn_1000x6k` — closed loop, many tiny streams: announce /
//!   ACK / FIN / reap cost per session dominates.
//! * `server_paced_768k` — open loop: every peer asks at t=0 and is served
//!   at media rate; goodput is fixed by construction and the number that
//!   moves is CPU per byte (timers, wake-ups, half-empty batches).

use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use nc_net::channel::BatchSocket;
use nc_net::receiver::{ReceiverConfig, ReceiverEvent, ReceiverSession};
use nc_net::server::{ServedTransfer, ServerConfig};
use nc_net::session::SenderConfig;
use nc_net::shard::{ShardedServer, ShardedServerConfig};
use nc_net::wire::HEADER_BYTES;
use nc_rlnc::codec::StreamCodecSender;
use nc_rlnc::stream::StreamEncoder;
use nc_rlnc::CodingConfig;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::host::{sub_seed, thread_cpu_seconds, RCVBUF_REQUEST_BYTES};
use crate::spans::Tracer;
use crate::workload::{NetCounts, Rep, Sizing, Workload};

/// Media rate of the paced workload: 768 Kbps.
pub const MEDIA_BYTES_PER_S: f64 = 96_000.0;

/// Shards the server runs: every core but the one the client uses.
pub fn shard_count() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).saturating_sub(1).max(1)
}

/// Everything that distinguishes one server workload from another.
pub struct Shape {
    pub blocks: usize,
    pub block_bytes: usize,
    pub stream_bytes: usize,
    pub sessions: usize,
    /// Distinct payloads; session `i` is served payload `i % distinct`.
    pub distinct: usize,
    pub window_frames: u64,
    /// Per-session pacing and token-bucket burst, if paced.
    pub pace: Option<(f64, f64)>,
    /// A session recovered later than this counts as failed (open loop).
    pub late_after: Option<Duration>,
    pub single_rep: bool,
    pub min_reps: usize,
    pub loop_kind: &'static str,
}

/// A bound, published server plus what its client must recover.
pub struct ServerLoad {
    shape: Shape,
    server: ShardedServer,
    addr: SocketAddr,
    payloads: Vec<Vec<u8>>,
    shards: usize,
}

/// How long either side waits before giving a repetition up.
const GIVE_UP: Duration = Duration::from_secs(90);

impl ServerLoad {
    /// 16 x 4 MB, dense 16 x 1 KiB, unpaced. 16 sessions x 64-frame
    /// window x ~2.3 KB of buffer accounting per datagram is ~2.4 MB,
    /// inside the receive buffer the kernel grants here, so the flow
    /// window closes the loop rather than receive-buffer drops.
    pub fn steady(seed: u64, sizing: Sizing) -> ServerLoad {
        let (sessions, stream_bytes) = if sizing.smoke { (4, 256 << 10) } else { (16, 4 << 20) };
        ServerLoad::build(
            sub_seed(seed, "steady.payload"),
            Shape {
                blocks: 16,
                block_bytes: 1024,
                stream_bytes,
                sessions,
                distinct: sessions,
                window_frames: 64,
                pace: None,
                late_after: None,
                single_rep: false,
                min_reps: 3,
                loop_kind: "closed loop (flow window)",
            },
        )
    }

    /// 1000 x 6 KiB (3 segments of 8 x 256 B), unpaced.
    pub fn churn(seed: u64, sizing: Sizing) -> ServerLoad {
        let sessions = if sizing.smoke { 50 } else { 1000 };
        ServerLoad::build(
            sub_seed(seed, "churn.payload"),
            Shape {
                blocks: 8,
                block_bytes: 256,
                stream_bytes: 3 * 8 * 256,
                sessions,
                distinct: sessions,
                window_frames: 64,
                pace: None,
                late_after: None,
                single_rep: false,
                min_reps: 5,
                loop_kind: "closed loop (flow window)",
            },
        )
    }

    /// 256 peers on 16 channels, each stream `phase_seconds` of 768 Kbps
    /// media, paced so a healthy server finishes it in 0.9-1.0 of that.
    pub fn paced(seed: u64, sizing: Sizing) -> ServerLoad {
        let sessions = if sizing.smoke { 8 } else { 256 };
        let duration = sizing.phase_seconds.max(0.25);
        let (blocks, block_bytes) = (16usize, 1024usize);
        let stream_bytes = (MEDIA_BYTES_PER_S * duration) as usize;
        // Wire bytes of a loss-free transfer: whole segments, one
        // datagram (header + frame header + coefficients + block) per
        // block, plus the few percent the redundancy controller adds.
        let datagram = HEADER_BYTES + 8 + blocks + block_bytes;
        let frames = stream_bytes.div_ceil(blocks * block_bytes) * blocks;
        let wire_bytes = (frames * datagram) as f64 * 1.03;
        let pace = wire_bytes / (0.93 * duration);
        ServerLoad::build(
            sub_seed(seed, "paced.payload"),
            Shape {
                blocks,
                block_bytes,
                stream_bytes,
                sessions,
                distinct: 16.min(sessions),
                window_frames: 64,
                // Four datagrams of burst: 256 sessions opening at once
                // must fit the client's receive buffer.
                pace: Some((pace, 4.0 * datagram as f64)),
                late_after: Some(Duration::from_secs_f64(1.10 * duration + 1.0)),
                single_rep: true,
                min_reps: 1,
                loop_kind: "open loop (every peer requests at t=0, served at media rate)",
            },
        )
    }

    /// Binds the server, generates `shape.distinct` payloads from
    /// `payload_seed` and publishes one stream per session id.
    pub fn build(payload_seed: u64, shape: Shape) -> ServerLoad {
        let shards = shard_count();
        let (pace_bytes_per_s, burst_bytes) = match shape.pace {
            Some((rate, burst)) => (Some(rate), burst),
            None => (None, SenderConfig::default().burst_bytes),
        };
        let config = ShardedServerConfig {
            shards,
            server: ServerConfig {
                sender: SenderConfig {
                    pace_bytes_per_s,
                    burst_bytes,
                    window_frames: shape.window_frames,
                    idle_timeout: Duration::from_secs(30),
                    ..SenderConfig::default()
                },
                recv_buffer_bytes: Some(RCVBUF_REQUEST_BYTES),
                ..ServerConfig::default()
            },
            ..ShardedServerConfig::default()
        };
        let mut server = ShardedServer::bind("127.0.0.1:0", config).expect("bind loopback group");
        let addr = server.local_addr().expect("bound address");

        let coding = CodingConfig::new(shape.blocks, shape.block_bytes).expect("valid shape");
        let mut rng = StdRng::seed_from_u64(payload_seed);
        let payloads: Vec<Vec<u8>> = (0..shape.distinct)
            .map(|_| {
                let mut data = vec![0u8; shape.stream_bytes];
                rng.fill_bytes(&mut data);
                data
            })
            .collect();
        let encoders: Vec<Arc<dyn StreamCodecSender>> = payloads
            .iter()
            .map(|data| {
                Arc::new(StreamEncoder::new(coding, data).expect("non-empty stream"))
                    as Arc<dyn StreamCodecSender>
            })
            .collect();
        for id in 0..shape.sessions {
            server.publish(id as u64, encoders[id % encoders.len()].clone());
        }
        ServerLoad { shape, server, addr, payloads, shards }
    }

    fn frames_needed(&self) -> u64 {
        let segment = self.shape.blocks * self.shape.block_bytes;
        (self.shape.stream_bytes.div_ceil(segment) * self.shape.blocks * self.shape.sessions) as u64
    }
}

/// What the client thread saw.
struct ClientOutcome {
    /// Per session: request to recovery, milliseconds (NaN if never).
    done_ms: Vec<f64>,
    recovered: Vec<Option<Vec<u8>>>,
    received: u64,
    innovative: u64,
    cpu_s: f64,
}

/// Session id of a datagram, read from the wire header (`wire` module
/// docs: bytes 8..16, little endian). The session it is routed to checks
/// everything else, CRC included, so the client need not decode twice.
fn session_of(bytes: &[u8]) -> Option<usize> {
    let id = bytes.get(8..16)?;
    usize::try_from(u64::from_le_bytes(id.try_into().ok()?)).ok()
}

/// Drives `sessions` receiver sessions (ids `0..sessions`) over one
/// socket until all finish or `GIVE_UP` passes.
fn run_client(
    socket: &mut BatchSocket,
    server: SocketAddr,
    sessions: usize,
    tr: &mut Tracer,
) -> io::Result<ClientOutcome> {
    /// Receive batches taken back to back before feedback is due again.
    const DRAIN_BATCHES: usize = 4;
    let start = Instant::now();
    let config = ReceiverConfig {
        idle_timeout: Duration::from_secs(30),
        deadline: Some(GIVE_UP),
        ..ReceiverConfig::default()
    };
    let mut rx: Vec<Option<ReceiverSession>> = (0..sessions)
        .map(|id| Some(ReceiverSession::new(id as u64, config.clone(), start)))
        .collect();
    // A session is polled when a datagram touched it or its quoted wait
    // ran out, not on every wake-up.
    let mut wake_at = vec![start; sessions];
    let mut touched = vec![false; sessions];
    let mut out = ClientOutcome {
        done_ms: vec![f64::NAN; sessions],
        recovered: (0..sessions).map(|_| None).collect(),
        received: 0,
        innovative: 0,
        cpu_s: 0.0,
    };
    let mut live = sessions;

    while live > 0 && start.elapsed() < GIVE_UP {
        let now = Instant::now();
        let mut next = now + Duration::from_millis(25);
        let sweep = tr.begin("client.poll_sessions");
        for id in 0..sessions {
            let Some(session) = rx[id].as_mut() else { continue };
            if !touched[id] && wake_at[id] > now {
                next = next.min(wake_at[id]);
                continue;
            }
            touched[id] = false;
            loop {
                match session.poll(now) {
                    ReceiverEvent::Transmit(bytes) => socket.queue(server, bytes)?,
                    ReceiverEvent::Wait(wait) => {
                        wake_at[id] = now + wait;
                        next = next.min(wake_at[id]);
                        break;
                    }
                    ReceiverEvent::Finished => {
                        let session = rx[id].take().expect("present above");
                        let report = session.report();
                        out.received += report.received;
                        out.innovative += report.innovative;
                        out.recovered[id] = session.into_recovered();
                        live -= 1;
                        break;
                    }
                }
            }
        }
        tr.end(sweep);
        let s = tr.begin("BatchSocket::flush");
        let flushed = socket.flush();
        tr.end(s);
        flushed?;
        if live == 0 {
            break;
        }

        let mut wait = next.saturating_duration_since(Instant::now());
        for _ in 0..DRAIN_BATCHES {
            let s = tr.begin("BatchSocket::recv_batch");
            let got = socket.recv_batch(wait, |_, bytes| {
                let Some(id) = session_of(bytes) else { return };
                let Some(Some(session)) = rx.get_mut(id) else { return };
                let s = tr.begin("ReceiverSession::handle_bytes");
                session.handle_bytes(bytes, Instant::now());
                tr.end(s);
                touched[id] = true;
                if out.done_ms[id].is_nan() && session.is_complete() {
                    out.done_ms[id] = start.elapsed().as_secs_f64() * 1e3;
                }
            });
            tr.end(s);
            if got? == 0 {
                break;
            }
            wait = Duration::ZERO;
        }
    }
    out.cpu_s = thread_cpu_seconds();
    Ok(out)
}

impl Workload for ServerLoad {
    fn rep(&mut self, _rep: usize, tr: &mut Tracer) -> Rep {
        let started = Instant::now();
        // A fresh client port per repetition: a stale FIN of the previous
        // one then names a (peer, session) key no new session has.
        let slot_bytes = 2 * (HEADER_BYTES + 8 + self.shape.blocks + self.shape.block_bytes);
        let mut socket = BatchSocket::bind("127.0.0.1:0", slot_bytes).expect("bind client");
        socket.set_recv_buffer(RCVBUF_REQUEST_BYTES).expect("resize client rcvbuf");
        let (addr, sessions) = (self.addr, self.shape.sessions);
        let mut client_tracer = tr.fork();

        let (served, client) = std::thread::scope(|scope| {
            let client_tracer = &mut client_tracer;
            let socket = &mut socket;
            let client = scope.spawn(move || run_client(socket, addr, sessions, client_tracer));
            let s = tr.begin("ShardedServer::serve");
            let served = self.server.serve(sessions, GIVE_UP);
            tr.end(s);
            (served, client.join().expect("client thread does not panic"))
        });
        tr.absorb(client_tracer);
        let served: Vec<ServedTransfer> = served.expect("server socket I/O");
        let client = client.expect("client socket I/O");

        let mut out = Rep { attempted: sessions as u64, ..Rep::default() };
        for (id, recovered) in client.recovered.iter().enumerate() {
            let expected = &self.payloads[id % self.payloads.len()];
            let late = self
                .shape
                .late_after
                .is_some_and(|limit| client.done_ms[id] > limit.as_secs_f64() * 1e3);
            match recovered {
                Some(bytes) if bytes == expected => {
                    out.payload_bytes += bytes.len() as u64;
                    out.unit_ms.push(client.done_ms[id]);
                    out.failed += u64::from(late);
                }
                Some(_) => out.mismatched += 1,
                None => out.failed += 1,
            }
        }
        out.net = NetCounts {
            wire_bytes: served.iter().map(|t| t.report.bytes_sent).sum(),
            frames_sent: served.iter().map(|t| t.report.frames_sent).sum(),
            announces_sent: served.iter().map(|t| t.report.announces_sent).sum(),
            sessions: served.len() as u64,
            frames_needed: self.frames_needed(),
            received: client.received,
            innovative: client.innovative,
            channel_rx_datagrams: 0,
            client_cpu_s: client.cpu_s,
        };
        out.wall_s = started.elapsed().as_secs_f64();
        out
    }

    fn min_reps(&self) -> usize {
        self.shape.min_reps
    }

    fn single_rep(&self) -> bool {
        self.shape.single_rep
    }

    fn describe(&self) -> String {
        let pace = match self.shape.pace {
            Some((rate, burst)) => format!("paced {rate:.0} B/s per session (burst {burst:.0} B)"),
            None => "unpaced".to_string(),
        };
        format!(
            "{}, {} shard thread(s) + 1 client thread, loopback UDP, {pace}; {} sessions x {} B \
             ({} distinct), dense {} x {} B, window {} frames, SO_RCVBUF request {} B",
            self.shape.loop_kind,
            self.shards,
            self.shape.sessions,
            self.shape.stream_bytes,
            self.payloads.len(),
            self.shape.blocks,
            self.shape.block_bytes,
            self.shape.window_frames,
            RCVBUF_REQUEST_BYTES
        )
    }
}
