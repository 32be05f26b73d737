//! `udp_lossy_1x`: one stream at a time over loopback UDP through a
//! seeded fault injector. Closed loop (the sender's flow window), two
//! threads: the sender on the calling thread, the receiver on its own.
//!
//! Small blocks (16 x 1 KiB) make per-datagram cost — session poll, wire
//! CRC, one syscall per datagram — and the redundancy controller dominate;
//! coding is under a tenth of the time.

use std::io;
use std::net::UdpSocket;
use std::sync::Arc;
use std::time::{Duration, Instant};

use nc_net::channel::{Channel, FaultProfile, FaultyChannel, UdpChannel};
use nc_net::receiver::{run_receiver, ReceiverConfig, ReceiverEvent, ReceiverSession};
use nc_net::sender::send_stream;
use nc_net::session::{SenderConfig, SenderEvent, SenderReport, SenderSession};
use nc_net::wire::Datagram;
use nc_net::ReceiverReport;
use nc_pool::BytesPool;
use nc_rlnc::codec::StreamCodecSender;
use nc_rlnc::stream::StreamEncoder;
use nc_rlnc::CodingConfig;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::host::{sub_seed, thread_cpu_seconds};
use crate::spans::Tracer;
use crate::workload::{NetCounts, Rep, Sizing, Workload};

/// What one point-to-point transfer measured.
pub struct Transfer {
    /// Receiver's first request to its recovery, milliseconds.
    pub transfer_ms: f64,
    pub recovered: Option<Vec<u8>>,
    pub sender: SenderReport,
    pub receiver: ReceiverReport,
    pub receiver_cpu_s: f64,
}

/// Pushes `encoder`'s stream over a fresh pair of loopback sockets, the
/// sender's datagrams passing through `faults` (seeded by `fault_seed`).
///
/// An untraced call runs the crate's own blocking drivers
/// (`send_stream` / `run_receiver`). A traced call replaces them with
/// this file's pumps, which make the same public calls in the same order
/// with a span around each.
///
/// # Errors
///
/// Socket errors; datagram loss is not one.
pub fn transfer_over_udp(
    encoder: Arc<dyn StreamCodecSender>,
    faults: FaultProfile,
    fault_seed: u64,
    sender_config: SenderConfig,
    session_seed: u64,
    tr: &mut Tracer,
) -> io::Result<Transfer> {
    let rx_socket = UdpSocket::bind("127.0.0.1:0")?;
    let tx_socket = UdpSocket::bind("127.0.0.1:0")?;
    rx_socket.connect(tx_socket.local_addr()?)?;
    tx_socket.connect(rx_socket.local_addr()?)?;
    let mut tx = FaultyChannel::new(UdpChannel::from_socket(tx_socket), faults, fault_seed);
    let mut rx = UdpChannel::from_socket(rx_socket);
    let receiver_config =
        ReceiverConfig { deadline: sender_config.deadline, ..ReceiverConfig::default() };
    let mut rx_tracer = tr.fork();

    let (sender, received) = std::thread::scope(|scope| {
        let rx_tracer = &mut rx_tracer;
        let receiver = scope.spawn(move || -> io::Result<_> {
            let started = Instant::now();
            let mut session = ReceiverSession::new(1, receiver_config, started);
            let report = if rx_tracer.is_enabled() {
                pump_receiver(&mut rx, &mut session, rx_tracer)?
            } else {
                run_receiver(&mut rx, &mut session)?
            };
            let transfer_ms = started.elapsed().as_secs_f64() * 1e3;
            Ok((transfer_ms, session.into_recovered(), report, thread_cpu_seconds()))
        });
        let sender = if tr.is_enabled() {
            SenderSession::new(encoder, 1, sender_config, session_seed, Instant::now())
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))
                .and_then(|mut session| pump_sender(&mut tx, &mut session, tr))
        } else {
            send_stream(&mut tx, encoder, 1, sender_config, session_seed)
        };
        (sender, receiver.join().expect("receiver thread does not panic"))
    });
    tr.absorb(rx_tracer);
    let (transfer_ms, recovered, receiver, receiver_cpu_s) = received?;
    Ok(Transfer { transfer_ms, recovered, sender: sender?, receiver, receiver_cpu_s })
}

/// `run_sender`, call for call, with a span around each call.
fn pump_sender<C: Channel>(
    channel: &mut C,
    session: &mut SenderSession,
    tr: &mut Tracer,
) -> io::Result<SenderReport> {
    fn feedback<C: Channel>(
        channel: &mut C,
        session: &mut SenderSession,
        tr: &mut Tracer,
        timeout: Duration,
    ) -> io::Result<bool> {
        let s = tr.begin("Channel::recv_timeout");
        let incoming = channel.recv_timeout(timeout);
        tr.end(s);
        let Some(bytes) = incoming? else { return Ok(false) };
        if let Ok(datagram) = Datagram::decode(&bytes) {
            let s = tr.begin("SenderSession::handle_datagram");
            session.handle_datagram(&datagram, Instant::now());
            tr.end(s);
        }
        Ok(true)
    }
    loop {
        let s = tr.begin("SenderSession::poll");
        let event = session.poll(Instant::now());
        tr.end(s);
        match event {
            SenderEvent::Transmit(bytes) => {
                let s = tr.begin("Channel::send");
                let sent = channel.send(&bytes);
                tr.end(s);
                sent?;
                BytesPool::global().recycle(bytes);
                while feedback(channel, session, tr, Duration::ZERO)? {}
            }
            SenderEvent::Wait(timeout) => {
                if timeout < Duration::from_millis(1) {
                    while feedback(channel, session, tr, Duration::ZERO)? {}
                    std::thread::sleep(timeout);
                } else if feedback(channel, session, tr, timeout)? {
                    while feedback(channel, session, tr, Duration::ZERO)? {}
                }
            }
            SenderEvent::Finished => return Ok(session.report(Instant::now())),
        }
    }
}

/// `run_receiver`, call for call, with a span around each call.
fn pump_receiver<C: Channel>(
    channel: &mut C,
    session: &mut ReceiverSession,
    tr: &mut Tracer,
) -> io::Result<ReceiverReport> {
    fn absorb<C: Channel>(
        channel: &mut C,
        session: &mut ReceiverSession,
        tr: &mut Tracer,
        timeout: Duration,
    ) -> io::Result<bool> {
        let s = tr.begin("Channel::recv_timeout");
        let incoming = channel.recv_timeout(timeout);
        tr.end(s);
        let Some(bytes) = incoming? else { return Ok(false) };
        let s = tr.begin("ReceiverSession::handle_bytes");
        session.handle_bytes(&bytes, Instant::now());
        tr.end(s);
        Ok(true)
    }
    loop {
        let s = tr.begin("ReceiverSession::poll");
        let event = session.poll(Instant::now());
        tr.end(s);
        match event {
            ReceiverEvent::Transmit(bytes) => {
                let s = tr.begin("Channel::send");
                let sent = channel.send(&bytes);
                tr.end(s);
                sent?;
                BytesPool::global().recycle(bytes);
                while absorb(channel, session, tr, Duration::ZERO)? {}
            }
            ReceiverEvent::Wait(timeout) => {
                if absorb(channel, session, tr, timeout)? {
                    while absorb(channel, session, tr, Duration::ZERO)? {}
                }
            }
            ReceiverEvent::Finished => return Ok(session.report()),
        }
    }
}

/// Folds one transfer into a repetition's counts.
fn count_transfer(out: &mut Rep, t: &Transfer, expected: &[u8]) {
    out.attempted += 1;
    match &t.recovered {
        Some(bytes) if bytes == expected => {
            out.payload_bytes += bytes.len() as u64;
            out.unit_ms.push(t.transfer_ms);
        }
        Some(_) => out.mismatched += 1,
        None => out.failed += 1,
    }
    out.net.add(&NetCounts {
        wire_bytes: t.sender.bytes_sent,
        frames_sent: t.sender.frames_sent,
        announces_sent: t.sender.announces_sent,
        sessions: 1,
        frames_needed: 0,
        received: t.receiver.received,
        innovative: t.receiver.innovative,
        channel_rx_datagrams: t.receiver.received + t.sender.acks_received,
        client_cpu_s: t.receiver_cpu_s,
    });
}

/// The workload: see the module docs.
pub struct UdpLossy {
    data: Vec<u8>,
    encoder: Arc<StreamEncoder>,
    seed: u64,
}

impl UdpLossy {
    pub const BLOCKS: usize = 16;
    pub const BLOCK_BYTES: usize = 1024;
    pub const STREAM_BYTES: usize = 8 << 20;
    /// 64 frames x ~2.3 KB of socket-buffer accounting each stays under
    /// the default 208 KiB `SO_RCVBUF` (`UdpChannel` offers no way to
    /// raise it), so the flow window closes the loop, not kernel drops.
    pub const WINDOW_FRAMES: u64 = 64;

    pub fn faults() -> FaultProfile {
        FaultProfile::lossy(0.20).with_reorder(0.05, 8)
    }

    pub fn sender_config() -> SenderConfig {
        SenderConfig {
            window_frames: UdpLossy::WINDOW_FRAMES,
            deadline: Some(Duration::from_secs(60)),
            ..SenderConfig::default()
        }
    }

    pub fn setup(seed: u64, sizing: Sizing) -> UdpLossy {
        let bytes = if sizing.smoke { 256 << 10 } else { UdpLossy::STREAM_BYTES };
        let mut data = vec![0u8; bytes];
        StdRng::seed_from_u64(sub_seed(seed, "udp.payload")).fill_bytes(&mut data);
        let config = CodingConfig::new(UdpLossy::BLOCKS, UdpLossy::BLOCK_BYTES).expect("valid");
        let encoder = Arc::new(StreamEncoder::new(config, &data).expect("non-empty stream"));
        UdpLossy { data, encoder, seed }
    }
}

impl Workload for UdpLossy {
    fn rep(&mut self, rep: usize, tr: &mut Tracer) -> Rep {
        let started = Instant::now();
        let mut out = Rep::default();
        let span = tr.begin("transfer");
        let transfer = transfer_over_udp(
            self.encoder.clone(),
            UdpLossy::faults(),
            sub_seed(self.seed, "udp.faults").wrapping_add(rep as u64),
            UdpLossy::sender_config(),
            sub_seed(self.seed, "udp.coefficients").wrapping_add(rep as u64),
            tr,
        )
        .expect("loopback socket I/O");
        tr.end(span);
        count_transfer(&mut out, &transfer, &self.data);
        out.net.frames_needed = (self.encoder.total_segments() * UdpLossy::BLOCKS) as u64;
        out.wall_s = started.elapsed().as_secs_f64();
        out
    }

    fn min_reps(&self) -> usize {
        5
    }

    fn describe(&self) -> String {
        format!(
            "closed loop (flow window {} frames), 2 threads, loopback UDP, unpaced; one {} B \
             stream, dense {} x {} B, 20% drop + 5% reorder depth 8",
            UdpLossy::WINDOW_FRAMES,
            self.data.len(),
            UdpLossy::BLOCKS,
            UdpLossy::BLOCK_BYTES
        )
    }
}
