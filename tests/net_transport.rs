//! End-to-end acceptance tests for the UDP coded transport: the loss
//! matrix (drop × reorder × duplication, seeded and reproducible), a
//! multi-megabyte real-socket loopback transfer, hostile-input fuzzing of
//! the wire path, and the encoder's `Sync` contract.
//!
//! Everything recovers via rateless coding only — there is no
//! retransmission path in the transport to fall back on.

use extreme_nc::net::channel::{memory_pair, Channel, FaultProfile, FaultyChannel, UdpChannel};
use extreme_nc::net::receiver::{run_receiver, ReceiverConfig, ReceiverEvent, ReceiverSession};
use extreme_nc::net::sender::send_stream;
use extreme_nc::net::server::ServerConfig;
use extreme_nc::net::session::{
    SenderConfig, SenderEvent, SenderOutcome, SenderReport, SenderSession,
};
use extreme_nc::net::shard::{ShardedServer, ShardedServerConfig};
use extreme_nc::net::wire::{Datagram, DatagramRef, Payload, HEADER_BYTES};
use extreme_nc::rlnc::stream::{StreamEncoder, StreamFrame};
use extreme_nc::rlnc::CodingConfig;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Deterministic pseudo-random payload (no RNG: content is part of the
/// test vector).
fn payload(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i.wrapping_mul(2654435761) >> 7) as u8).collect()
}

fn sender_config(loss_prior: f64, pace: f64) -> SenderConfig {
    SenderConfig {
        pace_bytes_per_s: Some(pace),
        burst_bytes: 64.0 * 1024.0,
        initial_loss: loss_prior,
        idle_timeout: Duration::from_secs(10),
        deadline: Some(Duration::from_secs(60)),
        ..SenderConfig::default()
    }
}

fn receiver_config() -> ReceiverConfig {
    ReceiverConfig {
        idle_timeout: Duration::from_secs(10),
        deadline: Some(Duration::from_secs(60)),
        ..ReceiverConfig::default()
    }
}

/// Runs one transfer through a fault profile on the data path over an
/// in-process pair; returns the sender report and recovered bytes.
fn transfer_through(
    data: &[u8],
    coding: CodingConfig,
    profile: FaultProfile,
    seed: u64,
    loss_prior: f64,
) -> (SenderReport, Option<Vec<u8>>) {
    let encoder = Arc::new(StreamEncoder::new(coding, data).expect("non-empty"));
    let (tx_end, rx_end) = memory_pair();
    let mut tx_end = FaultyChannel::new(tx_end, profile, seed);

    let receiver = std::thread::spawn(move || {
        let mut rx_end = rx_end;
        let mut session = ReceiverSession::new(1, receiver_config(), Instant::now());
        run_receiver(&mut rx_end, &mut session).expect("memory channel never errors");
        session.into_recovered()
    });
    let report = send_stream(&mut tx_end, encoder, 1, sender_config(loss_prior, 16.0e6), seed)
        .expect("memory channel never errors");
    (report, receiver.join().expect("receiver thread"))
}

#[test]
fn loss_matrix_recovers_bit_exact_within_overhead_bounds() {
    // (drop rate, overhead bound). The hostile profile stacks reordering,
    // duplication, and 1% bit corruption on top of every drop rate, so the
    // bounds leave room above the ideal 1/(1-p).
    let matrix = [(0.00, 1.15), (0.05, 1.25), (0.20, 1.45), (0.40, 2.00)];
    let coding = CodingConfig::new(16, 512).expect("valid");
    let data = payload(200_000); // 25 segments

    for (round, (drop, bound)) in matrix.into_iter().enumerate() {
        let profile = FaultProfile::hostile(drop);
        let (report, recovered) =
            transfer_through(&data, coding, profile, 1000 + round as u64, drop);
        assert_eq!(
            recovered.as_deref(),
            Some(data.as_slice()),
            "bit-exact recovery at {}% drop",
            drop * 100.0
        );
        assert_eq!(report.outcome, SenderOutcome::Completed);
        let overhead = report.overhead_ratio().expect("innovative frames reported");
        assert!(
            overhead < bound,
            "overhead {overhead:.3} >= {bound} at {}% drop ({report:?})",
            drop * 100.0
        );
        assert_eq!(report.segments_completed, report.segments_total);

        // The redundancy controller's loss estimate must land in a band
        // around the injected drop rate. The hostile profile stacks 1%
        // corruption on top, and ACK bitmaps lag the send counter, so the
        // band is generous — but a controller stuck at its prior or pinned
        // to a clamp edge falls outside it.
        assert!(
            (0.0..0.95).contains(&report.loss_estimate),
            "loss estimate {} outside its clamp range",
            report.loss_estimate
        );
        if drop == 0.20 {
            assert!(
                (0.10..0.35).contains(&report.loss_estimate),
                "loss estimate {:.3} not in a sane band around 20% injected loss ({report:?})",
                report.loss_estimate
            );
        }
    }
}

#[test]
fn telemetry_snapshot_is_consistent_with_the_session_report() {
    // One lossy transfer, bracketed by global-registry snapshots: the
    // counter deltas must cover everything the session report claims (other
    // tests run in parallel against the same process-wide registry, so the
    // deltas may only over-count, never under-count), and the snapshot must
    // survive a JSON round-trip bit-exactly.
    use extreme_nc::telemetry::Snapshot;

    let before = extreme_nc::telemetry::snapshot();
    let coding = CodingConfig::new(16, 512).expect("valid");
    let data = payload(100_000);
    let (report, recovered) = transfer_through(&data, coding, FaultProfile::lossy(0.10), 33, 0.10);
    assert_eq!(recovered.as_deref(), Some(data.as_slice()));
    let after = extreme_nc::telemetry::snapshot();

    let delta = |name: &str| {
        after.counters.get(name).copied().unwrap_or(0)
            - before.counters.get(name).copied().unwrap_or(0)
    };
    assert!(
        delta("net.frames_sent") >= report.frames_sent,
        "global frames_sent delta {} below report {}",
        delta("net.frames_sent"),
        report.frames_sent
    );
    assert!(delta("net.acks_received") >= report.acks_received);
    assert!(delta("net.sessions_started") >= 1);
    assert!(delta("net.sessions_completed") >= 1);
    assert!(delta("net.frames_dropped") >= 1, "10% injected loss left no drop trace");
    assert!(delta("core.blocks_coded") >= report.frames_sent, "every frame codes a block");

    // The mirrored loss-estimate gauge is last-writer-wins across parallel
    // sessions, so it cannot be pinned to *this* report's value — but it
    // must always hold a clamped estimate from *some* live session.
    let estimate = after.gauges.get("net.loss_estimate").copied().expect("gauge registered");
    assert!((0.0..0.95).contains(&estimate), "mirrored loss estimate {estimate} out of range");

    let json = after.to_json();
    let parsed = Snapshot::from_json(&json).expect("snapshot JSON parses");
    assert_eq!(parsed, after, "snapshot JSON round-trip");
}

#[test]
fn transfer_survives_ack_loss_on_the_reverse_path() {
    // 10% hostile data path AND 30% loss on the feedback path: the stall
    // trickle plus repeated announce/FIN keep the session live.
    let coding = CodingConfig::new(16, 512).expect("valid");
    let data = payload(100_000);
    let encoder = Arc::new(StreamEncoder::new(coding, &data).expect("non-empty"));
    let (tx_end, rx_end) = memory_pair();
    let mut tx_end = FaultyChannel::new(tx_end, FaultProfile::hostile(0.10), 7);
    let mut rx_end = FaultyChannel::new(rx_end, FaultProfile::lossy(0.30), 8);

    let receiver = std::thread::spawn(move || {
        let mut session = ReceiverSession::new(2, receiver_config(), Instant::now());
        run_receiver(&mut rx_end, &mut session).expect("memory channel never errors");
        session.into_recovered()
    });
    let report = send_stream(&mut tx_end, encoder, 2, sender_config(0.10, 16.0e6), 7)
        .expect("memory channel never errors");
    assert_eq!(receiver.join().expect("join").as_deref(), Some(data.as_slice()));
    assert_eq!(report.outcome, SenderOutcome::Completed);
}

#[test]
fn four_megabytes_over_real_udp_at_twenty_percent_loss() {
    // The ISSUE's flagship acceptance: a multi-segment, >= 4 MB stream over
    // a real UdpSocket pair on 127.0.0.1, 20% loss plus reordering injected
    // by a seeded FaultyChannel around the sender's socket. Recovery is
    // rateless only, and the overhead ratio must stay under 1.35.
    let coding = CodingConfig::new(16, 2048).expect("valid"); // 32 KiB segments
    let data = payload(4 * 1024 * 1024); // 128 segments
    let encoder = Arc::new(StreamEncoder::new(coding, &data).expect("non-empty"));

    let receiver_socket = std::net::UdpSocket::bind("127.0.0.1:0").expect("bind");
    let sender_socket = std::net::UdpSocket::bind("127.0.0.1:0").expect("bind");
    let receiver_addr = receiver_socket.local_addr().expect("addr");
    let sender_addr = sender_socket.local_addr().expect("addr");
    receiver_socket.connect(sender_addr).expect("connect");
    sender_socket.connect(receiver_addr).expect("connect");

    let profile = FaultProfile::lossy(0.20).with_reorder(0.05, 8);
    let mut tx_end = FaultyChannel::new(UdpChannel::from_socket(sender_socket), profile, 99);

    let receiver = std::thread::spawn(move || {
        let mut rx_end = UdpChannel::from_socket(receiver_socket);
        let mut session = ReceiverSession::new(4, receiver_config(), Instant::now());
        let report = run_receiver(&mut rx_end, &mut session).expect("socket I/O");
        (session.into_recovered(), report)
    });
    let report =
        send_stream(&mut tx_end, encoder, 4, sender_config(0.20, 32.0e6), 99).expect("socket I/O");
    let (recovered, rx_report) = receiver.join().expect("receiver thread");

    assert_eq!(recovered.as_deref(), Some(data.as_slice()), "bit-exact over real UDP");
    assert_eq!(report.outcome, SenderOutcome::Completed);
    let overhead = report.overhead_ratio().expect("innovative frames reported");
    assert!(overhead < 1.35, "overhead {overhead:.3} >= 1.35 ({report:?})");
    assert!(rx_report.decode_latency.is_some(), "decode latency recorded");
    let stats = tx_end.fault_stats();
    let observed = stats.dropped as f64 / stats.admitted as f64;
    assert!((0.15..0.25).contains(&observed), "injected loss was real: {stats:?}");
}

#[test]
fn stream_encoder_is_sync() {
    // Compile-time: one encoder instance may feed many sender threads.
    fn assert_sync_send<T: Sync + Send>() {}
    assert_sync_send::<StreamEncoder>();
    assert_sync_send::<Arc<StreamEncoder>>();
}

/// The first data datagram of a fixed (stream, session id, seed): segment
/// 0, seq 0, so source block 0 verbatim under the unit coefficients `e_0`.
/// A drift in the header layout, the frame layout, the systematic rule or
/// the CRC fails here, in `cargo test -q`.
const GOLDEN_DATA_DATAGRAM: &str = "4e434e4302030000efcdab89674523014229978900000000\
     020000000100000000f3e6dacdc0b4a79b8e8175685b4f42";

/// The same session's first coded data datagram: segment 0, seq `n` = 4,
/// the session RNG's first draw. It pins the coefficient draw order, the
/// RNG, the layout and the CRC.
const GOLDEN_CODED_DATAGRAM: &str = "4e434e4302030000efcdab896745230101395b0500000000\
     02000000e5d86be5bbbe14d6ecb7be8d3f264aeff22fac65";

#[test]
fn first_data_datagram_matches_the_checked_in_golden_bytes() {
    let coding = CodingConfig::new(4, 16).expect("valid");
    let encoder = Arc::new(StreamEncoder::new(coding, &payload(100)).expect("non-empty"));
    let config = SenderConfig::default();
    let stall_grace = config.stall_grace;
    let mut now = Instant::now();
    let mut session = SenderSession::new(encoder, 0x0123_4567_89AB_CDEF, config, 2009, now)
        .expect("frame fits a datagram");
    // Two segments with a budget of n = 4 frames each, round-robin: data
    // datagram 2s is segment 0's frame s. The ninth waits for the stall
    // trickle, which grants budget past n.
    let mut data = Vec::new();
    while data.len() < 9 {
        match session.poll(now) {
            SenderEvent::Transmit(bytes) if bytes[5] == 3 => data.push(bytes),
            SenderEvent::Transmit(_) => {} // the announce
            SenderEvent::Wait(_) => now += stall_grace,
            SenderEvent::Finished => panic!("finished without feedback"),
        }
    }
    let hex = |bytes: &[u8]| bytes.iter().map(|byte| format!("{byte:02x}")).collect::<String>();
    assert_eq!(hex(&data[0]), GOLDEN_DATA_DATAGRAM);
    assert_eq!(hex(&data[8]), GOLDEN_CODED_DATAGRAM);
    for datagram in [&data[0], &data[8]] {
        let parsed = DatagramRef::parse(datagram).expect("golden datagram parses");
        assert_eq!(parsed.session, 0x0123_4567_89AB_CDEF);
        assert!(matches!(parsed.payload, Payload::Data(frame) if frame.len() == 8 + 4 + 16));
    }
    let frame = &data[0][HEADER_BYTES..];
    assert_eq!(&frame[8..12], [1, 0, 0, 0], "seq 0 carries e_0");
    assert_eq!(&frame[12..], &payload(100)[..16], "and source block 0 verbatim");
}

#[test]
fn receiver_state_machine_swallows_arbitrary_garbage() {
    // A deterministic sweep (cheap complement to the proptests below):
    // headers with every kind byte, random lengths, and truncated numbers
    // must never panic the session.
    let mut session = ReceiverSession::new(9, ReceiverConfig::default(), Instant::now());
    for kind in 0u8..=255 {
        for len in [0usize, 1, 7, 19, 20, 21, 40] {
            let mut bytes = vec![kind; len];
            if len >= 4 {
                bytes[0..4].copy_from_slice(b"NCNC");
            }
            session.handle_bytes(&bytes, Instant::now());
        }
    }
    assert!(!session.is_complete());
}

proptest! {
    /// Datagram decode is total: arbitrary bytes never panic.
    #[test]
    fn datagram_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let _ = Datagram::decode(&bytes);
    }

    /// StreamFrame parsing is total for any config/byte combination.
    #[test]
    fn stream_frame_from_wire_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
        blocks in 1usize..32,
        block_size in 1usize..64,
    ) {
        let config = CodingConfig::new(blocks, block_size).expect("valid");
        let _ = StreamFrame::from_wire(config, &bytes);
    }

    /// Every truncation of a valid datagram is rejected, and any bit flip
    /// is either rejected or (for multi-bit CRC collisions, which a seeded
    /// run never hits) decodes to something — never a panic, never a
    /// silent mis-parse of the original.
    #[test]
    fn corrupted_datagrams_never_misparse(
        session in any::<u64>(),
        data in proptest::collection::vec(any::<u8>(), 1..256),
        cut in 0usize..100,
        flip_bit in 0usize..1024,
    ) {
        let original = Datagram::new(session, Payload::Data(data));
        let wire = original.encode().expect("in-bounds");

        let cut = cut.min(wire.len().saturating_sub(1));
        prop_assert!(Datagram::decode(&wire[..cut]).is_err(), "truncation accepted");

        let mut flipped = wire.clone();
        let bit = flip_bit % (wire.len() * 8);
        flipped[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(Datagram::decode(&flipped).is_err(), "single bit flip accepted");

        let roundtrip = Datagram::decode(&wire).expect("clean datagram decodes");
        prop_assert_eq!(roundtrip, original);
    }

    /// The borrowed parser and the owned decoder are one parser: on
    /// arbitrary bytes, and on a valid datagram truncated or with one bit
    /// flipped, both give the same value or the same error — and a parsed
    /// data frame is a view of the input, not a copy.
    #[test]
    fn borrowed_parse_and_owned_decode_agree(
        noise in proptest::collection::vec(any::<u8>(), 0..256),
        session in any::<u64>(),
        data in proptest::collection::vec(any::<u8>(), 0..256),
        cut in 0usize..300,
        flip_bit in 0usize..4096,
    ) {
        let wire = Datagram::new(session, Payload::Data(data)).encode().expect("in-bounds");
        let mut flipped = wire.clone();
        let bit = flip_bit % (wire.len() * 8);
        flipped[bit / 8] ^= 1 << (bit % 8);
        let truncated = &wire[..cut.min(wire.len())];
        for bytes in [&noise[..], &wire[..], truncated, &flipped[..]] {
            let parsed = DatagramRef::parse(bytes);
            if let Ok(Datagram { payload: Payload::Data(frame), .. }) = &parsed {
                prop_assert!(std::ptr::eq(*frame, &bytes[HEADER_BYTES..]));
            }
            prop_assert_eq!(parsed.map(DatagramRef::into_owned), Datagram::decode(bytes));
        }
    }

    /// Feeding a live receiver session arbitrary bytes never panics.
    #[test]
    fn receiver_session_is_total(
        datagrams in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..128), 0..32),
    ) {
        let mut session = ReceiverSession::new(3, ReceiverConfig::default(), Instant::now());
        for bytes in &datagrams {
            session.handle_bytes(bytes, Instant::now());
        }
        let _ = session.report();
    }
}

/// Binds loopback sockets until one lands on a port whose `(peer,
/// session)` hash maps to `shard`, so a test can force co-residency.
fn socket_on_shard(
    server: std::net::SocketAddr,
    session: u64,
    shards: usize,
    shard: usize,
) -> std::net::UdpSocket {
    loop {
        let socket = std::net::UdpSocket::bind("127.0.0.1:0").expect("bind");
        let addr = socket.local_addr().expect("addr");
        if extreme_nc::net::shard::shard_owner(addr, session, shards) == shard {
            socket.connect(server).expect("connect");
            return socket;
        }
    }
}

/// A deliberately slow receiver driver: `run_receiver`'s loop with a
/// sleep after every handled datagram, modelling a peer whose feedback
/// and decode lag far behind the wire.
fn slow_receive(socket: std::net::UdpSocket, session: u64, delay: Duration) -> Option<Vec<u8>> {
    let mut channel = UdpChannel::from_socket(socket);
    let mut rx = ReceiverSession::new(session, receiver_config(), Instant::now());
    loop {
        match rx.poll(Instant::now()) {
            ReceiverEvent::Transmit(bytes) => {
                channel.send(&bytes).expect("send feedback");
                while let Some(incoming) = channel.recv_timeout(Duration::ZERO).expect("drain") {
                    rx.handle_bytes(&incoming, Instant::now());
                    std::thread::sleep(delay);
                }
            }
            ReceiverEvent::Wait(timeout) => {
                if let Some(incoming) = channel.recv_timeout(timeout).expect("recv") {
                    rx.handle_bytes(&incoming, Instant::now());
                    std::thread::sleep(delay);
                }
            }
            ReceiverEvent::Finished => return rx.into_recovered(),
        }
    }
}

/// §5.1.1 fairness: one fast and one artificially slow receiver pinned to
/// the *same* shard. `burst_per_step` bounds how many frames the fast
/// peer can grab per scheduling step, so the slow transfer still
/// completes bit-exact instead of starving behind the fast one — and the
/// per-transfer `session.max_burst_per_step` metric proves the bound
/// held.
#[test]
fn same_shard_fast_and_slow_receivers_share_fairly() {
    const SESSION: u64 = 21;
    const SHARDS: usize = 2;
    const BURST: u32 = 8;

    let coding = CodingConfig::new(8, 256).expect("valid");
    let data = payload(96_000);
    let encoder = Arc::new(StreamEncoder::new(coding, &data).expect("non-empty"));

    let config = ShardedServerConfig {
        shards: SHARDS,
        server: ServerConfig { burst_per_step: BURST, ..ServerConfig::default() },
        ..ShardedServerConfig::default()
    };
    let mut server = ShardedServer::bind("127.0.0.1:0", config).expect("bind group");
    server.publish(SESSION, encoder);
    let addr = server.local_addr().expect("addr");

    // Both receivers hash to shard 0: they compete for the same loop.
    let fast_socket = socket_on_shard(addr, SESSION, SHARDS, 0);
    let slow_socket = socket_on_shard(addr, SESSION, SHARDS, 0);

    let fast = std::thread::spawn(move || {
        let mut channel = UdpChannel::from_socket(fast_socket);
        let mut rx = ReceiverSession::new(SESSION, receiver_config(), Instant::now());
        run_receiver(&mut channel, &mut rx).expect("fast receiver");
        rx.into_recovered()
    });
    let slow =
        std::thread::spawn(move || slow_receive(slow_socket, SESSION, Duration::from_millis(2)));

    let transfers = server.serve(2, Duration::from_secs(60)).expect("serve");

    assert_eq!(fast.join().expect("fast thread").as_deref(), Some(data.as_slice()), "fast exact");
    assert_eq!(
        slow.join().expect("slow thread").as_deref(),
        Some(data.as_slice()),
        "slow transfer completes despite a fast competitor on its shard"
    );
    assert_eq!(transfers.len(), 2, "both transfers reaped");
    for t in &transfers {
        assert_eq!(t.shard, 0, "co-resident by construction");
        assert_eq!(
            t.shard,
            extreme_nc::net::shard::shard_owner(t.peer, t.session, SHARDS),
            "served by its owner"
        );
        let burst = t.metrics.counter("session.max_burst_per_step").expect("burst metric attached");
        assert!(burst <= u64::from(BURST), "burst bound held: {burst} > {BURST}");
        assert!(burst > 0, "burst metric records real steps");
    }
}

#[test]
fn memory_and_udp_channels_share_semantics() {
    // The same tiny exchange over both substrates: the Channel seam is
    // substrate-agnostic, which is what lets the loss matrix (memory) vouch
    // for the loopback test (UDP).
    fn exchange<C: Channel>(a: &mut C, b: &mut C) {
        a.send(b"one").expect("send");
        a.send(b"two").expect("send");
        assert_eq!(b.recv_timeout(Duration::from_millis(200)).expect("recv").unwrap(), b"one");
        assert_eq!(b.recv_timeout(Duration::from_millis(200)).expect("recv").unwrap(), b"two");
        assert_eq!(b.recv_timeout(Duration::ZERO).expect("poll"), None);
    }
    let (mut a, mut b) = memory_pair();
    exchange(&mut a, &mut b);

    let sa = std::net::UdpSocket::bind("127.0.0.1:0").expect("bind");
    let sb = std::net::UdpSocket::bind("127.0.0.1:0").expect("bind");
    sa.connect(sb.local_addr().expect("addr")).expect("connect");
    sb.connect(sa.local_addr().expect("addr")).expect("connect");
    let mut ua = UdpChannel::from_socket(sa);
    let mut ub = UdpChannel::from_socket(sb);
    exchange(&mut ua, &mut ub);
}
