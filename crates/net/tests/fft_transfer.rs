//! End-to-end transfers with the FFT16 erasure backend negotiated over
//! the wire: the sender announces `CodecId::Fft16`, the receiver builds
//! the matching decoder from the registry, and the transfer recovers
//! bit-exact through loss — or, on a clean link, reassembles every
//! segment by pure copy (the systematic fast path, asserted via the
//! `fft.systematic_fast_path` counter).

use nc_net::channel::{memory_pair, FaultProfile, FaultyChannel};
use nc_net::receiver::{run_receiver, ReceiverConfig, ReceiverSession};
use nc_net::sender::send_stream;
use nc_net::session::{SenderConfig, SenderOutcome};
use nc_net::{make_sender, CodecId, ShardedServer, ShardedServerConfig, UdpChannel};
use nc_rlnc::codec::StreamCodecSender;
use nc_rlnc::CodingConfig;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Deterministic pseudo-random payload (content is part of the vector).
fn payload(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i.wrapping_mul(2654435761) >> 7) as u8).collect()
}

fn sender_config(loss_prior: f64) -> SenderConfig {
    SenderConfig {
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

fn fft_sender(coding: CodingConfig, data: &[u8]) -> Arc<dyn StreamCodecSender> {
    make_sender(CodecId::Fft16, coding, data).expect("even block size, non-empty data")
}

#[test]
fn fft_stream_over_20pct_loss_is_bit_exact() {
    let coding = CodingConfig::new(64, 512).expect("valid");
    let data = payload(150_000); // 5 segments of 32 KiB
    let encoder = fft_sender(coding, &data);
    assert_eq!(encoder.codec(), CodecId::Fft16);

    let (tx_end, rx_end) = memory_pair();
    let mut tx_end = FaultyChannel::new(tx_end, FaultProfile::lossy(0.20), 77);
    // lint: allow(thread-spawn) — test driver thread; product threading goes through nc-pool.
    let receiver = std::thread::spawn(move || {
        let mut rx_end = rx_end;
        let mut session = ReceiverSession::new(1, receiver_config(), Instant::now());
        run_receiver(&mut rx_end, &mut session).expect("memory channel never errors");
        session.into_recovered()
    });
    let report = send_stream(&mut tx_end, encoder, 1, sender_config(0.20), 42)
        .expect("memory channel never errors");

    assert_eq!(receiver.join().unwrap().as_deref(), Some(data.as_slice()), "bit-exact at 20% loss");
    assert_eq!(report.outcome, SenderOutcome::Completed);
    assert_eq!(report.segments_completed, report.segments_total);
    // Reed-Solomon shards are distinct until the 2n pool wraps, so the
    // overhead per innovative frame stays near the channel's 1/(1-p).
    let overhead = report.overhead_ratio().expect("innovative frames reported");
    assert!(overhead < 1.6, "overhead {overhead:.3} out of bounds ({report:?})");
}

#[test]
fn loss_free_fft_transfer_takes_the_systematic_fast_path() {
    let fast_path = nc_telemetry::default_registry().counter("fft.systematic_fast_path");
    let before = fast_path.get();

    let coding = CodingConfig::new(32, 256).expect("valid");
    let data = payload(40_000); // 5 segments of 8 KiB
    let encoder = fft_sender(coding, &data);
    let segments = encoder.total_segments() as u64;

    let (mut tx_end, rx_end) = memory_pair();
    // lint: allow(thread-spawn) — test driver thread; product threading goes through nc-pool.
    let receiver = std::thread::spawn(move || {
        let mut rx_end = rx_end;
        let mut session = ReceiverSession::new(2, receiver_config(), Instant::now());
        run_receiver(&mut rx_end, &mut session).expect("memory channel never errors");
        session.into_recovered()
    });
    let report = send_stream(&mut tx_end, encoder, 2, sender_config(0.0), 7)
        .expect("memory channel never errors");

    assert_eq!(receiver.join().unwrap().as_deref(), Some(data.as_slice()));
    assert_eq!(report.outcome, SenderOutcome::Completed);
    // Every original shard arrived (in-order loss-free channel, originals
    // sent first), so each segment must reassemble by pure copy — no
    // field work. Other tests in this binary can only add to the counter.
    assert!(
        fast_path.get() - before >= segments,
        "systematic fast path not taken: counter moved {} for {} segments",
        fast_path.get() - before,
        segments
    );
}

#[test]
fn server_publishes_fft_content_and_reports_the_codec_id() {
    let coding = CodingConfig::new(64, 512).expect("valid");
    let data = payload(100_000);
    let config = ShardedServerConfig { shards: 1, ..ShardedServerConfig::default() };
    let mut server = ShardedServer::bind("127.0.0.1:0", config).unwrap();
    server.publish(9, fft_sender(coding, &data));
    let addr = server.local_addr().unwrap();

    let handles: Vec<_> = (0..2)
        .map(|_| {
            // lint: allow(thread-spawn) — test driver threads; product threading goes through nc-pool.
            std::thread::spawn(move || {
                let mut channel = UdpChannel::connect("127.0.0.1:0", addr).unwrap();
                let mut rx = ReceiverSession::new(9, receiver_config(), Instant::now());
                run_receiver(&mut channel, &mut rx).unwrap();
                rx.into_recovered()
            })
        })
        .collect();
    let transfers = server.serve(2, Duration::from_secs(30)).unwrap();

    for handle in handles {
        assert_eq!(handle.join().unwrap().as_deref(), Some(data.as_slice()), "bit-exact");
    }
    assert_eq!(transfers.len(), 2);
    for t in &transfers {
        assert_eq!(t.report.segments_completed, t.report.segments_total);
        assert_eq!(
            t.metrics.gauges.get("session.codec_id").copied(),
            Some(f64::from(CodecId::Fft16.to_wire())),
            "per-session snapshot must carry the negotiated codec id"
        );
    }
}
