//! End-to-end transfers with the circular-shift erasure backend negotiated
//! over the wire: the sender announces `CodecId::CircShift`, the receiver
//! builds the matching decoder from the registry, and the transfer
//! recovers bit-exact through loss without a single GF multiplication on
//! either side.

use nc_net::channel::{memory_pair, FaultProfile, FaultyChannel};
use nc_net::receiver::{run_receiver, ReceiverConfig, ReceiverSession};
use nc_net::sender::send_stream;
use nc_net::session::{SenderConfig, SenderOutcome};
use nc_net::{make_sender, Client, CodecId, ShardedServer, ShardedServerConfig, UdpChannel};
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
    }
}

fn circshift_sender(coding: CodingConfig, data: &[u8]) -> Arc<dyn StreamCodecSender> {
    make_sender(CodecId::CircShift, coding, data).expect("valid circshift shape")
}

#[test]
fn circshift_stream_over_20pct_loss_is_bit_exact() {
    let coding = CodingConfig::new(64, 512).expect("valid");
    let data = payload(150_000); // 5 segments of 32 KiB
    let encoder = circshift_sender(coding, &data);
    assert_eq!(encoder.codec(), CodecId::CircShift);
    // L = 521 (smallest odd prime ≥ 513): 9 bytes lift overhead per block.
    assert_eq!(encoder.frame_wire_bytes(), 8 + 521);

    let (tx_end, rx_end) = memory_pair();
    let mut tx_end = FaultyChannel::new(tx_end, FaultProfile::lossy(0.20), 77);
    // lint: allow(thread-spawn) — test driver thread; product threads are scoped (nc-net::shard, nc-cpu).
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
    // Points stay distinct until the L-point space wraps, so the overhead
    // per innovative frame tracks the channel's 1/(1-p).
    let overhead = report.overhead_ratio().expect("innovative frames reported");
    assert!(overhead < 1.6, "overhead {overhead:.3} out of bounds ({report:?})");
}

#[test]
fn server_publishes_circshift_content_and_reports_the_codec_id() {
    let coding = CodingConfig::new(32, 256).expect("valid");
    let data = payload(40_000);
    let config = ShardedServerConfig { shards: 1, ..ShardedServerConfig::default() };
    let mut server = ShardedServer::bind("127.0.0.1:0", config).unwrap();
    // One client socket asks for both: the server keys sessions by
    // (peer, id), so each of the client's sessions has its own id.
    let encoder = circshift_sender(coding, &data);
    server.publish(11, encoder.clone());
    server.publish(12, encoder);
    let channel = UdpChannel::connect("127.0.0.1:0", server.local_addr().unwrap()).unwrap();
    let mut client = Client::new(channel, receiver_config());
    client.request(11);
    client.request(12);

    let (transfers, received) = std::thread::scope(|scope| {
        let received = scope.spawn(|| client.run().unwrap());
        (server.serve(2, Duration::from_secs(30)).unwrap(), received.join().unwrap())
    });
    assert_eq!(received.len(), 2);
    for session in received {
        assert_eq!(session.recovered(), Some(data.as_slice()), "bit-exact");
    }
    assert_eq!(transfers.len(), 2);
    for t in &transfers {
        assert_eq!(t.report.segments_completed, t.report.segments_total);
        assert_eq!(
            t.metrics.gauges.get("session.codec_id").copied(),
            Some(f64::from(CodecId::CircShift.to_wire())),
            "per-session snapshot must carry the negotiated codec id"
        );
    }
}
