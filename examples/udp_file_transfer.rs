//! File transfer over a *real* UDP socket pair, with a seeded fault injector
//! standing in for a bad network: 20% drop plus reordering on the data path.
//! This runs the actual transport — wire datagrams, ACK feedback, pacing,
//! redundancy control — between two OS sockets on loopback.
//!
//! The sender never retransmits a specific packet. Every loss is repaired by
//! the next fresh coded frame, so the only cost of a 20%-loss link is ~25%
//! more frames on the wire.
//!
//! ```bash
//! cargo run --release --example udp_file_transfer
//! ```

use extreme_nc::net::{
    run_receiver, send_stream, FaultProfile, FaultyChannel, ReceiverConfig, ReceiverSession,
    SenderConfig, UdpChannel,
};
use extreme_nc::rlnc::stream::StreamEncoder;
use extreme_nc::rlnc::CodingConfig;
use std::net::UdpSocket;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SESSION: u64 = 0xF11E;

fn main() -> std::io::Result<()> {
    let coding = CodingConfig::new(16, 2048).expect("valid coding config");
    // A 1 MB "file" (32 KB generations of 16 coded blocks each).
    let file: Vec<u8> = (0..1 << 20).map(|i: usize| (i.wrapping_mul(31) >> 3) as u8).collect();
    let encoder = Arc::new(StreamEncoder::new(coding, &file).expect("fits"));
    println!(
        "file: {} bytes -> {} segments x {} blocks of {} bytes",
        file.len(),
        encoder.total_segments(),
        coding.blocks(),
        coding.block_size()
    );

    // Two real sockets on loopback, connected to each other.
    let rx_socket = UdpSocket::bind("127.0.0.1:0")?;
    let tx_socket = UdpSocket::bind("127.0.0.1:0")?;
    rx_socket.connect(tx_socket.local_addr()?)?;
    tx_socket.connect(rx_socket.local_addr()?)?;

    // The sender's outgoing path goes through a deterministic fault injector:
    // 20% drop, 5% of surviving frames held back and released out of order.
    let faults = FaultProfile::lossy(0.20).with_reorder(0.05, 8);
    let mut tx = FaultyChannel::new(UdpChannel::from_socket(tx_socket), faults, 7);

    let receiver = std::thread::spawn(move || -> std::io::Result<(Vec<u8>, _)> {
        let mut rx = UdpChannel::from_socket(rx_socket);
        let config =
            ReceiverConfig { idle_timeout: Duration::from_secs(10), ..ReceiverConfig::default() };
        let mut session = ReceiverSession::new(SESSION, config, Instant::now());
        run_receiver(&mut rx, &mut session)?;
        let report = session.report();
        Ok((session.into_recovered().expect("decoded"), report))
    });

    let config = SenderConfig {
        pace_bytes_per_s: Some(32.0e6), // stay under loopback's drain rate
        initial_loss: 0.20,             // start the redundancy controller warm
        idle_timeout: Duration::from_secs(10),
        ..SenderConfig::default()
    };
    let sent = send_stream(&mut tx, encoder, SESSION, config, 7)?;
    let (recovered, received) = receiver.join().expect("receiver thread")?;

    assert_eq!(recovered, file, "bit-exact recovery");
    let stats = tx.fault_stats();
    println!(
        "injector: {} dropped, {} reordered of {} admitted",
        stats.dropped, stats.reordered, stats.admitted
    );
    println!(
        "sender:   {} frames, {} ACKs heard, finished in {:.0} ms ({:?})",
        sent.frames_sent,
        sent.acks_received,
        sent.elapsed.as_secs_f64() * 1e3,
        sent.outcome
    );
    println!(
        "receiver: {} frames arrived, {} innovative, decode latency {:.0} ms",
        received.received,
        received.innovative,
        received.decode_latency.unwrap_or_default().as_secs_f64() * 1e3
    );
    println!(
        "overhead: {:.3}x the information-theoretic minimum (rateless recovery \
         only — no frame was ever retransmitted)",
        sent.overhead_ratio().unwrap_or(f64::NAN)
    );
    Ok(())
}
