//! The point-to-point UDP path really batches its syscalls, and coalesces
//! its bursts into fewer kernel messages than datagrams. Alone in its
//! file so it runs in its own process: `net.syscalls` and the datagram
//! counters live in the process-wide registry, and any other transfer
//! would add to them.

use nc_net::{run_receiver, send_stream, BatchSocket, ReceiverConfig, ReceiverSession};
use nc_net::{SenderConfig, SenderOutcome, UdpChannel};
use nc_rlnc::stream::StreamEncoder;
use nc_rlnc::CodingConfig;
use std::net::UdpSocket;
use std::sync::Arc;
use std::time::Instant;

#[test]
fn lossless_megabyte_over_loopback_amortises_syscalls() {
    let counter = |name: &str| nc_telemetry::default_registry().counter(name);
    let (syscalls, tx, rx) =
        (counter("net.syscalls"), counter("net.tx_datagrams"), counter("net.rx_datagrams"));
    let messages = counter("net.tx_messages");

    let data: Vec<u8> = (0..1usize << 20).map(|i| (i * 131 + (i >> 9)) as u8).collect();
    let encoder =
        Arc::new(StreamEncoder::new(CodingConfig::new(16, 1024).unwrap(), &data).unwrap());
    let rx_socket = UdpSocket::bind("127.0.0.1:0").unwrap();
    let tx_socket = UdpSocket::bind("127.0.0.1:0").unwrap();
    rx_socket.connect(tx_socket.local_addr().unwrap()).unwrap();
    tx_socket.connect(rx_socket.local_addr().unwrap()).unwrap();
    let mut tx_end = UdpChannel::from_socket(tx_socket);
    let mut rx_end = UdpChannel::from_socket(rx_socket);

    let before = (syscalls.get(), tx.get(), rx.get(), messages.get());
    let (report, recovered) = std::thread::scope(|scope| {
        let receiver = scope.spawn(move || {
            let mut session = ReceiverSession::new(1, ReceiverConfig::default(), Instant::now());
            run_receiver(&mut rx_end, &mut session).unwrap();
            session.into_recovered()
        });
        let report = send_stream(&mut tx_end, encoder, 1, SenderConfig::default(), 5).unwrap();
        (report, receiver.join().unwrap())
    });
    let (calls, sent, received) =
        (syscalls.get() - before.0, tx.get() - before.1, rx.get() - before.2);
    let sent_messages = messages.get() - before.3;

    assert_eq!(recovered.as_deref(), Some(data.as_slice()), "bit-exact");
    assert_eq!(report.outcome, SenderOutcome::Completed);
    assert!(
        sent >= report.frames_sent,
        "{sent} datagrams counted, {} frames sent",
        report.frames_sent
    );
    assert!(received > 0, "receives are counted");
    let per_datagram = calls as f64 / (sent + received) as f64;
    if BatchSocket::batched() {
        assert!(
            per_datagram <= 0.5,
            "{calls} syscalls for {sent} sent + {received} received datagrams = {per_datagram:.3}"
        );
        // Each burst of equal-length frames to the one peer is one
        // `UDP_SEGMENT` message.
        assert!(sent_messages < sent, "{sent} datagrams went out in {sent_messages} messages");
    } else {
        // One datagram per syscall, plus the mode changes: counted, not amortised.
        assert!(per_datagram >= 1.0, "portable path undercounts: {per_datagram:.3}");
        assert_eq!(sent_messages, sent, "one message per datagram");
    }
}
