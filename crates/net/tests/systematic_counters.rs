//! Systematic dense coding, seen from telemetry alone: `core.blocks_systematic`
//! counts the frames a dense sender wrote as source blocks verbatim, and
//! `core.rows_solved` the sources a receiver had to solve at completion.
//! One test in its own binary, so the process-wide counters move only for
//! the transfers it runs.

use nc_net::channel::{memory_pair, FaultProfile, FaultyChannel};
use nc_net::receiver::ReceiverConfig;
use nc_net::sender::send_stream;
use nc_net::session::{SenderConfig, SenderOutcome};
use nc_net::Client;
use nc_rlnc::stream::StreamEncoder;
use nc_rlnc::CodingConfig;
use std::sync::Arc;
use std::time::Duration;

/// Counter deltas and link statistics of one transfer.
struct Counted {
    blocks_systematic: u64,
    rows_solved: u64,
    dropped: u64,
}

/// One memory-channel transfer of `data` through `drop` loss on the data
/// path, checked bit-exact.
fn transfer(coding: CodingConfig, data: &[u8], drop: f64, seed: u64) -> Counted {
    let counter = |name: &str| nc_telemetry::snapshot().counters.get(name).copied().unwrap_or(0);
    let (systematic_before, solved_before) =
        (counter("core.blocks_systematic"), counter("core.rows_solved"));
    let encoder = Arc::new(StreamEncoder::new(coding, data).expect("non-empty"));
    let (tx_end, rx_end) = memory_pair();
    let mut tx_end = FaultyChannel::new(tx_end, FaultProfile::lossy(drop), seed);
    let receiver_config = ReceiverConfig {
        idle_timeout: Duration::from_secs(10),
        deadline: Some(Duration::from_secs(60)),
    };
    let mut client = Client::new(rx_end, receiver_config);
    client.request(1);
    let sender_config = SenderConfig {
        initial_loss: drop,
        idle_timeout: Duration::from_secs(10),
        deadline: Some(Duration::from_secs(60)),
        ..SenderConfig::default()
    };
    let (report, received) = std::thread::scope(|scope| {
        let received = scope.spawn(|| client.run().expect("memory channel never errors"));
        let report = send_stream(&mut tx_end, encoder, 1, sender_config, seed)
            .expect("memory channel never errors");
        (report, received.join().expect("client thread"))
    });
    assert_eq!(received[0].recovered(), Some(data), "bit-exact");
    assert_eq!(report.outcome, SenderOutcome::Completed);
    Counted {
        blocks_systematic: counter("core.blocks_systematic") - systematic_before,
        rows_solved: counter("core.rows_solved") - solved_before,
        dropped: tx_end.fault_stats().dropped,
    }
}

#[test]
fn lossless_transfers_solve_nothing_and_lossy_ones_solve_at_most_the_drops() {
    if !nc_telemetry::enabled() {
        eprintln!("NC_TELEMETRY is off: the counters this test reads do not move");
        return;
    }
    let coding = CodingConfig::new(16, 512).expect("valid");
    let data: Vec<u8> =
        (0..200_000usize).map(|i| (i.wrapping_mul(2654435761) >> 7) as u8).collect();
    let segments = data.len().div_ceil(coding.segment_bytes()) as u64; // 25, tail padded
    let n = coding.blocks() as u64;

    // Lossless and in order: every source block arrives verbatim.
    let clean = transfer(coding, &data, 0.0, 5);
    assert_eq!(clean.dropped, 0);
    assert_eq!(clean.blocks_systematic, n * segments, "each segment opens with n source blocks");
    assert_eq!(clean.rows_solved, 0, "nothing was lost, so nothing is solved");

    // 20 % loss: only sources whose systematic frame was dropped are solved.
    let lossy = transfer(coding, &data, 0.20, 6);
    assert_eq!(lossy.blocks_systematic, n * segments);
    assert!(lossy.rows_solved > 0, "20 % loss left every source intact");
    assert!(
        lossy.rows_solved <= lossy.dropped,
        "{} rows solved for {} frames dropped",
        lossy.rows_solved,
        lossy.dropped
    );
}
