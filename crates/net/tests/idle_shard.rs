//! Regression test for the fixed 2 ms poll tick. Alone in its file so it
//! runs in its own process: `net.deadline_miss_ns` lives in the
//! process-wide registry, and any other shard loop would add to it.

use nc_net::{ShardedServer, ShardedServerConfig};
use nc_rlnc::stream::StreamEncoder;
use nc_rlnc::CodingConfig;
use std::sync::Arc;
use std::time::Duration;

#[test]
fn idle_shard_sleeps_instead_of_ticking() {
    // With content published and nobody connected, each wake-up must sleep
    // until the `poll_interval` cap (25 ms), so half a second of idling is
    // ~20 empty wake-ups — not the ~250 the old tick burned. A shard records
    // one `net.deadline_miss_ns` sample per empty wake-up.
    let wakeups = nc_telemetry::default_registry().histogram("net.deadline_miss_ns");
    let data: Vec<u8> = (0..10_000usize).map(|i| (i % 251) as u8).collect();
    let encoder = StreamEncoder::new(CodingConfig::new(8, 256).unwrap(), &data).unwrap();
    let config = ShardedServerConfig { shards: 1, ..ShardedServerConfig::default() };
    let mut server = ShardedServer::bind("127.0.0.1:0", config).unwrap();
    server.publish(1, Arc::new(encoder));

    let before = wakeups.count();
    let transfers = server.serve(1, Duration::from_millis(500)).unwrap();
    assert!(transfers.is_empty());
    let woke = wakeups.count() - before;
    assert!((1..60).contains(&woke), "idle shard busy-waited: {woke} wake-ups in 500ms");
}
