//! The Sec. 5.1.1 scenario: a network-coded video streaming server. First
//! the paper's arithmetic — how many 768 kbps peers the GTX 280's encoding
//! rate can feed — then the same server on real packets: one 512 KB
//! segment (128 blocks of 4 KB) published on a `ShardedServer` paced for
//! the profile and pulled by 8 peers, one client thread running all 8
//! sessions over loopback UDP, each recovered stream compared byte for
//! byte.
//!
//! ```bash
//! cargo run --release --example streaming_server
//! ```

use extreme_nc::gpu::api::EncodeScheme;
use extreme_nc::net::streaming::{assess, sender_config_for, CapacityPlan, Nic, StreamProfile};
use extreme_nc::net::{
    Client, ReceiverConfig, ServerConfig, ShardedServer, ShardedServerConfig, UdpChannel,
};
use extreme_nc::prelude::*;
use extreme_nc::rlnc::stream::StreamEncoder;
use std::sync::Arc;
use std::time::Duration;

const SESSION: u64 = 0x5111;
const PEERS: usize = 8;

fn main() -> std::io::Result<()> {
    let config = CodingConfig::new(128, 4096).expect("valid coding config"); // 512 KB segments
    let profile = StreamProfile::high_quality_video();
    println!(
        "segment carries {:.2} s of 768 kbps video (buffering delay, paper: 5.33 s)\n",
        profile.segment_duration_s(config)
    );

    // --- Capacity planning from the simulated GTX 280's encoding rates. ---
    println!("{:<28} {:>9} {:>8}", "GTX 280 encoder", "MB/s", "peers");
    for (name, scheme) in [
        ("loop-based", EncodeScheme::LoopBased),
        ("table-based-5", EncodeScheme::Table(TableVariant::Tb5)),
    ] {
        let mut gpu = GpuEncoder::new(DeviceSpec::gtx280(), scheme);
        let rate = gpu.measure(config.blocks(), config.block_size(), config.blocks(), 7).rate;
        let plan = CapacityPlan::plan(rate, profile, Nic::gigabit_bonded(3));
        println!("{name:<28} {:>9.1} {:>8}", rate / (1024.0 * 1024.0), plan.servable_peers());
    }

    // --- The same server on real packets. ---------------------------------
    // A 16 Mbps profile (2 MB/s per peer, paced at 1.5x) keeps the run under
    // a second; the paper's 768 kbps would take 5.5 s per segment.
    let fast = StreamProfile::new(16.0e6);
    let media: Vec<u8> =
        (0..config.segment_bytes()).map(|i| (i.wrapping_mul(31) >> 3) as u8).collect();
    let serving = ShardedServerConfig {
        server: ServerConfig { sender: sender_config_for(fast, 1.5), ..Default::default() },
        shards: 1,
    };
    let mut server = ShardedServer::bind("127.0.0.1:0", serving)?;
    // One stream id per peer, all the same segment: the server keys
    // sessions by (peer address, id), and the client's sessions share its
    // one socket.
    let encoder = Arc::new(StreamEncoder::new(config, &media).expect("non-empty media"));
    let streams = SESSION..SESSION + PEERS as u64;
    streams.clone().for_each(|id| server.publish(id, encoder.clone()));
    let mut client = Client::new(
        UdpChannel::connect("127.0.0.1:0", server.local_addr()?)?,
        ReceiverConfig::default(),
    );
    streams.for_each(|id| client.request(id));

    let (served, received) = std::thread::scope(|scope| {
        let received = scope.spawn(|| client.run());
        (server.serve(PEERS, Duration::from_secs(30)), received.join().expect("client thread"))
    });
    let (served, received) = (served?, received?);
    assert_eq!(received.len(), PEERS, "every peer's session ended");
    for session in received {
        assert_eq!(session.recovered(), Some(media.as_slice()), "bit-exact recovery");
    }
    assert_eq!(served.len(), PEERS, "every peer's transfer was reaped");

    let sustained =
        served.iter().filter(|t| assess(&t.report, fast).is_some_and(|a| a.sustained)).count();
    println!(
        "\nserved {PEERS} peers one {} KB segment over loopback UDP, all bit-exact; \
         {sustained}/{PEERS} sustained {:.0} Mbps",
        config.segment_bytes() / 1024,
        fast.bitrate_bps() / 1e6,
    );
    Ok(())
}
