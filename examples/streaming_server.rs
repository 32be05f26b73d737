//! The Sec. 5.1.1 scenario: a network-coded video streaming server. First
//! the paper's arithmetic — how many 768 kbps peers the GTX 280's encoding
//! rate can feed — then the same server on real packets: one 512 KB
//! segment (128 blocks of 4 KB) published through `MediaTransport` and
//! pulled by 8 peers over loopback UDP, each recovered stream compared
//! byte for byte.
//!
//! ```bash
//! cargo run --release --example streaming_server
//! ```

use extreme_nc::gpu::api::EncodeScheme;
use extreme_nc::net::{run_receiver, ReceiverConfig, ReceiverSession, UdpChannel};
use extreme_nc::prelude::*;
use extreme_nc::streaming::{CapacityPlan, MediaTransport, Nic, StreamProfile};
use std::time::{Duration, Instant};

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
    let mut transport = MediaTransport::bind("127.0.0.1:0", config, fast, 1.5)?;
    transport.publish_media(SESSION, &media).expect("non-empty media");
    let addr = transport.local_addr()?;

    let peers: Vec<_> = (0..PEERS)
        .map(|_| {
            std::thread::spawn(move || -> std::io::Result<Option<Vec<u8>>> {
                let mut channel = UdpChannel::connect("127.0.0.1:0", addr)?;
                let mut session =
                    ReceiverSession::new(SESSION, ReceiverConfig::default(), Instant::now());
                run_receiver(&mut channel, &mut session)?;
                Ok(session.into_recovered())
            })
        })
        .collect();
    let served = transport.serve(PEERS, Duration::from_secs(30))?;
    for peer in peers {
        let recovered = peer.join().expect("receiver thread")?;
        assert_eq!(recovered.as_deref(), Some(media.as_slice()), "bit-exact recovery");
    }
    assert_eq!(served.len(), PEERS, "every peer's transfer was reaped");

    let sustained = served.iter().filter(|(_, a)| a.is_some_and(|a| a.sustained)).count();
    println!(
        "\nserved {PEERS} peers one {} KB segment over loopback UDP, all bit-exact; \
         {sustained}/{PEERS} sustained {:.0} Mbps",
        config.segment_bytes() / 1024,
        fast.bitrate_bps() / 1e6,
    );
    Ok(())
}
