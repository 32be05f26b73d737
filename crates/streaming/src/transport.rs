//! Real-socket delivery for the streaming server: bridges the modeled
//! capacity arithmetic of [`media`](crate::media)/[`nic`](crate::nic) to
//! the actual UDP coded transport in [`nc_net`].
//!
//! The capacity planner answers "how many peers *could* this server
//! feed?"; this module feeds real peers: media segments are coded with the
//! same `(n, k)` configuration and published on a
//! [`ShardedServer`](nc_net::ShardedServer) whose sessions are paced at
//! the stream's coded rate ([`sender_config_for`]), and each finished
//! transfer's goodput is judged against the profile's bitrate
//! ([`assess`]) — the paper's Sec. 5.1.1 claim turned into an end-to-end
//! check.

use nc_net::session::{SenderConfig, SenderReport};

use crate::media::StreamProfile;

/// Derives real-socket sender tuning from a media profile: the token
/// bucket paces at the stream's coded byte rate times `headroom` (the
/// slack that absorbs loss-driven redundancy; 1.0 = exactly the stream
/// rate, the paper's NIC arithmetic assumes lossless links).
pub fn sender_config_for(profile: StreamProfile, headroom: f64) -> SenderConfig {
    assert!(headroom >= 1.0, "headroom below 1.0 cannot sustain the stream");
    let pace = profile.coded_bytes_per_peer() * headroom;
    SenderConfig {
        pace_bytes_per_s: Some(pace),
        // A quarter-second of pace as burst keeps startup latency at one
        // RTT without letting the sender outrun the profile for long.
        burst_bytes: (pace / 4.0).max(64.0 * 1024.0),
        ..SenderConfig::default()
    }
}

/// Whether one finished transfer actually sustained its media profile.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct DeliveryAssessment {
    /// Application goodput achieved, bytes/second.
    pub goodput_bytes_per_s: f64,
    /// Goodput the profile requires, bytes/second.
    pub required_bytes_per_s: f64,
    /// Did the transfer keep up with the stream rate?
    pub sustained: bool,
    /// Coded frames sent per innovative frame delivered.
    pub overhead_ratio: f64,
}

/// Judges a sender report against the profile it was supposed to serve.
/// `None` until the transfer completed (incomplete streams have no
/// goodput to judge).
pub fn assess(report: &SenderReport, profile: StreamProfile) -> Option<DeliveryAssessment> {
    let goodput = report.goodput_bytes_per_s()?;
    let required = profile.coded_bytes_per_peer();
    Some(DeliveryAssessment {
        goodput_bytes_per_s: goodput,
        required_bytes_per_s: required,
        sustained: goodput >= required,
        overhead_ratio: report.overhead_ratio().unwrap_or(f64::INFINITY),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_net::{
        Client, ReceiverConfig, ReceiverSession, ServerConfig, ShardedServer, ShardedServerConfig,
        UdpChannel,
    };
    use nc_rlnc::stream::StreamEncoder;
    use nc_rlnc::CodingConfig;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn profile_paces_the_sender() {
        let profile = StreamProfile::high_quality_video();
        let config = sender_config_for(profile, 1.25);
        let pace = config.pace_bytes_per_s.unwrap();
        assert!((pace - 96_000.0 * 1.25).abs() < 1.0);
    }

    #[test]
    #[should_panic]
    fn sub_unity_headroom_is_rejected() {
        let _ = sender_config_for(StreamProfile::high_quality_video(), 0.5);
    }

    #[test]
    fn media_stream_sustains_its_profile_over_loopback() {
        // A fast profile so the transfer finishes quickly: 16 Mbps (2 MB/s
        // coded, paced at 3 MB/s after a 750 KB burst) over 800 KB, ~0.1 s
        // idle. Not smaller: a descheduled receiver thread adds its stall to
        // the len / 2 MB/s that `sustained` allows, and what overflows its
        // socket buffer meanwhile is real loss, repaired with fresh frames.
        // At 100 KB (50 ms allowed, 208 useful frames) one 20 ms stall or
        // ~60 repair frames failed an assertion; here 400 ms are allowed (a
        // 20 ms stall is 5 %) and 1.5x leaves room for ~500 repair frames.
        let profile = StreamProfile::new(16.0e6);
        let coding = CodingConfig::new(16, 512).unwrap();
        let media: Vec<u8> = (0..800_000usize).map(|i| (i % 253) as u8).collect();
        let config = ShardedServerConfig {
            server: ServerConfig { sender: sender_config_for(profile, 1.5), ..Default::default() },
            shards: 1,
        };
        let mut server = ShardedServer::bind("127.0.0.1:0", config).unwrap();
        server.publish(21, Arc::new(StreamEncoder::new(coding, &media).unwrap()));
        let channel = UdpChannel::connect("127.0.0.1:0", server.local_addr().unwrap()).unwrap();
        let mut client = Client::new(channel, ReceiverConfig::default());
        client.request(21);

        let (served, received) = std::thread::scope(|scope| {
            let received = scope.spawn(|| client.run().unwrap());
            (server.serve(1, Duration::from_secs(30)).unwrap(), received.join().unwrap())
        });
        let recovered = received.into_iter().next().and_then(ReceiverSession::into_recovered);
        assert_eq!(recovered.as_deref(), Some(media.as_slice()));

        let transfer = &served[0];
        let assessment = assess(&transfer.report, profile).expect("completed transfer");
        assert!(
            assessment.sustained,
            "goodput {} below required {} (report: {:?})",
            assessment.goodput_bytes_per_s, assessment.required_bytes_per_s, transfer.report
        );
        assert!(
            assessment.overhead_ratio < 1.5,
            "lossless loopback overhead {} (report: {:?})",
            assessment.overhead_ratio,
            transfer.report
        );
    }
}
