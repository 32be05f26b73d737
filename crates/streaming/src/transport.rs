//! Real-socket delivery for the streaming server: bridges the modeled
//! capacity arithmetic of [`media`](crate::media)/[`nic`](crate::nic) to
//! the actual UDP coded transport in [`nc_net`].
//!
//! The capacity planner answers "how many peers *could* this server
//! feed?"; this module feeds real peers: media segments are coded with the
//! same `(n, k)` configuration, pushed over a real socket at the stream's
//! coded rate (token-bucket paced), and each transfer's goodput is judged
//! against the profile's bitrate — the paper's Sec. 5.1.1 claim turned
//! into an end-to-end check.

use nc_net::server::{ServedTransfer, ServerConfig};
use nc_net::session::{SenderConfig, SenderReport};
use nc_net::shard::{ShardedServer, ShardedServerConfig};
use nc_rlnc::stream::StreamEncoder;
use nc_rlnc::CodingConfig;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

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
        // One segment's worth of burst keeps startup latency at one RTT
        // without letting the sender outrun the profile for long.
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

/// A media-publishing wrapper around a one-shard [`ShardedServer`]:
/// streams are coded once with the server's `(n, k)` configuration and
/// served to any number of requesting peers at profile-derived pace.
pub struct MediaTransport {
    server: ShardedServer,
    profile: StreamProfile,
    config: CodingConfig,
}

impl MediaTransport {
    /// Binds a media transport on `addr`, pacing every peer session for
    /// `profile` with `headroom` slack (see [`sender_config_for`]).
    ///
    /// # Errors
    ///
    /// Any socket bind error.
    pub fn bind(
        addr: impl ToSocketAddrs,
        config: CodingConfig,
        profile: StreamProfile,
        headroom: f64,
    ) -> io::Result<MediaTransport> {
        let server_config = ShardedServerConfig {
            server: ServerConfig {
                sender: sender_config_for(profile, headroom),
                ..Default::default()
            },
            shards: 1,
            ..Default::default()
        };
        Ok(MediaTransport { server: ShardedServer::bind(addr, server_config)?, profile, config })
    }

    /// The bound address peers request from.
    ///
    /// # Errors
    ///
    /// Propagates `UdpSocket::local_addr` errors.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.server.local_addr()
    }

    /// The profile every session is paced for.
    pub fn profile(&self) -> StreamProfile {
        self.profile
    }

    /// Codes `media` under the server's configuration and publishes it as
    /// `session`.
    ///
    /// # Errors
    ///
    /// Propagates encoder construction errors (e.g. empty media).
    pub fn publish_media(&mut self, session: u64, media: &[u8]) -> Result<(), nc_rlnc::Error> {
        let encoder = Arc::new(StreamEncoder::new(self.config, media)?);
        self.server.publish(session, encoder);
        Ok(())
    }

    /// Serves until `expected` transfers finish (or `deadline`), returning
    /// each transfer with its profile assessment.
    ///
    /// Each reaped transfer is mirrored into the process-wide telemetry
    /// registry: `streaming.transfers_served` counts everything,
    /// `streaming.transfers_sustained` the ones that kept up with the
    /// profile, and `streaming.deadline_misses` the ones that either never
    /// completed or fell below the stream rate.
    ///
    /// # Errors
    ///
    /// Propagates socket I/O errors.
    pub fn serve(
        &mut self,
        expected: usize,
        deadline: Duration,
    ) -> io::Result<Vec<(ServedTransfer, Option<DeliveryAssessment>)>> {
        let transfers = self.server.serve(expected, deadline)?;
        let m = crate::metrics::metrics();
        Ok(transfers
            .into_iter()
            .map(|t| {
                let judged = assess(&t.report, self.profile);
                m.transfers_served.inc();
                match judged {
                    Some(a) if a.sustained => m.transfers_sustained.inc(),
                    _ => m.deadline_misses.inc(),
                }
                if let Some(a) = judged {
                    m.last_goodput_bytes_per_s.set(a.goodput_bytes_per_s);
                }
                (t, judged)
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_net::channel::UdpChannel;
    use nc_net::receiver::{run_receiver, ReceiverConfig, ReceiverSession};
    use std::time::Instant;

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
        let mut transport = MediaTransport::bind("127.0.0.1:0", coding, profile, 1.5).unwrap();
        transport.publish_media(21, &media).unwrap();
        let addr = transport.local_addr().unwrap();

        // lint: allow(thread-spawn) — test driver thread; product threading goes through nc-pool.
        let handle = std::thread::spawn(move || {
            let mut channel = UdpChannel::connect("127.0.0.1:0", addr).unwrap();
            let mut session = ReceiverSession::new(21, ReceiverConfig::default(), Instant::now());
            run_receiver(&mut channel, &mut session).unwrap();
            session.into_recovered()
        });
        let served = transport.serve(1, Duration::from_secs(30)).unwrap();
        assert_eq!(handle.join().unwrap().as_deref(), Some(media.as_slice()));

        let (transfer, assessment) = &served[0];
        let assessment = assessment.expect("completed transfer is assessable");
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
