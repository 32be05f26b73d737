//! Network-coded media streaming: the deployment scenario of the paper's
//! Secs. 5.1.1 and 6.
//!
//! The paper argues that a single GPU encoding at 294 MB/s turns network
//! coding into a practical streaming-server technology: coded blocks are
//! generated per downstream request, and the bottleneck moves to the
//! network interfaces. This module holds both halves of that argument:
//!
//! * the model: [`StreamProfile`] (the 512 KB / 768 kbps / 5.33 s
//!   buffering arithmetic), [`Nic`] (gigabit Ethernet egress) and
//!   [`CapacityPlan`], the peer-capacity planner that reproduces the
//!   paper's 1385 / 1844 / 3000-peer claims from an encoding rate;
//! * real-socket delivery: [`sender_config_for`] paces a
//!   [`ShardedServer`](crate::ShardedServer)'s sessions at a profile's
//!   coded rate, and [`assess`] judges each finished transfer's goodput
//!   against the stream bitrate, the Sec. 5.1.1 claim turned into an
//!   end-to-end check.

use nc_rlnc::CodingConfig;

use crate::session::{SenderConfig, SenderReport};

/// A media stream's delivery profile.
///
/// ```
/// use nc_net::streaming::StreamProfile;
/// use nc_rlnc::CodingConfig;
///
/// let profile = StreamProfile::high_quality_video();
/// let config = CodingConfig::new(128, 4096)?; // 512 KB segments
/// // The paper: "each segment contains content that lasts 5.33 seconds"
/// // (5.46 s with binary-KB segment arithmetic).
/// let secs = profile.segment_duration_s(config);
/// assert!((secs - 5.46).abs() < 0.02);
/// # Ok::<(), nc_rlnc::Error>(())
/// ```
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct StreamProfile {
    bitrate_bps: f64,
}

impl StreamProfile {
    /// A profile with the given bitrate in bits/second.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive bitrate.
    pub fn new(bitrate_bps: f64) -> StreamProfile {
        assert!(bitrate_bps > 0.0, "bitrate must be positive");
        StreamProfile { bitrate_bps }
    }

    /// The paper's "typical for high quality video streams": 768 kbps.
    pub fn high_quality_video() -> StreamProfile {
        StreamProfile::new(768.0 * 1000.0)
    }

    /// The stream bitrate in bits/second.
    #[inline]
    pub fn bitrate_bps(&self) -> f64 {
        self.bitrate_bps
    }

    /// Seconds of content carried by one `(n, k)` segment.
    pub fn segment_duration_s(&self, config: CodingConfig) -> f64 {
        config.segment_bytes() as f64 * 8.0 / self.bitrate_bps
    }

    /// The client-side buffering delay before playback can start: one full
    /// segment must arrive (and decode) first.
    pub fn buffering_delay_s(&self, config: CodingConfig) -> f64 {
        self.segment_duration_s(config)
    }

    /// Bytes/second of *coded* payload a server must generate per peer
    /// watching this stream (coefficients excluded; they ride in headers).
    pub fn coded_bytes_per_peer(&self) -> f64 {
        self.bitrate_bps / 8.0
    }
}

/// A server network interface (or a bonded set of them).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Nic {
    bandwidth_bps: f64,
    count: usize,
}

impl Nic {
    /// One gigabit Ethernet interface.
    pub fn gigabit() -> Nic {
        Nic { bandwidth_bps: 1.0e9, count: 1 }
    }

    /// `count` bonded gigabit interfaces (the paper: a 294 MB/s encoder
    /// "can easily saturate two Gigabit Ethernet interfaces").
    pub fn gigabit_bonded(count: usize) -> Nic {
        assert!(count > 0, "at least one interface");
        Nic { bandwidth_bps: 1.0e9, count }
    }

    /// Aggregate egress bandwidth in bits/second.
    #[inline]
    pub(crate) fn total_bps(&self) -> f64 {
        self.bandwidth_bps * self.count as f64
    }

    /// Aggregate egress bandwidth in bytes/second.
    #[inline]
    pub fn total_bytes_per_s(&self) -> f64 {
        self.total_bps() / 8.0
    }

    /// How many peers at `per_peer_bps` this egress can carry.
    pub(crate) fn peer_capacity(&self, per_peer_bps: f64) -> usize {
        assert!(per_peer_bps > 0.0);
        (self.total_bps() / per_peer_bps) as usize
    }

    /// Whether a coded-output rate (bytes/second) saturates this egress.
    pub(crate) fn is_saturated_by(&self, coded_bytes_per_s: f64) -> bool {
        coded_bytes_per_s * 8.0 >= self.total_bps()
    }
}

/// The serving capacity of one coding backend + NIC combination.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct CapacityPlan {
    /// Coded-output bandwidth of the encoder, bytes/second.
    pub(crate) encoding_rate: f64,
    /// Peers the *computation* can feed.
    pub compute_peers: usize,
    /// Peers the *network egress* can feed.
    pub(crate) network_peers: usize,
    /// Whether computation saturates the NIC (the paper's argument that
    /// the GPU frees the CPU entirely).
    pub(crate) nic_saturated: bool,
}

impl CapacityPlan {
    /// Plans capacity for an encoder of `encoding_rate` bytes/second
    /// serving `profile` streams over `nic`.
    ///
    /// The paper's peer counts (e.g. "133 MB/s … serve up to 1385
    /// downstream peers") divide the coding bandwidth by the stream rate;
    /// the deliverable count is additionally capped by egress.
    pub fn plan(encoding_rate: f64, profile: StreamProfile, nic: Nic) -> CapacityPlan {
        let per_peer = profile.coded_bytes_per_peer();
        CapacityPlan {
            encoding_rate,
            compute_peers: (encoding_rate / per_peer) as usize,
            network_peers: nic.peer_capacity(profile.bitrate_bps()),
            nic_saturated: nic.is_saturated_by(encoding_rate),
        }
    }

    /// Peers actually servable: the minimum of compute and network.
    pub fn servable_peers(&self) -> usize {
        self.compute_peers.min(self.network_peers)
    }

    /// Coded blocks that must be generated from every segment to feed
    /// `peers` (the paper: "serving so many peers in a live video stream
    /// requires generating at least 177,333 coded blocks from every video
    /// segment" at 1385 peers × 128 blocks).
    pub fn blocks_per_segment(peers: usize, config: CodingConfig) -> usize {
        peers * config.blocks()
    }
}

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
    pub(crate) goodput_bytes_per_s: f64,
    /// Goodput the profile requires, bytes/second.
    pub(crate) required_bytes_per_s: f64,
    /// Did the transfer keep up with the stream rate?
    pub sustained: bool,
    /// Coded frames sent per innovative frame delivered.
    pub(crate) overhead_ratio: f64,
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
    use crate::{
        Client, ReceiverConfig, ReceiverSession, ServerConfig, ShardedServer, ShardedServerConfig,
        UdpChannel,
    };
    use nc_rlnc::stream::StreamEncoder;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn paper_segment_timing() {
        let config = CodingConfig::new(128, 4096).unwrap();
        let p = StreamProfile::high_quality_video();
        assert!((p.segment_duration_s(config) - 5.46).abs() < 0.2);
        // 512 KiB × 8 / 768 kbps = 5.46 s with binary KB, 5.33 s with the
        // paper's decimal arithmetic — "an acceptable buffering delay".
        assert!(p.buffering_delay_s(config) < 6.0);
    }

    #[test]
    fn coded_demand_per_peer() {
        let p = StreamProfile::high_quality_video();
        assert!((p.coded_bytes_per_peer() - 96_000.0).abs() < 1.0);
    }

    #[test]
    #[should_panic]
    fn zero_bitrate_rejected() {
        let _ = StreamProfile::new(0.0);
    }

    #[test]
    fn gigabit_carries_1302_video_peers() {
        // 1 Gbps / 768 kbps = 1302 peers of pure network capacity.
        let nic = Nic::gigabit();
        assert_eq!(nic.peer_capacity(768_000.0), 1302);
    }

    #[test]
    fn encoding_at_133_mbs_saturates_one_gige() {
        // The paper: 133 MB/s "is sufficiently high to saturate a Gigabit
        // Ethernet interface".
        let nic = Nic::gigabit();
        assert!(nic.is_saturated_by(133.0 * 1024.0 * 1024.0));
    }

    #[test]
    fn encoding_at_294_mbs_saturates_two_gige() {
        let nic = Nic::gigabit_bonded(2);
        assert!(nic.is_saturated_by(294.0 * 1024.0 * 1024.0));
        let three = Nic::gigabit_bonded(3);
        assert!(!three.is_saturated_by(294.0 * 1024.0 * 1024.0));
    }

    #[test]
    #[should_panic]
    fn zero_interfaces_rejected() {
        let _ = Nic::gigabit_bonded(0);
    }

    fn profile() -> StreamProfile {
        StreamProfile::high_quality_video()
    }

    #[test]
    fn loop_based_rate_serves_1385_peers() {
        // 133 MB/s at 768 kbps — the Sec. 5.1.1 number (the paper divides
        // decimal MB by the stream rate: 133e6 · 8 / 768e3 ≈ 1385).
        let plan = CapacityPlan::plan(133.0e6, profile(), Nic::gigabit_bonded(2));
        assert_eq!(plan.compute_peers, 1385);
    }

    #[test]
    fn tb1_rate_serves_1844_peers() {
        // Sec. 5.1.3: "now more than 1844 downstream peers can be supported"
        // at the first optimized table-based rate (~177 decimal MB/s).
        let plan = CapacityPlan::plan(177.1e6, profile(), Nic::gigabit_bonded(2));
        assert!(plan.compute_peers >= 1844, "got {}", plan.compute_peers);
    }

    #[test]
    fn tb5_rate_serves_3000_peers() {
        // Sec. 5.1.3 / 6: "more than 3000 downstream peers" at 294 MB/s.
        let plan = CapacityPlan::plan(294.0e6, profile(), Nic::gigabit_bonded(3));
        assert!(plan.compute_peers > 3000, "got {}", plan.compute_peers);
        assert!(plan.nic_saturated || plan.network_peers > 3000);
    }

    #[test]
    fn network_caps_the_servable_count() {
        // One GigE carries only 1302 such streams no matter the encoder.
        let plan = CapacityPlan::plan(294.0e6, profile(), Nic::gigabit());
        assert_eq!(plan.servable_peers(), 1302);
        assert!(plan.nic_saturated);
    }

    #[test]
    fn blocks_per_segment_matches_paper() {
        let config = CodingConfig::new(128, 4096).unwrap();
        let blocks = CapacityPlan::blocks_per_segment(1385, config);
        assert_eq!(blocks, 177_280); // the paper rounds to "177,333"
    }

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
