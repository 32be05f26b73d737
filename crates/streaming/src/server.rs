//! The streaming server: segment store, peer sessions, tick-driven service.

use std::sync::RwLock;

use nc_rlnc::{CodingConfig, Segment};

use crate::backend::CodingBackend;
use crate::media::StreamProfile;
use crate::nic::Nic;

/// How peers consume segments.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ServiceMode {
    /// All peers watch the same live segment; one preprocessing per
    /// segment is amortized over every coded block generated from it.
    Live,
    /// Each peer may request a different segment (Sec. 5.1.3's experiment:
    /// "we produced only n coded blocks for each segment of an array of
    /// segments, e.g., a VoD scenario" — the extra per-segment
    /// preprocessing cost the paper measures is 0.6%).
    VideoOnDemand,
}

/// The VoD preprocessing penalty the paper measures (Sec. 5.1.3).
pub const VOD_PREPROCESS_PENALTY: f64 = 0.006;

/// One downstream peer session.
#[derive(Clone, Debug)]
pub struct PeerSession {
    /// Peer identifier.
    pub id: usize,
    /// Coded payload bytes delivered so far.
    pub delivered_bytes: f64,
    /// Bytes the stream rate required so far.
    pub required_bytes: f64,
    /// Ticks in which the peer got less than the stream rate.
    pub underserved_ticks: usize,
}

/// A service-tick summary.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct TickReport {
    /// Coded bytes generated this tick.
    pub generated_bytes: f64,
    /// Coded bytes actually delivered (≤ generated, ≤ egress).
    pub delivered_bytes: f64,
    /// Fraction of NIC egress used.
    pub nic_utilization: f64,
    /// Peers that received less than the stream rate this tick.
    pub underserved_peers: usize,
}

/// A network-coded streaming server.
///
/// The server caches its backend's sustained encoding rate at construction
/// (backends measure a simulated or modeled device), stores ingested
/// segments, and serves peers in discrete ticks: each tick generates coded
/// bytes at the backend rate, caps delivery at the NIC egress, and spreads
/// it round-robin across peers.
pub struct StreamingServer {
    config: CodingConfig,
    profile: StreamProfile,
    nic: Nic,
    mode: ServiceMode,
    backend_name: String,
    encoding_rate: f64,
    segments: RwLock<Vec<Segment>>,
    peers: Vec<PeerSession>,
    clock_s: f64,
}

impl StreamingServer {
    /// Builds a server on a coding backend (whose rate is measured once).
    pub fn new(
        backend: &mut dyn CodingBackend,
        config: CodingConfig,
        profile: StreamProfile,
        nic: Nic,
        mode: ServiceMode,
    ) -> StreamingServer {
        let raw_rate = backend.encoding_rate(config);
        let encoding_rate = match mode {
            ServiceMode::Live => raw_rate,
            ServiceMode::VideoOnDemand => raw_rate * (1.0 - VOD_PREPROCESS_PENALTY),
        };
        StreamingServer {
            config,
            profile,
            nic,
            mode,
            backend_name: backend.name(),
            encoding_rate,
            segments: RwLock::new(Vec::new()),
            peers: Vec::new(),
            clock_s: 0.0,
        }
    }

    /// The effective coded-output rate in bytes/second.
    pub fn encoding_rate(&self) -> f64 {
        self.encoding_rate
    }

    /// The backend driving this server.
    pub fn backend_name(&self) -> &str {
        &self.backend_name
    }

    /// The service mode.
    pub fn mode(&self) -> ServiceMode {
        self.mode
    }

    /// Ingests one media segment (zero-padding partial data).
    ///
    /// # Errors
    ///
    /// Propagates [`nc_rlnc::Error::SizeMismatch`] for oversized data.
    pub fn ingest_segment(&self, data: &[u8]) -> Result<usize, nc_rlnc::Error> {
        let segment = Segment::from_bytes_padded(self.config, data)?;
        let mut store = self.segments.write().expect("segment store lock poisoned");
        store.push(segment);
        Ok(store.len() - 1)
    }

    /// Number of stored segments.
    pub fn segment_count(&self) -> usize {
        self.segments.read().expect("segment store lock poisoned").len()
    }

    /// Adds `count` peer sessions.
    pub fn add_peers(&mut self, count: usize) {
        let base = self.peers.len();
        for i in 0..count {
            self.peers.push(PeerSession {
                id: base + i,
                delivered_bytes: 0.0,
                required_bytes: 0.0,
                underserved_ticks: 0,
            });
        }
    }

    /// The peer sessions.
    pub fn peers(&self) -> &[PeerSession] {
        &self.peers
    }

    /// Elapsed service time in seconds.
    pub fn clock_s(&self) -> f64 {
        self.clock_s
    }

    /// Advances service by `dt` seconds.
    pub fn tick(&mut self, dt: f64) -> TickReport {
        assert!(dt > 0.0, "tick duration must be positive");
        self.clock_s += dt;
        let generated = self.encoding_rate * dt;
        let egress = self.nic.total_bytes_per_s() * dt;
        let per_peer_need = self.profile.coded_bytes_per_peer() * dt;
        let demand = per_peer_need * self.peers.len() as f64;
        let deliverable = generated.min(egress).min(demand);

        let mut underserved = 0usize;
        if !self.peers.is_empty() {
            let share = deliverable / self.peers.len() as f64;
            for peer in &mut self.peers {
                peer.delivered_bytes += share;
                peer.required_bytes += per_peer_need;
                if share + 1e-9 < per_peer_need {
                    peer.underserved_ticks += 1;
                    underserved += 1;
                }
            }
        }

        TickReport {
            generated_bytes: generated,
            delivered_bytes: deliverable,
            nic_utilization: (deliverable / egress).min(1.0),
            underserved_peers: underserved,
        }
    }
}

impl core::fmt::Debug for StreamingServer {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("StreamingServer")
            .field("backend", &self.backend_name)
            .field("mode", &self.mode)
            .field("encoding_rate", &self.encoding_rate)
            .field("peers", &self.peers.len())
            .field("segments", &self.segment_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::CpuModelBackend;

    /// A deterministic test backend with a fixed rate.
    struct FixedBackend(f64);
    impl CodingBackend for FixedBackend {
        fn name(&self) -> String {
            "fixed".to_string()
        }
        fn encoding_rate(&mut self, _config: CodingConfig) -> f64 {
            self.0
        }
    }

    fn config() -> CodingConfig {
        CodingConfig::new(128, 4096).unwrap()
    }

    #[test]
    fn serves_computable_peer_count_without_underserving() {
        // 133 decimal MB/s serves 1385 peers (Sec. 5.1.1) when the NIC is
        // wide enough.
        let mut backend = FixedBackend(133.0e6);
        let mut server = StreamingServer::new(
            &mut backend,
            config(),
            StreamProfile::high_quality_video(),
            Nic::gigabit_bonded(2),
            ServiceMode::Live,
        );
        server.add_peers(1302); // stay within one-and-a-bit GigE of demand
        let report = server.tick(1.0);
        assert_eq!(report.underserved_peers, 0);
        assert!(report.nic_utilization > 0.4);
    }

    #[test]
    fn oversubscription_underserves_everyone_fairly() {
        let mut backend = FixedBackend(50.0e6);
        let mut server = StreamingServer::new(
            &mut backend,
            config(),
            StreamProfile::high_quality_video(),
            Nic::gigabit(),
            ServiceMode::Live,
        );
        server.add_peers(1000); // needs 96 MB/s of coded output
        let report = server.tick(1.0);
        assert_eq!(report.underserved_peers, 1000);
        let p = &server.peers()[0];
        assert!(p.delivered_bytes < p.required_bytes);
    }

    #[test]
    fn vod_mode_pays_the_preprocessing_penalty() {
        let mut b1 = FixedBackend(100.0e6);
        let live = StreamingServer::new(
            &mut b1,
            config(),
            StreamProfile::high_quality_video(),
            Nic::gigabit(),
            ServiceMode::Live,
        );
        let mut b2 = FixedBackend(100.0e6);
        let vod = StreamingServer::new(
            &mut b2,
            config(),
            StreamProfile::high_quality_video(),
            Nic::gigabit(),
            ServiceMode::VideoOnDemand,
        );
        let ratio = vod.encoding_rate() / live.encoding_rate();
        assert!((ratio - 0.994).abs() < 1e-9, "paper: 0.6% degradation");
    }

    #[test]
    fn segment_ingest_and_padding() {
        let mut backend = CpuModelBackend::mac_pro();
        let server = StreamingServer::new(
            &mut backend,
            config(),
            StreamProfile::high_quality_video(),
            Nic::gigabit(),
            ServiceMode::Live,
        );
        let id = server.ingest_segment(&[7u8; 100]).unwrap();
        assert_eq!(id, 0);
        assert_eq!(server.segment_count(), 1);
        assert!(server.ingest_segment(&vec![0u8; 1 << 20]).is_err());
    }

    #[test]
    fn nic_caps_delivery() {
        let mut backend = FixedBackend(400.0e6); // faster than 1 GigE
        let mut server = StreamingServer::new(
            &mut backend,
            config(),
            StreamProfile::high_quality_video(),
            Nic::gigabit(),
            ServiceMode::Live,
        );
        server.add_peers(5000);
        let report = server.tick(1.0);
        assert!(report.delivered_bytes <= 1.0e9 / 8.0 + 1.0);
        assert!((report.nic_utilization - 1.0).abs() < 1e-6);
    }
}
