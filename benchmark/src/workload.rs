//! What every workload has in common: how it is sized, what one
//! repetition reports, and the constructor that maps a name to one.

use crate::spans::Tracer;

/// How big a run is. `phase_seconds` is the time one measured phase may
/// take (the whole `--seconds` in an untraced run, a share of it in a
/// traced one); only the open-loop workload sizes its input from it.
#[derive(Clone, Copy, Debug)]
pub struct Sizing {
    pub smoke: bool,
    pub phase_seconds: f64,
}

impl Sizing {
    /// A smoke run caps the phase at half a second.
    pub fn new(smoke: bool, phase_seconds: f64) -> Sizing {
        Sizing { smoke, phase_seconds: if smoke { phase_seconds.min(0.5) } else { phase_seconds } }
    }
}

/// Transport counts one repetition adds up (zero on the codec workloads).
#[derive(Clone, Copy, Debug, Default)]
pub struct NetCounts {
    /// Datagram bytes the sending side put on the wire (sender reports).
    pub wire_bytes: u64,
    /// Coded data frames sent.
    pub frames_sent: u64,
    /// Announce datagrams sent.
    pub announces_sent: u64,
    /// Sender sessions that ran.
    pub sessions: u64,
    /// Frames a loss-free, dependence-free transfer would need.
    pub frames_needed: u64,
    /// Data datagrams receivers parsed.
    pub received: u64,
    /// Of those, frames that advanced decoding.
    pub innovative: u64,
    /// Datagrams counted by a receive path outside `BatchSocket`
    /// (`UdpChannel`), which `net.rx_datagrams` does not see.
    pub channel_rx_datagrams: u64,
    /// CPU seconds the client (receiving) thread used.
    pub client_cpu_s: f64,
}

impl NetCounts {
    pub fn add(&mut self, o: &NetCounts) {
        self.wire_bytes += o.wire_bytes;
        self.frames_sent += o.frames_sent;
        self.announces_sent += o.announces_sent;
        self.sessions += o.sessions;
        self.frames_needed += o.frames_needed;
        self.received += o.received;
        self.innovative += o.innovative;
        self.channel_rx_datagrams += o.channel_rx_datagrams;
        self.client_cpu_s += o.client_cpu_s;
    }
}

/// What one equal-work repetition measured.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    /// Wall time of the whole repetition, verification included.
    pub wall_s: f64,
    /// Payload bytes recovered bit-exact.
    pub payload_bytes: u64,
    /// Units (segments or sessions) attempted / not delivered (not
    /// recovered, timed out, or past the playback deadline).
    pub attempted: u64,
    pub failed: u64,
    /// Units whose recovered bytes differ from the source: a wrong
    /// output, not a slow one. Any makes the run incorrect.
    pub mismatched: u64,
    /// Per-unit delivery latency, milliseconds.
    pub unit_ms: Vec<f64>,
    /// Codec workloads: time inside encode / decode calls and the bytes
    /// they produced / recovered.
    pub encode_s: f64,
    pub encode_bytes: u64,
    pub decode_s: f64,
    pub decode_bytes: u64,
    pub net: NetCounts,
}

/// One of the six workloads, set up and ready to repeat.
pub trait Workload {
    /// Runs one repetition. Every repetition of one workload does the
    /// same amount of work.
    fn rep(&mut self, rep: usize, tracer: &mut Tracer) -> Rep;

    /// Fewest repetitions a measured phase makes, whatever the clock says.
    fn min_reps(&self) -> usize {
        3
    }

    /// Whether the phase is exactly one repetition whose length the
    /// workload fixed at set-up (the open-loop workload).
    fn single_rep(&self) -> bool {
        false
    }

    /// Workload parameters worth printing with the result.
    fn describe(&self) -> String;
}

/// Builds workload `name` from `seed`. `None` for an unknown name.
pub fn setup(name: &str, seed: u64, sizing: Sizing) -> Option<Box<dyn Workload>> {
    Some(match name {
        "dense_128x4k" => Box::new(crate::codec::Dense::setup(seed, sizing)),
        "fft_4096x1k" => Box::new(crate::codec::Fft::setup(seed, sizing)),
        "udp_lossy_1x" => Box::new(crate::udp::UdpLossy::setup(seed, sizing)),
        "server_steady_16x" => Box::new(crate::server::ServerLoad::steady(seed, sizing)),
        "server_churn_1000x6k" => Box::new(crate::server::ServerLoad::churn(seed, sizing)),
        "server_paced_768k" => Box::new(crate::server::ServerLoad::paced(seed, sizing)),
        _ => return None,
    })
}
