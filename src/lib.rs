//! **extreme-nc** — a Rust reproduction of *Pushing the Envelope: Extreme
//! Network Coding on the GPU* (Shojania & Li, ICDCS 2009).
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! | Crate | What it provides |
//! |---|---|
//! | [`gf256`] | GF(2^8) arithmetic: table, loop-based, wide, log-domain |
//! | [`rlnc`] | Random linear network coding: encoder, recoder, decoders |
//! | [`gpu_sim`] | The SIMT GPU simulator standing in for CUDA hardware |
//! | [`gpu`] | The paper's GPU kernels: encode ladder, two decoders |
//! | [`cpu`] | Real multi-threaded CPU coding |
//! | [`net`] | Lossy-datagram coded transport: UDP, fault injection, sessions; [`net::streaming`] plans peer capacity and paces media delivery |
//! | [`telemetry`] | Zero-dependency metrics: counters, histograms, JSON snapshots |
//! | [`pool`] | Buffer recycling: recycled byte and coded-block shelves |
//!
//! The analytic Mac Pro baseline of Figs. 4(b), 9 and 10 is
//! `nc_bench::cpu_model`, next to the figure harness that plots it.
//!
//! Start with the runnable examples:
//!
//! ```bash
//! cargo run --release --example quickstart
//! cargo run --release --example streaming_server
//! cargo run --release --example gpu_pipeline
//! cargo run --release --example udp_file_transfer
//! ```
//!
//! and reproduce the paper's figures with
//! `cargo run -p nc-bench --release -- all` (or one by name, e.g. `-- fig7`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use nc_cpu as cpu;
pub use nc_fft as fft;
pub use nc_gf256 as gf256;
pub use nc_gpu as gpu;
pub use nc_gpu_sim as gpu_sim;
pub use nc_net as net;
pub use nc_pool as pool;
pub use nc_rlnc as rlnc;
pub use nc_telemetry as telemetry;

/// The most common imports in one place.
pub mod prelude {
    pub use nc_gf256::Gf8;
    pub use nc_gpu::{Fidelity, GpuEncoder, GpuMultiDecoder, GpuProgressiveDecoder, TableVariant};
    pub use nc_gpu_sim::{DeviceSpec, Gpu, GridConfig};
    pub use nc_net::{FaultProfile, ReceiverSession, SenderSession};
    pub use nc_rlnc::prelude::*;
}

#[cfg(test)]
mod tests {
    #[test]
    fn umbrella_reexports_compile() {
        use crate::prelude::*;
        let config = CodingConfig::new(4, 8).expect("valid");
        assert_eq!(config.segment_bytes(), 32);
        assert_eq!(Gf8(2) * Gf8(2), Gf8(4));
        let spec = DeviceSpec::gtx280();
        assert_eq!(spec.sm_count, 30);
    }
}
