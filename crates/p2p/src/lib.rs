//! A discrete-event peer-to-peer content-distribution simulator with
//! network coding.
//!
//! This substrate supplies the workload that motivates the paper's
//! multi-segment decoding (Sec. 5.2): "Avalanche, which uses network coding
//! in bulk content distribution, gathers a large number of coded blocks
//! over a period of time and performs decoding offline." Peers in the
//! swarm exchange *recoded* blocks — the defining capability of random
//! linear codes over fountain/RS codes (Sec. 2) — and a completed peer's
//! buffered segments form exactly the batch a `nc_gpu::GpuMultiDecoder`
//! chews through.
//!
//! * `topology` — random swarm graphs with per-peer upload capacity.
//! * `event` — the discrete-event engine (integer-microsecond clock).
//! * `swarm` — the simulation: a seed serves coded blocks; peers recode
//!   and forward; metrics capture completion times and the
//!   linear-dependence overhead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod swarm;
mod topology;

pub use swarm::{SwarmConfig, SwarmReport, SwarmSim};
pub use topology::Topology;
