//! A warp-lockstep SIMT GPU simulator with a Tesla-generation cost model.
//!
//! This crate is the hardware substitute for the CUDA GPUs of *Pushing the
//! Envelope: Extreme Network Coding on the GPU* (Shojania & Li, ICDCS 2009):
//! the paper's kernels run here **functionally** (bit-exact results, checked
//! against CPU references) while a cycle-level cost model derives execution
//! time from the same mechanisms that shaped the paper's results:
//!
//! * half-warp **global-memory coalescing** (`mem`),
//! * 16-bank **shared memory** with conflicts measured from the kernels'
//!   actual address streams (`shared`),
//! * a **texture cache** with warp-level request merging (`texture`),
//! * per-SM **occupancy** and memory-latency hiding (`timing`),
//! * kernel-launch and PCIe-transfer overheads ([`Gpu`]),
//! * an opt-in **kernel sanitizer** — memcheck, cross-warp racecheck, and
//!   performance lints over the measured counters (`sanitizer`).
//!
//! Kernels implement [`Kernel`] and are written warp-vectorized against
//! [`BlockCtx`] — one call issues an operation for all lanes of a warp, so
//! the simulator observes real address vectors. See the crate-level example
//! on [`Gpu`].
//!
//! The built-in device catalog ([`DeviceSpec::gtx280`],
//! [`DeviceSpec::geforce_8800gt`]) matches the paper's test hardware;
//! calibration notes live in DESIGN.md §7.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ctx;
mod device;
mod gpu;
mod mem;
mod metrics;
mod sanitizer;
mod shared;
mod stats;
mod texture;
mod timing;

pub use ctx::BlockCtx;
pub use device::{DeviceBuilder, DeviceSpec};
pub use gpu::{Gpu, GridConfig, Kernel, TransferStats};
pub use mem::DeviceBuffer;
pub use sanitizer::{Diagnostic, DiagnosticKind, SanitizerConfig, SanitizerReport, Severity};
pub use stats::{ExecCounters, LaunchStats, PipelineStats};
