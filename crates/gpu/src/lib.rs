//! GPU network-coding kernels — the paper's contribution, on the simulator.
//!
//! This crate ports every coding scheme of *Pushing the Envelope: Extreme
//! Network Coding on the GPU* (Shojania & Li, ICDCS 2009) onto the
//! [`nc_gpu_sim`] SIMT simulator:
//!
//! * [`encode_loop`] — the loop-based parallel encoder with the Fig. 2
//!   partitioning (one thread per 4-byte output word, 256-thread blocks,
//!   coefficient broadcast + coalesced source/coded streams).
//! * [`preprocess`] — the log-domain transformation kernels of Sec. 5.1.1
//!   (segment and coefficient matrix transformed once per segment).
//! * [`encode_table`] — the table-based encoder ladder Table-based-0 … 5
//!   of Sec. 5.1 (Fig. 7): global-memory tables, shared-memory tables with
//!   log-domain operands, folded zero tests, the remapped-sentinel
//!   predication trick, the texture-memory exp table, and the eight
//!   word-width exp replicas that dodge bank conflicts.
//! * [`decode_single`] — single-segment progressive Gauss-Jordan decoding
//!   with the Fig. 3 partitioning (one thread block per SM, private
//!   coefficient copies, partitioned payload), including the `atomicMin`
//!   pivot search (Sec. 5.4.2) and aggressive coefficient caching
//!   (Sec. 5.4.3).
//! * [`decode_multi`] — parallel multi-segment decoding (Sec. 5.2): stage 1
//!   inverts each segment's coefficient matrix via Gauss-Jordan on `[C|I]`
//!   (one or two segments per SM), stage 2 recovers the data with an
//!   encode-like matrix multiplication.
//! * [`device`] — the backend-agnostic launch layer: kernels implement
//!   [`DeviceKernel`] against the object-safe [`LaunchCtx`] surface and run
//!   unchanged on the cycle-model [`SimBackend`] or the measured
//!   [`HostDeviceBackend`] (parallel execution on `nc-pool` workers).
//! * [`api`] — host-side pipelines ([`GpuEncoder`], [`GpuMultiDecoder`],
//!   …) that manage transfers, preprocessing, launches and verification.
//! * [`ablation`] — isolated measurements of the design choices: source
//!   coalescing, Tb5 replica counts, stage-2 scheme, latency sensitivity.
//!
//! Every kernel is functionally executed: tests check the coded/decoded
//! bytes against the [`nc_rlnc`] CPU reference bit-for-bit, while the
//! simulator's cost model produces the throughput figures reproduced in
//! `nc-bench`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Warp-vectorized kernels build several parallel per-lane vectors (global
// addresses, shared addresses, values) in one `for lane` loop; rewriting
// them as iterator zips would hide the lane structure the kernels mirror.
#![allow(clippy::needless_range_loop)]

pub mod ablation;
pub mod api;
pub mod costs;
pub mod decode_multi;
pub mod decode_single;
pub mod device;
pub mod encode_loop;
pub mod encode_table;
pub mod preprocess;

pub use api::{
    EncodeScheme, Fidelity, GpuEncoder, GpuMultiDecoder, GpuProgressiveDecoder, PipelineError,
};
pub use device::{DeviceBackend, DeviceKernel, HostDeviceBackend, LaunchCtx, SimBackend};
pub use encode_table::TableVariant;
