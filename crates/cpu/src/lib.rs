//! Multi-threaded CPU network coding.
//!
//! This crate is the runnable counterpart of the paper's 8-core Mac Pro
//! baseline (IWQoS'07 / INFOCOM'09 lineage): loop-based GF(2^8)
//! multiplication over wide words standing in for SSE2, multi-threaded with
//! the two partitioning strategies of Sec. 5.3, and the 8-way parallel
//! multi-segment decoding of Sec. 5.2.
//!
//! * `encode` — [`ParallelEncoder`] with
//!   [`encode::Partitioning::PartitionedBlock`] (each coded block's bytes
//!   split across all threads, minimizing single-block latency) and
//!   [`encode::Partitioning::FullBlock`] (each thread encodes whole blocks,
//!   the streaming-server batch mode that wins at small block sizes).
//! * `decode` — [`ParallelSegmentDecoder`], one segment per
//!   thread (the Sec. 5.2 multi-segment scheme).
//!
//! Both coders run each call as one `std::thread::scope` wave of at most
//! `threads` threads; the first panic of a wave is resumed on the caller.
//!
//! * [`measure`] — wall-clock throughput helpers used by the Criterion
//!   benches and the figure harness's "real host CPU" columns.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod decode;
mod encode;
pub mod measure;
mod metrics;
mod wave;

pub use decode::ParallelSegmentDecoder;
pub use encode::{ParallelEncoder, Partitioning};
