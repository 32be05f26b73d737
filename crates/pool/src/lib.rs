//! Buffer recycling for the coding and transport hot paths.
//!
//! The coding hot paths move `Vec<u8>`s around constantly: every coded
//! block carries a coefficient vector and a payload, and every received
//! datagram becomes a frame. Allocating each afresh makes the allocator a
//! dispatch cost once the SIMD kernels have made the field arithmetic
//! cheap. This crate keeps those allocations alive between uses, with no
//! external dependencies:
//!
//! - [`BytesPool`] / [`PooledBuf`] — capacity-aware recycling of byte
//!   buffers; a dropped [`PooledBuf`] returns its allocation to the pool.
//! - [`BlockArena`] — the coded-block specialization: one shelf for
//!   coefficient vectors, one for payloads, shared process-wide so buffers
//!   an encoder allocates come back from the decoder that consumes them.
//!
//! Both record into [`nc_telemetry`] under `pool.*`: buffer-pool hits,
//! misses and bytes recycled. The crate spawns no threads, but
//! [`BytesPool::global`] keeps a magazine per calling thread in front of
//! its shared shelf: at most 64 buffers in each capacity class up to
//! 64 KiB, so a shard loop or client that recycles the datagrams it takes
//! touches no lock or shared count, and the thread's exit (a scoped shard
//! or client thread ends with every `serve`) hands what it held to the
//! shelf. Pools made with [`BytesPool::new`], and [`BlockArena`], keep
//! the shelf alone.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buffers;
mod metrics;

pub use buffers::{BlockArena, BytesPool, PooledBuf};
