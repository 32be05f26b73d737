//! Lossy-datagram coded transport for RLNC streams: real UDP sockets,
//! deterministic fault injection, and rateless multi-receiver sessions.
//!
//! The paper deploys its GPU encoder behind a UDP push over gigabit
//! Ethernet; this crate is that transport layer. Everything above the
//! socket is a sans-I/O state machine, so the exact same sender/receiver
//! logic runs over three substrates:
//!
//! - [`channel::UdpChannel`] — a connected UDP socket batched through
//!   the same `sendmmsg`/`recvmmsg` path as the server (deployment,
//!   loopback benchmarks);
//! - [`channel::MemoryChannel`] — an in-process pair (fast tests);
//! - either of the above wrapped in [`channel::FaultyChannel`] — seeded,
//!   reproducible drop/duplicate/reorder/bit-flip faults.
//!
//! Layer map:
//!
//! | Module | Role |
//! |---|---|
//! | [`wire`] | versioned datagram codec: magic, session ids, CRC-32, typed payloads |
//! | [`codecs`] | coding-backend registry: the announce's codec id → dense RLNC or FFT16 |
//! | [`channel`] | the I/O seam: one batched socket type, memory pairs, fault injection |
//! | [`pacing`] | token-bucket wire pacing + adaptive redundancy control |
//! | [`session`] | sans-I/O rateless sender state machine |
//! | [`receiver`] | sans-I/O receiver state machine + blocking driver |
//! | [`sender`] | blocking sender driver over any [`channel::Channel`] |
//! | [`server`] | serving vocabulary: [`ServerConfig`], [`ServedTransfer`] (per-session stats) |
//! | `sysio` | the platform seam: `SO_REUSEPORT` groups + `sendmmsg`/`recvmmsg` on Linux, `std` fallback elsewhere |
//! | [`shard`] | the server: one socket and session map per `nc-pool` worker (one shard is a single-socket server), batched syscalls |
//!
//! There is **no retransmission path**. Loss is repaired by sending fresh
//! coded frames for whichever segments still lack rank — the rateless
//! property that lets one sender serve many receivers with uncorrelated
//! loss patterns from a single coded stream. Feedback (tiny ACK datagrams
//! with a per-segment completion bitmap) only stops finished segments from
//! consuming budget and calibrates the redundancy factor.
//!
//! ```
//! use nc_net::channel::{memory_pair, FaultProfile, FaultyChannel};
//! use nc_net::receiver::{run_receiver, ReceiverConfig, ReceiverSession};
//! use nc_net::sender::send_stream;
//! use nc_net::session::SenderConfig;
//! use nc_rlnc::stream::StreamEncoder;
//! use nc_rlnc::CodingConfig;
//! use std::sync::Arc;
//! use std::time::Instant;
//!
//! let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
//! let encoder = Arc::new(StreamEncoder::new(CodingConfig::new(8, 128)?, &data)?);
//!
//! let (tx_end, rx_end) = memory_pair();
//! // 10% loss on the data path, deterministic under seed 7.
//! let mut tx_end = FaultyChannel::new(tx_end, FaultProfile::lossy(0.10), 7);
//! let receiver = std::thread::spawn(move || {
//!     let mut rx_end = rx_end;
//!     let mut session = ReceiverSession::new(1, ReceiverConfig::default(), Instant::now());
//!     run_receiver(&mut rx_end, &mut session).unwrap();
//!     session.into_recovered()
//! });
//! let report = send_stream(&mut tx_end, encoder, 1, SenderConfig::default(), 42)?;
//! assert_eq!(receiver.join().unwrap().unwrap(), data);
//! assert!(report.overhead_ratio().unwrap() >= 1.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// `deny`, not `forbid`: the one `#[allow(unsafe_code)]` in the crate sits
// on `sysio::linux`, the module that declares the batched syscalls every
// socket in the crate is built on. Everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod codecs;
mod metrics;
pub mod pacing;
pub mod receiver;
pub mod sender;
pub mod server;
pub mod session;
pub mod shard;
mod sysio;
pub mod wire;

pub use channel::{
    memory_pair, BatchSocket, Channel, FaultProfile, FaultStats, FaultyChannel, MemoryChannel,
    UdpChannel,
};
pub use codecs::{codec_for, make_sender};
pub use nc_pool::PooledBuf;
pub use nc_rlnc::codec::CodecId;
pub use receiver::{
    run_receiver, ReceiverConfig, ReceiverOutcome, ReceiverReport, ReceiverSession,
};
pub use sender::{run_sender, send_stream};
pub use server::{ServedTransfer, ServerConfig};
pub use session::{SenderConfig, SenderOutcome, SenderReport, SenderSession};
pub use shard::{ShardedServer, ShardedServerConfig};
pub use wire::{Datagram, Payload, SegmentBitmap, StreamMeta, WireError};
