//! **nc-fft** — O(n log n) GF(2^16) additive-FFT erasure coding.
//!
//! Dense RLNC (the paper's Sec. 3 workhorse, [`nc_rlnc`]) pays O(n²) in
//! coefficient vectors on the wire and O(n³) in Gaussian elimination at the
//! receiver, which caps practical generation sizes around a few hundred
//! blocks. This crate is the escape hatch for bulk transfer: a *systematic
//! Reed–Solomon* code over GF(2^16) whose encode and decode both run in
//! O(n log n) via the LCH additive FFT (novel polynomial basis) and a
//! formal-derivative erasure decoder — the construction behind Leopard /
//! `reed-solomon-16`, reimplemented here from scratch on the workspace's
//! own primitives. Up to 2^16 shards per segment, no coefficient vectors
//! on the wire (a 4-byte shard index replaces the n-byte dense vector),
//! and a *systematic fast path*: on a loss-free link the receiver
//! reassembles by pure copy without touching the field.
//!
//! Layer map:
//!
//! * [`tables`](mod@tables) — field construction: Cantor-basis log/exp, FFT skews,
//!   LogWalsh; built once behind a model-checked [`cell::TableCell`].
//! * [`simd`] — split-plane region kernels and the per-constant
//!   [`simd::Multiplier`]: fused butterflies on GFNI / AVX2 / SSSE3 / NEON
//!   with a portable fallback, runtime-dispatched like `nc_gf256::simd`,
//!   overridable with `NC_GF16_BACKEND`.
//! * [`afft`] — the additive FFT/IFFT and the formal derivative over one
//!   contiguous [`afft::Arena`] of shards, walked depth first so every
//!   cache level is passed over a few times, not once per layer.
//! * [`engine`] — [`engine::encode_segment`] / [`engine::decode_segment`]:
//!   shard-level systematic encode and erasure decode over a
//!   [`nc_pool::BytesPool`]-recycled arena, with
//!   `fft.encode_ns` / `fft.decode_ns` telemetry.
//! * [`stream`] — [`Fft16Codec`]: the [`nc_rlnc::codec::ErasureCodec`]
//!   implementation nc-net negotiates per stream.
//!
//! The whole crate is `#![deny(unsafe_code)]` except the SIMD module,
//! which carries the same per-block SAFETY discipline as `nc-gf256`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod afft;
pub mod cell;
pub mod engine;
pub mod metrics;
pub mod simd;
pub mod stream;
pub mod tables;

pub use engine::{decode_segment, encode_segment};
pub use stream::{Fft16Codec, Fft16StreamReceiver, Fft16StreamSender};
pub use tables::{tables, Tables, MODULUS, ORDER};
