//! Random linear network coding (RLNC) over GF(2^8).
//!
//! This crate is the reference implementation of the coding scheme whose
//! GPU acceleration is the subject of *Pushing the Envelope: Extreme Network
//! Coding on the GPU* (Shojania & Li, ICDCS 2009). Data to be disseminated
//! is divided into `n` blocks of `k` bytes each; a coded block is a random
//! linear combination of the source blocks with coefficients drawn from
//! GF(2^8) (the paper's Eq. 1), and a receiver recovers the source once it
//! has gathered `n` linearly independent coded blocks (Eq. 2).
//!
//! # Architecture
//!
//! * [`CodingConfig`] — the `(n, k)` parameters of one *generation*.
//! * [`Segment`] — `n·k` bytes of source data, the coding unit.
//! * [`Encoder`] — produces [`CodedBlock`]s from a segment (random, seeded,
//!   or systematic).
//! * [`Recoder`] — re-combines received coded blocks without decoding, the
//!   property that distinguishes random linear codes from fountain/RS codes
//!   (paper Sec. 2).
//! * [`Decoder`] — **progressive Gauss-Jordan elimination** to reduced
//!   row-echelon form, the paper's Sec. 3 decoding process: linearly
//!   dependent blocks reduce to an all-zero row and are discarded with no
//!   explicit dependence check.
//! * [`TwoStageDecoder`] — the paper's Sec. 5.2 alternative: first invert
//!   the coefficient matrix via Gauss-Jordan on `[C | I]`, then recover the
//!   source with one highly parallel matrix multiplication `C⁻¹·x`.
//! * [`matrix::GfMatrix`] — dense GF(2^8) matrix algebra shared by the
//!   decoders and by the GPU kernels' host-side verification.
//! * [`stream`] — whole-stream transfer: a segmented stream's dense frames,
//!   written and absorbed through the [`codec`] seam and decoded in place.
//! * [`circshift`] — a GF-multiplication-free alternative codec behind the
//!   same [`codec`] seam: byte-wise circular shifts + wrapping integer
//!   additions over Z₂₅₆\[z\]/(z^L − 1) (Shum & Hou).
//!
//! # Example
//!
//! ```
//! use nc_rlnc::{CodingConfig, Encoder, Decoder, Segment};
//! use rand::SeedableRng;
//!
//! let config = CodingConfig::new(16, 1024)?;
//! let data = vec![0xAB; config.segment_bytes()];
//! let segment = Segment::from_bytes(config, data.clone())?;
//! let encoder = Encoder::new(segment);
//! let mut decoder = Decoder::new(config);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//!
//! while !decoder.is_complete() {
//!     decoder.push(encoder.encode(&mut rng))?;
//! }
//! assert_eq!(decoder.recover().unwrap(), data);
//! # Ok::<(), nc_rlnc::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod circshift;
pub mod codec;
pub mod coeff;
pub mod decoder;
pub mod encoder;
pub mod error;
pub mod matrix;
mod metrics;
pub mod recoder;
pub mod segment;
pub mod stats;
pub mod stream;
pub mod two_stage;

pub use block::CodedBlock;
pub use circshift::{CircShiftCodec, CircShiftReceiver, CircShiftSender};
pub use codec::{CodecId, ErasureCodec, StreamCodecReceiver, StreamCodecSender};
pub use coeff::CoefficientRng;
pub use decoder::Decoder;
pub use encoder::Encoder;
pub use error::Error;
pub use matrix::GfMatrix;
pub use recoder::Recoder;
pub use segment::{CodingConfig, Segment};
pub use stats::DecodeStats;
pub use two_stage::TwoStageDecoder;

/// Convenient glob-import surface: `use nc_rlnc::prelude::*;`.
pub mod prelude {
    pub use crate::{
        CodedBlock, CodingConfig, Decoder, Encoder, Error, GfMatrix, Recoder, Segment,
        TwoStageDecoder,
    };
}
