//! Backend-agnostic erasure-codec traits for stream transfer.
//!
//! The transport in `nc-net` historically hard-wired dense RLNC: every
//! session held an [`StreamEncoder`] and every receiver a
//! [`StreamDecoder`]. The O(n³) decode of dense RLNC caps practical
//! generations near n=256, while the additive-FFT Reed–Solomon backend in
//! `nc-fft` decodes n=4096+ in O(n log n) — so the coding backend is now a
//! per-stream negotiation. This module defines the seam:
//!
//! * [`CodecId`] — the one-byte identifier carried in the announce frame.
//! * [`StreamCodecSender`] — what a sender session needs from a backend:
//!   stream shape plus "write one more frame of segment `s` into this
//!   buffer". Object-safe so sessions, servers, and the sharded server hold
//!   `Arc<dyn StreamCodecSender>` without caring which backend is inside.
//! * [`StreamCodecReceiver`] — the receiving half: absorb raw frame bytes,
//!   track per-segment completion, recover the stream.
//! * [`ErasureCodec`] — the factory tying both halves to a [`CodecId`];
//!   implemented by [`DenseRlncCodec`] here and by `nc_fft::Fft16Codec`.
//!
//! Dense RLNC is systematic on the wire: frame `seq < n` of a segment is
//! source block `seq` under a unit coefficient vector, and every later
//! frame is a combination under *random* coefficients drawn from the
//! session RNG (rateless). The deterministic codecs (systematic
//! Reed–Solomon, circular shift) ignore the RNG and pick the shard or
//! evaluation point by the sequence number alone.
//! [`StreamCodecSender::frame_into`] carries both so one call shape serves
//! both families.

use crate::error::Error;
use crate::segment::CodingConfig;
use crate::stream::{StreamDecoder, StreamEncoder};
use rand::RngCore;
use std::sync::Arc;

/// Identifies a coding backend on the wire (one byte in the announce).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum CodecId {
    /// Dense random linear network coding over GF(2^8) (the paper's
    /// scheme): random coefficient vectors, progressive Gauss-Jordan
    /// decode, recodable in the network.
    DenseRlnc,
    /// Systematic additive-FFT Reed–Solomon over GF(2^16) (`nc-fft`):
    /// deterministic shards, O(n log n) decode, zero-copy on loss-free
    /// delivery.
    Fft16,
    /// Multiplication-free circular-shift coding over Z₂₅₆\[z\]/(z^L − 1)
    /// ([`crate::circshift`]): byte rotations + wrapping integer adds,
    /// no GF tables or SIMD shuffles anywhere on the hot path.
    CircShift,
}

impl CodecId {
    /// The announce-frame byte for this codec.
    pub fn to_wire(self) -> u8 {
        match self {
            CodecId::DenseRlnc => 0,
            CodecId::Fft16 => 1,
            CodecId::CircShift => 2,
        }
    }

    /// Parses an announce-frame codec byte; `None` for ids this build does
    /// not know (the transport rejects those announces cleanly).
    pub fn from_wire(byte: u8) -> Option<CodecId> {
        match byte {
            0 => Some(CodecId::DenseRlnc),
            1 => Some(CodecId::Fft16),
            2 => Some(CodecId::CircShift),
            _ => None,
        }
    }
}

/// What one absorbed frame did to a [`StreamCodecReceiver`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Absorbed {
    /// Segment the frame belonged to.
    pub segment: usize,
    /// Whether the frame advanced decoding (new rank / new shard).
    pub innovative: bool,
    /// Whether this frame completed its segment.
    pub segment_complete: bool,
}

/// The sending half of a coding backend, as a stream of wire-ready frames.
///
/// Implementations are immutable after construction (interior mutability
/// at most), `Send + Sync`, and shared as `Arc<dyn StreamCodecSender>`
/// across every concurrent session serving the same content.
pub trait StreamCodecSender: Send + Sync {
    /// Which backend this is (negotiated via the announce frame).
    fn codec(&self) -> CodecId;

    /// The `(n, k)` generation shape of the stream.
    fn coding_config(&self) -> CodingConfig;

    /// Number of segments (generations) in the stream.
    fn total_segments(&self) -> usize;

    /// Unpadded byte length of the stream.
    fn original_len(&self) -> usize;

    /// Exact wire size of one data frame (constant per stream; sessions
    /// size datagrams and pacing from it).
    fn frame_wire_bytes(&self) -> usize;

    /// Writes the wire bytes of one more frame of `segment` into `out` —
    /// the backend's one encode body. Every byte of `out` is overwritten,
    /// so the caller may hand in any buffer (the transport passes the tail
    /// of a pooled datagram, behind its header: the frame is written once).
    ///
    /// `seq` is how many frames the caller has already requested for this
    /// segment: deterministic codecs use it to pick the next shard; dense
    /// RLNC sends source block `seq` verbatim while `seq < n`, with no GF
    /// work and nothing drawn, and draws each later frame's coefficients
    /// from `rng`.
    ///
    /// # Panics
    ///
    /// Panics if `segment >= total_segments()` or
    /// `out.len() != frame_wire_bytes()`.
    fn frame_into(&self, segment: usize, seq: u64, rng: &mut dyn RngCore, out: &mut [u8]);

    /// [`StreamCodecSender::frame_into`] a buffer from the process-wide
    /// [`nc_pool::BytesPool`], which drivers recycle after transmission.
    ///
    /// # Panics
    ///
    /// Panics if `segment >= total_segments()`.
    fn frame_wire(&self, segment: usize, seq: u64, rng: &mut dyn RngCore) -> Vec<u8> {
        let mut out = nc_pool::BytesPool::global().take_vec(self.frame_wire_bytes());
        self.frame_into(segment, seq, rng, &mut out);
        out
    }
}

/// The receiving half of a coding backend.
pub trait StreamCodecReceiver: Send {
    /// Which backend this is.
    fn codec(&self) -> CodecId;

    /// Absorbs one frame's wire bytes.
    ///
    /// # Errors
    ///
    /// Any parse or shape error from the backend ([`Error::SizeMismatch`],
    /// out-of-range segments, …). Errors leave the receiver usable; the
    /// transport counts them as malformed and drops the frame.
    fn absorb(&mut self, frame: &[u8]) -> Result<Absorbed, Error>;

    /// Whether `segment` is fully decoded (out-of-range reads as false).
    fn segment_complete(&self, segment: usize) -> bool;

    /// Segments fully decoded so far.
    fn segments_complete(&self) -> usize;

    /// Whether every segment is decoded.
    fn is_complete(&self) -> bool;

    /// Reassembles the stream once complete (`None` before that).
    fn recover(&self) -> Option<Vec<u8>>;

    /// Consumes the receiver for the stream. Backends that decode into one
    /// buffer override this to hand that buffer over instead of copying it.
    fn into_recovered(self: Box<Self>) -> Option<Vec<u8>> {
        self.recover()
    }
}

/// A coding backend: a [`CodecId`] plus factories for both stream halves.
pub trait ErasureCodec: Send + Sync {
    /// The id this backend answers to.
    fn id(&self) -> CodecId;

    /// Builds the sending half for `data` under `config`.
    ///
    /// # Errors
    ///
    /// Backend-specific shape errors (empty data, odd block size for
    /// GF(2^16) codecs, …).
    fn make_sender(
        &self,
        config: CodingConfig,
        data: &[u8],
    ) -> Result<Arc<dyn StreamCodecSender>, Error>;

    /// Builds the receiving half for an announced stream shape.
    ///
    /// # Errors
    ///
    /// Backend-specific shape errors; the transport treats them as a
    /// malformed announce.
    fn make_receiver(
        &self,
        config: CodingConfig,
        total_segments: usize,
        original_len: usize,
    ) -> Result<Box<dyn StreamCodecReceiver>, Error>;
}

/// The dense RLNC backend: [`StreamEncoder`] and [`StreamDecoder`] behind
/// the seam (the default when an announce carries no codec byte — every
/// pre-codec-negotiation sender is one of these).
#[derive(Copy, Clone, Debug, Default)]
pub struct DenseRlncCodec;

impl ErasureCodec for DenseRlncCodec {
    fn id(&self) -> CodecId {
        CodecId::DenseRlnc
    }

    fn make_sender(
        &self,
        config: CodingConfig,
        data: &[u8],
    ) -> Result<Arc<dyn StreamCodecSender>, Error> {
        Ok(Arc::new(StreamEncoder::new(config, data)?))
    }

    fn make_receiver(
        &self,
        config: CodingConfig,
        total_segments: usize,
        original_len: usize,
    ) -> Result<Box<dyn StreamCodecReceiver>, Error> {
        Ok(Box::new(StreamDecoder::new(config, total_segments, original_len)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn codec_ids_roundtrip_and_reject_unknown() {
        for id in [CodecId::DenseRlnc, CodecId::Fft16, CodecId::CircShift] {
            assert_eq!(CodecId::from_wire(id.to_wire()), Some(id));
        }
        assert_eq!(CodecId::from_wire(0xFF), None);
        assert_eq!(CodecId::from_wire(3), None);
    }

    #[test]
    fn dense_rlnc_roundtrips_through_the_trait_objects() {
        let config = CodingConfig::new(4, 16).unwrap();
        let data: Vec<u8> = (0..150u8).collect();
        let codec = DenseRlncCodec;
        let sender = codec.make_sender(config, &data).unwrap();
        assert_eq!(sender.codec(), CodecId::DenseRlnc);
        assert_eq!(sender.frame_wire_bytes(), 8 + config.coded_block_bytes());
        let mut receiver =
            codec.make_receiver(config, sender.total_segments(), sender.original_len()).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut seq = vec![0u64; sender.total_segments()];
        let mut completions = 0;
        while !receiver.is_complete() {
            for (segment, seq) in seq.iter_mut().enumerate() {
                let wire = sender.frame_wire(segment, *seq, &mut rng);
                assert_eq!(wire.len(), sender.frame_wire_bytes());
                *seq += 1;
                let absorbed = receiver.absorb(&wire).unwrap();
                assert_eq!(absorbed.segment, segment);
                if absorbed.segment_complete {
                    completions += 1;
                    assert!(receiver.segment_complete(segment));
                }
            }
        }
        assert_eq!(completions, sender.total_segments());
        assert_eq!(receiver.segments_complete(), sender.total_segments());
        assert_eq!(receiver.recover().unwrap(), data);
    }

    #[test]
    fn absorb_errors_leave_the_receiver_usable() {
        let config = CodingConfig::new(4, 16).unwrap();
        let mut receiver = StreamDecoder::new(config, 2, 100);
        assert!(receiver.absorb(&[1, 2, 3]).is_err());
        assert!(!receiver.is_complete());
        assert_eq!(receiver.segments_complete(), 0);
    }
}
