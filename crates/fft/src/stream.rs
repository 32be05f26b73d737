//! The [`ErasureCodec`] implementation nc-net negotiates per stream.
//!
//! A stream is segmented exactly like dense RLNC: `total_segments`
//! generations of `n` blocks × `k` bytes, the last zero-padded. Per
//! segment the sender precomputes `n` recovery shards (a rate-1/2
//! systematic code — the same 2× redundancy budget a dense-RLNC sender
//! spreads over random combinations) and serves shards round-robin by
//! frame sequence number: originals `0..n` first, then recovery `n..2n`,
//! wrapping. On a loss-free link the first `n` frames of a segment are
//! the originals themselves and the receiver completes by pure copy — the
//! *systematic fast path* (`fft.systematic_fast_path`).
//!
//! # Frame format
//!
//! Dense RLNC ships an `n`-byte coefficient vector per frame; the
//! deterministic code replaces it with a 4-byte shard index:
//!
//! ```text
//! [segment: u32 LE][shard: u32 LE][payload: k bytes]
//! ```
//!
//! `shard < n` is original shard `shard`; `n <= shard < 2n` is recovery
//! shard `shard - n`. Total `8 + k` bytes versus RLNC's `8 + n + k` — at
//! n=4096 the per-frame overhead drops from ~4 KiB to 8 bytes.

use crate::engine::{decode_segment, encode_segment};
use crate::tables::ORDER;
use nc_pool::BytesPool;
use nc_rlnc::codec::{Absorbed, CodecId, ErasureCodec, StreamCodecReceiver, StreamCodecSender};
use nc_rlnc::{CodingConfig, Error};
use rand::RngCore;
use std::sync::Arc;

/// Frame header bytes: segment + shard index.
pub(crate) const FRAME_HEADER_BYTES: usize = 8;

/// Validates a coding config for GF(2^16) shard coding.
fn validate(config: CodingConfig) -> Result<(), Error> {
    if !config.block_size().is_multiple_of(2) {
        return Err(Error::InvalidConfig {
            reason: "FFT codec blocks must be even-length (GF(2^16) symbols)",
        });
    }
    // Encode evaluates over cosets m..m(chunks+1) with m = n rounded up
    // to a power of two and one chunk of originals; 4m <= ORDER keeps
    // both encode and decode transforms inside the field.
    if config.blocks().next_power_of_two() * 4 > ORDER {
        return Err(Error::InvalidConfig {
            reason: "FFT codec supports at most 2^14 blocks per segment",
        });
    }
    Ok(())
}

/// The sending half: every segment's original and recovery shards,
/// precomputed at construction, served round-robin by sequence number.
#[derive(Debug)]
pub struct Fft16StreamSender {
    config: CodingConfig,
    total_segments: usize,
    original_len: usize,
    /// `segments[s]` holds `2n` shards: originals then recovery.
    segments: Vec<Vec<Vec<u8>>>,
}

impl Fft16StreamSender {
    /// Segments `data` and precomputes recovery shards for every segment.
    pub fn new(config: CodingConfig, data: &[u8]) -> Result<Fft16StreamSender, Error> {
        validate(config)?;
        if data.is_empty() {
            return Err(Error::InvalidConfig { reason: "stream data must be non-empty" });
        }
        let n = config.blocks();
        let k = config.block_size();
        let segment_bytes = config.segment_bytes();
        let total_segments = data.len().div_ceil(segment_bytes);
        // lint: allow(vec-capacity) — container of shard handles built once per stream, not a per-frame byte buffer (those are pooled).
        let mut segments = Vec::with_capacity(total_segments);
        for s in 0..total_segments {
            let base = s * segment_bytes;
            // lint: allow(vec-capacity) — container of shard handles built once per segment, not a per-frame byte buffer.
            let mut shards: Vec<Vec<u8>> = Vec::with_capacity(2 * n);
            for b in 0..n {
                let mut shard = vec![0u8; k];
                let from = base + b * k;
                if from < data.len() {
                    let take = k.min(data.len() - from);
                    shard[..take].copy_from_slice(&data[from..from + take]);
                }
                shards.push(shard);
            }
            let refs: Vec<&[u8]> = shards.iter().map(|s| s.as_slice()).collect();
            let recovery = encode_segment(&refs, n)?;
            shards.extend(recovery);
            segments.push(shards);
        }
        Ok(Fft16StreamSender { config, total_segments, original_len: data.len(), segments })
    }
}

impl StreamCodecSender for Fft16StreamSender {
    fn codec(&self) -> CodecId {
        CodecId::Fft16
    }

    fn coding_config(&self) -> CodingConfig {
        self.config
    }

    fn total_segments(&self) -> usize {
        self.total_segments
    }

    fn original_len(&self) -> usize {
        self.original_len
    }

    fn frame_wire_bytes(&self) -> usize {
        FRAME_HEADER_BYTES + self.config.block_size()
    }

    fn frame_into(&self, segment: usize, seq: u64, _rng: &mut dyn RngCore, out: &mut [u8]) {
        let shards = &self.segments[segment];
        let shard = (seq % shards.len() as u64) as usize;
        assert_eq!(out.len(), self.frame_wire_bytes(), "frame buffer length");
        let (header, payload) = out.split_at_mut(FRAME_HEADER_BYTES);
        header[0..4].copy_from_slice(&(segment as u32).to_le_bytes());
        header[4..8].copy_from_slice(&(shard as u32).to_le_bytes());
        payload.copy_from_slice(&shards[shard]);
    }
}

/// One segment's receive state.
#[derive(Debug)]
enum SegState {
    /// Still collecting shards: `original`/`recovery` slot per position
    /// (both empty until the segment's first shard), `have` of them filled.
    Collecting { original: Vec<Option<Vec<u8>>>, recovery: Vec<Option<Vec<u8>>>, have: usize },
    /// Decoded: the `n` original shards in order.
    Done(Vec<Vec<u8>>),
}

/// The receiving half: collects distinct shards per segment and decodes
/// the moment any `n` of them are in (pure copy when the `n` are the
/// originals themselves).
#[derive(Debug)]
pub struct Fft16StreamReceiver {
    config: CodingConfig,
    original_len: usize,
    segments: Vec<SegState>,
    complete: usize,
}

impl Fft16StreamReceiver {
    /// A receiver for an announced stream shape.
    pub fn new(
        config: CodingConfig,
        total_segments: usize,
        original_len: usize,
    ) -> Result<Fft16StreamReceiver, Error> {
        validate(config)?;
        if total_segments == 0 {
            return Err(Error::InvalidConfig { reason: "stream needs at least one segment" });
        }
        // The shard slots are sized by each segment's first shard: what an
        // announce alone costs is this one vector, not `2n` slots a segment.
        let segments = (0..total_segments)
            .map(|_| SegState::Collecting { original: Vec::new(), recovery: Vec::new(), have: 0 })
            .collect();
        Ok(Fft16StreamReceiver { config, original_len, segments, complete: 0 })
    }
}

impl StreamCodecReceiver for Fft16StreamReceiver {
    fn codec(&self) -> CodecId {
        CodecId::Fft16
    }

    fn absorb(&mut self, frame: &[u8]) -> Result<Absorbed, Error> {
        let n = self.config.blocks();
        let k = self.config.block_size();
        if frame.len() != FRAME_HEADER_BYTES + k {
            return Err(Error::SizeMismatch {
                expected: FRAME_HEADER_BYTES + k,
                actual: frame.len(),
            });
        }
        let segment = u32::from_le_bytes(frame[0..4].try_into().expect("4 bytes")) as usize;
        let shard = u32::from_le_bytes(frame[4..8].try_into().expect("4 bytes")) as usize;
        if segment >= self.segments.len() {
            return Err(Error::InvalidConfig { reason: "frame segment beyond announced stream" });
        }
        if shard >= 2 * n {
            return Err(Error::InvalidConfig { reason: "frame shard index beyond 2n" });
        }
        let state = &mut self.segments[segment];
        let SegState::Collecting { original, recovery, have } = state else {
            return Ok(Absorbed { segment, innovative: false, segment_complete: false });
        };
        if original.is_empty() {
            original.resize(n, None);
            recovery.resize(n, None);
        }
        let slot = if shard < n { &mut original[shard] } else { &mut recovery[shard - n] };
        if slot.is_some() {
            return Ok(Absorbed { segment, innovative: false, segment_complete: false });
        }
        // Pool vectors: the collected shards go back to the pool after decode.
        let pool = BytesPool::global();
        *slot = Some(pool.take_vec_copy(&frame[FRAME_HEADER_BYTES..]));
        *have += 1;
        if *have < n {
            return Ok(Absorbed { segment, innovative: true, segment_complete: false });
        }
        // Any n distinct shards decode (all-originals is the systematic
        // fast path inside `decode_segment`).
        let orig_refs: Vec<Option<&[u8]>> = original.iter().map(|s| s.as_deref()).collect();
        let rec_refs: Vec<Option<&[u8]>> = recovery.iter().map(|s| s.as_deref()).collect();
        let decoded = decode_segment(&orig_refs, &rec_refs)?;
        for shard in original.drain(..).chain(recovery.drain(..)).flatten() {
            pool.recycle(shard);
        }
        *state = SegState::Done(decoded);
        self.complete += 1;
        Ok(Absorbed { segment, innovative: true, segment_complete: true })
    }

    fn segment_complete(&self, segment: usize) -> bool {
        matches!(self.segments.get(segment), Some(SegState::Done(_)))
    }

    fn segments_complete(&self) -> usize {
        self.complete
    }

    fn is_complete(&self) -> bool {
        self.complete == self.segments.len()
    }

    fn recover(&self) -> Option<Vec<u8>> {
        if !self.is_complete() {
            return None;
        }
        let mut out = nc_pool::BytesPool::global()
            .take_capacity(self.segments.len() * self.config.segment_bytes());
        for state in &self.segments {
            let SegState::Done(shards) = state else { return None };
            for shard in shards {
                out.extend_from_slice(shard);
            }
        }
        out.truncate(self.original_len);
        Some(out)
    }
}

/// The additive-FFT backend as an [`ErasureCodec`] factory.
#[derive(Copy, Clone, Debug, Default)]
pub struct Fft16Codec;

impl ErasureCodec for Fft16Codec {
    fn id(&self) -> CodecId {
        CodecId::Fft16
    }

    fn make_sender(
        &self,
        config: CodingConfig,
        data: &[u8],
    ) -> Result<Arc<dyn StreamCodecSender>, Error> {
        Ok(Arc::new(Fft16StreamSender::new(config, data)?))
    }

    fn make_receiver(
        &self,
        config: CodingConfig,
        total_segments: usize,
        original_len: usize,
    ) -> Result<Box<dyn StreamCodecReceiver>, Error> {
        Ok(Box::new(Fft16StreamReceiver::new(config, total_segments, original_len)?))
    }
}

#[cfg(all(test, not(nc_check)))]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn stream(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 131 + 7) as u8).collect()
    }

    #[test]
    fn loss_free_transfer_takes_the_systematic_fast_path() {
        let config = CodingConfig::new(8, 32).unwrap();
        let data = stream(8 * 32 * 2 + 100); // 3 segments, last padded
        let sender = Fft16StreamSender::new(config, &data).unwrap();
        assert_eq!(sender.total_segments(), 3);
        let mut receiver =
            Fft16StreamReceiver::new(config, sender.total_segments(), data.len()).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let before = crate::metrics::metrics().systematic_fast_path.get();
        for segment in 0..sender.total_segments() {
            for seq in 0..8u64 {
                let wire = sender.frame_wire(segment, seq, &mut rng);
                assert_eq!(wire.len(), sender.frame_wire_bytes());
                let absorbed = receiver.absorb(&wire).unwrap();
                assert_eq!(absorbed.segment_complete, seq == 7);
            }
        }
        assert!(receiver.is_complete());
        assert_eq!(receiver.recover().unwrap(), data);
        assert_eq!(crate::metrics::metrics().systematic_fast_path.get(), before + 3);
    }

    #[test]
    fn lossy_transfer_decodes_from_any_n_distinct_shards() {
        let config = CodingConfig::new(16, 18).unwrap();
        let data = stream(16 * 18 * 2 - 31);
        let codec = Fft16Codec;
        let sender = codec.make_sender(config, &data).unwrap();
        let mut receiver =
            codec.make_receiver(config, sender.total_segments(), sender.original_len()).unwrap();
        let mut rng = StdRng::seed_from_u64(33);
        let mut seq = vec![0u64; sender.total_segments()];
        while !receiver.is_complete() {
            for (segment, seq) in seq.iter_mut().enumerate() {
                if receiver.segment_complete(segment) {
                    continue;
                }
                let wire = sender.frame_wire(segment, *seq, &mut rng);
                *seq += 1;
                if rng.gen_bool(0.4) {
                    continue; // drop
                }
                receiver.absorb(&wire).unwrap();
            }
        }
        assert_eq!(receiver.recover().unwrap(), data);
    }

    #[test]
    fn duplicates_are_not_innovative() {
        let config = CodingConfig::new(4, 10).unwrap();
        let data = stream(4 * 10);
        let sender = Fft16StreamSender::new(config, &data).unwrap();
        let mut receiver = Fft16StreamReceiver::new(config, 1, data.len()).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let wire = sender.frame_wire(0, 0, &mut rng);
        assert!(receiver.absorb(&wire).unwrap().innovative);
        assert!(!receiver.absorb(&wire).unwrap().innovative);
    }

    #[test]
    fn hostile_frames_are_rejected_cleanly() {
        let config = CodingConfig::new(4, 10).unwrap();
        let mut receiver = Fft16StreamReceiver::new(config, 2, 80).unwrap();
        assert!(receiver.absorb(&[1, 2, 3]).is_err(), "truncated");
        let mut bad_segment = vec![0u8; FRAME_HEADER_BYTES + 10];
        bad_segment[0..4].copy_from_slice(&9u32.to_le_bytes());
        assert!(receiver.absorb(&bad_segment).is_err(), "segment out of range");
        let mut bad_shard = vec![0u8; FRAME_HEADER_BYTES + 10];
        bad_shard[4..8].copy_from_slice(&8u32.to_le_bytes());
        assert!(receiver.absorb(&bad_shard).is_err(), "shard index beyond 2n");
        assert_eq!(receiver.segments_complete(), 0);
    }

    #[test]
    fn odd_block_size_is_rejected_at_both_ends() {
        let config = CodingConfig::new(4, 9).unwrap();
        assert!(Fft16StreamSender::new(config, &[1, 2, 3]).is_err());
        assert!(Fft16StreamReceiver::new(config, 1, 3).is_err());
    }
}
