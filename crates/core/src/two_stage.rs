//! Two-stage decoding: invert the coefficient matrix, then multiply.
//!
//! The paper's Sec. 5.2 observes that progressive Gauss-Jordan decoding
//! offers little parallelism (each block's elimination depends on the
//! previous ones), and proposes decomposing decoding into:
//!
//! 1. **Stage 1** — Gauss-Jordan elimination on the aggregate `[C | I]` to
//!    obtain `C⁻¹` (small, serial, cheap for large k);
//! 2. **Stage 2** — the recovery `b = C⁻¹ · x`, a matrix multiplication as
//!    embarrassingly parallel as encoding.
//!
//! [`crate::Decoder`] is built the same way, on the same
//! `Elimination` core; what this type adds is that it keeps the
//! innovative blocks themselves ([`TwoStageDecoder::blocks`], the input the
//! GPU multi-segment decoder in `nc-gpu` is fed and checked against) and
//! runs stage 2 when asked rather than on the completing push.

use crate::block::CodedBlock;
use crate::decoder::Elimination;
use crate::error::Error;
use crate::segment::CodingConfig;
use std::time::{Duration, Instant};

/// Collects `n` innovative coded blocks, then recovers the segment with one
/// matrix product.
///
/// Stage 1 is spread over the arrivals: each [`push`](Self::push) extends
/// the `[C | I]` elimination by one row (O(n²) bytes), which is also what
/// rejects dependent blocks, so the buffer only ever holds innovative
/// blocks. All payload work is deferred to [`decode`](Self::decode).
///
/// ```
/// use nc_rlnc::{CodingConfig, Encoder, Segment, TwoStageDecoder};
/// use rand::SeedableRng;
///
/// let config = CodingConfig::new(8, 16)?;
/// let data = vec![0x42u8; config.segment_bytes()];
/// let encoder = Encoder::new(Segment::from_bytes(config, data.clone())?);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(4);
///
/// let mut decoder = TwoStageDecoder::new(config);
/// while !decoder.is_full() {
///     decoder.push(encoder.encode(&mut rng))?;
/// }
/// assert_eq!(decoder.decode()?, data);
/// # Ok::<(), nc_rlnc::Error>(())
/// ```
#[derive(Clone, Debug)]
pub struct TwoStageDecoder {
    config: CodingConfig,
    blocks: Vec<CodedBlock>,
    elimination: Elimination,
    /// Time the pushes have spent in stage 1, reported by `decode` as one
    /// `core.stage1_invert_ns` sample (zero with telemetry off).
    stage1: Duration,
}

impl TwoStageDecoder {
    /// Creates an empty two-stage decoder.
    pub fn new(config: CodingConfig) -> TwoStageDecoder {
        TwoStageDecoder {
            config,
            blocks: Vec::new(),
            elimination: Elimination::new(config),
            stage1: Duration::ZERO,
        }
    }

    /// Number of innovative blocks buffered so far.
    #[inline]
    pub(crate) fn rank(&self) -> usize {
        self.elimination.rank()
    }

    /// Whether `n` innovative blocks have been buffered.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.elimination.is_full()
    }

    /// Buffers one coded block; dependent blocks — and every block once
    /// full — are rejected (returns `false`) without being stored.
    ///
    /// # Errors
    ///
    /// Propagates [`CodedBlock::check`] failures.
    pub fn push(&mut self, block: CodedBlock) -> Result<bool, Error> {
        block.check(self.config)?;
        let started = nc_telemetry::enabled().then(Instant::now);
        let innovative = self.elimination.push(block.coefficients());
        self.stage1 += started.map_or(Duration::ZERO, |t| t.elapsed());
        if innovative {
            self.blocks.push(block);
        }
        Ok(innovative)
    }

    /// Runs stage 2 over the buffered payloads and returns the decoded
    /// segment.
    ///
    /// # Errors
    ///
    /// [`Error::RankDeficient`] before `n` innovative blocks are buffered.
    pub fn decode(&self) -> Result<Vec<u8>, Error> {
        if !self.is_full() {
            return Err(Error::RankDeficient { rank: self.rank(), needed: self.config.blocks() });
        }
        let m = crate::metrics::metrics();
        // Stage 1 (invert C) already happened, one row per push.
        m.stage1_invert_ns.record_duration(self.stage1);
        // Stage 2: b = C⁻¹ · x.
        let stage2 = m.stage2_multiply_ns.span();
        let payloads: Vec<&[u8]> = self.blocks.iter().map(CodedBlock::payload).collect();
        let mut decoded = vec![0; self.config.segment_bytes()];
        self.elimination.multiply_into(&payloads, &mut decoded);
        stage2.stop();
        Ok(decoded)
    }

    /// The buffered innovative blocks.
    pub fn blocks(&self) -> &[CodedBlock] {
        &self.blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::Decoder;
    use crate::encoder::Encoder;
    use crate::segment::Segment;
    use rand::{Rng, SeedableRng};

    fn setup(n: usize, k: usize, seed: u64) -> (Vec<u8>, Encoder, rand::rngs::StdRng) {
        let config = CodingConfig::new(n, k).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data: Vec<u8> = (0..config.segment_bytes()).map(|_| rng.gen()).collect();
        let encoder = Encoder::new(Segment::from_bytes(config, data.clone()).unwrap());
        (data, encoder, rng)
    }

    #[test]
    fn two_stage_recovers_segment() {
        let (data, encoder, mut rng) = setup(12, 48, 2);
        let mut decoder = TwoStageDecoder::new(encoder.config());
        while !decoder.is_full() {
            decoder.push(encoder.encode(&mut rng)).unwrap();
        }
        assert_eq!(decoder.decode().unwrap(), data);
    }

    #[test]
    fn two_stage_matches_progressive() {
        let (_, encoder, mut rng) = setup(10, 40, 8);
        let blocks: Vec<_> = (0..10).map(|_| encoder.encode(&mut rng)).collect();

        let mut progressive = Decoder::new(encoder.config());
        let mut two_stage = TwoStageDecoder::new(encoder.config());
        for b in &blocks {
            progressive.push(b.clone()).unwrap();
            two_stage.push(b.clone()).unwrap();
        }
        if progressive.is_complete() {
            assert_eq!(progressive.recover().unwrap(), two_stage.decode().unwrap());
        } else {
            assert!(!two_stage.is_full());
        }
    }

    #[test]
    fn dependent_blocks_are_rejected_on_arrival() {
        let (_, encoder, mut rng) = setup(6, 12, 13);
        let mut decoder = TwoStageDecoder::new(encoder.config());
        let b = encoder.encode(&mut rng);
        assert!(decoder.push(b.clone()).unwrap());
        assert!(!decoder.push(b).unwrap());
        assert_eq!(decoder.rank(), 1);
        assert_eq!(decoder.blocks().len(), 1);
    }

    #[test]
    fn decode_before_full_is_rank_deficient() {
        let (_, encoder, mut rng) = setup(6, 12, 14);
        let mut decoder = TwoStageDecoder::new(encoder.config());
        decoder.push(encoder.encode(&mut rng)).unwrap();
        assert!(matches!(decoder.decode(), Err(Error::RankDeficient { rank: 1, needed: 6 })));
    }

    #[test]
    fn extra_blocks_after_full_are_ignored() {
        let (data, encoder, mut rng) = setup(5, 10, 15);
        let mut decoder = TwoStageDecoder::new(encoder.config());
        while !decoder.is_full() {
            decoder.push(encoder.encode(&mut rng)).unwrap();
        }
        assert!(!decoder.push(encoder.encode(&mut rng)).unwrap());
        assert_eq!(decoder.decode().unwrap(), data);
    }
}
