//! Recoding: producing fresh coded blocks from received coded blocks
//! without decoding.
//!
//! This is the property that makes random linear codes suitable for
//! randomized *network* coding (paper Sec. 2): "random linear codes are
//! simple, effective, and can be recoded without affecting the guarantee to
//! decode". An intermediate node combines whatever coded blocks it holds
//! with fresh random coefficients; the composite coefficients delivered
//! downstream are computed by the same linear combination.

use crate::block::CodedBlock;
use crate::error::Error;
use crate::segment::CodingConfig;
use nc_gf256::region;
use rand::Rng;

/// Buffers received coded blocks and emits random recombinations.
///
/// ```
/// use nc_rlnc::{CodingConfig, Decoder, Encoder, Recoder, Segment};
/// use rand::SeedableRng;
///
/// let config = CodingConfig::new(4, 16)?;
/// let data = vec![3u8; config.segment_bytes()];
/// let encoder = Encoder::new(Segment::from_bytes(config, data.clone())?);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
///
/// // An intermediate node gathers coded blocks and recodes them.
/// let mut recoder = Recoder::new(config);
/// for _ in 0..4 {
///     recoder.push(encoder.encode(&mut rng))?;
/// }
///
/// // A downstream decoder recovers from recoded blocks alone.
/// let mut decoder = Decoder::new(config);
/// while !decoder.is_complete() {
///     decoder.push(recoder.recode(&mut rng).unwrap())?;
/// }
/// assert_eq!(decoder.recover().unwrap(), data);
/// # Ok::<(), nc_rlnc::Error>(())
/// ```
#[derive(Clone, Debug)]
pub struct Recoder {
    config: CodingConfig,
    buffer: Vec<CodedBlock>,
}

impl Recoder {
    /// Creates an empty recoder for one generation.
    pub fn new(config: CodingConfig) -> Recoder {
        Recoder { config, buffer: Vec::new() }
    }

    /// The recoder's coding configuration.
    #[inline]
    pub fn config(&self) -> CodingConfig {
        self.config
    }

    /// Number of buffered blocks.
    #[inline]
    pub fn len(&self) -> usize {
        self.buffer.len()
    }

    /// Whether no blocks are buffered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buffer.is_empty()
    }

    /// Buffers one received coded block.
    ///
    /// # Errors
    ///
    /// Propagates [`CodedBlock::check`] failures.
    pub fn push(&mut self, block: CodedBlock) -> Result<(), Error> {
        block.check(self.config)?;
        self.buffer.push(block);
        Ok(())
    }

    /// Emits one recoded block: a fresh random combination of everything
    /// buffered. Returns `None` while the buffer is empty.
    pub fn recode(&self, rng: &mut impl Rng) -> Option<CodedBlock> {
        if self.buffer.is_empty() {
            return None;
        }
        let n = self.config.blocks();
        let k = self.config.block_size();
        let mut coeffs = vec![0u8; n];
        let mut payload = vec![0u8; k];
        let weights: Vec<u8> = self.buffer.iter().map(|_| rng.gen_range(1..=255)).collect();
        // Composite coefficients and payload transform identically — that
        // is precisely why recoding preserves decodability. Both are one
        // blocked dot product over the buffered blocks.
        let coeff_rows: Vec<&[u8]> = self.buffer.iter().map(|b| b.coefficients()).collect();
        let payload_rows: Vec<&[u8]> = self.buffer.iter().map(|b| b.payload()).collect();
        region::dot_assign(&mut coeffs, &coeff_rows, &weights);
        region::dot_assign(&mut payload, &payload_rows, &weights);
        Some(CodedBlock::new(coeffs, payload))
    }

    /// The buffered blocks.
    pub fn blocks(&self) -> &[CodedBlock] {
        &self.buffer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::Decoder;
    use crate::encoder::Encoder;
    use crate::segment::Segment;
    use rand::SeedableRng;

    #[test]
    fn recoded_blocks_stay_consistent_with_sources() {
        // A recoded block must equal the encoding of its own composite
        // coefficient vector.
        let config = CodingConfig::new(6, 24).unwrap();
        let data: Vec<u8> = (0..config.segment_bytes()).map(|i| (i * 7) as u8).collect();
        let encoder = Encoder::new(Segment::from_bytes(config, data).unwrap());
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);

        let mut recoder = Recoder::new(config);
        for _ in 0..3 {
            recoder.push(encoder.encode(&mut rng)).unwrap();
        }
        let recoded = recoder.recode(&mut rng).unwrap();
        let reencoded = encoder.encode_with_coefficients(recoded.coefficients().to_vec()).unwrap();
        assert_eq!(recoded.payload(), reencoded.payload());
    }

    #[test]
    fn decoding_through_two_recoding_hops() {
        let config = CodingConfig::new(8, 16).unwrap();
        let data: Vec<u8> = (0..config.segment_bytes()).map(|i| i as u8).collect();
        let encoder = Encoder::new(Segment::from_bytes(config, data.clone()).unwrap());
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);

        let mut hop1 = Recoder::new(config);
        for _ in 0..8 {
            hop1.push(encoder.encode(&mut rng)).unwrap();
        }
        let mut hop2 = Recoder::new(config);
        for _ in 0..8 {
            hop2.push(hop1.recode(&mut rng).unwrap()).unwrap();
        }
        let mut decoder = Decoder::new(config);
        let mut safety = 0;
        while !decoder.is_complete() {
            decoder.push(hop2.recode(&mut rng).unwrap()).unwrap();
            safety += 1;
            assert!(safety < 100, "recoded stream failed to reach full rank");
        }
        assert_eq!(decoder.recover().unwrap(), data);
    }

    #[test]
    fn empty_recoder_emits_nothing() {
        let config = CodingConfig::new(4, 4).unwrap();
        let recoder = Recoder::new(config);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        assert!(recoder.recode(&mut rng).is_none());
        assert!(recoder.is_empty());
    }

    #[test]
    fn recoder_validates_block_shape() {
        let config = CodingConfig::new(4, 4).unwrap();
        let mut recoder = Recoder::new(config);
        assert!(recoder.push(CodedBlock::new(vec![1; 3], vec![0; 4])).is_err());
    }

    #[test]
    fn rank_cannot_exceed_buffered_span() {
        // Recoding cannot create information: with only 2 buffered blocks,
        // downstream rank is capped at 2.
        let config = CodingConfig::new(4, 8).unwrap();
        let data = vec![0x5Au8; config.segment_bytes()];
        let encoder = Encoder::new(Segment::from_bytes(config, data).unwrap());
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);

        let mut recoder = Recoder::new(config);
        for _ in 0..2 {
            recoder.push(encoder.encode(&mut rng)).unwrap();
        }
        let mut decoder = Decoder::new(config);
        for _ in 0..50 {
            decoder.push(recoder.recode(&mut rng).unwrap()).unwrap();
        }
        assert_eq!(decoder.rank(), 2);
    }
}
