//! The network encoder: random linear combinations of source blocks.

use crate::block::CodedBlock;
use crate::coeff::CoefficientRng;
use crate::error::Error;
use crate::segment::{CodingConfig, Segment};
use nc_gf256::region;
use nc_pool::BlockArena;
use rand::Rng;

/// Source blocks handed to the region kernel per call by the single-block
/// coding body (a multiple of `nc_gf256::simd::DOT_BLOCK`).
const SOURCE_GROUP: usize = 32;

/// Produces coded blocks from one source segment (the paper's Eq. 1:
/// `x_j = Σ_i c_ji · b_i`).
///
/// The encoder is stateless between calls, so a streaming server can share
/// one `Encoder` across request-handling threads.
///
/// ```
/// use nc_rlnc::{CodingConfig, Encoder, Segment};
/// use rand::SeedableRng;
///
/// let config = CodingConfig::new(8, 64)?;
/// let segment = Segment::from_bytes(config, vec![7u8; config.segment_bytes()])?;
/// let encoder = Encoder::new(segment);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let block = encoder.encode(&mut rng);
/// assert_eq!(block.coefficients().len(), 8);
/// assert_eq!(block.payload().len(), 64);
/// # Ok::<(), nc_rlnc::Error>(())
/// ```
#[derive(Clone, Debug)]
pub struct Encoder {
    segment: Segment,
    coeff_rng: CoefficientRng,
}

impl Encoder {
    /// Creates an encoder over `segment` drawing fully dense coefficients.
    pub fn new(segment: Segment) -> Encoder {
        Encoder { segment, coeff_rng: CoefficientRng::dense() }
    }

    /// Creates an encoder with a custom coefficient distribution.
    pub fn with_coefficients(segment: Segment, coeff_rng: CoefficientRng) -> Encoder {
        Encoder { segment, coeff_rng }
    }

    /// The coding configuration of the underlying segment.
    #[inline]
    pub fn config(&self) -> CodingConfig {
        self.segment.config()
    }

    /// The source segment.
    #[inline]
    pub fn segment(&self) -> &Segment {
        &self.segment
    }

    /// Generates one coded block with freshly drawn random coefficients.
    pub fn encode(&self, rng: &mut impl Rng) -> CodedBlock {
        let coeffs = self.draw_coefficients(rng);
        self.encode_with_coefficients_unchecked(coeffs)
    }

    /// Codes one block straight into caller storage: the coefficient draw
    /// (the same draw, in the same RNG order, as [`Encoder::encode`]) lands
    /// in `coefficients` and the combination overwrites `payload`. This is
    /// how a stream frame is written into a datagram buffer once, with no
    /// intermediate [`CodedBlock`]. Panics unless `coefficients` is `n`
    /// bytes and `payload` is `k` bytes.
    pub(crate) fn encode_into(
        &self,
        rng: &mut impl Rng,
        coefficients: &mut [u8],
        payload: &mut [u8],
    ) {
        assert_eq!(coefficients.len(), self.config().blocks(), "coefficient count mismatch");
        self.coeff_rng.fill(rng, coefficients);
        payload.fill(0);
        self.combine_into(payload, coefficients);
    }

    /// Draws one coefficient vector (recycled storage from the block
    /// arena), without encoding. Lets batch callers draw serially — for
    /// deterministic results under a seeded RNG — and encode in parallel.
    pub(crate) fn draw_coefficients(&self, rng: &mut impl Rng) -> Vec<u8> {
        let mut coeffs = BlockArena::global().take_coeffs(self.config().blocks());
        self.coeff_rng.fill(rng, &mut coeffs);
        coeffs
    }

    /// Generates `count` coded blocks (the streaming-server batch pattern:
    /// generate many, buffer, deliver on demand — Sec. 5.3).
    ///
    /// All coefficient vectors are drawn first — in the order `count`
    /// successive [`Encoder::encode`] calls would draw them, so the blocks
    /// are bit-identical for a given RNG state — and the payloads are then
    /// one matrix product over the segment.
    pub fn encode_batch(&self, rng: &mut impl Rng, count: usize) -> Vec<CodedBlock> {
        self.encode_rows((0..count).map(|_| self.draw_coefficients(rng)).collect())
    }

    /// Coded blocks for a batch of coefficient vectors of length `n`, as one
    /// matrix product ([`region::matrix_mul_add`]): each source line is
    /// read once per tile of outputs instead of once per coded block.
    pub(crate) fn encode_rows(&self, rows: Vec<Vec<u8>>) -> Vec<CodedBlock> {
        let arena = BlockArena::global();
        let block_size = self.config().block_size();
        let mut payloads: Vec<Vec<u8>> =
            rows.iter().map(|_| arena.take_payload(block_size)).collect();
        let sources: Vec<&[u8]> = self.segment.iter_blocks().collect();
        let coeffs: Vec<&[u8]> = rows.iter().map(Vec::as_slice).collect();
        let mut outs: Vec<&mut [u8]> = payloads.iter_mut().map(Vec::as_mut_slice).collect();
        region::matrix_mul_add(&mut outs, &sources, &coeffs);
        crate::metrics::metrics().blocks_coded.add(rows.len() as u64);
        rows.into_iter().zip(payloads).map(|(c, p)| CodedBlock::new(c, p)).collect()
    }

    /// Generates the coded block for a caller-supplied coefficient vector.
    ///
    /// # Errors
    ///
    /// [`Error::CoefficientCountMismatch`] if `coefficients.len() != n`.
    pub fn encode_with_coefficients(&self, coefficients: Vec<u8>) -> Result<CodedBlock, Error> {
        if coefficients.len() != self.config().blocks() {
            return Err(Error::CoefficientCountMismatch {
                expected: self.config().blocks(),
                actual: coefficients.len(),
            });
        }
        Ok(self.encode_with_coefficients_unchecked(coefficients))
    }

    /// The `i`-th *systematic* block: coefficient vector `e_i`, payload
    /// `b_i` verbatim. Useful for the initial round of content distribution.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    pub fn systematic(&self, i: usize) -> CodedBlock {
        let arena = BlockArena::global();
        let mut coeffs = arena.take_coeffs(self.config().blocks());
        let mut payload = arena.take_payload(self.config().block_size());
        self.systematic_into(i, &mut coeffs, &mut payload);
        CodedBlock::new(coeffs, payload)
    }

    /// [`Encoder::systematic`] straight into caller storage, the way
    /// [`Encoder::encode_into`] writes a coded block: `coefficients`
    /// becomes `e_i` and `payload` a copy of `b_i`, with no field work.
    /// Panics if `i >= n` or unless `coefficients` is `n` bytes and
    /// `payload` is `k` bytes.
    pub(crate) fn systematic_into(&self, i: usize, coefficients: &mut [u8], payload: &mut [u8]) {
        let n = self.config().blocks();
        assert!(i < n, "systematic index {i} out of range for n={n}");
        assert_eq!(coefficients.len(), n, "coefficient count mismatch");
        coefficients.fill(0);
        coefficients[i] = 1;
        payload.copy_from_slice(self.segment.block(i));
        let metrics = crate::metrics::metrics();
        metrics.blocks_coded.inc();
        metrics.blocks_systematic.inc();
    }

    fn encode_with_coefficients_unchecked(&self, coefficients: Vec<u8>) -> CodedBlock {
        // Recycled (and re-zeroed) payload storage: on a steady-state
        // encode path this is a shelf pop, not a heap allocation.
        let mut payload = BlockArena::global().take_payload(self.config().block_size());
        self.combine_into(&mut payload, &coefficients);
        CodedBlock::new(coefficients, payload)
    }

    /// `payload ^= Σ coefficients[i] · b_i` — the one single-block coding
    /// body. The source-block references are gathered [`SOURCE_GROUP`] at a
    /// time on the stack (a multiple of the kernel's blocking factor, so the
    /// destination streams exactly as often as with one call), keeping the
    /// per-frame path free of heap allocation.
    fn combine_into(&self, payload: &mut [u8], coefficients: &[u8]) {
        let mut blocks = self.segment.iter_blocks();
        for coeffs in coefficients.chunks(SOURCE_GROUP) {
            let mut group: [&[u8]; SOURCE_GROUP] = [&[]; SOURCE_GROUP];
            for (slot, block) in group.iter_mut().zip(blocks.by_ref().take(coeffs.len())) {
                *slot = block;
            }
            region::dot_assign(payload, &group[..coeffs.len()], coeffs);
        }
        crate::metrics::metrics().blocks_coded.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_gf256::scalar::mul_table;
    use rand::SeedableRng;

    fn setup() -> (CodingConfig, Encoder) {
        let config = CodingConfig::new(4, 16).unwrap();
        let data: Vec<u8> = (0..64u8).collect();
        let segment = Segment::from_bytes(config, data).unwrap();
        (config, Encoder::new(segment))
    }

    #[test]
    fn coded_block_matches_manual_combination() {
        let (config, encoder) = setup();
        let coeffs = vec![0x02, 0x00, 0x53, 0x01];
        let block = encoder.encode_with_coefficients(coeffs.clone()).unwrap();
        for byte in 0..config.block_size() {
            let mut want = 0u8;
            for (i, &c) in coeffs.iter().enumerate() {
                want ^= mul_table(c, encoder.segment().block(i)[byte]);
            }
            assert_eq!(block.payload()[byte], want, "byte {byte}");
        }
    }

    #[test]
    fn systematic_blocks_reproduce_sources() {
        let (config, encoder) = setup();
        for i in 0..config.blocks() {
            let block = encoder.systematic(i);
            assert_eq!(block.payload(), encoder.segment().block(i));
            assert_eq!(block.coefficients().iter().filter(|&&c| c != 0).count(), 1);
            assert_eq!(block.coefficients()[i], 1);
        }
    }

    #[test]
    fn wrong_coefficient_count_is_rejected() {
        let (_, encoder) = setup();
        assert!(encoder.encode_with_coefficients(vec![1, 2, 3]).is_err());
    }

    #[test]
    fn batch_produces_distinct_blocks() {
        let (_, encoder) = setup();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let batch = encoder.encode_batch(&mut rng, 8);
        assert_eq!(batch.len(), 8);
        // With dense random coefficients, collisions are essentially
        // impossible at this size.
        for i in 0..batch.len() {
            for j in i + 1..batch.len() {
                assert_ne!(batch[i].coefficients(), batch[j].coefficients());
            }
        }
    }

    #[test]
    fn encode_into_matches_encode_for_the_same_rng_state() {
        // n = 70 spans two full source groups and a remainder; the sparse
        // draw puts zero coefficients in the groups.
        let config = CodingConfig::new(70, 48).unwrap();
        let data: Vec<u8> = (0..config.segment_bytes()).map(|i| (i * 31 + 5) as u8).collect();
        let segment = Segment::from_bytes(config, data).unwrap();
        for encoder in [
            Encoder::new(segment.clone()),
            Encoder::with_coefficients(segment.clone(), CoefficientRng::sparse(0.3)),
        ] {
            let mut rng_a = rand::rngs::StdRng::seed_from_u64(17);
            let mut rng_b = rand::rngs::StdRng::seed_from_u64(17);
            for _ in 0..4 {
                let block = encoder.encode(&mut rng_a);
                let (mut coefficients, mut payload) = (vec![0xAA; 70], vec![0x55; 48]);
                encoder.encode_into(&mut rng_b, &mut coefficients, &mut payload);
                assert_eq!(coefficients, block.coefficients());
                assert_eq!(payload, block.payload());
            }
        }
    }

    #[test]
    fn encoding_is_linear() {
        // encode(c1) + encode(c2) == encode(c1 + c2) — the homomorphism that
        // makes recoding possible.
        let (config, encoder) = setup();
        let c1 = vec![1u8, 2, 3, 4];
        let c2 = vec![9u8, 0, 7, 0xFF];
        let sum: Vec<u8> = c1.iter().zip(&c2).map(|(&a, &b)| a ^ b).collect();
        let b1 = encoder.encode_with_coefficients(c1).unwrap();
        let b2 = encoder.encode_with_coefficients(c2).unwrap();
        let bs = encoder.encode_with_coefficients(sum).unwrap();
        for byte in 0..config.block_size() {
            assert_eq!(b1.payload()[byte] ^ b2.payload()[byte], bs.payload()[byte]);
        }
    }
}
