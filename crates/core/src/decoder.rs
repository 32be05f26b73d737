//! Progressive decoding: eliminate coefficients as blocks arrive, multiply
//! the payloads once.
//!
//! The paper's Sec. 5.2 splits decoding into inverting the small `n × n`
//! coefficient matrix and one matrix product as regular as encoding. This
//! module does exactly that, keeping the progressive rank check of Sec. 3:
//! `Elimination` runs Gauss-Jordan over `[coefficients | transform]` rows
//! of `2n` bytes as blocks arrive (O(n²) bytes per block), payloads are held
//! untouched, and the block that completes the rank triggers
//! `decoded = transform · payloads` through
//! [`nc_gf256::region::matrix_mul_add`] — the `n²·k` work, done once by
//! the tiled kernel instead of `n²` row operations over `k`-byte payloads.

use crate::block::CodedBlock;
use crate::error::Error;
use crate::segment::CodingConfig;
use crate::stats::DecodeStats;
use nc_gf256::{region, scalar};
use nc_pool::{BlockArena, BytesPool};

/// Progressive Gauss-Jordan elimination of coefficient vectors alone — the
/// core shared by [`Decoder`] and [`crate::TwoStageDecoder`].
///
/// Row `r` belongs to the `r`-th innovative vector and is
/// `[coefficients | transform]`, `2n` bytes, starting out as `[c_r | e_r]`.
/// The rows are kept in reduced row-echelon form, so at every moment
/// `coefficients_r = Σ_j transform_r[j] · c_j`; once the rank is `n` the
/// coefficient parts are the unit vectors and the transform parts, read in
/// pivot order, are `C⁻¹`.
#[derive(Clone, Debug)]
pub(crate) struct Elimination {
    config: CodingConfig,
    /// `rank` rows of `2n` bytes, in arrival order.
    rows: Vec<u8>,
    /// `pivots[r]` is the pivot column of row `r`.
    pivots: Vec<usize>,
    /// Normalizations and eliminations executed, each over one `2n`-byte row.
    row_ops: usize,
}

impl Elimination {
    pub(crate) fn new(config: CodingConfig) -> Elimination {
        Elimination { config, rows: Vec::new(), pivots: Vec::new(), row_ops: 0 }
    }

    #[inline]
    pub(crate) fn rank(&self) -> usize {
        self.pivots.len()
    }

    #[inline]
    pub(crate) fn is_full(&self) -> bool {
        self.rank() == self.config.blocks()
    }

    /// Absorbs one coefficient vector of length `n`. Returns `true` if it
    /// was innovative (its row is kept and the rank grows); a dependent
    /// vector reduces to a zero coefficient part and leaves no trace.
    pub(crate) fn push(&mut self, coefficients: &[u8]) -> bool {
        let n = self.config.blocks();
        let width = 2 * n;
        let rank = self.rank();
        if rank == n {
            return false;
        }
        if rank == 0 {
            // Everything a generation will ever hold, reserved by its first
            // block, so no later push allocates.
            self.rows.reserve_exact(n * width);
            self.pivots.reserve_exact(n);
        }
        // The candidate row is built in place behind the held rows and
        // truncated away again if it turns out dependent.
        let start = self.rows.len();
        self.rows.extend_from_slice(coefficients);
        self.rows.resize(start + width, 0);
        self.rows[start + n + rank] = 1;
        let (held, row) = self.rows.split_at_mut(start);

        // Forward-reduce against every pivot. The held rows are in reduced
        // form (zero in each other's pivot column), so the order is free.
        for (existing, &pivot) in held.chunks_exact(width).zip(&self.pivots) {
            let factor = row[pivot];
            if factor != 0 {
                region::mul_add_assign(row, existing, factor);
                self.row_ops += 1;
            }
        }
        let Some(pivot) = row[..n].iter().position(|&c| c != 0) else {
            self.rows.truncate(start);
            return false;
        };
        // Normalize so the leading coefficient is 1.
        let lead = row[pivot];
        if lead != 1 {
            region::mul_assign(row, scalar::inv(lead));
            self.row_ops += 1;
        }
        // Jordan step: clear the new pivot column from the held rows.
        for existing in held.chunks_exact_mut(width) {
            let factor = existing[pivot];
            if factor != 0 {
                region::mul_add_assign(existing, row, factor);
                self.row_ops += 1;
            }
        }
        self.pivots.push(pivot);
        true
    }

    /// The rows of `C⁻¹`, one per source: source block `i` is
    /// `Σ_j inverse[i][j] · payloads[j]`, where `payloads[j]` came with the
    /// `j`-th innovative vector.
    ///
    /// # Panics
    ///
    /// Panics unless the rank is `n`.
    pub(crate) fn inverse(&self) -> Vec<&[u8]> {
        assert!(self.is_full(), "the product needs the full inverse");
        let n = self.config.blocks();
        let mut inverse: Vec<&[u8]> = vec![&[][..]; n];
        for (row, &pivot) in self.rows.chunks_exact(2 * n).zip(&self.pivots) {
            inverse[pivot] = &row[n..];
        }
        inverse
    }

    /// `out ^= C⁻¹ · payloads`, where `out` is the `n·k`-byte segment
    /// buffer (see [`Elimination::inverse`]).
    ///
    /// # Panics
    ///
    /// Panics unless the rank is `n` and the shapes match the configuration.
    pub(crate) fn multiply_into(&self, payloads: &[&[u8]], out: &mut [u8]) {
        let mut blocks: Vec<&mut [u8]> = out.chunks_exact_mut(self.config.block_size()).collect();
        region::matrix_mul_add(&mut blocks, payloads, &self.inverse());
    }
}

/// A progressive network decoder: Gauss-Jordan elimination of the
/// coefficient vectors as blocks arrive (the paper's Sec. 3), then one
/// matrix product over the payloads (its Sec. 5.2).
///
/// Each arriving block's coefficient vector is reduced against the rows
/// accumulated so far. A linearly dependent block reduces to an all-zero
/// row and is discarded — no explicit dependence check is ever needed. An
/// innovative block's payload is stored as it came; the block that brings
/// the rank to `n` multiplies the inverted coefficient matrix into the held
/// payloads once, after which [`Decoder::recover`] is a copy.
///
/// ```
/// use nc_rlnc::{CodingConfig, Decoder, Encoder, Segment};
/// use rand::SeedableRng;
///
/// let config = CodingConfig::new(8, 32)?;
/// let data: Vec<u8> = (0..config.segment_bytes() as u32).map(|i| i as u8).collect();
/// let encoder = Encoder::new(Segment::from_bytes(config, data.clone())?);
/// let mut decoder = Decoder::new(config);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(99);
/// while !decoder.is_complete() {
///     decoder.push(encoder.encode(&mut rng))?;
/// }
/// assert_eq!(decoder.recover().unwrap(), data);
/// # Ok::<(), nc_rlnc::Error>(())
/// ```
#[derive(Clone, Debug)]
pub struct Decoder {
    config: CodingConfig,
    elimination: Elimination,
    /// Payloads of the innovative blocks in arrival order (the column order
    /// of the transform); handed back to the arena at completion.
    payloads: Vec<Vec<u8>>,
    /// The decoded segment, present once the rank is `n`.
    decoded: Option<Vec<u8>>,
    stats: DecodeStats,
}

impl Decoder {
    /// Creates an empty decoder for one `(n, k)` generation.
    pub fn new(config: CodingConfig) -> Decoder {
        Decoder {
            config,
            elimination: Elimination::new(config),
            payloads: Vec::new(),
            decoded: None,
            stats: DecodeStats::default(),
        }
    }

    /// The decoder's coding configuration.
    #[inline]
    pub fn config(&self) -> CodingConfig {
        self.config
    }

    /// Current rank: number of linearly independent blocks absorbed.
    #[inline]
    pub fn rank(&self) -> usize {
        self.elimination.rank()
    }

    /// Whether `n` independent blocks have been absorbed.
    #[inline]
    pub fn is_complete(&self) -> bool {
        self.elimination.is_full()
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> DecodeStats {
        let (n, k) = (self.config.blocks() as u64, self.config.block_size() as u64);
        let row_ops = self.elimination.row_ops;
        let product = if self.decoded.is_some() { n * n * k } else { 0 };
        DecodeStats { row_ops, gf_multiplications: row_ops as u64 * 2 * n + product, ..self.stats }
    }

    /// Absorbs one coded block. Returns `true` if the block was innovative
    /// (increased the rank), `false` if it was linearly dependent and
    /// discarded — which every block is once the decoder is complete.
    ///
    /// The push that completes the rank also runs the one payload product,
    /// so it costs `n²·k` byte multiplications where the others cost O(n²).
    ///
    /// # Errors
    ///
    /// Propagates [`CodedBlock::check`] failures for blocks whose shape does
    /// not match this generation.
    pub fn push(&mut self, block: CodedBlock) -> Result<bool, Error> {
        block.check(self.config)?;
        self.stats.received += 1;
        let metrics = crate::metrics::metrics();
        metrics.blocks_received.inc();

        // The coefficient vector is folded into an elimination row and goes
        // straight back to the arena; the payload is kept (innovative) or
        // follows it (dependent), so the encoder side or the next received
        // datagram's parse reuses both.
        let (coefficients, payload) = block.into_parts();
        let arena = BlockArena::global();
        let innovative = self.elimination.push(&coefficients);
        arena.recycle_coeffs(coefficients);
        if !innovative {
            arena.recycle_payload(payload);
            self.stats.discarded_dependent += 1;
            metrics.blocks_dependent.inc();
            return Ok(false);
        }
        self.payloads.push(payload);
        self.stats.innovative += 1;
        metrics.blocks_innovative.inc();
        if self.elimination.is_full() {
            self.finish();
        }
        Ok(true)
    }

    /// Runs `decoded = C⁻¹ · payloads` and releases the held payloads.
    fn finish(&mut self) {
        let mut decoded = BytesPool::global().take_vec(self.config.segment_bytes());
        let held: Vec<&[u8]> = self.payloads.iter().map(Vec::as_slice).collect();
        self.elimination.multiply_into(&held, &mut decoded);
        self.decoded = Some(decoded);
        self.release_payloads();
    }

    fn release_payloads(&mut self) {
        let arena = BlockArena::global();
        self.payloads.drain(..).for_each(|payload| arena.recycle_payload(payload));
    }

    /// Returns a copy of the decoded segment once complete, or `None` while
    /// rank < n.
    pub fn recover(&self) -> Option<Vec<u8>> {
        self.decoded.clone()
    }

    /// Returns the decoded segment, with a descriptive error while
    /// incomplete.
    ///
    /// # Errors
    ///
    /// [`Error::RankDeficient`] if fewer than `n` independent blocks have
    /// been absorbed.
    pub fn try_recover(&self) -> Result<Vec<u8>, Error> {
        self.recover()
            .ok_or(Error::RankDeficient { rank: self.rank(), needed: self.config.blocks() })
    }
}

impl Drop for Decoder {
    /// Hands the buffers still held — the payloads of an incomplete decoder,
    /// the segment of a complete one — back to their pools.
    fn drop(&mut self) {
        self.release_payloads();
        if let Some(decoded) = self.decoded.take() {
            BytesPool::global().recycle(decoded);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::Encoder;
    use crate::segment::Segment;
    use rand::{Rng, SeedableRng};

    fn make(n: usize, k: usize, seed: u64) -> (Vec<u8>, Encoder, rand::rngs::StdRng) {
        let config = CodingConfig::new(n, k).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data: Vec<u8> = (0..config.segment_bytes()).map(|_| rng.gen()).collect();
        let encoder = Encoder::new(Segment::from_bytes(config, data.clone()).unwrap());
        (data, encoder, rng)
    }

    #[test]
    fn decodes_random_generation() {
        let (data, encoder, mut rng) = make(16, 128, 42);
        let mut decoder = Decoder::new(encoder.config());
        while !decoder.is_complete() {
            decoder.push(encoder.encode(&mut rng)).unwrap();
        }
        assert_eq!(decoder.recover().unwrap(), data);
        // Dense random coding needs very few extra blocks.
        assert!(decoder.stats().received <= 16 + 3);
    }

    #[test]
    fn decodes_from_systematic_blocks() {
        let (data, encoder, _) = make(8, 32, 7);
        let mut decoder = Decoder::new(encoder.config());
        for i in 0..8 {
            assert!(decoder.push(encoder.systematic(i)).unwrap());
        }
        assert_eq!(decoder.recover().unwrap(), data);
    }

    #[test]
    fn dependent_blocks_are_discarded() {
        let (_, encoder, mut rng) = make(4, 16, 3);
        let mut decoder = Decoder::new(encoder.config());
        let block = encoder.encode(&mut rng);
        assert!(decoder.push(block.clone()).unwrap());
        // The very same block again is linearly dependent.
        assert!(!decoder.push(block).unwrap());
        assert_eq!(decoder.stats().discarded_dependent, 1);
        assert_eq!(decoder.rank(), 1);
    }

    #[test]
    fn zero_block_is_rejected_as_dependent() {
        let config = CodingConfig::new(4, 8).unwrap();
        let mut decoder = Decoder::new(config);
        let zero = CodedBlock::new(vec![0; 4], vec![0; 8]);
        assert!(!decoder.push(zero).unwrap());
        assert_eq!(decoder.rank(), 0);
    }

    #[test]
    fn shape_mismatch_is_an_error() {
        let config = CodingConfig::new(4, 8).unwrap();
        let mut decoder = Decoder::new(config);
        let bad = CodedBlock::new(vec![1; 5], vec![0; 8]);
        assert!(decoder.push(bad).is_err());
    }

    #[test]
    fn try_recover_reports_rank() {
        let (_, encoder, mut rng) = make(4, 8, 9);
        let mut decoder = Decoder::new(encoder.config());
        decoder.push(encoder.encode(&mut rng)).unwrap();
        match decoder.try_recover() {
            Err(Error::RankDeficient { rank: 1, needed: 4 }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn recovery_is_coefficient_order_independent() {
        // Feed blocks in a shuffled order; RREF ordering fixes everything.
        let (data, encoder, mut rng) = make(12, 24, 11);
        let blocks: Vec<_> = (0..12).map(|i| encoder.systematic(i)).collect();
        let mut order: Vec<usize> = (0..12).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let mut decoder = Decoder::new(encoder.config());
        for &i in &order {
            decoder.push(blocks[i].clone()).unwrap();
        }
        assert_eq!(decoder.recover().unwrap(), data);
    }

    #[test]
    fn stats_track_complexity() {
        let (_, encoder, mut rng) = make(8, 64, 1);
        let mut decoder = Decoder::new(encoder.config());
        while !decoder.is_complete() {
            let before = decoder.stats();
            decoder.push(encoder.encode(&mut rng)).unwrap();
            // Until completion only 2n-byte rows are touched.
            assert_eq!(before.gf_multiplications, before.row_ops as u64 * 16);
        }
        let s = decoder.stats();
        assert_eq!(s.innovative, 8);
        // Gauss-Jordan is Θ(n²) row operations, here over rows of 2n bytes;
        // the payloads cost one n × n by n × k product at completion.
        assert!(s.row_ops >= 8 * 8 / 2 && s.row_ops <= 3 * 8 * 8);
        assert_eq!(s.gf_multiplications, s.row_ops as u64 * 16 + 8 * 8 * 64);
    }

    #[test]
    fn recover_is_repeatable_and_late_blocks_are_dependent() {
        let (data, encoder, mut rng) = make(6, 40, 21);
        let mut decoder = Decoder::new(encoder.config());
        while !decoder.is_complete() {
            assert!(decoder.recover().is_none());
            decoder.push(encoder.encode(&mut rng)).unwrap();
        }
        assert_eq!(decoder.recover().unwrap(), data);
        assert!(!decoder.push(encoder.encode(&mut rng)).unwrap());
        assert!(!decoder.push(encoder.systematic(0)).unwrap());
        assert_eq!(decoder.stats().discarded_dependent, decoder.stats().received - 6);
        assert_eq!(decoder.recover().unwrap(), data);
        assert_eq!(decoder.clone().recover().unwrap(), data);
    }
}
