//! Single-segment threaded decoding — the CPU scheme behind the paper's
//! Fig. 4(b) Mac Pro curves.
//!
//! Coded blocks decode serially (each block's elimination depends on the
//! previous state), but each row operation parallelizes across threads by
//! splitting the `n + k` row bytes into per-thread ranges, with a barrier
//! per received block for the pivot search — the synchronization cost that
//! makes small block sizes slow on every platform. The fan-out runs on a
//! persistent [`nc_pool::Pool`], so the (very frequent) row operations
//! dispatch onto parked workers instead of spawning fresh OS threads.

use std::sync::Arc;

use nc_gf256::region;
use nc_gf256::scalar;
use nc_pool::Pool;
use nc_rlnc::{CodedBlock, CodingConfig, Error};

/// A progressive decoder whose row operations run on `threads` worker
/// threads (the IWQoS'07-lineage scheme the Mac Pro baseline uses).
///
/// Functionally identical to [`nc_rlnc::Decoder`]; tests enforce it.
#[derive(Debug)]
pub struct ThreadedDecoder {
    config: CodingConfig,
    threads: usize,
    /// RREF rows: `n + k` bytes each, coefficient part first.
    rows: Vec<Vec<u8>>,
    pivots: Vec<usize>,
    pool: Arc<Pool>,
}

impl ThreadedDecoder {
    /// Creates a decoder running row operations on `threads` threads.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(config: CodingConfig, threads: usize) -> ThreadedDecoder {
        assert!(threads > 0, "at least one thread required");
        ThreadedDecoder {
            config,
            threads,
            rows: Vec::new(),
            pivots: Vec::new(),
            pool: Pool::shared(threads),
        }
    }

    /// Current rank.
    pub fn rank(&self) -> usize {
        self.rows.len()
    }

    /// Whether `n` innovative blocks have been absorbed.
    pub fn is_complete(&self) -> bool {
        self.rank() == self.config.blocks()
    }

    /// Absorbs one coded block; returns whether it was innovative.
    ///
    /// # Errors
    ///
    /// Propagates [`CodedBlock::check`] shape failures.
    pub fn push(&mut self, block: CodedBlock) -> Result<bool, Error> {
        block.check(self.config)?;
        let n = self.config.blocks();
        let width = n + self.config.block_size();
        let (coeffs, payload) = block.into_parts();
        let mut row = Vec::with_capacity(width);
        row.extend_from_slice(&coeffs);
        row.extend_from_slice(&payload);

        // Forward-reduce against existing pivots: factors are independent
        // in RREF, so each elimination fans its byte range across threads.
        for (i, &pivot_col) in self.pivots.iter().enumerate() {
            let factor = row[pivot_col];
            if factor != 0 {
                Self::axpy_threaded(&self.pool, self.threads, &mut row, &self.rows[i], factor);
            }
        }

        // Pivot search — the per-block synchronization point.
        let Some(pivot_col) = row[..n].iter().position(|&c| c != 0) else {
            return Ok(false);
        };
        let lead = row[pivot_col];
        if lead != 1 {
            let inv = scalar::inv(lead);
            Self::scale_threaded(&self.pool, self.threads, &mut row, inv);
        }

        // Jordan step into the existing rows, one row at a time, each
        // fanned across threads.
        for existing in self.rows.iter_mut() {
            let factor = existing[pivot_col];
            if factor != 0 {
                Self::axpy_threaded(&self.pool, self.threads, existing, &row, factor);
            }
        }

        let at = self.pivots.partition_point(|&p| p < pivot_col);
        self.pivots.insert(at, pivot_col);
        self.rows.insert(at, row);
        Ok(true)
    }

    /// Returns the decoded segment once complete.
    pub fn recover(&self) -> Option<Vec<u8>> {
        if !self.is_complete() {
            return None;
        }
        let n = self.config.blocks();
        let mut out = Vec::with_capacity(self.config.segment_bytes());
        for row in &self.rows {
            out.extend_from_slice(&row[n..]);
        }
        Some(out)
    }

    /// `dst ^= factor · src` with the byte range fanned over pool workers.
    fn axpy_threaded(pool: &Pool, threads: usize, dst: &mut [u8], src: &[u8], factor: u8) {
        let chunk = dst.len().div_ceil(threads).max(64);
        if dst.len() <= chunk {
            // One chunk: no dispatch, run inline on the caller.
            region::mul_add_assign(dst, src, factor);
            return;
        }
        let barrier = crate::metrics::metrics().row_barrier_wait_ns.span();
        pool.scope(|scope| {
            for (d, s) in dst.chunks_mut(chunk).zip(src.chunks(chunk)) {
                scope.spawn(move || region::mul_add_assign(d, s, factor));
            }
        });
        barrier.stop();
    }

    /// `dst = factor · dst`, fanned over pool workers.
    fn scale_threaded(pool: &Pool, threads: usize, dst: &mut [u8], factor: u8) {
        let chunk = dst.len().div_ceil(threads).max(64);
        if dst.len() <= chunk {
            region::mul_assign(dst, factor);
            return;
        }
        let barrier = crate::metrics::metrics().row_barrier_wait_ns.span();
        pool.scope(|scope| {
            for d in dst.chunks_mut(chunk) {
                scope.spawn(move || region::mul_assign(d, factor));
            }
        });
        barrier.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_rlnc::{Decoder, Encoder, Segment};
    use rand::{Rng, SeedableRng};

    fn session(n: usize, k: usize, seed: u64) -> (Vec<u8>, Encoder, rand::rngs::StdRng) {
        let config = CodingConfig::new(n, k).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data: Vec<u8> = (0..config.segment_bytes()).map(|_| rng.gen()).collect();
        let enc = Encoder::new(Segment::from_bytes(config, data.clone()).unwrap());
        (data, enc, rng)
    }

    #[test]
    fn threaded_decoder_matches_reference_exactly() {
        let (data, enc, mut rng) = session(12, 200, 1);
        let config = CodingConfig::new(12, 200).unwrap();
        let mut threaded = ThreadedDecoder::new(config, 4);
        let mut reference = Decoder::new(config);
        while !threaded.is_complete() {
            let b = enc.encode(&mut rng);
            let ti = threaded.push(b.clone()).unwrap();
            let ri = reference.push(b).unwrap();
            assert_eq!(ti, ri, "innovation verdicts must agree");
        }
        assert_eq!(threaded.recover().unwrap(), data);
        assert_eq!(reference.recover().unwrap(), data);
    }

    #[test]
    fn dependent_blocks_are_discarded() {
        let (_, enc, mut rng) = session(6, 64, 2);
        let config = CodingConfig::new(6, 64).unwrap();
        let mut dec = ThreadedDecoder::new(config, 3);
        let b = enc.encode(&mut rng);
        assert!(dec.push(b.clone()).unwrap());
        assert!(!dec.push(b).unwrap());
        assert_eq!(dec.rank(), 1);
    }

    #[test]
    fn one_thread_degenerates_to_serial() {
        let (data, enc, mut rng) = session(8, 40, 3);
        let config = CodingConfig::new(8, 40).unwrap();
        let mut dec = ThreadedDecoder::new(config, 1);
        while !dec.is_complete() {
            dec.push(enc.encode(&mut rng)).unwrap();
        }
        assert_eq!(dec.recover().unwrap(), data);
    }

    #[test]
    fn tiny_rows_do_not_overpartition() {
        // Rows shorter than threads × 64 bytes fall back to fewer chunks.
        let (data, enc, mut rng) = session(4, 8, 4);
        let config = CodingConfig::new(4, 8).unwrap();
        let mut dec = ThreadedDecoder::new(config, 8);
        while !dec.is_complete() {
            dec.push(enc.encode(&mut rng)).unwrap();
        }
        assert_eq!(dec.recover().unwrap(), data);
    }

    #[test]
    #[should_panic]
    fn zero_threads_rejected() {
        let _ = ThreadedDecoder::new(CodingConfig::new(4, 8).unwrap(), 0);
    }
}
