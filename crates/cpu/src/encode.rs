//! Multi-threaded encoding with the two partitioning strategies of
//! Sec. 5.3, one scoped thread wave per batch.

use nc_gf256::region;
use nc_rlnc::{CodedBlock, Segment};

use crate::wave;

/// How the encoding work of a batch is split across threads.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Partitioning {
    /// The original scheme of the authors' IWQoS'07 work: every coded
    /// block's `k` bytes are split across all threads, so a single block is
    /// finished as fast as possible (on-demand generation).
    PartitionedBlock,
    /// The Sec. 5.3 streaming-server scheme: each thread encodes *whole*
    /// coded blocks. Better memory-prefetcher behaviour (long sequential
    /// runs) makes it much faster at small block sizes; both converge as
    /// `k` grows.
    FullBlock,
}

/// A thread-parallel encoder over one segment.
///
/// ```
/// use nc_cpu::{ParallelEncoder, Partitioning};
/// use nc_rlnc::{CodingConfig, Segment};
///
/// let config = CodingConfig::new(8, 64)?;
/// let segment = Segment::from_bytes(config, vec![5u8; config.segment_bytes()])?;
/// let encoder = ParallelEncoder::new(segment, 4, Partitioning::FullBlock);
/// let coeffs = vec![vec![1u8; 8]; 3];
/// let blocks = encoder.encode_batch(&coeffs);
/// assert_eq!(blocks.len(), 3);
/// # Ok::<(), nc_rlnc::Error>(())
/// ```
#[derive(Debug)]
pub struct ParallelEncoder {
    segment: Segment,
    threads: usize,
    partitioning: Partitioning,
}

impl ParallelEncoder {
    /// Creates an encoder running each batch on at most `threads`
    /// threads.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(segment: Segment, threads: usize, partitioning: Partitioning) -> ParallelEncoder {
        assert!(threads > 0, "at least one thread required");
        ParallelEncoder { segment, threads, partitioning }
    }

    /// Encodes one coded block per coefficient row, in parallel: one
    /// scoped thread per balanced chunk of rows
    /// ([`Partitioning::FullBlock`]) or per 8-byte-aligned slice of the
    /// block ([`Partitioning::PartitionedBlock`]).
    ///
    /// # Panics
    ///
    /// Panics if any row's length differs from `n`. If a coding thread
    /// panics, its payload is resumed on the caller once every thread of
    /// the batch has joined.
    pub fn encode_batch(&self, coeff_rows: &[Vec<u8>]) -> Vec<CodedBlock> {
        let n = self.segment.config().blocks();
        let k = self.segment.config().block_size();
        for row in coeff_rows {
            assert_eq!(row.len(), n, "coefficient row length mismatch");
        }
        if coeff_rows.is_empty() {
            return Vec::new();
        }
        let mut payloads = vec![vec![0u8; k]; coeff_rows.len()];

        match self.partitioning {
            Partitioning::FullBlock => {
                // Whole coded blocks per thread, a contiguous run of rows each.
                let sources: Vec<&[u8]> = self.segment.iter_blocks().collect();
                let chunks = wave::balanced_chunks(coeff_rows, &mut payloads, self.threads);
                wave::run(chunks, |(rows, outs)| {
                    for (row, payload) in rows.iter().zip(outs) {
                        region::dot_assign(payload, &sources, row);
                    }
                });
            }
            Partitioning::PartitionedBlock => {
                // Every block's bytes split across the threads, balanced in
                // 8-byte words; each thread walks its slice of every row.
                let slices: Vec<_> = wave::balanced(k.div_ceil(8), self.threads)
                    .map(|w| w.start * 8..(w.end * 8).min(k))
                    .collect();
                let mut outs: Vec<Vec<&mut [u8]>> = slices.iter().map(|_| Vec::new()).collect();
                for payload in &mut payloads {
                    let mut rest = payload.as_mut_slice();
                    for (slice, out) in slices.iter().zip(&mut outs) {
                        let (head, tail) = std::mem::take(&mut rest).split_at_mut(slice.len());
                        out.push(head);
                        rest = tail;
                    }
                }
                wave::run(slices.into_iter().zip(outs), |(slice, outs)| {
                    let sources: Vec<&[u8]> =
                        self.segment.iter_blocks().map(|block| &block[slice.clone()]).collect();
                    for (row, out) in coeff_rows.iter().zip(outs) {
                        region::dot_assign(out, &sources, row);
                    }
                });
            }
        }

        coeff_rows
            .iter()
            .zip(payloads)
            .map(|(row, payload)| CodedBlock::new(row.clone(), payload))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_rlnc::{CodingConfig, Encoder};
    use rand::{Rng, SeedableRng};

    fn setup(n: usize, k: usize, seed: u64) -> (Segment, Vec<Vec<u8>>, Encoder) {
        let config = CodingConfig::new(n, k).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data: Vec<u8> = (0..config.segment_bytes()).map(|_| rng.gen()).collect();
        let segment = Segment::from_bytes(config, data).unwrap();
        let coeffs: Vec<Vec<u8>> =
            (0..n + 3).map(|_| (0..n).map(|_| rng.gen_range(1..=255)).collect()).collect();
        let reference = Encoder::new(segment.clone());
        (segment, coeffs, reference)
    }

    #[test]
    fn both_partitionings_match_reference() {
        let (segment, coeffs, reference) = setup(12, 100, 1);
        for partitioning in [Partitioning::FullBlock, Partitioning::PartitionedBlock] {
            let enc = ParallelEncoder::new(segment.clone(), 4, partitioning);
            let blocks = enc.encode_batch(&coeffs);
            for (j, b) in blocks.iter().enumerate() {
                let want = reference.encode_with_coefficients(coeffs[j].clone()).unwrap();
                assert_eq!(b.payload(), want.payload(), "{partitioning:?} block {j}");
            }
        }
    }

    #[test]
    fn single_thread_works() {
        let (segment, coeffs, reference) = setup(4, 32, 3);
        for partitioning in [Partitioning::FullBlock, Partitioning::PartitionedBlock] {
            let enc = ParallelEncoder::new(segment.clone(), 1, partitioning);
            let blocks = enc.encode_batch(&coeffs[..2]);
            for (j, b) in blocks.iter().enumerate() {
                let want = reference.encode_with_coefficients(coeffs[j].clone()).unwrap();
                assert_eq!(b.payload(), want.payload());
            }
        }
    }

    #[test]
    fn odd_sizes_partition_cleanly() {
        // k not divisible by the thread count exercises the tail slice.
        let (segment, coeffs, reference) = setup(4, 53, 4);
        let enc = ParallelEncoder::new(segment, 8, Partitioning::PartitionedBlock);
        let blocks = enc.encode_batch(&coeffs[..1]);
        let want = reference.encode_with_coefficients(coeffs[0].clone()).unwrap();
        assert_eq!(blocks[0].payload(), want.payload());
    }

    #[test]
    #[should_panic]
    fn zero_threads_rejected() {
        let (segment, _, _) = setup(4, 16, 5);
        let _ = ParallelEncoder::new(segment, 0, Partitioning::FullBlock);
    }
}
