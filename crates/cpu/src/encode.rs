//! Multi-threaded encoding with the two partitioning strategies of
//! Sec. 5.3, dispatched onto a persistent [`nc_pool::Pool`] instead of
//! spawning a thread wave per batch.

use std::sync::Arc;

use nc_gf256::region;
use nc_pool::Pool;
use nc_rlnc::{CodedBlock, Segment};

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
    pool: Arc<Pool>,
}

impl ParallelEncoder {
    /// Creates an encoder using `threads` worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(segment: Segment, threads: usize, partitioning: Partitioning) -> ParallelEncoder {
        assert!(threads > 0, "at least one thread required");
        ParallelEncoder { segment, threads, partitioning, pool: Pool::shared(threads) }
    }

    /// The partitioning strategy in use.
    pub fn partitioning(&self) -> Partitioning {
        self.partitioning
    }

    /// The source segment.
    pub fn segment(&self) -> &Segment {
        &self.segment
    }

    /// Encodes one coded block per coefficient row, in parallel.
    ///
    /// # Panics
    ///
    /// Panics if any row's length differs from `n`.
    pub fn encode_batch(&self, coeff_rows: &[Vec<u8>]) -> Vec<CodedBlock> {
        let n = self.segment.config().blocks();
        let k = self.segment.config().block_size();
        for row in coeff_rows {
            assert_eq!(row.len(), n, "coefficient row length mismatch");
        }
        let mut payloads = vec![vec![0u8; k]; coeff_rows.len()];

        match self.partitioning {
            Partitioning::FullBlock => {
                // Whole coded blocks per worker, round-robin.
                self.pool.scope(|scope| {
                    let mut buckets: Vec<Vec<(usize, &mut Vec<u8>)>> =
                        (0..self.threads).map(|_| Vec::new()).collect();
                    for (i, p) in payloads.iter_mut().enumerate() {
                        buckets[i % self.threads].push((i, p));
                    }
                    for bucket in buckets {
                        let segment = &self.segment;
                        scope.spawn(move || {
                            let n = segment.config().blocks();
                            let sources: Vec<&[u8]> = (0..n).map(|i| segment.block(i)).collect();
                            for (j, payload) in bucket {
                                region::dot_assign(payload, &sources, &coeff_rows[j]);
                            }
                        });
                    }
                });
            }
            Partitioning::PartitionedBlock => {
                // Every block's byte range split across all workers.
                let slice_len = k.div_ceil(self.threads).next_multiple_of(8).min(k);
                for (j, payload) in payloads.iter_mut().enumerate() {
                    let row = &coeff_rows[j];
                    self.pool.scope(|scope| {
                        let mut rest: &mut [u8] = payload;
                        let mut offset = 0usize;
                        while !rest.is_empty() {
                            let take = slice_len.min(rest.len());
                            let (head, tail) = rest.split_at_mut(take);
                            rest = tail;
                            let segment = &self.segment;
                            let this_offset = offset;
                            offset += take;
                            scope.spawn(move || {
                                let n = segment.config().blocks();
                                let sources: Vec<&[u8]> = (0..n)
                                    .map(|i| &segment.block(i)[this_offset..this_offset + take])
                                    .collect();
                                region::dot_assign(head, &sources, row);
                            });
                        }
                    });
                }
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
