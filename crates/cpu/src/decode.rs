//! Thread-parallel multi-segment decoding (the CPU side of Sec. 5.2).
//!
//! "For our 8-core Mac Pro system, we operate on 8 segments in parallel at
//! a time, with each segment being processed by a CPU thread." Each worker
//! runs the ordinary progressive Gauss-Jordan decoder of `nc-rlnc` to
//! completion on its own segment — no cross-thread synchronization at all,
//! which is why multi-segment decoding is also the better CPU scheme.
//!
//! The workers come from a persistent [`nc_pool::Pool`]: each batch is
//! split into balanced, modestly oversubscribed chunks on the shared
//! work-stealing pool, so a batch with `segments % threads != 0` never
//! runs a short final wave — idle workers steal the straggler chunks —
//! and repeated batches pay no thread spawn/join churn.

use std::sync::Arc;

use nc_pool::Pool;
use nc_rlnc::{CodedBlock, CodingConfig, Decoder, Error};

/// Decodes batches of segments as balanced chunk tasks on a persistent
/// work-stealing pool.
#[derive(Debug)]
pub struct ParallelSegmentDecoder {
    config: CodingConfig,
    threads: usize,
    pool: Arc<Pool>,
}

impl ParallelSegmentDecoder {
    /// Creates a decoder running at most `threads` segments concurrently.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(config: CodingConfig, threads: usize) -> ParallelSegmentDecoder {
        assert!(threads > 0, "at least one thread required");
        ParallelSegmentDecoder { config, threads, pool: Pool::shared(threads) }
    }

    /// The coding configuration.
    pub fn config(&self) -> CodingConfig {
        self.config
    }

    /// Worker threads the decoder's pool runs on.
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Decodes every segment; `segments[i]` supplies the coded blocks of
    /// segment `i` (at least `n` innovative ones).
    ///
    /// # Errors
    ///
    /// Returns [`Error::SegmentDecode`] naming the first (lowest-index)
    /// failing segment and wrapping its underlying error — typically
    /// [`Error::RankDeficient`] when the blocks do not reach full rank, or
    /// a shape error.
    ///
    /// # Panics
    ///
    /// If a worker thread panics, the panic is resumed on the caller's
    /// thread once the wave has joined.
    pub fn decode_segments(&self, segments: &[Vec<CodedBlock>]) -> Result<Vec<Vec<u8>>, Error> {
        // `None` until a worker delivers the segment's real result, so an
        // unfilled slot can never masquerade as a decode error.
        let mut results: Vec<Option<Result<Vec<u8>, Error>>> =
            (0..segments.len()).map(|_| None).collect();

        // Balanced chunks on the persistent pool: no per-wave thread
        // spawn/join, and chunk sizes differ by at most one segment, so
        // `segments % threads != 0` never leaves a short final wave (the
        // old `div_ceil` split could leave the last worker nearly idle).
        // Modest oversubscription (4 tasks per worker) keeps per-task
        // dispatch overhead amortized on large batches while stealing
        // still rebalances segments that decode at different speeds.
        // A panicking task poisons the scope and is resumed here, with
        // its original payload, once every task has joined.
        let tasks = (self.threads * 4).clamp(1, segments.len().max(1));
        let base = segments.len() / tasks;
        let extra = segments.len() % tasks;

        let barrier = crate::metrics::metrics().segment_barrier_wait_ns.span();
        self.pool.scope(|scope| {
            let mut seg_rest = segments;
            let mut out_rest = results.as_mut_slice();
            for i in 0..tasks {
                let size = base + usize::from(i < extra);
                let (seg_chunk, sr) = seg_rest.split_at(size);
                let (out_chunk, or) = std::mem::take(&mut out_rest).split_at_mut(size);
                seg_rest = sr;
                out_rest = or;
                let config = self.config;
                scope.spawn(move || {
                    for (blocks, slot) in seg_chunk.iter().zip(out_chunk.iter_mut()) {
                        let mut decoder = Decoder::new(config);
                        *slot = Some((|| {
                            for b in blocks {
                                if decoder.is_complete() {
                                    break;
                                }
                                decoder.push(b.clone())?;
                            }
                            decoder.try_recover()
                        })());
                    }
                });
            }
        });
        drop(barrier);

        let m = crate::metrics::metrics();
        results
            .into_iter()
            .enumerate()
            .map(|(segment, slot)| {
                match slot.expect("worker result missing despite successful join") {
                    Ok(data) => {
                        m.segments_decoded.inc();
                        Ok(data)
                    }
                    Err(source) => {
                        m.segment_errors.inc();
                        Err(Error::SegmentDecode { segment, source: Box::new(source) })
                    }
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_rlnc::{Encoder, Segment};
    use rand::{Rng, SeedableRng};

    fn segment_with_blocks(
        config: CodingConfig,
        seed: u64,
        extra: usize,
    ) -> (Vec<u8>, Vec<CodedBlock>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data: Vec<u8> = (0..config.segment_bytes()).map(|_| rng.gen()).collect();
        let enc = Encoder::new(Segment::from_bytes(config, data.clone()).unwrap());
        let blocks = enc.encode_batch(&mut rng, config.blocks() + extra);
        (data, blocks)
    }

    #[test]
    fn decodes_eight_segments_in_parallel() {
        let config = CodingConfig::new(8, 64).unwrap();
        let mut datas = Vec::new();
        let mut inputs = Vec::new();
        for s in 0..8 {
            let (data, blocks) = segment_with_blocks(config, 40 + s, 4);
            datas.push(data);
            inputs.push(blocks);
        }
        let dec = ParallelSegmentDecoder::new(config, 8);
        let out = dec.decode_segments(&inputs).unwrap();
        assert_eq!(out, datas);
    }

    #[test]
    fn more_segments_than_threads() {
        let config = CodingConfig::new(4, 16).unwrap();
        let mut datas = Vec::new();
        let mut inputs = Vec::new();
        for s in 0..10 {
            let (data, blocks) = segment_with_blocks(config, 60 + s, 4);
            datas.push(data);
            inputs.push(blocks);
        }
        let dec = ParallelSegmentDecoder::new(config, 3);
        let out = dec.decode_segments(&inputs).unwrap();
        assert_eq!(out, datas);
    }

    #[test]
    fn rank_deficiency_is_reported() {
        let config = CodingConfig::new(4, 16).unwrap();
        let (_, blocks) = segment_with_blocks(config, 70, 4);
        let starved = blocks[..2].to_vec(); // not enough for rank 4
        let dec = ParallelSegmentDecoder::new(config, 2);
        let err = dec.decode_segments(&[starved]).unwrap_err();
        match err {
            Error::SegmentDecode { segment: 0, source } => {
                assert!(matches!(*source, Error::RankDeficient { rank: 2, needed: 4 }));
            }
            other => panic!("expected SegmentDecode, got {other:?}"),
        }
    }

    #[test]
    fn error_names_the_failing_segment() {
        let config = CodingConfig::new(4, 16).unwrap();
        let mut inputs = Vec::new();
        for s in 0..5 {
            let (_, blocks) = segment_with_blocks(config, 80 + s, 4);
            inputs.push(blocks);
        }
        inputs[3].truncate(2); // starve only segment 3
        let dec = ParallelSegmentDecoder::new(config, 2);
        let err = dec.decode_segments(&inputs).unwrap_err();
        assert!(
            matches!(err, Error::SegmentDecode { segment: 3, .. }),
            "error must point at segment 3, got {err:?}"
        );
    }

    #[test]
    fn empty_input_decodes_to_nothing() {
        let config = CodingConfig::new(4, 16).unwrap();
        let dec = ParallelSegmentDecoder::new(config, 2);
        assert_eq!(dec.decode_segments(&[]).unwrap(), Vec::<Vec<u8>>::new());
    }
}
