//! Thread-parallel multi-segment decoding (the CPU side of Sec. 5.2).
//!
//! "For our 8-core Mac Pro system, we operate on 8 segments in parallel at
//! a time, with each segment being processed by a CPU thread." Each worker
//! runs the ordinary progressive Gauss-Jordan decoder of `nc-rlnc` to
//! completion on its own segment — no cross-thread synchronization at all,
//! which is why multi-segment decoding is also the better CPU scheme.
//!
//! Each call runs one scoped thread wave: at most `threads` threads, one
//! balanced run of segments each (sizes differ by at most one segment).

use nc_rlnc::{CodedBlock, CodingConfig, Decoder, Error};

use crate::wave;

/// Decodes batches of segments, one scoped thread per balanced run of
/// segments.
#[derive(Debug)]
pub struct ParallelSegmentDecoder {
    config: CodingConfig,
    threads: usize,
}

impl ParallelSegmentDecoder {
    /// Creates a decoder running at most `threads` segments concurrently.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(config: CodingConfig, threads: usize) -> ParallelSegmentDecoder {
        assert!(threads > 0, "at least one thread required");
        ParallelSegmentDecoder { config, threads }
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
    /// If a decoding thread panics, its payload is resumed on the caller's
    /// thread once every thread of the wave has joined.
    pub fn decode_segments(&self, segments: &[Vec<CodedBlock>]) -> Result<Vec<Vec<u8>>, Error> {
        // `None` until a worker delivers the segment's real result, so an
        // unfilled slot can never masquerade as a decode error.
        let mut results: Vec<Option<Result<Vec<u8>, Error>>> =
            (0..segments.len()).map(|_| None).collect();

        let barrier = crate::metrics::metrics().segment_barrier_wait_ns.span();
        let chunks = wave::balanced_chunks(segments, &mut results, self.threads);
        wave::run(chunks, |(segments, slots)| {
            for (blocks, slot) in segments.iter().zip(slots) {
                let mut decoder = Decoder::new(self.config);
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
