//! Equivalence of the thread-parallel coders with the serial ones: the
//! multi-segment decoder must produce *bit-identical* output to the
//! spawn-per-wave reference below and to one `Decoder` per segment, and
//! both encoder partitionings to the serial `Encoder`. Coding is
//! deterministic given the inputs, so any divergence is a dispatch bug
//! (dropped chunk, mis-routed slot or byte slice, cross-segment state
//! bleed).

use nc_cpu::{ParallelEncoder, ParallelSegmentDecoder, Partitioning};
use nc_rlnc::{CodedBlock, CodingConfig, Decoder, Encoder, Segment};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn coded_segments(
    config: CodingConfig,
    count: usize,
    extra: usize,
    seed: u64,
) -> (Vec<Vec<u8>>, Vec<Vec<CodedBlock>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut originals = Vec::with_capacity(count);
    let mut coded = Vec::with_capacity(count);
    for _ in 0..count {
        let data: Vec<u8> = (0..config.segment_bytes()).map(|_| rng.gen()).collect();
        let segment = Segment::from_bytes(config, data.clone()).unwrap();
        let encoder = Encoder::new(segment);
        coded.push(encoder.encode_batch(&mut rng, config.blocks() + extra));
        originals.push(data);
    }
    (originals, coded)
}

/// The reference strategy: one `std::thread::scope` per call, fresh
/// threads each wave, segments chunked across them with `div_ceil`.
fn spawn_per_wave_decode(
    config: CodingConfig,
    threads: usize,
    segments: &[Vec<CodedBlock>],
) -> Vec<Vec<u8>> {
    let mut results: Vec<Option<Vec<u8>>> = (0..segments.len()).map(|_| None).collect();
    let threads = threads.max(1).min(segments.len().max(1));
    let chunk = segments.len().div_ceil(threads);
    std::thread::scope(|scope| {
        for (seg_chunk, out_chunk) in segments.chunks(chunk).zip(results.chunks_mut(chunk)) {
            scope.spawn(move || {
                for (blocks, slot) in seg_chunk.iter().zip(out_chunk.iter_mut()) {
                    let mut decoder = Decoder::new(config);
                    for b in blocks {
                        if decoder.is_complete() {
                            break;
                        }
                        decoder.push(b.clone()).unwrap();
                    }
                    *slot = Some(decoder.try_recover().unwrap());
                }
            });
        }
    });
    results.into_iter().map(|r| r.unwrap()).collect()
}

#[test]
fn parallel_decode_is_bit_identical_to_spawn_per_wave() {
    let config = CodingConfig::new(8, 64).unwrap();
    for &(segments, threads) in
        &[(1usize, 8usize), (3, 2), (8, 8), (17, 4), (64, 8), (64, 3), (5, 16)]
    {
        let (originals, coded) = coded_segments(config, segments, 4, 0xEC0DE + segments as u64);
        let baseline = spawn_per_wave_decode(config, threads, &coded);
        let parallel =
            ParallelSegmentDecoder::new(config, threads).decode_segments(&coded).unwrap();
        assert_eq!(parallel, baseline, "{segments} segments on {threads} threads: decode diverged");
        assert_eq!(parallel, originals, "{segments} segments: decode does not recover sources");
    }
}

#[test]
fn parallel_decode_is_stable_across_repeated_waves() {
    // Steady-state reuse: the same decoder (and recycled buffers) must
    // keep producing identical output over many waves.
    let config = CodingConfig::new(8, 64).unwrap();
    let (originals, coded) = coded_segments(config, 16, 4, 99);
    let decoder = ParallelSegmentDecoder::new(config, 4);
    let first = decoder.decode_segments(&coded).unwrap();
    assert_eq!(first, originals);
    for wave in 0..20 {
        let again = decoder.decode_segments(&coded).unwrap();
        assert_eq!(again, first, "wave {wave} diverged from the first decode");
    }
}

#[test]
fn undecodable_segment_is_reported_with_its_index() {
    let config = CodingConfig::new(8, 64).unwrap();
    let (_, mut coded) = coded_segments(config, 6, 2, 5);
    // Starve segment 4 of rank: too few blocks to ever complete.
    coded[4].truncate(config.blocks() - 1);
    let err = ParallelSegmentDecoder::new(config, 4).decode_segments(&coded).unwrap_err();
    match err {
        nc_rlnc::Error::SegmentDecode { segment, .. } => assert_eq!(segment, 4),
        other => panic!("expected SegmentDecode, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Empty batches, more threads than rows, segments or 8-byte words,
    /// and a last byte slice shorter than the others: both partitionings
    /// equal the serial encoder bit for bit, and the segment decoder equals
    /// one serial `Decoder` per segment.
    #[test]
    fn parallel_coders_equal_the_serial_coders(
        threads in 1usize..=9,
        rows in 0usize..20,
        n in 1usize..10,
        whole_rounds in 0usize..4,
        spill: usize,
        segments in 0usize..12,
        seed: u64,
    ) {
        // Never a multiple of 8 * threads.
        let k = 8 * threads * whole_rounds + 1 + spill % (8 * threads - 1);
        let config = CodingConfig::new(n, k).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<u8> = (0..config.segment_bytes()).map(|_| rng.gen()).collect();
        let segment = Segment::from_bytes(config, data).unwrap();
        let serial = Encoder::new(segment.clone()).encode_batch(&mut rng, rows);
        let coeff_rows: Vec<Vec<u8>> = serial.iter().map(|b| b.coefficients().to_vec()).collect();
        for partitioning in [Partitioning::FullBlock, Partitioning::PartitionedBlock] {
            let parallel =
                ParallelEncoder::new(segment.clone(), threads, partitioning).encode_batch(&coeff_rows);
            prop_assert_eq!(&parallel, &serial, "{:?}", partitioning);
        }

        let (_, coded) = coded_segments(config, segments, 4, seed ^ 1);
        let want: Vec<Vec<u8>> = coded
            .iter()
            .map(|blocks| {
                let mut decoder = Decoder::new(config);
                for b in blocks {
                    if !decoder.is_complete() {
                        decoder.push(b.clone()).unwrap();
                    }
                }
                decoder.try_recover().unwrap()
            })
            .collect();
        let got = ParallelSegmentDecoder::new(config, threads).decode_segments(&coded).unwrap();
        prop_assert_eq!(got, want);
    }
}
