//! Cross-crate equivalence: every encoder implementation must interoperate
//! with every decoder implementation — GPU kernels, multi-threaded CPU, and
//! the single-threaded reference are interchangeable parts of one code.

use extreme_nc::cpu::{ParallelEncoder, ParallelSegmentDecoder, Partitioning};
use extreme_nc::gpu::api::EncodeScheme;
use extreme_nc::gpu::decode_single::DecodeOptions;
use extreme_nc::prelude::*;
use rand::{Rng, SeedableRng};

fn random_segment(config: CodingConfig, seed: u64) -> (Vec<u8>, Segment, rand::rngs::StdRng) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let data: Vec<u8> = (0..config.segment_bytes()).map(|_| rng.gen()).collect();
    let segment = Segment::from_bytes(config, data.clone()).expect("sized");
    (data, segment, rng)
}

fn dense_rows(rng: &mut impl Rng, m: usize, n: usize) -> Vec<Vec<u8>> {
    (0..m).map(|_| (0..n).map(|_| rng.gen_range(1..=255)).collect()).collect()
}

#[test]
fn gpu_encoders_feed_cpu_decoder() {
    let config = CodingConfig::new(16, 128).expect("valid");
    let (data, segment, mut rng) = random_segment(config, 1);
    let coeffs = dense_rows(&mut rng, 20, 16);

    for scheme in [
        EncodeScheme::LoopBased,
        EncodeScheme::Table(TableVariant::Tb1),
        EncodeScheme::Table(TableVariant::Tb5),
    ] {
        let mut gpu_enc = GpuEncoder::new(DeviceSpec::gtx280(), scheme);
        let (blocks, _) = gpu_enc.encode_blocks(&segment, &coeffs);
        let mut decoder = Decoder::new(config);
        for b in blocks {
            if decoder.is_complete() {
                break;
            }
            decoder.push(b).expect("well-formed");
        }
        assert_eq!(decoder.recover().expect("complete"), data, "{scheme:?}");
    }
}

#[test]
fn cpu_parallel_encoder_feeds_gpu_decoder() {
    let config = CodingConfig::new(16, 128).expect("valid");
    let (data, segment, mut rng) = random_segment(config, 2);
    let coeffs = dense_rows(&mut rng, 20, 16);

    let cpu_enc = ParallelEncoder::new(segment, 4, Partitioning::FullBlock);
    let blocks = cpu_enc.encode_batch(&coeffs);

    let mut gpu_dec = GpuProgressiveDecoder::new(
        DeviceSpec::gtx280(),
        config,
        DecodeOptions { use_atomic_min: true, cache_coefficients: true },
        Fidelity::Functional,
    );
    for b in &blocks {
        if gpu_dec.is_complete() {
            break;
        }
        gpu_dec.push(b.coefficients(), b.payload()).expect("pivot result word");
    }
    assert_eq!(gpu_dec.recover().expect("complete"), data);
}

#[test]
fn gpu_multi_decoder_agrees_with_reference_two_stage() {
    let config = CodingConfig::new(8, 64).expect("valid");
    let mut inputs = Vec::new();
    let mut expected = Vec::new();
    for s in 0..5 {
        let (data, segment, mut rng) = random_segment(config, 10 + s);
        let enc = Encoder::new(segment);
        let mut gather = TwoStageDecoder::new(config);
        while !gather.is_full() {
            gather.push(enc.encode(&mut rng)).expect("well-formed");
        }
        // Reference decode.
        assert_eq!(gather.decode().expect("full rank"), data);
        inputs.push(gather.blocks().to_vec());
        expected.push(data);
    }
    let mut gpu = GpuMultiDecoder::new(DeviceSpec::gtx280());
    let outcome = gpu.decode(config, &inputs);
    assert_eq!(outcome.recovered.expect("functional"), expected);
}

#[test]
fn recoded_traffic_decodes_on_gpu() {
    let config = CodingConfig::new(12, 64).expect("valid");
    let (data, segment, mut rng) = random_segment(config, 3);
    let encoder = Encoder::new(segment);

    let mut relay = Recoder::new(config);
    for _ in 0..14 {
        relay.push(encoder.encode(&mut rng)).expect("well-formed");
    }
    let mut gpu_dec = GpuProgressiveDecoder::new(
        DeviceSpec::gtx280(),
        config,
        DecodeOptions::default(),
        Fidelity::Functional,
    );
    let mut guard = 0;
    while !gpu_dec.is_complete() {
        let b = relay.recode(&mut rng).expect("non-empty");
        gpu_dec.push(b.coefficients(), b.payload()).expect("pivot result word");
        guard += 1;
        assert!(guard < 60, "recoded stream failed to converge");
    }
    assert_eq!(gpu_dec.recover().expect("complete"), data);
}

#[test]
fn both_cpu_partitionings_interoperate_with_two_stage_decoder() {
    let config = CodingConfig::new(12, 96).expect("valid");
    let (data, segment, mut rng) = random_segment(config, 4);
    let coeffs = dense_rows(&mut rng, 12, 12);
    for partitioning in [Partitioning::FullBlock, Partitioning::PartitionedBlock] {
        let enc = ParallelEncoder::new(segment.clone(), 3, partitioning);
        let mut decoder = TwoStageDecoder::new(config);
        for b in enc.encode_batch(&coeffs) {
            decoder.push(b).expect("well-formed");
        }
        assert_eq!(decoder.decode().expect("full rank"), data, "{partitioning:?}");
    }
}

#[test]
fn parallel_segment_decoder_consumes_gpu_encoded_segments() {
    let config = CodingConfig::new(8, 64).expect("valid");
    let mut inputs = Vec::new();
    let mut expected = Vec::new();
    let mut gpu_enc = GpuEncoder::new(DeviceSpec::gtx280(), EncodeScheme::Table(TableVariant::Tb3));
    for s in 0..4 {
        let (data, segment, mut rng) = random_segment(config, 20 + s);
        let coeffs = dense_rows(&mut rng, 11, 8);
        let (blocks, _) = gpu_enc.encode_blocks(&segment, &coeffs);
        inputs.push(blocks);
        expected.push(data);
    }
    let decoder = ParallelSegmentDecoder::new(config, 4);
    assert_eq!(decoder.decode_segments(&inputs).expect("full rank"), expected);
}

#[test]
fn every_scheme_is_bit_exact_on_the_simulator() {
    // One kernel body per scheme, one CPU reference: the device layer's
    // invariant at a shape small enough for tier 1.
    let config = CodingConfig::new(16, 128).expect("valid");
    let (_, segment, mut rng) = random_segment(config, 5);
    let coeffs = dense_rows(&mut rng, 3, 16);
    let reference = Encoder::new(segment.clone());
    let want: Vec<CodedBlock> = coeffs
        .iter()
        .map(|row| reference.encode_with_coefficients(row.clone()).expect("row length n"))
        .collect();

    // The simulator maps its whole device memory up front (~1 s of kernel
    // time per 1 GB device here); 16 MB holds this shape many times over.
    let spec = DeviceSpec { device_mem_bytes: 16 << 20, ..DeviceSpec::gtx280() };
    let schemes = std::iter::once(EncodeScheme::LoopBased)
        .chain(TableVariant::ALL.into_iter().map(EncodeScheme::Table));
    for scheme in schemes {
        let mut gpu = GpuEncoder::new(spec.clone(), scheme);
        let (blocks, _) = gpu.encode_blocks(&segment, &coeffs);
        assert_eq!(blocks.len(), want.len());
        for (j, (got, want)) in blocks.iter().zip(&want).enumerate() {
            assert_eq!(got.payload(), want.payload(), "{scheme:?} block {j}");
        }
    }
}
