//! Property-based equivalence: for random configurations and data, every
//! GPU encoding scheme must produce byte-identical output to the CPU
//! reference, and the GPU decoders must recover it.
//!
//! The whole suite runs under the kernel sanitizer (memcheck + racecheck):
//! besides byte equality, every launch of every shipped kernel must be
//! free of correctness diagnostics at every random configuration.

use nc_gpu::api::EncodeScheme;
use nc_gpu::decode_single::DecodeOptions;
use nc_gpu::{Fidelity, GpuEncoder, GpuProgressiveDecoder, TableVariant};
use nc_gpu_sim::{DeviceSpec, SanitizerConfig};
use nc_rlnc::{CodingConfig, Decoder, Encoder, Segment};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

fn arb_dims() -> impl Strategy<Value = (usize, usize)> {
    // n and k multiples of 4, small enough for exhaustive simulation.
    (1usize..6, 1usize..12).prop_map(|(n4, k4)| (n4 * 4, k4 * 8))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_scheme_matches_the_reference(
        (n, k) in arb_dims(),
        seed: u64,
        variant_idx in 0usize..7,
    ) {
        let config = CodingConfig::new(n, k).expect("valid dims");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data: Vec<u8> = (0..n * k).map(|_| rng.gen()).collect();
        let segment = Segment::from_bytes(config, data).expect("sized");
        let coeffs: Vec<Vec<u8>> = (0..3)
            .map(|_| (0..n).map(|_| rng.gen_range(1..=255)).collect())
            .collect();
        let reference = Encoder::new(segment.clone());

        let scheme = match variant_idx {
            0 => EncodeScheme::LoopBased,
            i => EncodeScheme::Table(TableVariant::ALL[i - 1]),
        };
        let mut gpu = GpuEncoder::new(DeviceSpec::gtx280(), scheme);
        gpu.enable_sanitizer(SanitizerConfig::correctness_only());
        let (blocks, _) = gpu.encode_blocks(&segment, &coeffs);
        for (j, b) in blocks.iter().enumerate() {
            let want = reference
                .encode_with_coefficients(coeffs[j].clone())
                .expect("row length n");
            prop_assert_eq!(b.payload(), want.payload(), "{:?} block {}", scheme, j);
        }
        let report = gpu.sanitizer_report().expect("sanitizer enabled");
        prop_assert!(
            report.is_clean(),
            "{:?} n={} k={} not sanitizer-clean:\n{}",
            scheme, n, k, report.render()
        );
    }

    #[test]
    fn gpu_and_cpu_decoders_agree_on_random_streams(
        (n, k) in arb_dims(),
        seed: u64,
        atomic: bool,
        cache: bool,
    ) {
        let config = CodingConfig::new(n, k).expect("valid dims");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data: Vec<u8> = (0..n * k).map(|_| rng.gen()).collect();
        let enc = Encoder::new(Segment::from_bytes(config, data.clone()).expect("sized"));

        let mut gpu = GpuProgressiveDecoder::new(
            DeviceSpec::gtx280(),
            config,
            DecodeOptions { use_atomic_min: atomic, cache_coefficients: cache },
            Fidelity::Functional,
        );
        gpu.enable_sanitizer(SanitizerConfig::correctness_only());
        let mut cpu = Decoder::new(config);
        let mut guard = 0;
        while !gpu.is_complete() {
            let b = enc.encode(&mut rng);
            let gi = gpu.push(b.coefficients(), b.payload()).expect("result word");
            let ci = cpu.push(b).expect("well-formed");
            prop_assert_eq!(gi, ci, "innovation verdicts must agree");
            guard += 1;
            prop_assert!(guard < n + 48, "failed to converge");
        }
        prop_assert_eq!(gpu.recover().expect("complete"), data.clone());
        prop_assert_eq!(cpu.recover().expect("complete"), data);
        let report = gpu.sanitizer_report().expect("sanitizer enabled");
        prop_assert!(
            report.is_clean(),
            "decoder (atomic={} cache={}) n={} k={} not sanitizer-clean:\n{}",
            atomic, cache, n, k, report.render()
        );
    }

    #[test]
    fn timing_fidelity_matches_functional_timing(
        (n, k) in arb_dims(),
        seed: u64,
    ) {
        // The sampled/timing path must model (approximately) the same cost
        // as the fully executed path — its whole reason to exist.
        let run = |fidelity: Fidelity| {
            let config = CodingConfig::new(n, k).expect("valid dims");
            let mut dec = GpuProgressiveDecoder::new(
                DeviceSpec::gtx280(),
                config,
                DecodeOptions::default(),
                fidelity,
            );
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let payload: Vec<u8> = (0..k).map(|_| rng.gen()).collect();
            let mut coeffs = vec![0u8; n];
            let mut guard = 0;
            while !dec.is_complete() {
                for c in coeffs.iter_mut() {
                    *c = rng.gen_range(1..=255);
                }
                dec.push(&coeffs, &payload).expect("result word");
                guard += 1;
                if guard > n + 48 {
                    break;
                }
            }
            dec.kernel_seconds()
        };
        let full = run(Fidelity::Functional);
        let timed = run(Fidelity::Timing);
        let ratio = timed / full;
        prop_assert!((0.5..2.0).contains(&ratio), "timing drift {ratio}");
    }
}
