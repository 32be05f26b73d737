//! Wall-clock throughput measurement helpers.
//!
//! Unlike the simulated GPU numbers, everything here is **real time on the
//! host machine** — the figure binaries report these columns as "host CPU"
//! next to the modeled Mac Pro baselines from `nc-cpu-model`.

use std::time::Instant;

use nc_rlnc::{CodingConfig, Encoder, Segment};
use rand::{Rng, SeedableRng};

use crate::decode::ParallelSegmentDecoder;
use crate::encode::{ParallelEncoder, Partitioning};

/// Provenance string for host-CPU measurements: which rung of the GF(2^8)
/// kernel ladder runs in this process (gfni / avx512 / avx2 / …).
///
/// Figure reports stamp this next to "host CPU" columns so a number can
/// be traced to the kernel that produced it — two hosts can differ by an
/// order of magnitude between the portable and GFNI rungs.
pub fn gf_path() -> String {
    format!("kernel={}", nc_gf256::simd::active_kernel().name())
}

/// Measures encoding throughput (coded bytes/second) for `m` coded blocks
/// of a random `(n, k)` segment on `threads` threads, on the active GF
/// rung.
pub fn encode_throughput(
    n: usize,
    k: usize,
    m: usize,
    threads: usize,
    partitioning: Partitioning,
    seed: u64,
) -> f64 {
    let config = CodingConfig::new(n, k).expect("valid config");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let data: Vec<u8> = (0..config.segment_bytes()).map(|_| rng.gen()).collect();
    let segment = Segment::from_bytes(config, data).expect("sized data");
    let coeffs: Vec<Vec<u8>> =
        (0..m).map(|_| (0..n).map(|_| rng.gen_range(1..=255)).collect()).collect();
    let encoder = ParallelEncoder::new(segment, threads, partitioning);

    let start = Instant::now();
    let blocks = encoder.encode_batch(&coeffs);
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(blocks.len(), m);
    (m * k) as f64 / elapsed
}

/// Measures multi-segment decoding throughput (decoded bytes/second) for
/// `segments` random segments on `threads` threads, on the active GF rung.
pub fn decode_throughput(n: usize, k: usize, segments: usize, threads: usize, seed: u64) -> f64 {
    let config = CodingConfig::new(n, k).expect("valid config");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut inputs = Vec::with_capacity(segments);
    for _ in 0..segments {
        let data: Vec<u8> = (0..config.segment_bytes()).map(|_| rng.gen()).collect();
        let enc = Encoder::new(Segment::from_bytes(config, data).expect("sized data"));
        inputs.push(enc.encode_batch(&mut rng, n + 4));
    }
    let decoder = ParallelSegmentDecoder::new(config, threads);

    let start = Instant::now();
    let out = decoder.decode_segments(&inputs).expect("full rank with 4 extra blocks");
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(out.len(), segments);
    (segments * n * k) as f64 / elapsed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gf_path_names_the_active_kernel() {
        assert_eq!(gf_path(), format!("kernel={}", nc_gf256::simd::active_kernel().name()));
    }

    #[test]
    fn encode_throughput_is_positive_and_finite() {
        let rate = encode_throughput(8, 256, 16, 2, Partitioning::FullBlock, 1);
        assert!(rate.is_finite() && rate > 0.0);
    }

    #[test]
    fn decode_throughput_is_positive_and_finite() {
        let rate = decode_throughput(8, 256, 4, 2, 2);
        assert!(rate.is_finite() && rate > 0.0);
    }
}
