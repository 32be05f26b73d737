//! Equivalence and dispatch tests for the SIMD region kernels.
//!
//! Every available [`SimdKernel`] — plus the forced portable fallback, so
//! non-SIMD hosts still exercise the dispatch seam — must be bit-identical
//! to the scalar ground truth across all 256 coefficients and the full set
//! of unaligned region lengths: 0, 1, around one vector (15/16/17), around
//! two vectors (31/32/33), around one 512-bit vector (63/64/65, the
//! masked-tail boundary of the `Avx512`/`Gfni` rungs), and 4 KiB ± 1 (the
//! paper's streaming block size). The multi-output product
//! (`matrix_mul_add`) is pinned the same way against its row-at-a-time
//! definition, across output counts around the eight-row register tile and
//! lengths around its 128-byte column strip.
//!
//! Kernels the CPU lacks are still pushed through the dispatcher (they must
//! degrade portably, not fault); `report_skipped_kernels` prints a visible
//! `SKIPPED` marker per rung that could not be natively exercised.

use nc_gf256::region::{self, Backend};
use nc_gf256::scalar::mul_loop;
use nc_gf256::simd::{
    self, dot_assign_with_kernel, matrix_mul_add_with_kernel, mul_add_assign_with_kernel,
    mul_assign_with_kernel, mul_into_with_kernel, xor_assign_with_kernel, SimdKernel, DOT_BLOCK,
};
use proptest::prelude::*;

/// The ISSUE's length ladder: empty, single byte, one-vector ± 1,
/// two-vector ± 1, one 64-byte vector ± 1, and 4 KiB ± 1.
const LENGTHS: [usize; 14] = [0, 1, 15, 16, 17, 31, 32, 33, 63, 64, 65, 4095, 4096, 4097];

/// Every enum variant, in native-or-degraded order: the kernels the host
/// can run first, then each foreign kernel, which must degrade to the
/// portable path instead of faulting.
fn kernels_under_test() -> Vec<SimdKernel> {
    let mut ks = simd::SimdKernel::available();
    for k in ALL_KERNELS {
        if !ks.contains(&k) {
            ks.push(k);
        }
    }
    ks
}

const ALL_KERNELS: [SimdKernel; 6] = [
    SimdKernel::Gfni,
    SimdKernel::Avx512,
    SimdKernel::Avx2,
    SimdKernel::Ssse3,
    SimdKernel::Neon,
    SimdKernel::Portable,
];

fn pattern(len: usize, salt: usize) -> Vec<u8> {
    (0..len).map(|i| (i.wrapping_mul(37) + salt) as u8).collect()
}

#[test]
fn mul_add_assign_all_coefficients_all_lengths() {
    for &len in &LENGTHS {
        let src = pattern(len, 11);
        let dst0 = pattern(len, 5);
        for c in 0..=255u8 {
            let want: Vec<u8> = dst0.iter().zip(&src).map(|(&d, &s)| d ^ mul_loop(c, s)).collect();
            for kernel in kernels_under_test() {
                let mut dst = dst0.clone();
                mul_add_assign_with_kernel(kernel, &mut dst, &src, c);
                assert_eq!(dst, want, "kernel {kernel:?}, c={c}, len={len}");
            }
        }
    }
}

#[test]
fn mul_into_all_coefficients_all_lengths() {
    for &len in &LENGTHS {
        let src = pattern(len, 23);
        for c in 0..=255u8 {
            let want: Vec<u8> = src.iter().map(|&s| mul_loop(c, s)).collect();
            for kernel in kernels_under_test() {
                let mut dst = vec![0xEE; len];
                mul_into_with_kernel(kernel, &mut dst, &src, c);
                assert_eq!(dst, want, "kernel {kernel:?}, c={c}, len={len}");
            }
        }
    }
}

#[test]
fn mul_assign_all_coefficients_all_lengths() {
    for &len in &LENGTHS {
        let data0 = pattern(len, 41);
        for c in 0..=255u8 {
            let want: Vec<u8> = data0.iter().map(|&d| mul_loop(c, d)).collect();
            for kernel in kernels_under_test() {
                let mut data = data0.clone();
                mul_assign_with_kernel(kernel, &mut data, c);
                assert_eq!(data, want, "kernel {kernel:?}, c={c}, len={len}");
            }
        }
    }
}

#[test]
fn xor_assign_all_lengths() {
    for &len in &LENGTHS {
        let a = pattern(len, 3);
        let b = pattern(len, 17);
        let want: Vec<u8> = a.iter().zip(&b).map(|(&x, &y)| x ^ y).collect();
        for kernel in kernels_under_test() {
            let mut dst = a.clone();
            xor_assign_with_kernel(kernel, &mut dst, &b);
            assert_eq!(dst, want, "kernel {kernel:?}, len={len}");
        }
    }
}

#[test]
fn forced_portable_matches_active_kernel() {
    // The dispatch fallback itself: Portable must agree with whatever the
    // host auto-selected, so a forced NC_GF_BACKEND=portable run covers the
    // same code results.
    let active = simd::active_kernel();
    for &len in &LENGTHS {
        let src = pattern(len, 7);
        for c in [0u8, 1, 2, 0x53, 0xFF] {
            let mut fast = pattern(len, 9);
            let mut slow = fast.clone();
            mul_add_assign_with_kernel(active, &mut fast, &src, c);
            mul_add_assign_with_kernel(SimdKernel::Portable, &mut slow, &src, c);
            assert_eq!(fast, slow, "active {active:?} vs portable, c={c}, len={len}");
        }
    }
}

#[test]
fn blocked_dot_matches_row_at_a_time() {
    // Source counts straddling the DOT_BLOCK boundary, with zero and one
    // coefficients mixed in so the skip/fast paths stay inside the sweep.
    for rows in [1usize, DOT_BLOCK - 1, DOT_BLOCK, DOT_BLOCK + 1, 3 * DOT_BLOCK + 2] {
        for &len in &[0usize, 1, 33, 4097] {
            let sources: Vec<Vec<u8>> = (0..rows).map(|s| pattern(len, s * 13 + 1)).collect();
            let refs: Vec<&[u8]> = sources.iter().map(|s| s.as_slice()).collect();
            let coeffs: Vec<u8> =
                (0..rows).map(|i| [0x00u8, 0x01, 0x53, 0xFE, 0x9A][i % 5]).collect();
            let mut want = pattern(len, 99);
            for (s, &c) in refs.iter().zip(&coeffs) {
                for (d, &b) in want.iter_mut().zip(*s) {
                    *d ^= mul_loop(c, b);
                }
            }
            for kernel in kernels_under_test() {
                let mut dst = pattern(len, 99);
                dot_assign_with_kernel(kernel, &mut dst, &refs, &coeffs);
                assert_eq!(dst, want, "kernel {kernel:?}, rows={rows}, len={len}");
            }
        }
    }
}

/// One `matrix_mul_add` problem: coefficient rows with zeros and ones
/// sprinkled in, sources, non-zero initial outputs, and the scalar
/// reference result.
struct MatrixCase {
    coeffs: Vec<Vec<u8>>,
    sources: Vec<Vec<u8>>,
    outs0: Vec<Vec<u8>>,
    want: Vec<Vec<u8>>,
}

impl MatrixCase {
    fn new(outputs: usize, sources: usize, len: usize, salt: usize) -> MatrixCase {
        let coeffs: Vec<Vec<u8>> = (0..outputs)
            .map(|t| {
                (0..sources)
                    .map(|i| match (t * 5 + i * 3 + salt) % 7 {
                        0 => 0,
                        1 => 1,
                        _ => (t * 89 + i * 151 + salt * 29 + 2) as u8,
                    })
                    .collect()
            })
            .collect();
        let sources: Vec<Vec<u8>> = (0..sources).map(|i| pattern(len, salt + i * 13 + 1)).collect();
        let outs0: Vec<Vec<u8>> = (0..outputs).map(|t| pattern(len, salt + t * 7 + 99)).collect();
        let want = outs0
            .iter()
            .zip(&coeffs)
            .map(|(out, row)| {
                let mut want = out.clone();
                for (src, &c) in sources.iter().zip(row) {
                    for (d, &b) in want.iter_mut().zip(src) {
                        *d ^= mul_loop(c, b);
                    }
                }
                want
            })
            .collect();
        MatrixCase { coeffs, sources, outs0, want }
    }

    /// Runs `product` on a fresh copy of the initial outputs and checks the
    /// result against the scalar reference.
    fn check(&self, what: &str, product: impl FnOnce(&mut [&mut [u8]], &[&[u8]], &[&[u8]])) {
        let mut outs = self.outs0.clone();
        let mut out_refs: Vec<&mut [u8]> = outs.iter_mut().map(Vec::as_mut_slice).collect();
        let sources: Vec<&[u8]> = self.sources.iter().map(Vec::as_slice).collect();
        let coeffs: Vec<&[u8]> = self.coeffs.iter().map(Vec::as_slice).collect();
        product(&mut out_refs, &sources, &coeffs);
        let len = self.outs0.first().map_or(0, Vec::len);
        assert!(
            outs == self.want,
            "{what}: outputs={}, sources={}, len={len}",
            self.outs0.len(),
            self.sources.len()
        );
    }
}

#[test]
fn matrix_mul_add_matches_row_at_a_time_and_scalar() {
    // Output counts around the eight-row tile (and the benchmark's 136),
    // source counts around DOT_BLOCK (and the paper's 128), lengths around
    // one and two 64-byte vectors of the 128-byte strip and 4 KiB ± 1.
    for outputs in [0usize, 1, 7, 8, 9, 17, 136] {
        for sources in [0usize, 1, 3, 4, 5, 128] {
            for len in [0usize, 1, 63, 64, 65, 127, 128, 129, 4095, 4096, 4097] {
                let case = MatrixCase::new(outputs, sources, len, outputs + sources + len);
                for kernel in kernels_under_test() {
                    case.check(&format!("matrix_mul_add on {kernel:?}"), |outs, srcs, coeffs| {
                        matrix_mul_add_with_kernel(kernel, outs, srcs, coeffs)
                    });
                    case.check(&format!("dot_assign rows on {kernel:?}"), |outs, srcs, coeffs| {
                        for (out, row) in outs.iter_mut().zip(coeffs) {
                            dot_assign_with_kernel(kernel, out, srcs, row);
                        }
                    });
                }
                for backend in Backend::ALL {
                    case.check(&format!("matrix_mul_add on {backend:?}"), |outs, srcs, coeffs| {
                        region::matrix_mul_add_with(backend, outs, srcs, coeffs)
                    });
                }
            }
        }
    }
}

#[test]
#[should_panic(expected = "coefficient count mismatch")]
fn matrix_mul_add_rejects_short_coefficient_rows() {
    let mut out = [0u8; 4];
    let src = [1u8; 4];
    region::matrix_mul_add(&mut [&mut out[..]], &[&src[..], &src[..]], &[&[7u8][..]]);
}

#[test]
#[should_panic(expected = "region length mismatch")]
fn matrix_mul_add_rejects_ragged_outputs() {
    let (mut a, mut b) = ([0u8; 4], [0u8; 5]);
    let src = [1u8; 4];
    region::matrix_mul_add(&mut [&mut a[..], &mut b[..]], &[&src[..]], &[&[7u8][..], &[9u8][..]]);
}

#[test]
fn report_skipped_kernels() {
    // Not an assertion: a visible audit trail. `cargo test -- --nocapture`
    // (and any failing run) shows exactly which rungs ran natively and
    // which were only exercised through the degraded-dispatch path.
    for k in ALL_KERNELS {
        if k.is_available() {
            println!("kernel {:>8}: exercised natively", k.name());
        } else {
            println!("kernel {:>8}: SKIPPED (CPU lacks feature; degraded path tested)", k.name());
        }
    }
}

#[test]
fn in_place_mul_assign_matches_out_of_place() {
    // The in-place rung is a dedicated body on every SIMD kernel (a
    // `&[u8]`/`&mut [u8]` pair over one buffer would be aliasing UB), so
    // pin it against `mul_into` from a pristine copy of the same data.
    for &len in &LENGTHS {
        let data0 = pattern(len, 61);
        for c in [0u8, 1, 2, 0x53, 0x80, 0xFF] {
            for kernel in kernels_under_test() {
                let mut out_of_place = vec![0u8; len];
                mul_into_with_kernel(kernel, &mut out_of_place, &data0, c);
                let mut in_place = data0.clone();
                mul_assign_with_kernel(kernel, &mut in_place, c);
                assert_eq!(in_place, out_of_place, "kernel {kernel:?}, c={c}, len={len}");
            }
        }
    }
}

#[test]
fn kernel_ids_are_distinct_and_stable() {
    // The `gf.kernel_id` gauge is only useful if ids never collide or move.
    let ids: Vec<u8> = ALL_KERNELS.iter().map(|k| k.id()).collect();
    assert_eq!(ids, [5, 4, 2, 1, 3, 0]);
}

#[test]
fn region_simd_backend_equals_scalar_backends() {
    // The Backend::Simd seam used by every consumer crate.
    for &len in &LENGTHS {
        let src = pattern(len, 51);
        for c in [0u8, 1, 2, 0x53, 0x80, 0xFF] {
            let mut want = pattern(len, 77);
            region::mul_add_assign_with(Backend::Table, &mut want, &src, c);
            let mut got = pattern(len, 77);
            region::mul_add_assign_with(Backend::Simd, &mut got, &src, c);
            assert_eq!(got, want, "c={c}, len={len}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn proptest_kernels_agree_on_random_regions(
        c: u8,
        seed in 0usize..1024,
        len_idx in 0usize..LENGTHS.len(),
    ) {
        let len = LENGTHS[len_idx];
        let src = pattern(len, seed);
        let dst0 = pattern(len, seed.wrapping_mul(31) + 7);
        let want: Vec<u8> = dst0.iter().zip(&src).map(|(&d, &s)| d ^ mul_loop(c, s)).collect();
        for kernel in kernels_under_test() {
            let mut dst = dst0.clone();
            mul_add_assign_with_kernel(kernel, &mut dst, &src, c);
            prop_assert_eq!(&dst, &want, "kernel {:?}, c={}, len={}", kernel, c, len);
        }
    }

    #[test]
    fn proptest_matrix_tiling_is_invisible(
        outputs in 0usize..20,
        sources in 0usize..12,
        len in 0usize..300,
        salt in 0usize..1024,
    ) {
        let case = MatrixCase::new(outputs, sources, len, salt);
        for kernel in kernels_under_test() {
            case.check(&format!("matrix_mul_add on {kernel:?}"), |outs, srcs, coeffs| {
                matrix_mul_add_with_kernel(kernel, outs, srcs, coeffs)
            });
        }
        case.check("matrix_mul_add on the default backend", |outs, srcs, coeffs| {
            region::matrix_mul_add(outs, srcs, coeffs)
        });
    }

    #[test]
    fn proptest_dot_blocking_is_invisible(
        rows in 1usize..12,
        seed in 0usize..1024,
        len_idx in 0usize..4,
    ) {
        let len = [1usize, 16, 33, 255][len_idx];
        let sources: Vec<Vec<u8>> =
            (0..rows).map(|s| pattern(len, seed + s * 7)).collect();
        let refs: Vec<&[u8]> = sources.iter().map(|s| s.as_slice()).collect();
        let coeffs: Vec<u8> = (0..rows).map(|i| (seed + i * 3) as u8).collect();
        // Row-at-a-time ground truth on the Table backend.
        let mut want = pattern(len, seed + 500);
        for (s, &c) in refs.iter().zip(&coeffs) {
            region::mul_add_assign_with(Backend::Table, &mut want, s, c);
        }
        let mut got = pattern(len, seed + 500);
        region::dot_assign_with(Backend::Simd, &mut got, &refs, &coeffs);
        prop_assert_eq!(got, want);
    }
}
