//! The equivalence suite of the GF(2^8) kernel ladder, and the tests of its
//! dispatch seam.
//!
//! Every rung of [`Kernel::ALL`] this host has must be bit-identical to the
//! scalar ground truth ([`mul_loop`]) on all six region operations, across
//! all 256 coefficients, a misaligned start at every offset 0..16, and the
//! full set of unaligned region lengths: 0, 1, around one vector
//! (15/16/17), around two vectors (31/32/33), around one 512-bit vector
//! (63/64/65, the masked-tail boundary of the `Avx512`/`Gfni` rungs), and
//! 4 KiB ± 1 (the paper's streaming block size). The multi-output product
//! (`matrix_mul_add`) is pinned the same way against its row-at-a-time
//! definition, across output counts around the eight-row register tile and
//! lengths around its 128-byte column strip.
//!
//! A rung the CPU lacks cannot be built ([`Rung::new`] is `None`), so it is
//! not run; `report_skipped_kernels` prints a visible `SKIPPED` marker for
//! each.

use nc_gf256::region;
use nc_gf256::scalar::mul_loop;
use nc_gf256::simd::{self, Kernel, Rung, DOT_BLOCK};
use proptest::prelude::*;

/// The length ladder: empty, single byte, one-vector ± 1, two-vector ± 1,
/// one 64-byte vector ± 1, and 4 KiB ± 1.
const LENGTHS: [usize; 14] = [0, 1, 15, 16, 17, 31, 32, 33, 63, 64, 65, 4095, 4096, 4097];

/// The coefficients with a fast path or a boundary bit pattern.
const EDGE_COEFFS: [u8; 6] = [0, 1, 2, 0x53, 0x80, 0xFF];

/// Bytes kept on both sides of a region under test: they must not change.
const GUARD: usize = 16;

fn pattern(len: usize, salt: usize) -> Vec<u8> {
    (0..len).map(|i| (i.wrapping_mul(37) + salt) as u8).collect()
}

/// The four single-source operations on every rung, over a region of `len`
/// bytes that starts `off` bytes into its allocation.
fn check_single_source_ops(len: usize, off: usize, c: u8) {
    let region = off..off + len;
    let src_buf = pattern(off + len, 11);
    let src = &src_buf[region.clone()];
    let dst0 = pattern(off + len + GUARD, 5);
    let product: Vec<u8> = src.iter().map(|&s| mul_loop(c, s)).collect();
    let xor = |a: &[u8], b: &[u8]| -> Vec<u8> { a.iter().zip(b).map(|(&x, &y)| x ^ y).collect() };
    let axpy = xor(&dst0[region.clone()], &product);
    for rung in Kernel::available() {
        let what = format!("{:?}, c={c}, len={len}, off={off}", rung.kernel());
        let mut buf = dst0.clone();
        let dst = &mut buf[region.clone()];
        region::mul_add_assign_on(rung, dst, src, c);
        assert_eq!(dst, axpy, "mul_add_assign on {what}");
        region::add_assign_on(rung, dst, src);
        assert_eq!(dst, xor(&axpy, src), "add_assign on {what}");
        region::mul_into_on(rung, dst, src, c);
        assert_eq!(dst, product, "mul_into on {what}");
        // In place: the same body, the region as its own source.
        dst.copy_from_slice(src);
        region::mul_assign_on(rung, dst, c);
        assert_eq!(dst, product, "mul_assign on {what}");
        assert_eq!(buf[..off], dst0[..off], "bytes before the region, {what}");
        assert_eq!(buf[off + len..], dst0[off + len..], "bytes after the region, {what}");
    }
}

#[test]
fn single_source_ops_match_scalar_on_every_rung() {
    for &len in &LENGTHS {
        // Every coefficient at one of the sixteen starts, and the
        // coefficients with a fast path at all of them.
        for c in 0..=255u8 {
            check_single_source_ops(len, usize::from(c) % 16, c);
        }
        for c in EDGE_COEFFS {
            for off in 0..16 {
                check_single_source_ops(len, off, c);
            }
        }
    }
}

#[test]
fn blocked_dot_matches_scalar_on_every_rung() {
    // Source counts straddling the DOT_BLOCK boundary, with zero and one
    // coefficients mixed in so the skip/fast paths stay inside the sweep.
    for rows in [1usize, DOT_BLOCK - 1, DOT_BLOCK, DOT_BLOCK + 1, 3 * DOT_BLOCK + 2] {
        for &len in &[0usize, 1, 33, 4097] {
            for off in [0usize, 1, 7, 15] {
                let sources: Vec<Vec<u8>> =
                    (0..rows).map(|s| pattern(off + len, s * 13 + 1)).collect();
                let refs: Vec<&[u8]> = sources.iter().map(|s| &s[off..]).collect();
                let coeffs: Vec<u8> =
                    (0..rows).map(|i| [0x00u8, 0x01, 0x53, 0xFE, 0x9A][i % 5]).collect();
                let mut want = pattern(off + len, 99);
                for (s, &c) in refs.iter().zip(&coeffs) {
                    for (d, &b) in want[off..].iter_mut().zip(*s) {
                        *d ^= mul_loop(c, b);
                    }
                }
                for rung in Kernel::available() {
                    let mut dst = pattern(off + len, 99);
                    region::dot_assign_on(rung, &mut dst[off..], &refs, &coeffs);
                    assert_eq!(dst, want, "{:?}, rows={rows}, len={len}, off={off}", rung.kernel());
                }
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

    /// The product on `rung`, as one call and as a `dot_assign` per row.
    fn check_on(&self, rung: Rung) {
        let kernel = rung.kernel();
        self.check(&format!("matrix_mul_add on {kernel:?}"), |outs, srcs, coeffs| {
            region::matrix_mul_add_on(rung, outs, srcs, coeffs)
        });
        self.check(&format!("dot_assign rows on {kernel:?}"), |outs, srcs, coeffs| {
            for (out, row) in outs.iter_mut().zip(coeffs) {
                region::dot_assign_on(rung, out, srcs, row);
            }
        });
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
                for rung in Kernel::available() {
                    case.check_on(rung);
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
    // (and any failing run) shows exactly which rungs the suite ran.
    for k in Kernel::ALL {
        match Rung::new(k) {
            Some(_) => println!("kernel {:>8}: exercised natively", k.name()),
            None => println!("kernel {:>8}: SKIPPED (CPU lacks the feature)", k.name()),
        }
    }
}

#[test]
fn kernel_ids_are_distinct_and_stable() {
    // The `gf.kernel_id` gauge is only useful if ids never collide or move.
    let ids: Vec<u8> = Kernel::ALL.iter().map(|k| k.id()).collect();
    assert_eq!(ids, [5, 4, 2, 3, 1, 0, 8, 7, 6]);
}

#[test]
fn override_is_honoured_and_reported() {
    // Whatever `NC_GF_BACKEND` this process was started with: a rung the
    // host has is the active one (CI runs this under `portable`, `nibble`
    // and `avx2`, among others); anything else is `available()[0]`.
    let value = std::env::var("NC_GF_BACKEND").ok().map(|v| v.trim().to_ascii_lowercase());
    let named = match value.as_deref() {
        Some("table") => Some("portable"),
        other => other,
    };
    let forced = Kernel::ALL.into_iter().find(|k| Some(k.name()) == named).and_then(Rung::new);
    let rung = forced.unwrap_or(Kernel::available()[0]);
    assert_eq!(simd::active_kernel().name(), rung.kernel().name(), "NC_GF_BACKEND={value:?}");
    assert_eq!(Rung::active(), rung);

    // What the active-rung operations run is that rung, byte for byte ...
    let case = MatrixCase::new(17, 9, 4097, 23);
    case.check("matrix_mul_add on the active rung", region::matrix_mul_add);
    let (src, coeffs) = (&case.sources[0], &case.coeffs[0]);
    let sources: Vec<&[u8]> = case.sources.iter().map(Vec::as_slice).collect();
    let (mut active, mut explicit) = (case.outs0[0].clone(), case.outs0[0].clone());
    region::mul_add_assign(&mut active, src, 0x53);
    region::mul_add_assign_on(rung, &mut explicit, src, 0x53);
    region::dot_assign(&mut active, &sources, coeffs);
    region::dot_assign_on(rung, &mut explicit, &sources, coeffs);
    assert_eq!(active, explicit);
    // ... and what telemetry says ran.
    if nc_telemetry::enabled() {
        let gauge = nc_telemetry::default_registry().gauge("gf.kernel_id").get();
        assert_eq!(gauge, f64::from(rung.kernel().id()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn proptest_rungs_agree_on_random_regions(
        data in proptest::collection::vec(any::<u8>(), 0..300),
        src_seed: u8,
        c: u8,
    ) {
        let src: Vec<u8> = data.iter().map(|&b| b.wrapping_mul(31).wrapping_add(src_seed)).collect();
        let axpy: Vec<u8> = data.iter().zip(&src).map(|(&d, &s)| d ^ mul_loop(c, s)).collect();
        let scaled: Vec<u8> = data.iter().map(|&d| mul_loop(c, d)).collect();
        for rung in Kernel::available() {
            let mut dst = data.clone();
            region::mul_add_assign_on(rung, &mut dst, &src, c);
            prop_assert_eq!(&dst, &axpy, "mul_add_assign on {:?}", rung.kernel());
            let mut dst = data.clone();
            region::mul_assign_on(rung, &mut dst, c);
            prop_assert_eq!(&dst, &scaled, "mul_assign on {:?}", rung.kernel());
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
        for rung in Kernel::available() {
            case.check_on(rung);
        }
        case.check("matrix_mul_add on the active rung", region::matrix_mul_add);
    }
}
