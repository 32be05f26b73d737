//! AVX-512BW nibble-shuffle kernels: the AVX2 `VPSHUFB` bodies widened to
//! 64-byte vectors, with masked heads gone entirely — the sub-vector tail
//! is handled by `k`-masked byte loads/stores instead of a scalar loop, so
//! every region length runs vectorized end to end.
//!
//! `_mm512_shuffle_epi8` shuffles within each 128-bit lane exactly like
//! `PSHUFB`, so the two 16-entry half-byte product tables are broadcast to
//! all four lanes with `_mm512_broadcast_i32x4` and the per-byte recipe is
//! unchanged from the SSSE3 kernel:
//!
//! ```text
//! product = VPSHUFB(lo_table, src & 0x0F) ^ VPSHUFB(hi_table, src >> 4)
//! ```
//!
//! Every function in this module requires AVX-512F + AVX-512BW (what
//! holding a [`super::Rung`] for `Avx512` proves); the masked tail needs BW
//! (byte-granular masks are a BW feature). All loads/stores use the
//! unaligned forms.

use super::{nibble_tables, MUL_INTO, XOR};

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// `VPSHUFB(lo, s & 0x0F) ^ VPSHUFB(hi, s >> 4)` — one 64-byte product.
///
/// # Safety
///
/// Caller must ensure the host supports AVX-512F and AVX-512BW.
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn product(lo_t: __m512i, hi_t: __m512i, mask: __m512i, s: __m512i) -> __m512i {
    let lo_idx = _mm512_and_si512(s, mask);
    let hi_idx = _mm512_and_si512(_mm512_srli_epi64::<4>(s), mask);
    _mm512_xor_si512(_mm512_shuffle_epi8(lo_t, lo_idx), _mm512_shuffle_epi8(hi_t, hi_idx))
}

/// Broadcasts one 16-byte half-byte table to all four 128-bit lanes.
///
/// # Safety
///
/// Caller must ensure the host supports AVX-512F (the table array is 16
/// bytes, matching the 128-bit load).
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn broadcast_table(table: &[u8; 16]) -> __m512i {
    // SAFETY: reads exactly 16 bytes from a 16-byte array, unaligned form.
    unsafe { _mm512_broadcast_i32x4(_mm_loadu_si128(table.as_ptr().cast())) }
}

/// One 64-byte (or `k`-masked shorter) chunk of `OP`.
///
/// # Safety
///
/// The host must support AVX-512F + AVX-512BW; `d` and `s` must be valid
/// for the lanes `k` selects (all 64 when `!MASKED`).
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn chunk<const OP: u8, const MASKED: bool>(
    d: *mut u8,
    s: *const u8,
    k: __mmask64,
    [lo_t, hi_t, mask]: [__m512i; 3],
) {
    // SAFETY: every access is a full 64-byte vector (`!MASKED`) or confined
    // to the lanes of `k` (`MASKED`: masked-off lanes are neither read nor
    // written and cannot fault), which the caller vouches for; the source
    // vector is loaded before the store, so `d == s` is sound. Unaligned
    // forms throughout.
    unsafe {
        let load = |p: *const u8| {
            if MASKED {
                _mm512_maskz_loadu_epi8(k, p.cast())
            } else {
                _mm512_loadu_si512(p.cast())
            }
        };
        let s = load(s);
        let mut out = if OP == XOR { s } else { product(lo_t, hi_t, mask, s) };
        if OP != MUL_INTO {
            out = _mm512_xor_si512(out, load(d));
        }
        if MASKED {
            _mm512_mask_storeu_epi8(d.cast(), k, out);
        } else {
            _mm512_storeu_si512(d.cast(), out);
        }
    }
}

/// Runs `OP` over every byte: full 64-byte chunks plus one masked tail
/// pass.
///
/// # Safety
///
/// The host must support AVX-512F + AVX-512BW; region contract as
/// [`super::run`].
#[target_feature(enable = "avx512f,avx512bw")]
pub(super) unsafe fn body<const OP: u8>(dst: *mut u8, src: *const u8, len: usize, c: u8) {
    let (lo, hi) = nibble_tables(c);
    let full = len / 64 * 64;
    // SAFETY: full chunks keep `i + 64 <= full <= len`; the tail chunk is
    // masked to the `len - full < 64` remaining lanes, so no byte outside
    // the regions is touched.
    unsafe {
        let tables = [broadcast_table(&lo), broadcast_table(&hi), _mm512_set1_epi8(0x0F)];
        let mut i = 0;
        while i < full {
            chunk::<OP, false>(dst.add(i), src.add(i), !0, tables);
            i += 64;
        }
        if full < len {
            chunk::<OP, true>(dst.add(full), src.add(full), (1u64 << (len - full)) - 1, tables);
        }
    }
}

/// Four-source blocked axpy: all eight half-byte tables live in `zmm`
/// registers for the whole sweep and each 64-byte destination chunk is
/// loaded and stored once for the four sources; the tail runs the same
/// four-source fold under a byte mask.
///
/// # Safety
///
/// Host must support AVX-512F + AVX-512BW; all slices must be equal length.
#[target_feature(enable = "avx512f,avx512bw")]
pub(super) unsafe fn dot4(dst: &mut [u8], srcs: &[&[u8]; 4], cs: [u8; 4]) {
    let len = dst.len();
    // SAFETY: table loads read 16 bytes from 16-byte arrays; every region
    // access is bounded by `i + 64 <= len` or masked to the remaining
    // lanes, and the caller guarantees all four sources equal `dst`'s
    // length.
    unsafe {
        let mut lo_t = [_mm512_setzero_si512(); 4];
        let mut hi_t = [_mm512_setzero_si512(); 4];
        for j in 0..4 {
            let (lo, hi) = nibble_tables(cs[j]);
            lo_t[j] = broadcast_table(&lo);
            hi_t[j] = broadcast_table(&hi);
        }
        let mask = _mm512_set1_epi8(0x0F);
        let mut i = 0;
        while i + 64 <= len {
            let mut acc = _mm512_loadu_si512(dst.as_ptr().add(i).cast());
            for j in 0..4 {
                let s = _mm512_loadu_si512(srcs[j].as_ptr().add(i).cast());
                acc = _mm512_xor_si512(acc, product(lo_t[j], hi_t[j], mask, s));
            }
            _mm512_storeu_si512(dst.as_mut_ptr().add(i).cast(), acc);
            i += 64;
        }
        let rem = len - i;
        if rem > 0 {
            let k: __mmask64 = (1u64 << rem) - 1;
            let mut acc = _mm512_maskz_loadu_epi8(k, dst.as_ptr().add(i).cast());
            for j in 0..4 {
                let s = _mm512_maskz_loadu_epi8(k, srcs[j].as_ptr().add(i).cast());
                acc = _mm512_xor_si512(acc, product(lo_t[j], hi_t[j], mask, s));
            }
            _mm512_mask_storeu_epi8(dst.as_mut_ptr().add(i).cast(), k, acc);
        }
    }
}
