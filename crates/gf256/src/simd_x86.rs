//! The x86 instruction sets of the ladder's vector rungs, each an `Isa` of
//! the one generic body, and the `#[target_feature]` entry points that
//! instantiate it.
//!
//! | rung | vector | one 8×8 block | tail |
//! |---|---|---|---|
//! | `ssse3` | 16 bytes | two `PSHUFB` nibble lookups | the caller's walk |
//! | `avx2` | 32 bytes | two `VPSHUFB` (tables broadcast to both lanes) | the caller's walk |
//! | `avx512` | 64 bytes | two `VPSHUFB` (tables broadcast to all four lanes) | `k`-masked |
//! | `gfni`, 256-bit | 32 bytes | one `GF2P8AFFINEQB` | the caller's walk |
//! | `gfni`, 512-bit | 64 bytes | one `GF2P8AFFINEQB` | `k`-masked |
//!
//! `VPSHUFB` shuffles within each 128-bit lane exactly like `PSHUFB`, so
//! the wide rungs broadcast the 16-entry tables and keep the per-byte
//! recipe of the SSSE3 one; the GFNI rungs hold a block as its matrix, no
//! tables at all. Every method runs instructions of the rung that names
//! it, which the caller proves by holding that [`super::Rung`]. Loads and
//! stores use the unaligned forms.

// A build with the features forced on (`-C target-feature=+avx512f,…`,
// as CI's codegen lane does), or the x86-64 baseline for the SSE2 ones,
// makes some of these intrinsics safe to call outside a `target_feature`
// function; their blocks stay for the builds where they are not.
#![allow(unused_unsafe)]

use super::{Blocks, Isa, Lanes, DOT_BLOCK};
#[cfg(target_arch = "x86")]
use std::arch::x86::*;
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

impl Lanes for __m128i {
    const WIDTH: usize = 16;

    #[inline(always)]
    unsafe fn load(p: *const u8) -> __m128i {
        // SAFETY: SSE2 by the `Rung` invariant; 16 bytes the caller vouches for.
        unsafe { _mm_loadu_si128(p.cast()) }
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut u8) {
        // SAFETY: SSE2 by the `Rung` invariant; 16 bytes the caller vouches for.
        unsafe { _mm_storeu_si128(p.cast(), self) }
    }
    #[inline(always)]
    unsafe fn xor(self, other: __m128i) -> __m128i {
        // SAFETY: SSE2 by the `Rung` invariant.
        unsafe { _mm_xor_si128(self, other) }
    }
}

impl Lanes for __m256i {
    const WIDTH: usize = 32;

    #[inline(always)]
    unsafe fn load(p: *const u8) -> __m256i {
        // SAFETY: AVX by the `Rung` invariant; 32 bytes the caller vouches for.
        unsafe { _mm256_loadu_si256(p.cast()) }
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut u8) {
        // SAFETY: AVX by the `Rung` invariant; 32 bytes the caller vouches for.
        unsafe { _mm256_storeu_si256(p.cast(), self) }
    }
    #[inline(always)]
    unsafe fn xor(self, other: __m256i) -> __m256i {
        // SAFETY: AVX2 by the `Rung` invariant.
        unsafe { _mm256_xor_si256(self, other) }
    }
}

#[cfg(target_arch = "x86_64")]
impl Lanes for __m512i {
    const WIDTH: usize = 64;
    const MASKED: bool = true;

    #[inline(always)]
    unsafe fn load(p: *const u8) -> __m512i {
        // SAFETY: AVX-512F by the `Rung` invariant; 64 bytes the caller vouches for.
        unsafe { _mm512_loadu_si512(p.cast()) }
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut u8) {
        // SAFETY: AVX-512F by the `Rung` invariant; 64 bytes the caller vouches for.
        unsafe { _mm512_storeu_si512(p.cast(), self) }
    }
    #[inline(always)]
    unsafe fn load_tail(p: *const u8, n: usize) -> __m512i {
        // SAFETY: AVX-512BW by the `Rung` invariant; masked-off lanes are
        // neither read nor faulted on, the `n < 64` others the caller's.
        unsafe { _mm512_maskz_loadu_epi8((1 << n) - 1, p.cast()) }
    }
    #[inline(always)]
    unsafe fn store_tail(self, p: *mut u8, n: usize) {
        // SAFETY: as `load_tail`; masked-off lanes are not written.
        unsafe { _mm512_mask_storeu_epi8(p.cast(), (1 << n) - 1, self) }
    }
    #[inline(always)]
    unsafe fn xor(self, other: __m512i) -> __m512i {
        // SAFETY: AVX-512F by the `Rung` invariant.
        unsafe { _mm512_xor_si512(self, other) }
    }
}

/// SSSE3 `PSHUFB`, 16 bytes.
pub(super) struct Ssse3;

impl Isa for Ssse3 {
    type V = __m128i;
    type Block = [__m128i; 2];
    type Split = [__m128i; 2];

    #[inline(always)]
    unsafe fn block(nibbles: &[[u8; 16]; 2], _: u64) -> [__m128i; 2] {
        // SAFETY: SSE2 by the `Rung` invariant; reads two 16-byte arrays.
        unsafe { nibbles.map(|table| _mm_loadu_si128(table.as_ptr().cast())) }
    }
    #[inline(always)]
    unsafe fn split(s: __m128i) -> [__m128i; 2] {
        // SAFETY: SSE2 by the `Rung` invariant.
        unsafe {
            let mask = _mm_set1_epi8(0x0F);
            [_mm_and_si128(s, mask), _mm_and_si128(_mm_srli_epi64::<4>(s), mask)]
        }
    }
    #[inline(always)]
    unsafe fn apply([lo, hi]: [__m128i; 2], [s_lo, s_hi]: [__m128i; 2]) -> __m128i {
        // SAFETY: SSSE3 by the `Rung` invariant.
        unsafe { _mm_xor_si128(_mm_shuffle_epi8(lo, s_lo), _mm_shuffle_epi8(hi, s_hi)) }
    }
}

/// AVX2 `VPSHUFB`, 32 bytes.
pub(super) struct Avx2;

impl Isa for Avx2 {
    type V = __m256i;
    type Block = [__m256i; 2];
    type Split = [__m256i; 2];

    #[inline(always)]
    unsafe fn block(nibbles: &[[u8; 16]; 2], _: u64) -> [__m256i; 2] {
        // SAFETY: AVX2 by the `Rung` invariant; reads two 16-byte arrays.
        unsafe {
            nibbles.map(|table| _mm256_broadcastsi128_si256(_mm_loadu_si128(table.as_ptr().cast())))
        }
    }
    #[inline(always)]
    unsafe fn split(s: __m256i) -> [__m256i; 2] {
        // SAFETY: AVX2 by the `Rung` invariant.
        unsafe {
            let mask = _mm256_set1_epi8(0x0F);
            [_mm256_and_si256(s, mask), _mm256_and_si256(_mm256_srli_epi64::<4>(s), mask)]
        }
    }
    #[inline(always)]
    unsafe fn apply([lo, hi]: [__m256i; 2], [s_lo, s_hi]: [__m256i; 2]) -> __m256i {
        // SAFETY: AVX2 by the `Rung` invariant.
        unsafe { _mm256_xor_si256(_mm256_shuffle_epi8(lo, s_lo), _mm256_shuffle_epi8(hi, s_hi)) }
    }
}

/// AVX-512BW `VPSHUFB`, 64 bytes, masked tails.
#[cfg(target_arch = "x86_64")]
pub(super) struct Avx512;

#[cfg(target_arch = "x86_64")]
impl Isa for Avx512 {
    type V = __m512i;
    type Block = [__m512i; 2];
    type Split = [__m512i; 2];

    #[inline(always)]
    unsafe fn block(nibbles: &[[u8; 16]; 2], _: u64) -> [__m512i; 2] {
        // SAFETY: AVX-512F by the `Rung` invariant; reads two 16-byte arrays.
        unsafe {
            nibbles.map(|table| _mm512_broadcast_i32x4(_mm_loadu_si128(table.as_ptr().cast())))
        }
    }
    #[inline(always)]
    unsafe fn split(s: __m512i) -> [__m512i; 2] {
        // SAFETY: AVX-512F by the `Rung` invariant.
        unsafe {
            let mask = _mm512_set1_epi8(0x0F);
            [_mm512_and_si512(s, mask), _mm512_and_si512(_mm512_srli_epi64::<4>(s), mask)]
        }
    }
    #[inline(always)]
    unsafe fn apply([lo, hi]: [__m512i; 2], [s_lo, s_hi]: [__m512i; 2]) -> __m512i {
        // SAFETY: AVX-512BW by the `Rung` invariant.
        unsafe { _mm512_xor_si512(_mm512_shuffle_epi8(lo, s_lo), _mm512_shuffle_epi8(hi, s_hi)) }
    }
}

/// GFNI `GF2P8AFFINEQB` on 256-bit VEX vectors.
#[cfg(target_arch = "x86_64")]
pub(super) struct Gfni256;

#[cfg(target_arch = "x86_64")]
impl Isa for Gfni256 {
    type V = __m256i;
    type Block = __m256i;
    type Split = __m256i;

    #[inline(always)]
    unsafe fn block(_: &[[u8; 16]; 2], matrix: u64) -> __m256i {
        // SAFETY: AVX by the `Rung` invariant.
        unsafe { _mm256_set1_epi64x(matrix as i64) }
    }
    #[inline(always)]
    unsafe fn split(s: __m256i) -> __m256i {
        s
    }
    #[inline(always)]
    unsafe fn apply(matrix: __m256i, s: __m256i) -> __m256i {
        // SAFETY: GFNI + AVX by the `Rung` invariant.
        unsafe { _mm256_gf2p8affine_epi64_epi8::<0>(s, matrix) }
    }
}

/// GFNI `GF2P8AFFINEQB` on 512-bit EVEX vectors, masked tails.
#[cfg(target_arch = "x86_64")]
pub(super) struct Gfni512;

#[cfg(target_arch = "x86_64")]
impl Isa for Gfni512 {
    type V = __m512i;
    type Block = __m512i;
    type Split = __m512i;

    #[inline(always)]
    unsafe fn block(_: &[[u8; 16]; 2], matrix: u64) -> __m512i {
        // SAFETY: AVX-512F by the `Rung` invariant (`wide`).
        unsafe { _mm512_set1_epi64(matrix as i64) }
    }
    #[inline(always)]
    unsafe fn split(s: __m512i) -> __m512i {
        s
    }
    #[inline(always)]
    unsafe fn apply(matrix: __m512i, s: __m512i) -> __m512i {
        // SAFETY: GFNI + AVX-512F/BW by the `Rung` invariant (`wide`).
        unsafe { _mm512_gf2p8affine_epi64_epi8::<0>(s, matrix) }
    }
}

/// The entry points of one ISA: `super::body` and `super::dot4_body`
/// compiled with its features.
///
/// # Safety (of every function it defines)
///
/// The host must have `$features` — what the caller's `Rung` proves; the
/// region contract of `super::run_planes` for `$body`, equal-length slices
/// for `$dot4`.
macro_rules! entry_points {
    ($isa:ty, $features:literal, $body:ident, $dot4:ident) => {
        #[target_feature(enable = $features)]
        pub(super) unsafe fn $body<const OP: u8, const P: usize>(
            x: *mut u8,
            y: *mut u8,
            len: usize,
            shard: usize,
            form: &Blocks<P>,
        ) -> usize {
            // SAFETY: the features are this function's; the caller's contract.
            unsafe { super::body::<$isa, OP, P>(x, y, len, shard, form) }
        }

        #[target_feature(enable = $features)]
        pub(super) unsafe fn $dot4(
            dst: &mut [u8],
            srcs: &[&[u8]; DOT_BLOCK],
            cs: [u8; DOT_BLOCK],
        ) -> usize {
            // SAFETY: the features are this function's; the caller's contract.
            unsafe { super::dot4_body::<$isa>(dst, srcs, cs) }
        }
    };
}

entry_points!(Ssse3, "ssse3", body_ssse3, dot4_ssse3);
entry_points!(Avx2, "avx2", body_avx2, dot4_avx2);
#[cfg(target_arch = "x86_64")]
entry_points!(Avx512, "avx512f,avx512bw", body_avx512, dot4_avx512);
#[cfg(target_arch = "x86_64")]
entry_points!(Gfni256, "gfni,avx2", body_gfni256, dot4_gfni256);
#[cfg(target_arch = "x86_64")]
entry_points!(Gfni512, "gfni,avx512f,avx512bw", body_gfni512, dot4_gfni512);
