//! AArch64 NEON `TBL`, the `Isa` of the `neon` rung, and the entry points
//! that instantiate the generic bodies on it.
//!
//! NEON is mandatory on AArch64, so the entry points need no
//! `target_feature`: the only unsafety is the raw-pointer access, which the
//! caller bounds as on x86. A block is its two 16-entry nibble tables, one
//! `TBL` lookup each, 16 bytes per vector; tails are the caller's walk.

// NEON is the AArch64 baseline, so the arithmetic intrinsics are safe to
// call anywhere; their blocks stay for uniformity with the x86 rungs.
#![allow(unused_unsafe)]

use super::{Blocks, Isa, Lanes, DOT_BLOCK};
use std::arch::aarch64::*;

impl Lanes for uint8x16_t {
    const WIDTH: usize = 16;

    #[inline(always)]
    unsafe fn load(p: *const u8) -> uint8x16_t {
        // SAFETY: NEON is the AArch64 baseline; 16 bytes the caller vouches for.
        unsafe { vld1q_u8(p) }
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut u8) {
        // SAFETY: NEON is the AArch64 baseline; 16 bytes the caller vouches for.
        unsafe { vst1q_u8(p, self) }
    }
    #[inline(always)]
    unsafe fn xor(self, other: uint8x16_t) -> uint8x16_t {
        // SAFETY: NEON is the AArch64 baseline.
        unsafe { veorq_u8(self, other) }
    }
}

/// NEON `TBL`, 16 bytes.
pub(super) struct Neon;

impl Isa for Neon {
    type V = uint8x16_t;
    type Block = [uint8x16_t; 2];
    type Split = [uint8x16_t; 2];

    #[inline(always)]
    unsafe fn block(nibbles: &[[u8; 16]; 2], _: u64) -> [uint8x16_t; 2] {
        // SAFETY: NEON is the AArch64 baseline; reads two 16-byte arrays.
        unsafe { [vld1q_u8(nibbles[0].as_ptr()), vld1q_u8(nibbles[1].as_ptr())] }
    }
    #[inline(always)]
    unsafe fn split(s: uint8x16_t) -> [uint8x16_t; 2] {
        // SAFETY: NEON is the AArch64 baseline.
        unsafe { [vandq_u8(s, vdupq_n_u8(0x0F)), vshrq_n_u8(s, 4)] }
    }
    #[inline(always)]
    unsafe fn apply([lo, hi]: [uint8x16_t; 2], [s_lo, s_hi]: [uint8x16_t; 2]) -> uint8x16_t {
        // SAFETY: NEON is the AArch64 baseline.
        unsafe { veorq_u8(vqtbl1q_u8(lo, s_lo), vqtbl1q_u8(hi, s_hi)) }
    }
}

/// `super::body` on NEON.
///
/// # Safety
///
/// Region contract as `super::run_planes`.
pub(super) unsafe fn body<const OP: u8, const P: usize>(
    x: *mut u8,
    y: *mut u8,
    len: usize,
    shard: usize,
    form: &Blocks<P>,
) -> usize {
    // SAFETY: NEON is the AArch64 baseline; the caller's region contract.
    unsafe { super::body::<Neon, OP, P>(x, y, len, shard, form) }
}

/// `super::dot4_body` on NEON.
///
/// # Safety
///
/// All slices must be equal length.
pub(super) unsafe fn dot4(dst: &mut [u8], srcs: &[&[u8]; DOT_BLOCK], cs: [u8; DOT_BLOCK]) -> usize {
    // SAFETY: NEON is the AArch64 baseline; the caller's length contract.
    unsafe { super::dot4_body::<Neon>(dst, srcs, cs) }
}
