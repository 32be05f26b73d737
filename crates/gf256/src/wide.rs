//! Wide loop-based multiplication: one coefficient byte times a word of
//! packed field elements.
//!
//! The paper's key CPU observation (from its predecessor, IWQoS'07) is that
//! the shift-and-add loop — unlike table lookups — vectorizes: SSE2/AltiVec
//! registers process 16 packed bytes per iteration, and a GPU thread with a
//! plain 32-bit ALU still processes 4. This module provides the 32-bit
//! variant used by (simulated) GPU threads and the 64-bit variant standing
//! in for SSE2 on the CPU, along with instruction-count accounting used by
//! the GPU cost model.
//!
//! Byte lanes are independent: `mul_word32(c, w)` multiplies each of the
//! four bytes packed in `w` by `c`, with per-lane polynomial reduction.

/// Per-lane high-bit mask for 4 packed bytes.
const HI32: u32 = 0x8080_8080;
/// Per-lane low-7-bit shift mask for 4 packed bytes.
const LO32: u32 = 0xFEFE_FEFE;
/// Per-lane high-bit mask for 8 packed bytes.
const HI64: u64 = 0x8080_8080_8080_8080;
/// Per-lane low-7-bit shift mask for 8 packed bytes.
const LO64: u64 = 0xFEFE_FEFE_FEFE_FEFE;

/// Doubles (multiplies by x) each byte lane of a 32-bit word, with Rijndael
/// reduction per lane.
#[inline]
pub(crate) fn xtime_word32(w: u32) -> u32 {
    let hi = w & HI32;
    // (hi >> 7) holds 0x00/0x01 per lane; multiplying by 0x1B spreads the
    // reduction constant into exactly the overflowing lanes (0x1B < 0x100,
    // so the multiply cannot carry across lanes).
    ((w << 1) & LO32) ^ ((hi >> 7).wrapping_mul(0x1B))
}

/// Doubles each byte lane of a 64-bit word.
#[inline]
pub(crate) fn xtime_word64(w: u64) -> u64 {
    let hi = w & HI64;
    ((w << 1) & LO64) ^ ((hi >> 7).wrapping_mul(0x1B))
}

/// Multiplies each byte lane of `w` by the coefficient `c` using the
/// loop-based algorithm (the byte-by-word multiplication of the paper's
/// Sec. 4.1, as executed by one GPU thread).
///
/// ```
/// use nc_gf256::{wide::mul_word32, scalar::mul_loop};
/// let w = u32::from_le_bytes([1, 2, 3, 0xFF]);
/// let p = mul_word32(0x53, w).to_le_bytes();
/// for (lane, &b) in [1u8, 2, 3, 0xFF].iter().enumerate() {
///     assert_eq!(p[lane], mul_loop(0x53, b));
/// }
/// ```
#[inline]
pub fn mul_word32(c: u8, w: u32) -> u32 {
    let mut acc = 0u32;
    let mut coeff = c;
    let mut y = w;
    while coeff != 0 {
        if coeff & 1 != 0 {
            acc ^= y;
        }
        coeff >>= 1;
        if coeff == 0 {
            break;
        }
        y = xtime_word32(y);
    }
    acc
}

/// Multiplies each byte lane of a 64-bit word by `c`. Two of these stand in
/// for one 128-bit SSE2 operation in the CPU implementation.
#[inline]
pub fn mul_word64(c: u8, w: u64) -> u64 {
    let mut acc = 0u64;
    let mut coeff = c;
    let mut y = w;
    while coeff != 0 {
        if coeff & 1 != 0 {
            acc ^= y;
        }
        coeff >>= 1;
        if coeff == 0 {
            break;
        }
        y = xtime_word64(y);
    }
    acc
}

/// Instruction-count estimate for one loop-based byte-by-word multiply on a
/// scalar 32-bit core *without* byte-manipulation SIMD (the GPU situation
/// described in Sec. 4.1): per executed iteration the kernel issues the bit
/// test + predicated XOR, the per-lane carry-mask extraction, the masked
/// shift and the reduction XOR. The paper models this as ~1.5 instructions
/// per "iteration step" after hand-optimized PTX; we charge per-iteration
/// costs that reproduce its aggregate rate (see `nc-gpu-sim` calibration).
///
/// Returns `(iterations, instructions)` for coefficient `c`.
#[inline]
pub fn loop_mul_cost(c: u8) -> (u32, u32) {
    let iters = 8 - (c as u32).leading_zeros().saturating_sub(24);
    // Setup (load coefficient bits, init accumulator) + per-iteration work.
    (iters, 2 + iters * INSTRS_PER_LOOP_ITERATION)
}

/// Instructions charged per executed loop iteration by the GPU cost model.
///
/// Derived from the hand-optimized PTX the paper describes: bit test with
/// predicated accumulate (~2), per-lane overflow mask + reduction (~5),
/// masked lane shift (~3), loop bookkeeping (~1). The value is calibrated so
/// loop-based encoding at (n=128, k=4 KB) on the GTX 280 model lands at the
/// paper's 133 MB/s; see DESIGN.md §7.
pub(crate) const INSTRS_PER_LOOP_ITERATION: u32 = 11;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::mul_loop;

    #[test]
    fn word32_matches_scalar_exhaustively_on_lanes() {
        for c in 0..=255u8 {
            let w = u32::from_le_bytes([c, c.wrapping_add(1), 0x80, 0x1B]);
            let got = mul_word32(c, w).to_le_bytes();
            let want = [
                mul_loop(c, c),
                mul_loop(c, c.wrapping_add(1)),
                mul_loop(c, 0x80),
                mul_loop(c, 0x1B),
            ];
            assert_eq!(got, want, "coefficient {c}");
        }
    }

    #[test]
    fn word64_matches_scalar() {
        let lanes = [0u8, 1, 2, 0x7F, 0x80, 0xAA, 0xFE, 0xFF];
        for c in 0..=255u8 {
            let w = u64::from_le_bytes(lanes);
            let got = mul_word64(c, w).to_le_bytes();
            for (i, &lane) in lanes.iter().enumerate() {
                assert_eq!(got[i], mul_loop(c, lane), "c={c} lane={i}");
            }
        }
    }

    #[test]
    fn xtime_words_match_scalar_xtime() {
        use crate::tables::xtime;
        for b in 0..=255u8 {
            let w32 = u32::from_le_bytes([b; 4]);
            assert_eq!(xtime_word32(w32).to_le_bytes(), [xtime(b); 4]);
            let w64 = u64::from_le_bytes([b; 8]);
            assert_eq!(xtime_word64(w64).to_le_bytes(), [xtime(b); 8]);
        }
    }

    #[test]
    fn zero_coefficient_is_free_and_zero() {
        assert_eq!(mul_word32(0, 0xDEAD_BEEF), 0);
        assert_eq!(mul_word64(0, u64::MAX), 0);
        let (iters, _) = loop_mul_cost(0);
        assert_eq!(iters, 0);
    }

    #[test]
    fn cost_iteration_counts() {
        assert_eq!(loop_mul_cost(1).0, 1);
        assert_eq!(loop_mul_cost(0x80).0, 8);
        assert_eq!(loop_mul_cost(0xFF).0, 8);
        assert_eq!(loop_mul_cost(0x40).0, 7);
    }
}
