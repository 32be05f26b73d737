//! Scalar (byte-by-byte) GF(2^8) multiplication strategies.
//!
//! Two multiplication algorithms compete throughout the paper:
//!
//! * [`mul_table`] — the log/exp lookup of the paper's Fig. 1: three memory
//!   reads and one addition. Fast when the tables stay in cache, slow when
//!   every thread of a GPU warp scatters into them.
//! * [`mul_loop`] — the Rijndael-field shift-and-add loop of Sec. 4.1: up to
//!   8 iterations of cheap register arithmetic, no memory traffic, and the
//!   basis of the SIMD/GPU wide variants in [`crate::wide`].
//!
//! Both produce identical results for all 65 536 operand pairs (tested).

use crate::tables::{xtime, EXP, INV, LOG, MUL};

/// Table-based multiplication, the paper's `baseline_gf_multiply` (Fig. 1):
/// `exp[log[x] + log[y]]` with a zero check.
///
/// ```
/// use nc_gf256::scalar::{mul_table, mul_loop};
/// assert_eq!(mul_table(0x57, 0x83), mul_loop(0x57, 0x83));
/// assert_eq!(mul_table(0, 0xAB), 0);
/// ```
#[inline]
pub fn mul_table(x: u8, y: u8) -> u8 {
    if x == 0 || y == 0 {
        return 0;
    }
    EXP[LOG[x as usize] as usize + LOG[y as usize] as usize]
}

/// Loop-based ("Russian peasant") multiplication in Rijndael's field:
/// examine the low bit of `x`, conditionally accumulate `y`, then double `y`
/// with polynomial reduction. At most 8 iterations; terminates early once
/// the remaining bits of `x` are zero (the paper measures ~7 iterations on
/// random data).
///
/// ```
/// use nc_gf256::scalar::mul_loop;
/// assert_eq!(mul_loop(0x57, 0x83), 0xC1);
/// ```
#[inline]
pub fn mul_loop(x: u8, y: u8) -> u8 {
    let mut acc = 0u8;
    let mut a = x;
    let mut b = y;
    while a != 0 {
        if a & 1 != 0 {
            acc ^= b;
        }
        a >>= 1;
        b = xtime(b);
    }
    acc
}

/// Multiplication through the full 64 KiB product table. The fastest scalar
/// path on CPUs when the table row is cache-resident; used as ground truth
/// in tests.
#[inline]
pub fn mul_full_table(x: u8, y: u8) -> u8 {
    MUL[x as usize][y as usize]
}

/// Field division `x / y`.
///
/// # Panics
///
/// Panics if `y == 0`.
#[inline]
pub fn div(x: u8, y: u8) -> u8 {
    assert!(y != 0, "division by zero in GF(2^8)");
    if x == 0 {
        return 0;
    }
    // log(x) - log(y), kept non-negative by adding the group order 255.
    let idx = LOG[x as usize] as usize + 255 - LOG[y as usize] as usize;
    EXP[idx]
}

/// Multiplicative inverse; `inv(0) == 0` by convention (callers that need a
/// real inverse should use [`crate::Gf8::inv`], which returns `Option`).
#[inline]
pub fn inv(x: u8) -> u8 {
    INV[x as usize]
}

/// Exponentiation by squaring; `pow(x, 0) == 1` for all `x`.
pub(crate) fn pow(x: u8, mut e: u32) -> u8 {
    let mut base = x;
    let mut acc = 1u8;
    while e > 0 {
        if e & 1 != 0 {
            acc = mul_full_table(acc, base);
        }
        base = mul_full_table(base, base);
        e >>= 1;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_strategies_agree_exhaustively() {
        for x in 0..=255u8 {
            for y in 0..=255u8 {
                let t = mul_table(x, y);
                assert_eq!(t, mul_loop(x, y), "table vs loop at ({x},{y})");
                assert_eq!(t, mul_full_table(x, y), "table vs full at ({x},{y})");
            }
        }
    }

    #[test]
    fn division_is_multiplication_by_inverse() {
        for x in 0..=255u8 {
            for y in 1..=255u8 {
                assert_eq!(div(x, y), mul_full_table(x, inv(y)));
            }
        }
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        for x in [0u8, 1, 2, 3, 0x53, 0xFF] {
            let mut acc = 1u8;
            for e in 0..20u32 {
                assert_eq!(pow(x, e), acc, "{x}^{e}");
                acc = mul_full_table(acc, x);
            }
        }
    }

    #[test]
    fn pow_zero_exponent_is_one() {
        assert_eq!(pow(0, 0), 1);
        assert_eq!(pow(123, 0), 1);
    }

    /// The loop iterations [`mul_loop`] executes for `x`: the position of
    /// its highest set bit.
    fn loop_iterations(x: u8) -> u32 {
        8 - x.leading_zeros()
    }

    #[test]
    fn loop_iteration_counts() {
        // The paper's instruction-rate estimate assumes ~7 iterations per
        // multiplication on random operands.
        assert_eq!(loop_iterations(0), 0);
        assert_eq!(loop_iterations(1), 1);
        assert_eq!(loop_iterations(0x80), 8);
        assert_eq!(loop_iterations(0x40), 7);
        // Average over non-zero bytes is just above 7, as the paper assumes.
        let total: u32 = (1..=255u8).map(loop_iterations).sum();
        let avg = total as f64 / 255.0;
        assert!(avg > 7.0 && avg < 7.1, "average iterations {avg}");
    }

    #[test]
    fn distributivity_spot_checks() {
        for a in (0..=255u8).step_by(5) {
            for b in (0..=255u8).step_by(7) {
                for c in (0..=255u8).step_by(11) {
                    assert_eq!(
                        mul_table(a, b ^ c),
                        mul_table(a, b) ^ mul_table(a, c),
                        "a(b+c) == ab+ac at ({a},{b},{c})"
                    );
                }
            }
        }
    }
}
