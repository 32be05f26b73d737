//! Log-domain ("preprocessed") multiplication — the paper's Sec. 5.1.1.
//!
//! In a streaming server, thousands of coded blocks are generated from each
//! source segment, so the paper transforms the segment *and* the coefficient
//! matrix into the GF logarithmic domain **once**, after which every
//! multiplication is a single add + exp lookup (the paper's Fig. 5):
//!
//! ```text
//! byte preprocessed_gf_multiply(byte log_x, log_y) {
//!     if (log_x == 0xff || log_y == 0xff) return 0;
//!     return exp[log_x + log_y];
//! }
//! ```
//!
//! Two zero-sentinel conventions are implemented:
//!
//! * [`to_log`] / [`mul_log`] — the original `0xFF` sentinel of Fig. 5.
//! * [`to_rlog`] / [`mul_rlog`] — the Table-based-3 remapping, where zero
//!   maps to `0x00` so the zero test is absorbed into a predicated register
//!   load on the GPU.

use crate::tables::{EXP, LOG, LOG_ZERO, REXP, RLOG};

/// Transforms a field element into the log domain with the `0xFF` sentinel
/// for zero.
///
/// ```
/// use nc_gf256::logdomain::{to_log, mul_log, from_log};
/// let (a, b) = (0x57u8, 0x83u8);
/// assert_eq!(mul_log(to_log(a), to_log(b)), 0xC1);
/// assert_eq!(from_log(to_log(a)), a);
/// ```
#[inline]
pub fn to_log(x: u8) -> u8 {
    if x == 0 {
        LOG_ZERO
    } else {
        LOG[x as usize]
    }
}

/// Inverse of [`to_log`].
#[inline]
pub fn from_log(lx: u8) -> u8 {
    if lx == LOG_ZERO {
        0
    } else {
        EXP[lx as usize]
    }
}

/// The paper's Fig. 5: multiply two elements already in the log domain,
/// returning a *normal-domain* product.
#[inline]
pub fn mul_log(log_x: u8, log_y: u8) -> u8 {
    if log_x == LOG_ZERO || log_y == LOG_ZERO {
        return 0;
    }
    EXP[log_x as usize + log_y as usize]
}

/// Transforms a field element into the **remapped** log domain of
/// Table-based-3: zero → `0x00`, non-zero x → `LOG[x] + 1`.
///
/// ```
/// use nc_gf256::logdomain::{to_rlog, mul_rlog};
/// assert_eq!(mul_rlog(to_rlog(0x57), to_rlog(0x83)), 0xC1);
/// assert_eq!(mul_rlog(to_rlog(0), to_rlog(0x83)), 0);
/// ```
#[inline]
pub fn to_rlog(x: u8) -> u16 {
    RLOG[x as usize]
}

/// Multiplies two elements in the remapped log domain. The zero test is a
/// comparison against `0` — the form a GPU evaluates for free during a
/// register load, enabling branch-free predicated code.
#[inline]
pub fn mul_rlog(rlog_x: u16, rlog_y: u16) -> u8 {
    if rlog_x == 0 || rlog_y == 0 {
        return 0;
    }
    REXP[(rlog_x + rlog_y) as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::mul_table;

    #[test]
    fn log_domain_multiplication_is_exhaustively_correct() {
        for x in 0..=255u8 {
            for y in 0..=255u8 {
                assert_eq!(mul_log(to_log(x), to_log(y)), mul_table(x, y));
                assert_eq!(mul_rlog(to_rlog(x), to_rlog(y)), mul_table(x, y));
            }
        }
    }

    #[test]
    fn log_roundtrip() {
        for x in 0..=255u8 {
            assert_eq!(from_log(to_log(x)), x);
        }
    }

    #[test]
    fn sentinel_values_are_unreachable_for_nonzero() {
        for x in 1..=255u8 {
            assert_ne!(to_log(x), LOG_ZERO);
            assert_ne!(to_rlog(x), 0);
        }
    }
}
