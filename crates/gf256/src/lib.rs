//! Arithmetic in the Galois field GF(2^8) for random linear network coding.
//!
//! This crate implements every GF(2^8) multiplication strategy discussed in
//! *Pushing the Envelope: Extreme Network Coding on the GPU* (Shojania & Li,
//! ICDCS 2009):
//!
//! * **Table-based** multiplication via logarithm/exponential tables
//!   (the paper's Fig. 1), in [`scalar::mul_table`].
//! * **Loop-based** ("Russian peasant") multiplication in Rijndael's finite
//!   field (the paper's Sec. 4.1), in [`scalar::mul_loop`], plus the wide
//!   byte-by-word variants used by SIMD CPUs and GPU threads in [`wide`].
//! * **Log-domain ("preprocessed") multiplication** (the paper's Fig. 5),
//!   where operands are transformed to the logarithmic domain once and
//!   multiplied with a single table lookup thereafter, in [`logdomain`] —
//!   including the *remapped* zero sentinel of the paper's Table-based-3
//!   optimization.
//! * **Region operations** over byte slices (`dst ^= c · src` and friends)
//!   in [`region`], running on one rung of the kernel ladder in [`simd`]:
//!   real GFNI/AVX-512/AVX2/SSSE3/NEON kernels (the modern equivalent of
//!   the paper's SSE2 CPU baseline), a portable table loop and three scalar
//!   reference rungs, resolved once per process.
//!
//! The field is Rijndael's: polynomial x^8 + x^4 + x^3 + x + 1 (0x11B),
//! generator 0x03. Addition is XOR; every non-zero element has a
//! multiplicative inverse.
//!
//! # Examples
//!
//! ```
//! use nc_gf256::Gf8;
//!
//! let a = Gf8(0x57);
//! let b = Gf8(0x83);
//! assert_eq!(a * b, Gf8(0xC1)); // the classic AES example
//! assert_eq!(a + b, Gf8(0x57 ^ 0x83));
//! assert_eq!((a / b) * b, a);
//! ```

// `unsafe` is denied crate-wide; the one exception is `simd`, whose vendor
// intrinsics are each justified with a SAFETY comment. Inside `unsafe fn`s
// every unsafe operation still needs its own explicit `unsafe {}` block, so
// each raw-pointer access carries its justification at the use site rather
// than inheriting a function-wide blanket.
#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod logdomain;
pub mod region;
pub mod scalar;
pub mod simd;
pub mod tables;
pub mod wide;

use core::fmt;
use core::iter::{Product, Sum};
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// An element of GF(2^8), Rijndael's finite field.
///
/// `Gf8` is a transparent wrapper around a byte; the byte is public because
/// network-coding code constantly moves between raw buffers and field
/// elements. All arithmetic operators are overloaded with their field
/// semantics (`+`/`-` are XOR, `*`/`/` are field multiplication/division).
///
/// # Examples
///
/// ```
/// use nc_gf256::Gf8;
/// let x = Gf8(7);
/// assert_eq!(x - x, Gf8::ZERO);           // every element is its own negation
/// assert_eq!(x * x.inv().unwrap(), Gf8::ONE);
/// ```
#[derive(Copy, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct Gf8(pub u8);

impl Gf8 {
    /// The additive identity.
    pub const ZERO: Gf8 = Gf8(0);
    /// The multiplicative identity.
    pub const ONE: Gf8 = Gf8(1);
    /// The field's generator, 0x03, whose powers enumerate all 255 non-zero
    /// elements.
    pub const GENERATOR: Gf8 = Gf8(3);

    /// Returns the multiplicative inverse, or `None` for [`Gf8::ZERO`].
    ///
    /// ```
    /// use nc_gf256::Gf8;
    /// assert_eq!(Gf8(2).inv(), Some(Gf8(0x8D)));
    /// assert_eq!(Gf8::ZERO.inv(), None);
    /// ```
    #[inline]
    pub fn inv(self) -> Option<Gf8> {
        if self.0 == 0 {
            None
        } else {
            Some(Gf8(tables::INV[self.0 as usize]))
        }
    }

    /// Raises the element to the power `e` (with `x^0 == 1`, including for
    /// `x == 0`, matching the empty-product convention).
    ///
    /// ```
    /// use nc_gf256::Gf8;
    /// assert_eq!(Gf8(2).pow(3), Gf8(2) * Gf8(2) * Gf8(2));
    /// ```
    #[inline]
    pub fn pow(self, e: u32) -> Gf8 {
        Gf8(scalar::pow(self.0, e))
    }

    /// Whether the element is the additive identity.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl From<u8> for Gf8 {
    #[inline]
    fn from(b: u8) -> Gf8 {
        Gf8(b)
    }
}

impl From<Gf8> for u8 {
    #[inline]
    fn from(g: Gf8) -> u8 {
        g.0
    }
}

// In GF(2^8) addition and subtraction are both carry-less XOR; the
// "suspicious arithmetic" lints assume integer semantics.
impl Add for Gf8 {
    type Output = Gf8;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn add(self, rhs: Gf8) -> Gf8 {
        Gf8(self.0 ^ rhs.0)
    }
}

impl AddAssign for Gf8 {
    #[inline]
    #[allow(clippy::suspicious_op_assign_impl)]
    fn add_assign(&mut self, rhs: Gf8) {
        self.0 ^= rhs.0;
    }
}

impl Sub for Gf8 {
    type Output = Gf8;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn sub(self, rhs: Gf8) -> Gf8 {
        Gf8(self.0 ^ rhs.0)
    }
}

impl SubAssign for Gf8 {
    #[inline]
    #[allow(clippy::suspicious_op_assign_impl)]
    fn sub_assign(&mut self, rhs: Gf8) {
        self.0 ^= rhs.0;
    }
}

impl Neg for Gf8 {
    type Output = Gf8;
    #[inline]
    fn neg(self) -> Gf8 {
        self // characteristic 2: -x == x
    }
}

impl Mul for Gf8 {
    type Output = Gf8;
    #[inline]
    fn mul(self, rhs: Gf8) -> Gf8 {
        Gf8(scalar::mul_table(self.0, rhs.0))
    }
}

impl MulAssign for Gf8 {
    #[inline]
    fn mul_assign(&mut self, rhs: Gf8) {
        *self = *self * rhs;
    }
}

impl Div for Gf8 {
    type Output = Gf8;
    /// # Panics
    ///
    /// Panics on division by [`Gf8::ZERO`].
    #[inline]
    fn div(self, rhs: Gf8) -> Gf8 {
        Gf8(scalar::div(self.0, rhs.0))
    }
}

impl DivAssign for Gf8 {
    #[inline]
    fn div_assign(&mut self, rhs: Gf8) {
        *self = *self / rhs;
    }
}

impl Sum for Gf8 {
    fn sum<I: Iterator<Item = Gf8>>(iter: I) -> Gf8 {
        iter.fold(Gf8::ZERO, Add::add)
    }
}

impl Product for Gf8 {
    fn product<I: Iterator<Item = Gf8>>(iter: I) -> Gf8 {
        iter.fold(Gf8::ONE, Mul::mul)
    }
}

impl fmt::Debug for Gf8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gf8({:#04x})", self.0)
    }
}

impl fmt::Display for Gf8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#04x}", self.0)
    }
}

impl fmt::LowerHex for Gf8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for Gf8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

impl fmt::Octal for Gf8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Octal::fmt(&self.0, f)
    }
}

impl fmt::Binary for Gf8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn operator_identities() {
        for x in 0..=255u8 {
            let g = Gf8(x);
            assert_eq!(g + Gf8::ZERO, g);
            assert_eq!(g * Gf8::ONE, g);
            assert_eq!(g - g, Gf8::ZERO);
            assert_eq!(-g, g);
        }
    }

    #[test]
    fn aes_reference_product() {
        // The worked example from the AES specification.
        assert_eq!(Gf8(0x57) * Gf8(0x83), Gf8(0xC1));
    }

    #[test]
    fn division_inverts_multiplication() {
        for x in 1..=255u8 {
            for y in (1..=255u8).step_by(7) {
                let p = Gf8(x) * Gf8(y);
                assert_eq!(p / Gf8(y), Gf8(x));
            }
        }
    }

    #[test]
    #[should_panic]
    fn division_by_zero_panics() {
        let _ = Gf8(1) / Gf8::ZERO;
    }

    #[test]
    fn sum_and_product_fold() {
        let xs = [Gf8(1), Gf8(2), Gf8(3)];
        assert_eq!(xs.iter().copied().sum::<Gf8>(), Gf8(1 ^ 2 ^ 3));
        assert_eq!(xs.iter().copied().product::<Gf8>(), Gf8(1) * Gf8(2) * Gf8(3));
    }

    #[test]
    fn formatting_is_nonempty() {
        assert_eq!(format!("{}", Gf8(0)), "0x00");
        assert_eq!(format!("{:?}", Gf8(255)), "Gf8(0xff)");
        assert_eq!(format!("{:x}", Gf8(0xAB)), "ab");
        assert_eq!(format!("{:b}", Gf8(5)), "101");
    }

    #[test]
    fn generator_has_full_order() {
        let mut seen = [false; 256];
        let mut x = Gf8::ONE;
        for _ in 0..255 {
            assert!(!seen[x.0 as usize], "generator order < 255");
            seen[x.0 as usize] = true;
            x *= Gf8::GENERATOR;
        }
        assert_eq!(x, Gf8::ONE);
    }
}
