//! GF(2^16) construction: log/exp tables in the Cantor (novel polynomial)
//! basis, the FFT skew table, and the Walsh-Hadamard transform of the log
//! table — everything the additive transforms and the erasure decoder look
//! up at runtime.
//!
//! # Field construction
//!
//! The field is GF(2)\[x\] / (x¹⁶ + x⁵ + x³ + x² + 1), polynomial `0x1002D`.
//! A multiplicative generator walk (LFSR) yields raw log/exp tables; the
//! element *representation* is then remapped through the Cantor basis so
//! that the additive FFT's evaluation point for output index `j` is
//! literally the field element `j` (LCH novel-polynomial-basis trick, as
//! in the Leopard / `reed-solomon-16` lineage). After the remap:
//!
//! * `log[x]` is the discrete log of representation `x` (`log[0]` is the
//!   [`MODULUS`] sentinel),
//! * `exp[l]` inverts it, with `exp[MODULUS] = exp[0]` so a reduced sum of
//!   logs can be looked up without a branch,
//! * `skew[·]` holds the per-butterfly twist constants of the additive
//!   FFT, stored in the log domain (`MODULUS` = "multiply by zero", which
//!   degenerates the butterfly to a pure XOR),
//! * `log_walsh` is the Walsh-Hadamard transform (mod [`MODULUS`]) of the
//!   log table — the decoder builds its error-locator polynomial with two
//!   [`fwht`] passes against it instead of an O(n²) product.
//!
//! Tables cost ~512 KiB and are built once per process behind a
//! [`crate::cell::TableCell`] (model-checked concurrent init);
//! construction takes a few milliseconds.

use crate::cell::TableCell;
use nc_check::sync::Arc;

/// Field bit width.
pub const BITS: usize = 16;
/// Number of field elements.
pub const ORDER: usize = 1 << BITS;
/// Multiplicative group order; also the `log[0]` / "zero multiplier"
/// sentinel in log-domain tables.
pub const MODULUS: u16 = (ORDER - 1) as u16;
/// The reducing polynomial x¹⁶ + x⁵ + x³ + x² + 1.
const POLYNOMIAL: u32 = 0x1_002D;
/// Cantor basis over which element representations are remapped, chosen
/// (per the LCH construction) so subspace evaluation points nest: the
/// evaluation point of FFT output `j` is the element `j` itself.
const CANTOR_BASIS: [u16; BITS] = [
    0x0001, 0xACCA, 0x3C0E, 0x163E, 0xC582, 0xED2E, 0x914C, 0x4012, 0x6C98, 0x10D8, 0x6A72, 0xB900,
    0xFDB8, 0xFB34, 0xFF38, 0x991E,
];

/// The runtime lookup tables (see module docs).
pub struct Tables {
    /// `log[x]` for representation `x`; `log[0] == MODULUS`.
    pub log: Box<[u16; ORDER]>,
    /// `exp[l]` for log `l`; `exp[MODULUS] == exp[0]`.
    pub exp: Box<[u16; ORDER]>,
    /// Additive-FFT butterfly constants, log domain, indexed by
    /// `group_start + distance + delta - 1` (see [`crate::afft`]).
    pub skew: Box<[u16; ORDER]>,
    /// Walsh-Hadamard transform (mod [`MODULUS`]) of the log table.
    pub log_walsh: Box<[u16; ORDER]>,
    /// `bit_products[i]` holds the 16 products `2^i · 2^j` over
    /// representation bits as two byte vectors: byte `j` of `.0` is the
    /// low byte of the product, byte `j` of `.1` the high byte. The
    /// multiply is bilinear over GF(2), so the same two vectors for any
    /// constant `m` are the XOR of the rows of `m`'s set bits — how
    /// [`crate::simd::Multiplier`] gets a constant's column products from
    /// one 512-byte table instead of 16 scattered `exp` lookups.
    pub bit_products: [(u128, u128); BITS],
}

impl std::fmt::Debug for Tables {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tables").finish_non_exhaustive()
    }
}

/// `a + b mod MODULUS` for log-domain values in `[0, MODULUS]`.
#[inline]
pub fn add_mod(a: u16, b: u16) -> u16 {
    let sum = u32::from(a) + u32::from(b);
    // Values are < 2^16, so the sum fits 17 bits; folding the carry adds
    // the "+1" that turns mod-2^16 wraparound into mod-(2^16 - 1).
    (sum + (sum >> BITS)) as u16
}

/// `a - b mod MODULUS` for log-domain values in `[0, MODULUS]`.
#[inline]
pub fn sub_mod(a: u16, b: u16) -> u16 {
    let dif = u32::from(a).wrapping_sub(u32::from(b));
    // A borrow makes the high half all-ones; folding it subtracts the 1
    // that maps mod-2^16 back onto mod-(2^16 - 1).
    (dif.wrapping_add(dif >> BITS)) as u16
}

impl Tables {
    /// Builds every table from scratch (call through [`tables`], not
    /// directly — this is milliseconds of work and ~512 KiB).
    fn build() -> Tables {
        let mut log = vec![0u16; ORDER].into_boxed_slice();
        let mut exp = vec![0u16; ORDER].into_boxed_slice();

        // LFSR walk: raw logs over the multiplicative group.
        let mut state: u32 = 1;
        for i in 0..u32::from(MODULUS) {
            exp[state as usize] = i as u16; // exp[] temporarily holds raw logs
            state <<= 1;
            if state >= ORDER as u32 {
                state ^= POLYNOMIAL;
            }
        }
        exp[0] = MODULUS;

        // Cantor-basis remap: log[x] becomes the raw log of the basis
        // combination x indexes, so representation x *is* evaluation
        // point x for the additive FFT.
        log[0] = 0;
        for (i, &basis) in CANTOR_BASIS.iter().enumerate() {
            let width = 1usize << i;
            for j in 0..width {
                log[width + j] = log[j] ^ basis;
            }
        }
        for entry in log.iter_mut() {
            *entry = exp[usize::from(*entry)];
        }
        for (x, &l) in log.iter().enumerate() {
            exp[usize::from(l)] = x as u16;
        }
        exp[usize::from(MODULUS)] = exp[0];

        // FFT skew table (Leopard's FFTInitialize): temp[i] seeds the
        // i-th subspace generator; each round propagates the skews of one
        // butterfly layer, then normalizes temp against the next basis
        // element.
        let mut skew = vec![0u16; ORDER].into_boxed_slice();
        let mut temp = [0u16; BITS - 1];
        for (i, t) in temp.iter_mut().enumerate() {
            *t = 1u16 << (i + 1);
        }
        for m in 0..(BITS - 1) {
            let step = 1usize << (m + 1);
            skew[(1usize << m) - 1] = 0;
            for (i, &twist) in temp.iter().enumerate().skip(m) {
                let s = 1usize << (i + 1);
                let mut j = (1usize << m) - 1;
                while j < s {
                    skew[j + s] = skew[j] ^ twist;
                    j += step;
                }
            }
            let p = mul_tables(&log, &exp, temp[m], temp[m] ^ 1);
            temp[m] = sub_mod(MODULUS, log[usize::from(p)]);
            for i in (m + 1)..(BITS - 1) {
                let sum = add_mod(log[usize::from(temp[i] ^ 1)], temp[m]);
                temp[i] = mul_log_tables(&log, &exp, temp[i], sum);
            }
        }
        for entry in skew.iter_mut() {
            *entry = log[usize::from(*entry)];
        }

        // LogWalsh: FWHT of the log table, reused by every decode to turn
        // the error-locator construction into two more FWHTs.
        let mut log_walsh = vec![0u16; ORDER].into_boxed_slice();
        log_walsh.copy_from_slice(&log[..]);
        log_walsh[0] = 0;
        fwht(&mut log_walsh, ORDER);

        let mut bit_products = [(0u128, 0u128); BITS];
        for (i, (lo, hi)) in bit_products.iter_mut().enumerate() {
            for j in 0..BITS {
                let p = u128::from(mul_tables(&log, &exp, 1 << i, 1 << j));
                *lo |= (p & 0xFF) << (8 * j);
                *hi |= (p >> 8) << (8 * j);
            }
        }

        fn into_array(b: Box<[u16]>) -> Box<[u16; ORDER]> {
            b.try_into().expect("built with ORDER entries")
        }
        Tables {
            log: into_array(log),
            exp: into_array(exp),
            skew: into_array(skew),
            log_walsh: into_array(log_walsh),
            bit_products,
        }
    }

    /// Field multiply of representations `a · b`.
    #[inline]
    pub fn mul(&self, a: u16, b: u16) -> u16 {
        if a == 0 || b == 0 {
            return 0;
        }
        self.exp[usize::from(add_mod(self.log[usize::from(a)], self.log[usize::from(b)]))]
    }

    /// `x · m` where `m` is given by its log, with *wrap* semantics:
    /// `log_m == MODULUS` acts as log 0, i.e. multiply by one (absorbed by
    /// `exp[MODULUS] == exp[0]`). This is what the decoder's
    /// error-locator products need. The skew table's `MODULUS` entries
    /// mean "multiply by zero" instead — that sentinel is owned by the
    /// butterfly layer ([`crate::afft`]), which skips the muladd outright
    /// and never calls this with it.
    #[inline]
    pub fn mul_log(&self, x: u16, log_m: u16) -> u16 {
        if x == 0 {
            return 0;
        }
        self.exp[usize::from(add_mod(self.log[usize::from(x)], log_m))]
    }

    /// Multiplicative inverse (`0` maps to `0`).
    #[inline]
    pub fn inv(&self, a: u16) -> u16 {
        if a == 0 {
            return 0;
        }
        self.exp[usize::from(sub_mod(MODULUS, self.log[usize::from(a)]))]
    }
}

/// Representation multiply through explicit log/exp slices (table
/// construction runs before a `Tables` value exists).
fn mul_tables(log: &[u16], exp: &[u16], a: u16, b: u16) -> u16 {
    if a == 0 || b == 0 {
        return 0;
    }
    exp[usize::from(add_mod(log[usize::from(a)], log[usize::from(b)]))]
}

/// `x · m` with `m` in the log domain (wrap semantics, as
/// [`Tables::mul_log`]), through explicit slices.
fn mul_log_tables(log: &[u16], exp: &[u16], x: u16, log_m: u16) -> u16 {
    if x == 0 {
        return 0;
    }
    exp[usize::from(add_mod(log[usize::from(x)], log_m))]
}

/// In-place Walsh-Hadamard transform over `(Z / MODULUS, +)`, radix-2, of
/// a power-of-two-length slice.
///
/// `truncated` bounds the non-zero input prefix: butterfly groups whose
/// inputs are all past it start as zero and stay zero, so they are
/// skipped (the nonzero prefix is re-rounded up after every layer). At
/// length [`ORDER`] the transform is aligned with the field's
/// evaluation-point domain; its first `n` outputs (`n` a power of two)
/// equal the length-`n` transform of the input folded modulo `n`, which
/// is how the decoder avoids the layers it would not read.
pub fn fwht(data: &mut [u16], truncated: usize) {
    let len = data.len();
    debug_assert!(len.is_power_of_two());
    let mut live = truncated.clamp(1, len);
    let mut dist = 1usize;
    while dist < len {
        let span = dist << 1;
        let mut r = 0;
        while r < live {
            for i in r..(r + dist) {
                let a = data[i];
                let b = data[i + dist];
                data[i] = add_mod(a, b);
                data[i + dist] = sub_mod(a, b);
            }
            r += span;
        }
        live = live.div_ceil(span) * span;
        dist = span;
    }
}

static TABLES: TableCell<Tables> = TableCell::new();

/// The process-wide tables, built on first use (see [`Tables`]).
pub fn tables() -> Arc<Tables> {
    TABLES.get(Tables::build)
}

#[cfg(all(test, not(nc_check)))]
mod tests {
    use super::*;

    #[test]
    fn modular_helpers_wrap_correctly() {
        assert_eq!(add_mod(0, 0), 0);
        assert_eq!(add_mod(MODULUS - 1, 1), MODULUS);
        assert_eq!(add_mod(MODULUS, 1), 1); // MODULUS ≡ 0
        assert_eq!(sub_mod(0, 1), MODULUS - 1);
        assert_eq!(sub_mod(5, 5), 0);
        for a in [0u16, 1, 2, 1000, MODULUS - 1] {
            for b in [0u16, 1, 77, MODULUS - 1] {
                assert_eq!(sub_mod(add_mod(a, b), b), a % MODULUS, "a={a} b={b}");
            }
        }
    }

    #[test]
    fn log_exp_invert_each_other() {
        let t = tables();
        assert_eq!(t.log[0], MODULUS);
        assert_eq!(t.exp[0], 1, "the element with log 0 is the identity");
        for x in 1..ORDER {
            let x = x as u16;
            assert_eq!(t.exp[usize::from(t.log[usize::from(x)])], x);
        }
    }

    #[test]
    fn multiplication_satisfies_field_axioms_on_samples() {
        let t = tables();
        let sample = [1u16, 2, 3, 0x1234, 0x8000, 0xFFFF, 0xACCA, 255];
        for &a in &sample {
            assert_eq!(t.mul(a, 1), a, "identity");
            assert_eq!(t.mul(a, 0), 0, "annihilator");
            assert_eq!(t.mul(t.inv(a), a), 1, "inverse of {a:#x}");
            for &b in &sample {
                assert_eq!(t.mul(a, b), t.mul(b, a), "commutativity");
                for &c in &sample {
                    assert_eq!(
                        t.mul(a, t.mul(b, c)),
                        t.mul(t.mul(a, b), c),
                        "associativity {a:#x} {b:#x} {c:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn mul_log_wraps_modulus_to_identity() {
        let t = tables();
        for x in [0u16, 1, 2, 0xBEEF, 0xFFFF] {
            // log MODULUS ≡ log 0: multiply by one, not by zero (the
            // zero-multiplier sentinel lives in afft, not here).
            assert_eq!(t.mul_log(x, MODULUS), x);
            // And log-domain multiply agrees with representation multiply.
            for m in [1u16, 2, 0x1234] {
                assert_eq!(t.mul_log(x, t.log[usize::from(m)]), t.mul(x, m));
            }
        }
    }

    #[test]
    fn distributivity_over_xor() {
        // GF(2^16) addition is XOR; multiplication must distribute over it.
        let t = tables();
        for (a, b, c) in [(3u16, 5u16, 7u16), (0x1234, 0xFEDC, 0x0F0F), (1, 0xFFFF, 0x8000)] {
            assert_eq!(t.mul(a, b ^ c), t.mul(a, b) ^ t.mul(a, c));
        }
    }

    #[test]
    fn fwht_truncation_matches_full_transform() {
        let mut full = vec![0u16; ORDER];
        for (i, v) in full.iter_mut().enumerate().take(1000) {
            *v = (i * 37 % usize::from(MODULUS)) as u16;
        }
        let mut truncated = full.clone();
        fwht(&mut full, ORDER);
        fwht(&mut truncated, 1000);
        assert_eq!(full, truncated);
    }

    #[test]
    fn fwht_prefix_equals_transform_of_the_folded_input() {
        let mut full = vec![0u16; ORDER];
        for (i, v) in full.iter_mut().enumerate() {
            *v = (i * 37 % usize::from(MODULUS)) as u16;
        }
        let n = 512;
        let mut folded = vec![0u16; n];
        for (i, &v) in full.iter().enumerate() {
            folded[i % n] = add_mod(folded[i % n], v);
        }
        fwht(&mut full, ORDER);
        fwht(&mut folded, n);
        // Equal as residues: 0 and MODULUS are the same log.
        for (a, b) in full[..n].iter().zip(&folded) {
            assert_eq!(a % MODULUS, b % MODULUS);
        }
    }

    #[test]
    fn tables_are_built_once_and_shared() {
        let a = tables();
        let b = tables();
        assert!(Arc::ptr_eq(&a, &b));
    }
}
