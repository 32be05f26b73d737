//! GF(2^16) region operations: each constant as its 2×2 block form, built
//! from [`Tables`], run on `nc-gf256`'s one rung ladder.
//!
//! A shard of `k` bytes (k even) carries `k/2` symbols in two byte planes:
//! symbol `i` is `bytes[i] | bytes[k/2 + i] << 8` (any fixed pairing is
//! equally correct for a GF(2)-linear code; this one keeps each plane a
//! byte stream, the Leopard / `reed-solomon-simd` trick).
//!
//! Multiplying by a constant `m` is GF(2)-linear on the 16 representation
//! bits: a 2×2 grid of 8×8 blocks over the planes,
//! `out_lo = A·lo ^ B·hi`, `out_hi = C·lo ^ D·hi`, each block one
//! `GF2P8AFFINEQB` matrix or two 16-entry nibble tables — the [`Blocks`] a
//! GF(2^8) coefficient is the 1×1 case of. The form is linear in `m`, so
//! [`multiplier`] sums four of [`Tables`]' per-nibble forms, one per nibble
//! of `m`, built once per constant and applied to every shard that shares
//! it (every butterfly of one FFT group, see [`crate::afft`]). The
//! Cantor-basis remap of the representation is itself linear, so the blocks
//! are read off the remapped products.
//!
//! Everything past the form is `nc_gf256::planes` at two planes — the same
//! per-ISA bodies as GF(2^8), on the same [`Rung`]: the one
//! `Rung::active()` resolves from `NC_GF_BACKEND`, named by
//! [`active_kernel`]. Coefficients use *wrap* log semantics
//! ([`Tables::mul_log`]): log 0 and log [`MODULUS`] both multiply by one;
//! the skew table's zero-multiplier sentinel never reaches this module.

use crate::tables::{Tables, MODULUS};
use nc_rlnc::gf256::planes::{self, Blocks};
use nc_rlnc::gf256::{region, simd::Rung};

pub use nc_rlnc::gf256::simd::active_kernel;

/// Multiplication by one GF(2^16) constant on one rung: `nc-gf256`'s plane
/// multiplier at two planes.
pub type Multiplier = planes::Multiplier<2>;

/// `x ↦ m·x` on `rung`, `m` given by its log (wrap semantics: log 0 and
/// log [`MODULUS`] are both the identity): the sum of the 2×2 block forms of
/// `m`'s four nibbles.
pub fn multiplier(rung: Rung, t: &Tables, log_m: u16) -> Multiplier {
    let m = usize::from(t.exp[usize::from(log_m)]);
    let nibbles: [&Blocks<2>; 4] = std::array::from_fn(|j| &t.nibble_forms[j][m >> (4 * j) & 0xF]);
    Multiplier::sum(rung, &nibbles)
}

/// Whether `log_m` multiplies by one under wrap semantics — then checks
/// the lengths the multiplier would have.
fn is_one(log_m: u16, dst_len: usize, src_len: usize) -> bool {
    let one = log_m == 0 || log_m == MODULUS;
    if one {
        assert_eq!(dst_len, src_len, "region length mismatch");
        assert_eq!(dst_len % 2, 0, "GF(2^16) regions carry whole symbols");
    }
    one
}

// ---------------------------------------------------------------------------
// Region entry points for a one-off constant (the decoder's scale/unscale
// steps, benches). `log_m` is a wrap-semantics log coefficient; regions are
// whole shards (even length, two planes).
// ---------------------------------------------------------------------------

/// `dst ^= m · src` on the active rung.
///
/// # Panics
///
/// Panics if the slices differ in length or the length is odd.
#[inline]
pub fn mul_add_assign(t: &Tables, dst: &mut [u8], src: &[u8], log_m: u16) {
    mul_add_assign_on(Rung::active(), t, dst, src, log_m);
}

/// `dst ^= m · src` on an explicit rung.
///
/// # Panics
///
/// Panics if the slices differ in length or the length is odd.
pub fn mul_add_assign_on(rung: Rung, t: &Tables, dst: &mut [u8], src: &[u8], log_m: u16) {
    if is_one(log_m, dst.len(), src.len()) {
        return region::add_assign_on(rung, dst, src);
    }
    multiplier(rung, t, log_m).mul_add(dst, src);
}

/// `dst = m · dst` in place on an explicit rung.
///
/// # Panics
///
/// Panics if the length is odd.
pub fn mul_assign_on(rung: Rung, t: &Tables, dst: &mut [u8], log_m: u16) {
    if is_one(log_m, dst.len(), dst.len()) {
        return;
    }
    multiplier(rung, t, log_m).mul_assign(dst);
}

/// `dst = m · src` (overwriting) on an explicit rung.
///
/// # Panics
///
/// Panics if the slices differ in length or the length is odd.
pub fn mul_into_on(rung: Rung, t: &Tables, dst: &mut [u8], src: &[u8], log_m: u16) {
    if is_one(log_m, dst.len(), src.len()) {
        return dst.copy_from_slice(src);
    }
    multiplier(rung, t, log_m).mul_into(dst, src);
}

#[cfg(all(test, not(nc_check)))]
mod tests {
    use super::*;
    use crate::tables::tables;
    use nc_rlnc::gf256::simd::Kernel;

    #[test]
    fn nibble_basis_builds_the_forms_of_the_products() {
        // A constant's form is the sum of its four nibbles' forms: on every
        // rung it must multiply like the form read straight off the 16
        // products m·2^j.
        let t = tables();
        let src: Vec<u8> = (0..258).map(|i| (i * 37 + 11) as u8).collect();
        for m in [1u16, 2, 0x000F, 0x0F0F, 0x1234, 0x8000, 0xFFFF] {
            let mut columns = [[0u64; 2]; 2];
            for j in 0..16 {
                let p = t.mul(m, 1 << j);
                for (o, row) in columns.iter_mut().enumerate() {
                    row[j / 8] |= u64::from((p >> (8 * o)) as u8) << (8 * (j % 8));
                }
            }
            for rung in Kernel::available() {
                let (mut got, mut want) = (vec![0u8; 258], vec![0u8; 258]);
                multiplier(rung, &t, t.log[usize::from(m)]).mul_into(&mut got, &src);
                Multiplier::sum(rung, &[&Blocks::from_columns(columns)]).mul_into(&mut want, &src);
                assert_eq!(got, want, "m={m:#x} on {rung:?}");
            }
        }
    }

    #[test]
    fn wrap_log_coefficients_are_identity_fast_paths() {
        let t = tables();
        let src: Vec<u8> = (0..66).map(|i| (i * 3 + 1) as u8).collect();
        for log_m in [0u16, MODULUS] {
            for rung in Kernel::available() {
                let mut dst = vec![0u8; 66];
                mul_add_assign_on(rung, &t, &mut dst, &src, log_m);
                assert_eq!(dst, src, "×1 must reduce to xor ({rung:?})");
                let mut inplace = src.clone();
                mul_assign_on(rung, &t, &mut inplace, log_m);
                assert_eq!(inplace, src);
                mul_into_on(rung, &t, &mut dst, &src, log_m);
                assert_eq!(dst, src);
            }
        }
    }

    #[test]
    #[should_panic(expected = "GF(2^16) regions carry whole symbols")]
    fn an_odd_region_is_refused_on_the_fast_path_too() {
        let t = tables();
        mul_add_assign(&t, &mut [0u8; 3], &[0u8; 3], 0);
    }
}
