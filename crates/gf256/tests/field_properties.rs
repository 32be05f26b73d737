//! Property-based tests of the GF(2^8) field axioms and the equivalence of
//! all scalar multiplication strategies (the region rungs have their own
//! suite, `simd_dispatch.rs`).

use nc_gf256::logdomain::{mul_log, mul_rlog, to_log, to_rlog};
use nc_gf256::region::add_assign;
use nc_gf256::scalar::{div, inv, mul_full_table, mul_loop, mul_table};
use nc_gf256::wide::{mul_word32, mul_word64};
use nc_gf256::Gf8;
use proptest::prelude::*;

proptest! {
    #[test]
    fn multiplication_commutes(a: u8, b: u8) {
        prop_assert_eq!(mul_table(a, b), mul_table(b, a));
    }

    #[test]
    fn multiplication_associates(a: u8, b: u8, c: u8) {
        prop_assert_eq!(
            mul_table(mul_table(a, b), c),
            mul_table(a, mul_table(b, c))
        );
    }

    #[test]
    fn multiplication_distributes_over_addition(a: u8, b: u8, c: u8) {
        prop_assert_eq!(
            mul_table(a, b ^ c),
            mul_table(a, b) ^ mul_table(a, c)
        );
    }

    #[test]
    fn all_scalar_strategies_agree(a: u8, b: u8) {
        let want = mul_loop(a, b);
        prop_assert_eq!(mul_table(a, b), want);
        prop_assert_eq!(mul_full_table(a, b), want);
        prop_assert_eq!(mul_log(to_log(a), to_log(b)), want);
        prop_assert_eq!(mul_rlog(to_rlog(a), to_rlog(b)), want);
        prop_assert_eq!((Gf8(a) * Gf8(b)).0, want);
    }

    #[test]
    fn wide_words_match_scalar(c: u8, lanes: [u8; 8]) {
        let w64 = u64::from_le_bytes(lanes);
        let got = mul_word64(c, w64).to_le_bytes();
        for i in 0..8 {
            prop_assert_eq!(got[i], mul_loop(c, lanes[i]));
        }
        let w32 = u32::from_le_bytes([lanes[0], lanes[1], lanes[2], lanes[3]]);
        let got32 = mul_word32(c, w32).to_le_bytes();
        for i in 0..4 {
            prop_assert_eq!(got32[i], mul_loop(c, lanes[i]));
        }
    }

    #[test]
    fn nonzero_elements_have_inverses(a in 1u8..) {
        prop_assert_eq!(mul_table(a, inv(a)), 1);
        prop_assert_eq!(div(1, a), inv(a));
    }

    #[test]
    fn division_roundtrips(a: u8, b in 1u8..) {
        prop_assert_eq!(mul_table(div(a, b), b), a);
    }

    #[test]
    fn region_add_is_involutive(
        a in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let b: Vec<u8> = a.iter().map(|&x| x.wrapping_mul(7).wrapping_add(3)).collect();
        let mut dst = a.clone();
        add_assign(&mut dst, &b);
        add_assign(&mut dst, &b);
        prop_assert_eq!(dst, a);
    }

    #[test]
    fn pow_respects_exponent_addition(a: u8, e1 in 0u32..300, e2 in 0u32..300) {
        if a != 0 {
            prop_assert_eq!(
                Gf8(a).pow(e1) * Gf8(a).pow(e2),
                Gf8(a).pow(e1 + e2)
            );
        }
    }
}
