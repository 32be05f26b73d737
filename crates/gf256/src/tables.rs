//! Pre-computed lookup tables for GF(2^8), built at compile time.
//!
//! All tables are generated by `const fn`s from the field definition
//! (polynomial 0x11B, generator 0x03), so they cannot drift out of sync with
//! the loop-based arithmetic in [`crate::scalar`].
//!
//! Three table families are provided:
//!
//! * The classic double-length [`EXP`] / [`LOG`] pair used by the paper's
//!   baseline `baseline_gf_multiply` (Fig. 1). `EXP` is 512 entries long so
//!   `EXP[log(x) + log(y)]` never needs a modulo reduction.
//! * The **remapped** `RLOG` / `REXP` pair of the paper's Table-based-3
//!   optimization: zero maps to sentinel `0x00` instead of `0xFF`, letting a
//!   GPU test the "operand is zero" predicate for free during a register
//!   load. Every non-zero logarithm is shifted up by one, and `REXP`
//!   compensates.
//! * The full 64 KiB multiplication table `MUL` and inverse table `INV`
//!   used by CPU fast paths and by tests as ground truth.

/// The reduced low byte of the field polynomial x^8 + x^4 + x^3 + x + 1
/// (0x11B in its 9-bit form), XOR-ed in when a shift overflows.
pub(crate) const POLY_LOW: u8 = 0x1B;

/// Multiply by x (i.e. by 0x02) in the field: the `xtime` primitive.
#[inline]
pub(crate) const fn xtime(a: u8) -> u8 {
    let shifted = (a as u16) << 1;
    if shifted & 0x100 != 0 {
        (shifted as u8) ^ POLY_LOW
    } else {
        shifted as u8
    }
}

/// Loop-based multiplication, usable in `const` contexts. This is the ground
/// truth from which every table below is derived.
pub(crate) const fn const_mul(a: u8, b: u8) -> u8 {
    let mut acc = 0u8;
    let mut x = a;
    let mut y = b;
    while x != 0 {
        if x & 1 != 0 {
            acc ^= y;
        }
        x >>= 1;
        y = xtime(y);
    }
    acc
}

const fn build_exp() -> [u8; 512] {
    let mut exp = [0u8; 512];
    let mut x = 1u8;
    let mut i = 0;
    while i < 255 {
        exp[i] = x;
        exp[i + 255] = x;
        x = const_mul(x, 3);
        i += 1;
    }
    // Entries 510 and 511 are never reached by valid log sums (max is
    // 254 + 254 = 508) but are defined for safety.
    exp[510] = exp[0];
    exp[511] = exp[1];
    exp
}

const fn build_log(exp: &[u8; 512]) -> [u8; 256] {
    let mut log = [0u8; 256];
    let mut i = 0;
    while i < 255 {
        log[exp[i] as usize] = i as u8;
        i += 1;
    }
    // log[0] is mathematically undefined; callers must special-case zero.
    log[0] = 0;
    log
}

/// Double-length exponential table: `EXP[i] = generator^i` with the second
/// half repeating the first so that `EXP[log(x) + log(y)]` needs no modulo.
pub const EXP: [u8; 512] = build_exp();

/// Logarithm table: `LOG[x]` is the discrete log of `x` base 0x03.
/// `LOG[0]` is a placeholder (zero has no logarithm) — callers special-case.
pub const LOG: [u8; 256] = build_log(&EXP);

/// The sentinel the paper's Fig. 5 uses for "log of zero" when operands are
/// carried in the log domain: `0xFF`, which can never be a real logarithm
/// (logs range over 0..=254).
pub(crate) const LOG_ZERO: u8 = 0xFF;

const fn build_rlog() -> [u16; 256] {
    // Remapped log (Table-based-3): rlog(0) = 0, rlog(x) = log(x) + 1.
    // A zero *test* becomes a test against 0x00, which GPUs perform for free
    // via predicated register loads.
    let mut rlog = [0u16; 256];
    let mut x = 1usize;
    while x < 256 {
        rlog[x] = LOG[x] as u16 + 1;
        x += 1;
    }
    rlog
}

/// Remapped logarithm table of the Table-based-3 optimization: zero maps to
/// `0x00`; non-zero `x` maps to `LOG[x] + 1`. Entries are `u16` because the
/// shifted logs reach 255 and their pairwise sums index [`REXP`].
pub(crate) const RLOG: [u16; 256] = build_rlog();

const fn build_rexp() -> [u8; 513] {
    // REXP[rlog(x) + rlog(y)] == x * y for non-zero x, y.
    // Index range: 2 ..= 510 (1+1 to 255+255). Indices 0 and 1 correspond to
    // at least one zero operand and are handled by predication, but we keep
    // them zero so an unpredicated lookup still yields the right product.
    let mut rexp = [0u8; 513];
    let mut i = 2usize;
    while i <= 510 {
        rexp[i] = EXP[i - 2];
        i += 1;
    }
    rexp
}

/// Adjusted exponential table that compensates for the +1 shift in `RLOG`:
/// `REXP[RLOG[x] + RLOG[y]] == x·y`, and index 0/1 (a zero operand) yields 0.
pub const REXP: [u8; 513] = build_rexp();

const fn build_inv() -> [u8; 256] {
    let mut inv = [0u8; 256];
    let mut x = 1usize;
    while x < 256 {
        // x^254 == x^-1 in GF(2^8).
        let mut acc = 1u8;
        let mut i = 0;
        while i < 254 {
            acc = const_mul(acc, x as u8);
            i += 1;
        }
        inv[x] = acc;
        x += 1;
    }
    inv
}

/// Multiplicative inverses: `INV[x] * x == 1` for non-zero `x`; `INV[0] == 0`.
pub(crate) const INV: [u8; 256] = build_inv();

const fn build_mul() -> [[u8; 256]; 256] {
    let mut mul = [[0u8; 256]; 256];
    let mut a = 0usize;
    while a < 256 {
        let mut b = 0usize;
        while b < 256 {
            mul[a][b] = const_mul(a as u8, b as u8);
            b += 1;
        }
        a += 1;
    }
    mul
}

/// The full 64 KiB product table: `MUL[a][b] == a·b`. CPU region operations
/// index a single 256-byte row per coefficient, which stays resident in L1.
pub(crate) static MUL: [[u8; 256]; 256] = build_mul();

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_log_roundtrip() {
        for x in 1..=255u8 {
            assert_eq!(EXP[LOG[x as usize] as usize], x);
        }
    }

    #[test]
    fn exp_double_length_wraps() {
        for i in 0..255usize {
            assert_eq!(EXP[i], EXP[i + 255]);
        }
    }

    #[test]
    fn mul_table_matches_const_mul() {
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(MUL[a as usize][b as usize], const_mul(a, b));
            }
        }
    }

    #[test]
    fn inv_table_is_inverse() {
        for x in 1..=255u8 {
            assert_eq!(const_mul(x, INV[x as usize]), 1, "INV[{x}]");
        }
        assert_eq!(INV[0], 0);
    }

    #[test]
    fn remapped_tables_reproduce_products() {
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                let la = RLOG[a as usize];
                let lb = RLOG[b as usize];
                let product = if la == 0 || lb == 0 { 0 } else { REXP[(la + lb) as usize] };
                assert_eq!(product, const_mul(a, b), "{a} * {b} via remapped tables");
            }
        }
    }

    #[test]
    fn remapped_zero_sentinel_is_zero() {
        assert_eq!(RLOG[0], 0);
        for &l in &RLOG[1..] {
            assert_ne!(l, 0, "only zero maps to the 0x00 sentinel");
        }
    }

    #[test]
    fn xtime_is_mul_by_two() {
        for x in 0..=255u8 {
            assert_eq!(xtime(x), const_mul(x, 2));
        }
    }
}
