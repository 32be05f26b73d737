//! Region operations: the row-length GF(2^8) primitives at the heart of
//! network coding.
//!
//! Encoding and Gauss-Jordan decoding both reduce to a handful of
//! operations over byte regions (coefficient rows of length n, coded blocks
//! of length k):
//!
//! * [`add_assign`]: `dst ^= src` (field addition is XOR),
//! * [`mul_assign`]: `dst = c · dst`,
//! * [`mul_into`]: `dst = c · src`,
//! * [`mul_add_assign`]: `dst ^= c · src` (the classic "axpy"),
//! * [`dot_assign`]: `dst ^= Σ coeffs[i] · sources[i]`, one coded block,
//! * [`matrix_mul_add`]: `outs[t] ^= Σ coeffs[t][i] · sources[i]`, many.
//!
//! Each runs on the process's one active rung of the kernel ladder
//! ([`Rung::active`]: auto-detected, or forced with `NC_GF_BACKEND` — see
//! [`crate::simd`]). The `*_on` twin of each takes the rung explicitly, for
//! the equivalence suite and the per-rung benches; there is no other way to
//! choose. All rungs produce identical bytes (property-tested).

use crate::simd::{self, Rung, DOT_BLOCK, MUL_ADD, MUL_INTO, XOR};

/// `dst ^= src` at the active rung's vector width.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn add_assign(dst: &mut [u8], src: &[u8]) {
    add_assign_on(Rung::active(), dst, src);
}

/// `dst ^= src` on an explicit rung (a byte-at-a-time rung never executes
/// vector code, even for this).
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn add_assign_on(rung: Rung, dst: &mut [u8], src: &[u8]) {
    simd::apply::<XOR>(rung, dst, src, 1);
}

/// `dst ^= c · src` on the active rung.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn mul_add_assign(dst: &mut [u8], src: &[u8], c: u8) {
    mul_add_assign_on(Rung::active(), dst, src, c);
}

/// `dst ^= c · src` on an explicit rung.
///
/// Zero and one coefficients take fast paths (no-op and XOR respectively)
/// on every rung, as any production coder would.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn mul_add_assign_on(rung: Rung, dst: &mut [u8], src: &[u8], c: u8) {
    match c {
        0 => assert_eq!(dst.len(), src.len(), "region length mismatch"),
        1 => simd::apply::<XOR>(rung, dst, src, c),
        _ => simd::apply::<MUL_ADD>(rung, dst, src, c),
    }
}

/// `dst = c · dst` on the active rung.
#[inline]
pub fn mul_assign(dst: &mut [u8], c: u8) {
    mul_assign_on(Rung::active(), dst, c);
}

/// `dst = c · dst` on an explicit rung.
#[inline]
pub fn mul_assign_on(rung: Rung, dst: &mut [u8], c: u8) {
    match c {
        0 => dst.fill(0),
        1 => {}
        _ => simd::apply_in_place(rung, dst, c),
    }
}

/// `dst = c · src` (overwriting) on the active rung.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn mul_into(dst: &mut [u8], src: &[u8], c: u8) {
    mul_into_on(Rung::active(), dst, src, c);
}

/// `dst = c · src` (overwriting) on an explicit rung.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn mul_into_on(rung: Rung, dst: &mut [u8], src: &[u8], c: u8) {
    assert_eq!(dst.len(), src.len(), "region length mismatch");
    match c {
        0 => dst.fill(0),
        1 => dst.copy_from_slice(src),
        _ => simd::apply::<MUL_INTO>(rung, dst, src, c),
    }
}

/// Accumulates `dst ^= Σ coeffs[i] · sources[i]` — one output row of the
/// encoding matrix product (the paper's Eq. 1) — on the active rung.
///
/// # Panics
///
/// As for [`dot_assign_on`].
#[inline]
pub fn dot_assign(dst: &mut [u8], sources: &[&[u8]], coeffs: &[u8]) {
    dot_assign_on(Rung::active(), dst, sources, coeffs);
}

/// Accumulates `dst ^= Σ coeffs[i] · sources[i]` on an explicit rung.
///
/// On the ISA rungs up to [`DOT_BLOCK`] coefficient rows are folded per
/// pass, keeping their half-byte tables (or affine matrices) in vector
/// registers and streaming each destination cache line once per block
/// instead of once per source; the byte-at-a-time rungs go a row at a time.
/// Zero coefficients are skipped before blocking, so sparse rows pay
/// nothing.
///
/// # Panics
///
/// Panics if `coeffs` and `sources` differ in length, or any source region's
/// length differs from `dst`'s.
pub fn dot_assign_on(rung: Rung, dst: &mut [u8], sources: &[&[u8]], coeffs: &[u8]) {
    assert_eq!(sources.len(), coeffs.len(), "coefficient count mismatch");
    for src in sources {
        assert_eq!(src.len(), dst.len(), "region length mismatch");
    }
    // Gather non-zero terms into a fixed DOT_BLOCK scratch (no heap
    // allocation in this hot loop), running a blocked pass whenever it
    // fills; the one-coefficient fast path still applies to the remainder.
    let mut idxs = [0usize; DOT_BLOCK];
    let mut cs = [0u8; DOT_BLOCK];
    let mut filled = 0;
    for (i, &c) in coeffs.iter().enumerate() {
        if c == 0 {
            continue;
        }
        idxs[filled] = i;
        cs[filled] = c;
        filled += 1;
        if filled < DOT_BLOCK {
            continue;
        }
        filled = 0;
        let srcs = idxs.map(|i| sources[i]);
        if !simd::dot4(rung, dst, &srcs, cs) {
            for (src, &c) in srcs.iter().zip(&cs) {
                mul_add_assign_on(rung, dst, src, c);
            }
        }
    }
    for j in 0..filled {
        mul_add_assign_on(rung, dst, sources[idxs[j]], cs[j]);
    }
}

/// Accumulates `outs[t] ^= Σ_i coeffs[t][i] · sources[i]` — the whole
/// encoding matrix product (the paper's Eq. 1 for many coded blocks at
/// once, and stage 2 of its Sec. 5.2 decoder) — on the active rung.
///
/// This is the only multi-output entry point; [`dot_assign`] remains the
/// single-output one.
///
/// # Panics
///
/// As for [`matrix_mul_add_on`].
#[inline]
pub fn matrix_mul_add(outs: &mut [&mut [u8]], sources: &[&[u8]], coeffs: &[&[u8]]) {
    matrix_mul_add_on(Rung::active(), outs, sources, coeffs);
}

/// Accumulates `outs[t] ^= Σ_i coeffs[t][i] · sources[i]` on an explicit
/// rung.
///
/// On the GFNI rung every full group of eight outputs runs as one register
/// tile (eight outputs x a 128-byte column strip in accumulators, each
/// source line loaded once per tile instead of once per output). The
/// outputs left over, and every output on the other rungs, take
/// [`dot_assign_on`] one row at a time.
///
/// # Panics
///
/// Panics if `coeffs` and `outs` differ in length, a coefficient row's
/// length differs from `sources.len()`, or the outputs and sources are not
/// all the same length.
pub fn matrix_mul_add_on(rung: Rung, outs: &mut [&mut [u8]], sources: &[&[u8]], coeffs: &[&[u8]]) {
    let tiled = simd::matrix_tiles(rung, outs, sources, coeffs);
    for (out, row) in outs[tiled..].iter_mut().zip(&coeffs[tiled..]) {
        dot_assign_on(rung, out, sources, row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::mul_loop;

    #[test]
    fn add_assign_is_xor() {
        let mut dst: Vec<u8> = (0..33).collect();
        let src: Vec<u8> = (0..33).map(|i| i * 3).collect();
        let want: Vec<u8> = dst.iter().zip(&src).map(|(&d, &s)| d ^ s).collect();
        add_assign(&mut dst, &src);
        assert_eq!(dst, want);
    }

    #[test]
    fn mul_into_overwrites() {
        let src = [1u8, 2, 3, 0xFF];
        let mut dst = [0xAAu8; 4];
        mul_into(&mut dst, &src, 2);
        assert_eq!(dst, [2, 4, 6, crate::tables::xtime(0xFF)]);
        mul_into(&mut dst, &src, 0);
        assert_eq!(dst, [0; 4]);
        mul_into(&mut dst, &src, 1);
        assert_eq!(dst, src);
    }

    #[test]
    fn dot_assign_matches_manual_sum() {
        let a = [1u8, 2, 3];
        let b = [4u8, 5, 6];
        let c = [7u8, 8, 9];
        let coeffs = [0x02u8, 0x00, 0x53];
        let mut dst = [0u8; 3];
        dot_assign(&mut dst, &[&a, &b, &c], &coeffs);
        for i in 0..3 {
            let want = mul_loop(0x02, a[i]) ^ mul_loop(0x00, b[i]) ^ mul_loop(0x53, c[i]);
            assert_eq!(dst[i], want);
        }
    }

    #[test]
    #[should_panic(expected = "region length mismatch")]
    fn length_mismatch_panics() {
        let mut dst = [0u8; 3];
        mul_add_assign(&mut dst, &[0u8; 4], 5);
    }

    #[test]
    #[should_panic(expected = "region length mismatch")]
    fn length_mismatch_panics_on_the_zero_fast_path_too() {
        let mut dst = [0u8; 3];
        mul_add_assign(&mut dst, &[0u8; 4], 0);
    }

    #[test]
    fn mul_add_is_linear_in_coefficient() {
        let src: Vec<u8> = (0..64).collect();
        for c1 in [2u8, 9, 0x80] {
            for c2 in [3u8, 0x41] {
                // (c1 + c2)·src == c1·src + c2·src
                let mut lhs = vec![0u8; 64];
                mul_add_assign(&mut lhs, &src, c1 ^ c2);
                let mut rhs = vec![0u8; 64];
                mul_add_assign(&mut rhs, &src, c1);
                mul_add_assign(&mut rhs, &src, c2);
                assert_eq!(lhs, rhs);
            }
        }
    }
}
