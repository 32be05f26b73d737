//! Region operations: the row-length GF(2^8) primitives at the heart of
//! network coding.
//!
//! Encoding and Gauss-Jordan decoding both reduce to three operations over
//! byte regions (coefficient rows of length n, coded blocks of length k):
//!
//! * [`add_assign`]: `dst ^= src` (field addition is XOR),
//! * [`mul_assign`]: `dst = c · dst`,
//! * [`mul_add_assign`]: `dst ^= c · src` (the classic "axpy").
//!
//! Each operation supports several [`Backend`]s mirroring the paper's
//! implementation space, so benchmarks can compare them and callers can pick
//! per platform:
//!
//! * [`Backend::Table`] — one 256-byte product-table row per coefficient
//!   (L1-resident on CPUs).
//! * [`Backend::LogExp`] — the paper's Fig. 1 baseline, three lookups per
//!   byte.
//! * [`Backend::LoopWide`] — loop-based over 8-byte lanes (formerly the
//!   stand-in for the paper's SSE2 CPU baseline).
//! * [`Backend::Nibble`] — two 16-entry half-byte tables per coefficient
//!   (the scalar form of the shuffle-table technique).
//! * [`Backend::Simd`] — real SSSE3/AVX2 `PSHUFB` / NEON `TBL` nibble-table
//!   kernels with cached runtime dispatch (see [`crate::simd`]); the
//!   **default** on every host, degrading to a portable loop where no
//!   vector ISA is present.
//!
//! The default backend is detected once per process and can be forced with
//! the `NC_GF_BACKEND` environment variable (see
//! [`crate::simd::default_backend`]). All backends produce identical bytes
//! (property-tested).

use crate::scalar::mul_table;
use crate::simd;
pub(crate) use crate::simd::nibble_tables;
use crate::tables::MUL;
use crate::wide::mul_word64;

/// Selects the implementation used by the region operations.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Backend {
    /// Full product table, one 256-byte row per coefficient.
    Table,
    /// Log/exp lookups per byte (the paper's baseline, Fig. 1).
    LogExp,
    /// Loop-based multiplication over 64-bit lanes.
    LoopWide,
    /// Half-byte (nibble) tables, 32 bytes of state per coefficient.
    Nibble,
    /// Runtime-dispatched SIMD shuffle-table kernels ([`crate::simd`]).
    Simd,
}

impl Backend {
    /// All available backends, for exhaustive testing and benchmarking.
    pub const ALL: [Backend; 5] =
        [Backend::Table, Backend::LogExp, Backend::LoopWide, Backend::Nibble, Backend::Simd];

    /// The auto-detected default for this host (cached after first call;
    /// honors `NC_GF_BACKEND` — see [`crate::simd::default_backend`]).
    #[inline]
    pub fn detected() -> Backend {
        simd::default_backend()
    }

    /// Human-readable backend name (stable; used by benches and reports).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Table => "table",
            Backend::LogExp => "logexp",
            Backend::LoopWide => "loopwide",
            Backend::Nibble => "nibble",
            Backend::Simd => "simd",
        }
    }
}

impl Default for Backend {
    /// The auto-detected fastest backend for this host ([`Backend::detected`]).
    fn default() -> Self {
        Backend::detected()
    }
}

/// `dst ^= src` with the widest XOR path the host offers (32-byte AVX2
/// lanes where available, 8-byte words otherwise).
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn add_assign(dst: &mut [u8], src: &[u8]) {
    simd::xor_assign(dst, src);
}

/// `dst ^= src` with an explicit backend: [`Backend::Simd`] uses the active
/// SIMD kernel's widest XOR; the scalar backends use the portable
/// 8-byte-word loop, so a forced-scalar ablation run never executes vector
/// code even for unit coefficients.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn add_assign_with(backend: Backend, dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "region length mismatch");
    match backend {
        Backend::Simd => simd::xor_assign(dst, src),
        _ => simd::portable_xor(dst, src),
    }
}

/// `dst ^= c · src` with the default backend.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn mul_add_assign(dst: &mut [u8], src: &[u8], c: u8) {
    mul_add_assign_with(Backend::default(), dst, src, c);
}

/// `dst ^= c · src` with an explicit backend.
///
/// Zero and one coefficients take fast paths (no-op and XOR respectively) in
/// every backend, as any production coder would.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn mul_add_assign_with(backend: Backend, dst: &mut [u8], src: &[u8], c: u8) {
    assert_eq!(dst.len(), src.len(), "region length mismatch");
    match c {
        0 => return,
        1 => return add_assign_with(backend, dst, src),
        _ => {}
    }
    match backend {
        Backend::Table => {
            let row = &MUL[c as usize];
            for (d, s) in dst.iter_mut().zip(src) {
                *d ^= row[*s as usize];
            }
        }
        Backend::LogExp => {
            for (d, s) in dst.iter_mut().zip(src) {
                *d ^= mul_table(c, *s);
            }
        }
        Backend::LoopWide => {
            let mut d = dst.chunks_exact_mut(8);
            let mut s = src.chunks_exact(8);
            for (dc, sc) in (&mut d).zip(&mut s) {
                let x = u64::from_le_bytes(dc.try_into().unwrap());
                let y = u64::from_le_bytes(sc.try_into().unwrap());
                dc.copy_from_slice(&(x ^ mul_word64(c, y)).to_le_bytes());
            }
            for (db, sb) in d.into_remainder().iter_mut().zip(s.remainder()) {
                *db ^= crate::scalar::mul_loop(c, *sb);
            }
        }
        Backend::Nibble => {
            let (lo, hi) = nibble_tables(c);
            for (d, s) in dst.iter_mut().zip(src) {
                *d ^= lo[(*s & 0x0F) as usize] ^ hi[(*s >> 4) as usize];
            }
        }
        Backend::Simd => simd::mul_add_assign(dst, src, c),
    }
}

/// `dst = c · dst` with the default backend.
#[inline]
pub fn mul_assign(dst: &mut [u8], c: u8) {
    mul_assign_with(Backend::default(), dst, c);
}

/// `dst = c · dst` with an explicit backend.
pub fn mul_assign_with(backend: Backend, dst: &mut [u8], c: u8) {
    match c {
        0 => return dst.fill(0),
        1 => return,
        _ => {}
    }
    match backend {
        Backend::Table => {
            let row = &MUL[c as usize];
            for d in dst.iter_mut() {
                *d = row[*d as usize];
            }
        }
        Backend::LogExp => {
            for d in dst.iter_mut() {
                *d = mul_table(c, *d);
            }
        }
        Backend::LoopWide => {
            let mut chunks = dst.chunks_exact_mut(8);
            for dc in &mut chunks {
                let x = u64::from_le_bytes(dc.try_into().unwrap());
                dc.copy_from_slice(&mul_word64(c, x).to_le_bytes());
            }
            for db in chunks.into_remainder() {
                *db = crate::scalar::mul_loop(c, *db);
            }
        }
        Backend::Nibble => {
            let (lo, hi) = nibble_tables(c);
            for d in dst.iter_mut() {
                *d = lo[(*d & 0x0F) as usize] ^ hi[(*d >> 4) as usize];
            }
        }
        Backend::Simd => simd::mul_assign(dst, c),
    }
}

/// `dst = c · src` (overwriting), with the default backend.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn mul_into(dst: &mut [u8], src: &[u8], c: u8) {
    mul_into_with(Backend::default(), dst, src, c);
}

/// `dst = c · src` (overwriting) with an explicit backend.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn mul_into_with(backend: Backend, dst: &mut [u8], src: &[u8], c: u8) {
    assert_eq!(dst.len(), src.len(), "region length mismatch");
    match c {
        0 => return dst.fill(0),
        1 => return dst.copy_from_slice(src),
        _ => {}
    }
    match backend {
        Backend::Simd => simd::mul_into(dst, src, c),
        Backend::LogExp => {
            for (d, s) in dst.iter_mut().zip(src) {
                *d = mul_table(c, *s);
            }
        }
        Backend::LoopWide => {
            let mut d = dst.chunks_exact_mut(8);
            let mut s = src.chunks_exact(8);
            for (dc, sc) in (&mut d).zip(&mut s) {
                let y = u64::from_le_bytes(sc.try_into().unwrap());
                dc.copy_from_slice(&mul_word64(c, y).to_le_bytes());
            }
            for (db, sb) in d.into_remainder().iter_mut().zip(s.remainder()) {
                *db = crate::scalar::mul_loop(c, *sb);
            }
        }
        Backend::Nibble => {
            let (lo, hi) = nibble_tables(c);
            for (d, s) in dst.iter_mut().zip(src) {
                *d = lo[(*s & 0x0F) as usize] ^ hi[(*s >> 4) as usize];
            }
        }
        Backend::Table => {
            let row = &MUL[c as usize];
            for (d, s) in dst.iter_mut().zip(src) {
                *d = row[*s as usize];
            }
        }
    }
}

/// Accumulates `dst ^= Σ coeffs[i] · sources[i]` — one output row of the
/// encoding matrix product (the paper's Eq. 1) — with the default backend.
///
/// # Panics
///
/// Panics if `coeffs` and `sources` differ in length, or any source region's
/// length differs from `dst`'s.
#[inline]
pub fn dot_assign(dst: &mut [u8], sources: &[&[u8]], coeffs: &[u8]) {
    dot_assign_with(Backend::default(), dst, sources, coeffs);
}

/// Accumulates `dst ^= Σ coeffs[i] · sources[i]` with an explicit backend.
///
/// On [`Backend::Simd`] this runs the blocked multi-source kernel
/// ([`crate::simd::dot_assign_with_kernel`]): up to
/// [`crate::simd::DOT_BLOCK`] coefficient rows are folded per pass, keeping
/// their half-byte tables in vector registers and streaming each
/// destination cache line once per block instead of once per source. Scalar
/// backends fall back to a row-at-a-time loop.
///
/// # Panics
///
/// Panics if `coeffs` and `sources` differ in length, or any source region's
/// length differs from `dst`'s.
pub fn dot_assign_with(backend: Backend, dst: &mut [u8], sources: &[&[u8]], coeffs: &[u8]) {
    assert_eq!(sources.len(), coeffs.len(), "coefficient count mismatch");
    match backend {
        Backend::Simd => simd::dot_assign(dst, sources, coeffs),
        _ => {
            for (&src, &c) in sources.iter().zip(coeffs) {
                mul_add_assign_with(backend, dst, src, c);
            }
        }
    }
}

/// Accumulates `outs[t] ^= Σ_i coeffs[t][i] · sources[i]` — the whole
/// encoding matrix product (the paper's Eq. 1 for many coded blocks at
/// once, and stage 2 of its Sec. 5.2 decoder) — with the default backend.
///
/// This is the only multi-output entry point; [`dot_assign`] remains the
/// single-output one.
///
/// # Panics
///
/// As for [`matrix_mul_add_with`].
#[inline]
pub fn matrix_mul_add(outs: &mut [&mut [u8]], sources: &[&[u8]], coeffs: &[&[u8]]) {
    matrix_mul_add_with(Backend::default(), outs, sources, coeffs);
}

/// Accumulates `outs[t] ^= Σ_i coeffs[t][i] · sources[i]` with an explicit
/// backend.
///
/// On [`Backend::Simd`] this runs
/// [`crate::simd::matrix_mul_add_with_kernel`], whose GFNI rung holds a tile
/// of eight outputs in registers so each source line is loaded once per
/// tile instead of once per output. Scalar backends run the outputs one
/// [`dot_assign_with`] at a time.
///
/// # Panics
///
/// Panics if `coeffs` and `outs` differ in length, a coefficient row's
/// length differs from `sources.len()`, or the outputs and sources are not
/// all the same length.
pub fn matrix_mul_add_with(
    backend: Backend,
    outs: &mut [&mut [u8]],
    sources: &[&[u8]],
    coeffs: &[&[u8]],
) {
    match backend {
        Backend::Simd => simd::matrix_mul_add(outs, sources, coeffs),
        _ => {
            assert_eq!(outs.len(), coeffs.len(), "coefficient row count mismatch");
            for (out, row) in outs.iter_mut().zip(coeffs) {
                dot_assign_with(backend, out, sources, row);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::mul_loop;

    fn reference_mul_add(dst: &[u8], src: &[u8], c: u8) -> Vec<u8> {
        dst.iter().zip(src).map(|(&d, &s)| d ^ mul_loop(c, s)).collect()
    }

    #[test]
    fn backends_agree_on_unaligned_lengths() {
        // Lengths chosen to hit both the wide path and the remainder path.
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 130] {
            let src: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let dst0: Vec<u8> = (0..len).map(|i| (i * 91 + 5) as u8).collect();
            for c in [0u8, 1, 2, 0x53, 0x80, 0xFF] {
                let want = reference_mul_add(&dst0, &src, c);
                for backend in Backend::ALL {
                    let mut dst = dst0.clone();
                    mul_add_assign_with(backend, &mut dst, &src, c);
                    assert_eq!(dst, want, "backend {backend:?}, c={c}, len={len}");
                }
            }
        }
    }

    #[test]
    fn mul_assign_backends_agree() {
        let data0: Vec<u8> = (0..100).map(|i| (i * 13 + 7) as u8).collect();
        for c in [0u8, 1, 3, 0x1B, 0xFE] {
            let want: Vec<u8> = data0.iter().map(|&d| mul_loop(c, d)).collect();
            for backend in Backend::ALL {
                let mut data = data0.clone();
                mul_assign_with(backend, &mut data, c);
                assert_eq!(data, want, "backend {backend:?}, c={c}");
            }
        }
    }

    #[test]
    fn add_assign_is_xor() {
        let mut dst: Vec<u8> = (0..33).collect();
        let src: Vec<u8> = (0..33).map(|i| i * 3).collect();
        let want: Vec<u8> = dst.iter().zip(&src).map(|(&d, &s)| d ^ s).collect();
        add_assign(&mut dst, &src);
        assert_eq!(dst, want);
    }

    #[test]
    fn add_assign_backends_agree() {
        for len in [0usize, 1, 7, 8, 9, 31, 32, 33, 130] {
            let dst0: Vec<u8> = (0..len).map(|i| (i * 17 + 3) as u8).collect();
            let src: Vec<u8> = (0..len).map(|i| (i * 41 + 9) as u8).collect();
            let want: Vec<u8> = dst0.iter().zip(&src).map(|(&d, &s)| d ^ s).collect();
            for backend in Backend::ALL {
                let mut dst = dst0.clone();
                add_assign_with(backend, &mut dst, &src);
                assert_eq!(dst, want, "backend {backend:?}, len={len}");
            }
        }
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
    fn mul_into_backends_agree() {
        for len in [0usize, 1, 15, 16, 17, 33, 130] {
            let src: Vec<u8> = (0..len).map(|i| (i * 29 + 3) as u8).collect();
            for c in [0u8, 1, 2, 0x53, 0xFF] {
                let want: Vec<u8> = src.iter().map(|&s| mul_loop(c, s)).collect();
                for backend in Backend::ALL {
                    let mut dst = vec![0xCC; len];
                    mul_into_with(backend, &mut dst, &src, c);
                    assert_eq!(dst, want, "backend {backend:?}, c={c}, len={len}");
                }
            }
        }
    }

    #[test]
    fn dot_assign_backends_agree() {
        // Enough sources to exercise the blocked path plus a remainder, with
        // zero and one coefficients sprinkled in.
        let len = 67usize;
        let sources: Vec<Vec<u8>> =
            (0..7).map(|s| (0..len).map(|i| (i * 7 + s * 13 + 1) as u8).collect()).collect();
        let refs: Vec<&[u8]> = sources.iter().map(|s| s.as_slice()).collect();
        let coeffs = [0x02u8, 0x00, 0x53, 0xFE, 0x01, 0x9A, 0x07];
        let mut want = vec![0x11u8; len];
        for (s, &c) in refs.iter().zip(&coeffs) {
            for (d, &b) in want.iter_mut().zip(*s) {
                *d ^= mul_loop(c, b);
            }
        }
        for backend in Backend::ALL {
            let mut dst = vec![0x11u8; len];
            dot_assign_with(backend, &mut dst, &refs, &coeffs);
            assert_eq!(dst, want, "backend {backend:?}");
        }
    }

    #[test]
    fn detected_backend_is_stable() {
        let first = Backend::detected();
        assert_eq!(Backend::detected(), first);
        assert_eq!(Backend::default(), first);
        assert!(Backend::ALL.contains(&first));
    }

    #[test]
    #[should_panic]
    fn length_mismatch_panics() {
        let mut dst = [0u8; 3];
        mul_add_assign(&mut dst, &[0u8; 4], 5);
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
