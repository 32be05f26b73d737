//! The GFNI register tile behind [`crate::region::matrix_mul_add`]: eight
//! output rows accumulate in registers while the sources stream past once,
//! each product one `GF2P8AFFINEQB` of a coefficient's block (Günther et
//! al., *GF Arithmetics for LNC using AVX512*). The 512-bit EVEX tile (the
//! `wide` side of a [`super::Rung`] for `Gfni`: AVX-512F/BW too) masks its
//! last strip; the 256-bit VEX one (GFNI + AVX2) leaves a portable tail.

use super::{byte_block, portable_mul_add};

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

// ---------------------------------------------------------------------------
// Matrix tile: TILE_ROWS outputs accumulate in registers while the sources
// stream past once.
// ---------------------------------------------------------------------------

/// Output rows one register tile accumulates per pass over the sources.
pub(super) const TILE_ROWS: usize = 8;

/// `outs[t] ^= Σ_i coeffs[t][i] · sources[i]` for every full tile of
/// [`TILE_ROWS`] output rows, at the body width `wide` names; returns how
/// many rows were done (the largest multiple of `TILE_ROWS` not above
/// `outs.len()`), leaving the rest to the caller's row-at-a-time path.
///
/// Per tile the coefficients are translated once into `GF2P8AFFINEQB`
/// matrices, tile-major (`mats[i * TILE_ROWS + t]`), so the inner loop
/// broadcasts eight consecutive words — one cache line — per source.
///
/// # Safety
///
/// Host must support GFNI + AVX2, and AVX-512F + AVX-512BW when `wide`;
/// every output and source must have the same length and every coefficient
/// row `sources.len()` entries.
pub(super) unsafe fn matrix_tiles(
    wide: bool,
    outs: &mut [&mut [u8]],
    sources: &[&[u8]],
    coeffs: &[&[u8]],
) -> usize {
    let mut mats = vec![0u64; TILE_ROWS * sources.len()];
    let mut done = 0;
    for (tile, rows) in outs.chunks_exact_mut(TILE_ROWS).zip(coeffs.chunks_exact(TILE_ROWS)) {
        for (t, row) in rows.iter().enumerate() {
            for (i, &c) in row.iter().enumerate() {
                mats[i * TILE_ROWS + t] = byte_block(c).affine[0][0];
            }
        }
        let tile: &mut [&mut [u8]; TILE_ROWS] = tile.try_into().expect("chunks_exact tile");
        if wide {
            // SAFETY: `wide` is the caller's gfni+avx512f+avx512bw
            // guarantee; equal lengths are its contract too, and `mats`
            // holds TILE_ROWS words per source.
            unsafe { tile_512(tile, sources, &mats) }
        } else {
            // SAFETY: the caller's gfni+avx guarantee and length contract
            // are `tile_256`'s.
            let col = unsafe { tile_256(tile, sources, &mats) };
            for (out, row) in tile.iter_mut().zip(rows) {
                for (src, &c) in sources.iter().zip(*row) {
                    portable_mul_add(&mut out[col..], &src[col..], c);
                }
            }
        }
        done += TILE_ROWS;
    }
    done
}

/// One tile on the 512-bit path: a [`TILE_ROWS`] x 128-byte strip lives in
/// 16 accumulator registers while each source contributes its two vectors
/// of the strip exactly once. The last strip (under 128 bytes) runs the
/// same body with `k`-masked accesses.
///
/// # Safety
///
/// Caller must ensure the host supports GFNI + AVX-512F + AVX-512BW, all
/// outputs and sources are equal length, and
/// `mats.len() == TILE_ROWS * sources.len()`.
#[target_feature(enable = "gfni,avx512f,avx512bw")]
unsafe fn tile_512(outs: &mut [&mut [u8]; TILE_ROWS], sources: &[&[u8]], mats: &[u64]) {
    let len = outs[0].len();
    let mut out_ptrs = [std::ptr::null_mut::<u8>(); TILE_ROWS];
    for (p, out) in out_ptrs.iter_mut().zip(outs.iter_mut()) {
        *p = out.as_mut_ptr();
    }
    let mut col = 0;
    while col + 128 <= len {
        // SAFETY: `col + 128 <= len` bounds both full vectors of every
        // output and source; the feature, length, aliasing and `mats`
        // contracts are this function's own.
        unsafe { strip_512::<false>(&out_ptrs, sources, mats, col, [!0, !0]) };
        col += 128;
    }
    let rem = len - col;
    if rem > 0 {
        let k0 = if rem >= 64 { !0 } else { (1u64 << rem) - 1 };
        let k1 = (1u64 << rem.saturating_sub(64)) - 1;
        // SAFETY: `rem < 128`, so the masks select exactly bytes
        // `col..len`; the other contracts are this function's own.
        unsafe { strip_512::<true>(&out_ptrs, sources, mats, col, [k0, k1]) };
    }
}

/// 64 bytes at `p`, or only the lanes `k` selects when `MASKED`.
///
/// # Safety
///
/// Host must support AVX-512F + AVX-512BW; the 64 bytes (the selected lanes
/// when `MASKED`) must be readable.
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn load_512<const MASKED: bool>(p: *const u8, k: __mmask64) -> __m512i {
    // SAFETY: the caller guarantees the accessed lanes are readable.
    unsafe {
        if MASKED {
            _mm512_maskz_loadu_epi8(k, p.cast())
        } else {
            _mm512_loadu_si512(p.cast())
        }
    }
}

/// One 128-byte column strip of a tile: load the 16 accumulators, fold
/// every source in (two per step, so one `VPTERNLOGQ` merges both products
/// into the accumulator), store them back.
///
/// # Safety
///
/// Host must support GFNI + AVX-512F + AVX-512BW. `outs` must point at
/// eight pairwise-disjoint buffers that no source overlaps, each — like
/// every source — valid for bytes `col..col + 128` (or, when `MASKED`, for
/// the lanes `k[0]`/`k[1]` select of the two vectors), and
/// `mats.len() == TILE_ROWS * sources.len()`.
#[inline]
#[target_feature(enable = "gfni,avx512f,avx512bw")]
unsafe fn strip_512<const MASKED: bool>(
    outs: &[*mut u8; TILE_ROWS],
    sources: &[&[u8]],
    mats: &[u64],
    col: usize,
    k: [__mmask64; 2],
) {
    // SAFETY: every access goes through `load_512` or the matching store on
    // bytes the caller guarantees valid (masked-out lanes are never
    // touched, so addresses past them are formed with `wrapping_add`);
    // `mats` is indexed below `TILE_ROWS * sources.len()`.
    unsafe {
        let mut acc = [[_mm512_setzero_si512(); 2]; TILE_ROWS];
        for (acc, out) in acc.iter_mut().zip(outs) {
            let p = out.wrapping_add(col);
            *acc = [load_512::<MASKED>(p, k[0]), load_512::<MASKED>(p.wrapping_add(64), k[1])];
        }
        let mut pairs = sources.chunks_exact(2);
        let mut m = mats.as_ptr();
        for pair in &mut pairs {
            let (p, q) = (pair[0].as_ptr().wrapping_add(col), pair[1].as_ptr().wrapping_add(col));
            let s = [load_512::<MASKED>(p, k[0]), load_512::<MASKED>(p.wrapping_add(64), k[1])];
            let r = [load_512::<MASKED>(q, k[0]), load_512::<MASKED>(q.wrapping_add(64), k[1])];
            for (t, acc) in acc.iter_mut().enumerate() {
                let a = _mm512_set1_epi64(*m.add(t) as i64);
                let b = _mm512_set1_epi64(*m.add(TILE_ROWS + t) as i64);
                for v in 0..2 {
                    acc[v] = _mm512_ternarylogic_epi64::<0x96>(
                        acc[v],
                        _mm512_gf2p8affine_epi64_epi8::<0>(s[v], a),
                        _mm512_gf2p8affine_epi64_epi8::<0>(r[v], b),
                    );
                }
            }
            m = m.add(2 * TILE_ROWS);
        }
        if let [last] = pairs.remainder() {
            let p = last.as_ptr().wrapping_add(col);
            let s = [load_512::<MASKED>(p, k[0]), load_512::<MASKED>(p.wrapping_add(64), k[1])];
            for (t, acc) in acc.iter_mut().enumerate() {
                let a = _mm512_set1_epi64(*m.add(t) as i64);
                for v in 0..2 {
                    acc[v] = _mm512_xor_si512(acc[v], _mm512_gf2p8affine_epi64_epi8::<0>(s[v], a));
                }
            }
        }
        for (acc, out) in acc.iter().zip(outs) {
            let p = out.wrapping_add(col);
            if MASKED {
                _mm512_mask_storeu_epi8(p.cast(), k[0], acc[0]);
                _mm512_mask_storeu_epi8(p.wrapping_add(64).cast(), k[1], acc[1]);
            } else {
                _mm512_storeu_si512(p.cast(), acc[0]);
                _mm512_storeu_si512(p.wrapping_add(64).cast(), acc[1]);
            }
        }
    }
}

/// One tile on the 256-bit VEX path. Sixteen `ymm` registers hold eight
/// accumulators, not sixteen, so the strip is 32 bytes wide; returns the
/// columns processed so the caller finishes the tail portably.
///
/// # Safety
///
/// Caller must ensure the host supports GFNI + AVX, all outputs and sources
/// are equal length, and `mats.len() == TILE_ROWS * sources.len()`.
#[target_feature(enable = "gfni,avx")]
unsafe fn tile_256(outs: &mut [&mut [u8]; TILE_ROWS], sources: &[&[u8]], mats: &[u64]) -> usize {
    let len = outs[0].len();
    let mut col = 0;
    while col + 32 <= len {
        // SAFETY: every access is bounded by `col + 32 <= len`, the length
        // the caller guarantees for all outputs and sources; the eight
        // outputs are distinct `&mut` slices. `mats` has TILE_ROWS words for
        // each source index `i`.
        unsafe {
            let mut acc = [_mm256_setzero_si256(); TILE_ROWS];
            for (acc, out) in acc.iter_mut().zip(outs.iter()) {
                *acc = _mm256_loadu_si256(out.as_ptr().add(col).cast());
            }
            for (i, src) in sources.iter().enumerate() {
                let s = _mm256_loadu_si256(src.as_ptr().add(col).cast());
                let m = mats.as_ptr().add(i * TILE_ROWS);
                for (t, acc) in acc.iter_mut().enumerate() {
                    let a = _mm256_set1_epi64x(*m.add(t) as i64);
                    *acc = _mm256_xor_si256(*acc, _mm256_gf2p8affine_epi64_epi8::<0>(s, a));
                }
            }
            for (acc, out) in acc.iter().zip(outs.iter_mut()) {
                _mm256_storeu_si256(out.as_mut_ptr().add(col).cast(), *acc);
            }
        }
        col += 32;
    }
    col
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::MUL;

    #[test]
    fn both_tile_widths_match_the_mul_table() {
        // A rung has one width per host; call each body the CPU can run
        // directly so the 256-bit tile is covered on AVX-512 parts too.
        let Some(rung) = super::super::Rung::new(super::super::Kernel::Gfni) else {
            println!("SKIPPED: CPU lacks gfni+avx2");
            return;
        };
        let widths: &[bool] = if rung.wide { &[false, true] } else { &[false] };
        for &wide in widths {
            for n in [1usize, 2, 5] {
                for len in [0usize, 31, 32, 33, 127, 128, 129, 300] {
                    let byte = |a: usize, b: usize| (a * 37 + b * 101 + len) as u8;
                    let sources: Vec<Vec<u8>> =
                        (0..n).map(|i| (0..len).map(|j| byte(i, j)).collect()).collect();
                    let coeffs: Vec<Vec<u8>> = (0..TILE_ROWS + 1)
                        .map(|t| (0..n).map(|i| [0, 1, byte(t, i)][(t + i) % 3]).collect())
                        .collect();
                    let mut outs: Vec<Vec<u8>> = (0..TILE_ROWS + 1)
                        .map(|t| (0..len).map(|j| byte(j, t)).collect())
                        .collect();
                    let want: Vec<Vec<u8>> = outs
                        .iter()
                        .zip(&coeffs)
                        .map(|(out, row)| {
                            let fold = |j: usize| {
                                sources.iter().zip(row).fold(out[j], |acc, (src, &c)| {
                                    acc ^ MUL[c as usize][src[j] as usize]
                                })
                            };
                            (0..len).map(fold).collect()
                        })
                        .collect();
                    let mut out_refs: Vec<&mut [u8]> =
                        outs.iter_mut().map(Vec::as_mut_slice).collect();
                    let src_refs: Vec<&[u8]> = sources.iter().map(Vec::as_slice).collect();
                    let coeff_refs: Vec<&[u8]> = coeffs.iter().map(Vec::as_slice).collect();
                    let done =
                        // SAFETY: the rung proves gfni+avx2, and `wide` is tried
                        // only when it is wide; all regions are `len` long and
                        // every coefficient row has `n` entries.
                        unsafe { matrix_tiles(wide, &mut out_refs, &src_refs, &coeff_refs) };
                    assert_eq!(done, TILE_ROWS, "one full tile, one row left over");
                    assert_eq!(outs[..done], want[..done], "wide={wide}, n={n}, len={len}");
                }
            }
        }
    }
}
