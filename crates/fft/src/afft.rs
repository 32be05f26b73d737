//! The LCH additive FFT/IFFT over a contiguous arena of shards, plus the
//! formal derivative — the three transforms the systematic encoder and
//! the erasure decoder are built from.
//!
//! These are *region* transforms: each point of the transform is a whole
//! shard (split-plane GF(2^16) symbols, see [`crate::simd`]), and a
//! radix-2 butterfly is one fused kernel pass over two shards:
//!
//! ```text
//! IFFT_DIT2(x, y, m):  y ^= x;      x ^= m · y
//! FFT_DIT2 (x, y, m):  x ^= m · y;  y ^= x
//! ```
//!
//! with the twist constants `m` read from the skew table in the log
//! domain. A skew entry of [`MODULUS`] is the **zero-multiplier
//! sentinel**: the muladd vanishes and the butterfly degenerates to
//! `y ^= x` (this is the one place that sentinel is interpreted — the
//! region kernels themselves use wrap semantics, see
//! [`Tables::mul_log`]).
//!
//! # Groups
//!
//! Layer `dist` pairs index `i` with `i + dist`; the `dist` butterflies
//! of the *group* starting at `r` (`r` a multiple of `2·dist`) all use
//! `skew[r + dist + skew_delta - 1]`, where `skew_delta` shifts the
//! evaluation points of the whole transform (the encoder evaluates chunk
//! `c` of the data over the coset starting at `m + c·m`). One
//! [`Multiplier`] is built per group and applied to all of its
//! butterflies — never one per butterfly.
//!
//! # Order: depth first, a few layers per pass
//!
//! The groups of a size-`s` transform form a binary tree (the group
//! `(r, s/2)` over two size-`s/2` sub-transforms), and the only ordering
//! constraint is parent after children (IFFT) or parent before children
//! (FFT). The walk is depth first, so every sub-transform — whatever
//! size happens to fit each cache level — runs all of its layers before
//! the next one is touched:
//!
//! * a sub-transform of at most `block` shards runs **layer at a time**,
//!   each group one kernel call over two adjacent runs of `dist` shards;
//! * a larger one splits into up to `2^RADIX_LAYERS` children and runs
//!   the layers above them **a column tile at a time**: column `c` of
//!   every child only ever meets column `c` of the others, so a tile of a
//!   few columns across all children is closed under those layers, and
//!   all of them run on it while it is cache resident.
//!
//! `block` is an argument (a power of two ≥ 2; `block_shards` is what
//! production passes) so tests can force every split; `block >= size`
//! *is* the plain layer-at-a-time transform, and every block size
//! computes the same bytes. At 8192 × 1 KiB the 13 layers cost two
//! passes over the 8 MB set instead of 13.
//!
//! # Skipping
//!
//! A group whose shards lie wholly outside the *live* range is skipped:
//! for the IFFT the live range is the non-zero input prefix
//! `[0, truncated)` (all-zero sub-trees stay zero — the standard LCH
//! truncation that makes encode cost scale with the data, not the
//! transform); for the FFT it is the range of outputs the caller will
//! read (sub-trees that only feed unread outputs are never computed).

use crate::simd::{self, Gf16Kernel, Multiplier};
use crate::tables::{Tables, MODULUS};
use nc_pool::BytesPool;
use std::ops::Range;

/// Bytes of shards the innermost loops keep resident — a layer-at-a-time
/// block, or one column tile of a wider node: two thirds of a 48 KiB
/// first-level data cache, all of a 32 KiB one.
const RESIDENT_BYTES: usize = 32 * 1024;

/// How many layers above its children a node runs per column tile (radix
/// 2^3: seven multipliers and eight runs of shards in flight).
const RADIX_LAYERS: usize = 3;

/// The block size production transforms use for `shard_bytes`-byte
/// shards: the largest power of two (at least 2) whose shards fit
/// `RESIDENT_BYTES`.
pub(crate) fn block_shards(shard_bytes: usize) -> usize {
    let fit = (RESIDENT_BYTES / shard_bytes.max(1)).max(2);
    1 << fit.ilog2()
}

/// Arena shards start on a cache-line boundary, so the 64-byte vector
/// rungs never split a line (shard lengths that are multiples of 128 keep
/// both planes of every shard aligned too).
const ALIGN: usize = 64;

/// The contiguous work set of one transform: `len()` shards of
/// `shard_bytes` bytes each, one after the other in a single pooled
/// buffer.
///
/// One allocation instead of one `Vec` per shard: a group's `dist`
/// butterflies run over two adjacent byte runs, the derivative's XORs are
/// one call each, and the buffer pool shelves one vector.
#[derive(Debug)]
pub struct Arena {
    bytes: Vec<u8>,
    /// Offset of shard 0 in `bytes` (alignment padding).
    start: usize,
    shard_bytes: usize,
}

impl Arena {
    /// An empty arena with room for `shards` shards, its buffer taken from
    /// `pool`. Nothing is zeroed; shards are appended.
    ///
    /// # Panics
    ///
    /// Panics if `shard_bytes` is zero or odd.
    pub fn new(pool: &BytesPool, shards: usize, shard_bytes: usize) -> Arena {
        assert!(shard_bytes != 0 && shard_bytes.is_multiple_of(2), "whole GF(2^16) symbols");
        let mut bytes = pool.take_capacity(shards * shard_bytes + ALIGN - 1);
        let start = bytes.as_ptr().align_offset(ALIGN) % ALIGN;
        bytes.resize(start, 0);
        Arena { bytes, start, shard_bytes }
    }

    /// Hands the buffer back to `pool`.
    pub(crate) fn recycle(self, pool: &BytesPool) {
        pool.recycle(self.bytes);
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        (self.bytes.len() - self.start) / self.shard_bytes
    }

    /// Whether the arena holds no shard.
    pub fn is_empty(&self) -> bool {
        self.bytes.len() == self.start
    }

    /// Drops every shard, keeping the buffer.
    pub(crate) fn clear(&mut self) {
        self.bytes.truncate(self.start);
    }

    /// Appends a copy of `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard` has a different length than the arena's shards.
    pub fn push(&mut self, shard: &[u8]) {
        assert_eq!(shard.len(), self.shard_bytes, "shard length mismatch");
        self.bytes.extend_from_slice(shard);
    }

    /// Appends all-zero shards until the arena holds `count`.
    pub(crate) fn pad_zeroed(&mut self, count: usize) {
        if count > self.len() {
            self.bytes.resize(self.start + count * self.shard_bytes, 0);
        }
    }

    /// Every shard, back to back.
    fn as_bytes(&self) -> &[u8] {
        &self.bytes[self.start..]
    }

    /// Shard `i`.
    pub fn shard(&self, i: usize) -> &[u8] {
        &self.as_bytes()[i * self.shard_bytes..][..self.shard_bytes]
    }

    /// Shard `i`, mutably.
    pub(crate) fn shard_mut(&mut self, i: usize) -> &mut [u8] {
        &mut self.bytes[self.start + i * self.shard_bytes..][..self.shard_bytes]
    }

    /// `self[i] ^= other[i]` for every shard.
    ///
    /// # Panics
    ///
    /// Panics if the arenas differ in size.
    pub(crate) fn xor_assign(&mut self, other: &Arena) {
        simd::xor_assign(&mut self.bytes[self.start..], other.as_bytes());
    }

    /// The disjoint runs of `count` shards from `x0` and from `y0`
    /// (`x0 + count <= y0`).
    fn runs_mut(&mut self, x0: usize, y0: usize, count: usize) -> (&mut [u8], &mut [u8]) {
        let run = count * self.shard_bytes;
        let (head, tail) = self.bytes[self.start..].split_at_mut(y0 * self.shard_bytes);
        (&mut head[x0 * self.shard_bytes..][..run], &mut tail[..run])
    }
}

/// What one transform's walk carries down the group tree.
struct Walk<'a> {
    t: &'a Tables,
    kernel: Gf16Kernel,
    skew_delta: usize,
    block: usize,
    /// Groups wholly outside this shard range are skipped.
    live: Range<usize>,
    /// IFFT (children before parents, `y ^= x; x ^= m·y`) or FFT.
    inverse: bool,
}

impl Walk<'_> {
    fn touches(&self, lo: usize, size: usize) -> bool {
        lo < self.live.end && lo + size > self.live.start
    }

    /// The shared multiplier of group `(r, dist)`, `None` for the
    /// zero-multiplier sentinel.
    fn multiplier(&self, r: usize, dist: usize) -> Option<Multiplier> {
        let log_m = self.t.skew[r + dist + self.skew_delta - 1];
        (log_m != MODULUS).then(|| Multiplier::new(self.kernel, self.t, log_m))
    }

    /// Butterflies `count` shards from `x0` against `count` from `y0`.
    fn butterflies(
        &self,
        work: &mut Arena,
        x0: usize,
        y0: usize,
        count: usize,
        multiplier: &Option<Multiplier>,
    ) {
        let shard_bytes = work.shard_bytes;
        let (x, y) = work.runs_mut(x0, y0, count);
        match multiplier {
            Some(m) if self.inverse => m.ifft_butterflies(x, y, shard_bytes),
            Some(m) => m.fft_butterflies(x, y, shard_bytes),
            None => simd::xor_assign(y, x),
        }
    }

    /// The sub-transform over `[lo, lo + size)`.
    fn transform(&self, work: &mut Arena, lo: usize, size: usize) {
        if !self.touches(lo, size) {
            return;
        }
        if size <= self.block {
            // Layer at a time: ascending distances for the IFFT,
            // descending for the FFT; a group is one contiguous call.
            let layers = size.ilog2();
            for step in 0..layers {
                let dist = 1 << if self.inverse { step } else { layers - 1 - step };
                for r in (lo..lo + size).step_by(2 * dist) {
                    if self.touches(r, 2 * dist) {
                        self.butterflies(work, r, r + dist, dist, &self.multiplier(r, dist));
                    }
                }
            }
            return;
        }
        let child = (size >> RADIX_LAYERS).max(self.block);
        if !self.inverse {
            self.upper_layers(work, lo, size, child);
        }
        for sub in (lo..lo + size).step_by(child) {
            self.transform(work, sub, child);
        }
        if self.inverse {
            self.upper_layers(work, lo, size, child);
        }
    }

    /// The layers `dist = child, 2·child, …, size / 2` of the
    /// sub-transform over `[lo, lo + size)` (at most [`RADIX_LAYERS`] of
    /// them), all of them on one tile of columns before the next tile is
    /// touched: column `c` of every size-`child` sub-block only ever
    /// meets column `c` of the others, so a tile of a few columns across
    /// the `size / child` sub-blocks is closed under these layers and
    /// small enough to stay in the first-level cache while they run.
    fn upper_layers(&self, work: &mut Arena, lo: usize, size: usize, child: usize) {
        let kids = size / child;
        let layers = kids.ilog2() as usize;
        // Layer l has `kids >> (l + 1)` groups, stored from `kids - (kids >> l)`.
        let mut multipliers: [Option<Multiplier>; (1 << RADIX_LAYERS) - 1] = Default::default();
        for l in 0..layers {
            for g in 0..kids >> (l + 1) {
                let (r, dist) = (lo + g * (child << (l + 1)), child << l);
                if self.touches(r, 2 * dist) {
                    multipliers[kids - (kids >> l) + g] = self.multiplier(r, dist);
                }
            }
        }
        let fit = (RESIDENT_BYTES / (kids * work.shard_bytes)).clamp(1, child);
        let columns = 1 << fit.ilog2();
        for first in (0..child).step_by(columns) {
            for step in 0..layers {
                let l = if self.inverse { step } else { layers - 1 - step };
                let dist = child << l;
                for g in 0..kids >> (l + 1) {
                    let r = lo + g * 2 * dist;
                    if !self.touches(r, 2 * dist) {
                        continue;
                    }
                    let multiplier = &multipliers[kids - (kids >> l) + g];
                    for x0 in (r + first..r + dist).step_by(child) {
                        self.butterflies(work, x0, x0 + dist, columns, multiplier);
                    }
                }
            }
        }
    }
}

fn check(work: &Arena, size: usize, block: usize) {
    assert!(size.is_power_of_two() && size <= work.len(), "transform size");
    assert!(block.is_power_of_two() && block >= 2, "block size");
}

/// In-place additive IFFT of `work[..size]` (time → "novel basis"
/// coefficients) on `kernel`. `size` must be a power of two; shards from
/// index `truncated` on must be zero (their groups are skipped);
/// `skew_delta` selects the evaluation coset; `block` is the sub-transform
/// size walked layer at a time (see the module docs).
///
/// # Panics
///
/// Panics if `size` or `block` is not a power of two, `block < 2`, or the
/// arena holds fewer than `size` shards.
pub fn ifft(
    t: &Tables,
    kernel: Gf16Kernel,
    work: &mut Arena,
    size: usize,
    truncated: usize,
    skew_delta: usize,
    block: usize,
) {
    check(work, size, block);
    Walk { t, kernel, skew_delta, block, live: 0..truncated, inverse: true }
        .transform(work, 0, size);
}

/// In-place additive FFT of `work[..size]` (coefficients → evaluations)
/// on `kernel`; the inverse of [`ifft`] for matching `size` and
/// `skew_delta`. Only the shards in `outputs` are guaranteed to hold
/// evaluations afterwards: groups that feed no output in that range are
/// skipped, and the shards they would have written hold intermediate
/// values.
///
/// # Panics
///
/// As [`ifft`].
pub fn fft(
    t: &Tables,
    kernel: Gf16Kernel,
    work: &mut Arena,
    size: usize,
    outputs: Range<usize>,
    skew_delta: usize,
    block: usize,
) {
    check(work, size, block);
    Walk { t, kernel, skew_delta, block, live: outputs, inverse: false }.transform(work, 0, size);
}

/// In-place formal derivative of the polynomial whose novel-basis
/// coefficients are `work[..size]` — the step that turns the decoder's
/// product polynomial into one revealing the erased values (Lin–Chung–Han
/// erasure decoding): `out[p] = in[p] ^ XOR in[p | 1 << b]` over the zero
/// bits `b < log2(size)` of `p`.
///
/// Every term reads an *input* shard at a higher index than the one it
/// is folded into, so blocks of `block` shards are finished one at a time
/// in ascending order: first the folds inside the block (step `i` folds
/// the run `[i, i + w)` into `[i - w, i)`, `w` the lowest set bit of `i`
/// — the in-order walk of the block's tree), then one fold from each
/// later block that differs in a single zero bit, all still untouched.
/// A block is written once, while it is cache resident; the plain
/// `1..size` loop (`block >= size`) re-writes the low half of the set
/// once per layer.
///
/// # Panics
///
/// Panics if `size` or `block` is not a power of two, `block < 2`, or the
/// arena holds fewer than `size` shards.
pub fn formal_derivative(work: &mut Arena, size: usize, block: usize) {
    check(work, size, block);
    let block = block.min(size);
    for lo in (0..size).step_by(block) {
        for i in 1..block {
            let width = 1 << i.trailing_zeros();
            let (x, y) = work.runs_mut(lo + i - width, lo + i, width);
            simd::xor_assign(x, y);
        }
        let mut bit = block;
        while bit < size {
            if lo & bit == 0 {
                let (x, y) = work.runs_mut(lo, lo + bit, block);
                simd::xor_assign(x, y);
            }
            bit <<= 1;
        }
    }
}

#[cfg(all(test, not(nc_check)))]
mod tests {
    use super::*;
    use crate::tables::tables;

    fn arena(count: usize, bytes: usize, seed: u64) -> Arena {
        // Simple deterministic fill; xorshift so every shard differs.
        let mut state = seed | 1;
        let mut work = Arena::new(BytesPool::global(), count, bytes);
        for _ in 0..count {
            let shard: Vec<u8> = (0..bytes)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state as u8
                })
                .collect();
            work.push(&shard);
        }
        work
    }

    #[test]
    fn fft_inverts_ifft_at_every_delta_and_block() {
        let t = tables();
        let kernel = simd::active_kernel();
        for size in [2usize, 4, 16, 64] {
            for delta in [0usize, size, 4 * size] {
                for block in [2usize, 8, 64] {
                    let original = arena(size, 34, 0x5EED ^ size as u64);
                    let mut work = arena(size, 34, 0x5EED ^ size as u64);
                    ifft(&t, kernel, &mut work, size, size, delta, block);
                    assert_ne!(work.as_bytes(), original.as_bytes(), "transform must do something");
                    fft(&t, kernel, &mut work, size, 0..size, delta, block);
                    assert_eq!(work.as_bytes(), original.as_bytes(), "size {size}, delta {delta}");
                }
            }
        }
    }

    #[test]
    fn truncated_ifft_matches_zero_padded_full_ifft() {
        let t = tables();
        let kernel = simd::active_kernel();
        let size = 32;
        let keep = 9; // non-power-of-two prefix
        for block in [2usize, 4, 32] {
            let mut padded = arena(keep, 66, 77);
            padded.pad_zeroed(size);
            let mut truncated = arena(keep, 66, 77);
            truncated.pad_zeroed(size);
            ifft(&t, kernel, &mut padded, size, size, size, block);
            ifft(&t, kernel, &mut truncated, size, keep, size, block);
            assert_eq!(padded.as_bytes(), truncated.as_bytes());
        }
    }

    #[test]
    fn formal_derivative_of_constant_is_zero() {
        // In the novel basis, coefficient 0 is the constant term; the
        // derivative of a constant polynomial has no terms at all.
        let size = 16;
        let mut work = Arena::new(BytesPool::global(), size, 10);
        work.push(&[0xAB; 10]);
        work.pad_zeroed(size);
        formal_derivative(&mut work, size, 4);
        // Every XOR source above index 0 is zero: the constant term stays,
        // no derivative term appears.
        assert_eq!(work.shard(0), [0xAB; 10]);
        assert!(work.as_bytes()[10..].iter().all(|&b| b == 0));
    }

    #[test]
    fn block_shards_is_a_power_of_two_that_fits() {
        for shard_bytes in [2usize, 64, 1000, 1024, 4096, 1 << 20] {
            let block = block_shards(shard_bytes);
            assert!(block.is_power_of_two() && block >= 2);
            assert!(block == 2 || block * shard_bytes <= RESIDENT_BYTES);
        }
    }
}
