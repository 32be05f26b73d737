//! The LCH additive FFT/IFFT over a contiguous arena of shards, plus the
//! derivative fold — the transforms the systematic encoder and the
//! erasure decoder are built from.
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
//! A transform runs over a power-of-two run of arena shards
//! `[lo, lo + size)`. Layer `dist` pairs index `i` with `i + dist`; the
//! `dist` butterflies of the *group* starting at `r` (`r - lo` a multiple
//! of `2·dist`) all use `skew[r - lo + dist + skew_delta - 1]`, where
//! `skew_delta` shifts the evaluation points of the whole transform (the
//! encoder evaluates chunk `c` of the data over the coset starting at
//! `m + c·m`). One [`Multiplier`] is built per group and applied to all
//! of its butterflies — never one per butterfly.
//!
//! The *top group* `(lo, size/2)` of a transform at `skew_delta = 0`
//! uses `skew[size/2 - 1]` whether it is an IFFT's or an FFT's, and its
//! two halves are the size-`size/2` transforms at `skew_delta` 0 and
//! `size/2`. That is what lets the codec peel the top layer off:
//!
//! * the encoder's IFFT (coset `m + c·m`) is followed by the FFT's top
//!   group (coset 0). An IFFT butterfly with `a` then an FFT butterfly
//!   with `b` is `t = (a ^ b)·(x ^ y); x ^= t; y ^= t`, so
//!   [`Transforms::ifft_merging_fft_top`] runs the two as one group,
//!   one multiply per pair in the IFFT's last column-tile pass, and the
//!   FFT runs as its two halves;
//! * the decoder's IFFT top, formal derivative and FFT top (all at
//!   `skew_delta = 0`) collapse to one fold: with `l`, `u` the outputs of
//!   the two half IFFTs, the two half FFTs take `u ^ S(l)` (lower points)
//!   and `l ^ S(u)` (upper points), where `S(v)[p]` is the XOR of
//!   `v[p + 2^b]` over the zero bits `b` of `p` — the derivative's shift
//!   terms at half size ([`fold_shifts`]). `S(S(v)) = 0` (the shifts
//!   commute and each squares to zero), so both folds can run in place
//!   one after the other: folding `S(l)` into `u` first leaves `S` of
//!   the upper storage unchanged.
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
//! `[lo, truncated)` (all-zero sub-trees stay zero — the standard LCH
//! truncation that makes encode cost scale with the data, not the
//! transform); for the FFT it is the range of outputs the caller will
//! read (sub-trees that only feed unread outputs are never computed).

use crate::simd::{self, Multiplier};
use crate::tables::{Tables, MODULUS};
use nc_pool::BytesPool;
use nc_rlnc::gf256::{region, simd::Rung};
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
/// butterflies run over two adjacent byte runs, the fold's XORs are one
/// call each, and the buffer pool shelves one vector.
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
        region::add_assign(&mut self.bytes[self.start..], other.as_bytes());
    }

    /// The disjoint runs of `count` shards from `x0` and from `y0`
    /// (`x0 + count <= y0`).
    fn runs_mut(&mut self, x0: usize, y0: usize, count: usize) -> (&mut [u8], &mut [u8]) {
        let run = count * self.shard_bytes;
        let (head, tail) = self.bytes[self.start..].split_at_mut(y0 * self.shard_bytes);
        (&mut head[x0 * self.shard_bytes..][..run], &mut tail[..run])
    }

    /// `self[into + i] ^= self[from + i]` for the `count` shards of two
    /// disjoint runs, in either order.
    fn xor_run(&mut self, into: usize, from: usize, count: usize) {
        if into < from {
            let (x, y) = self.runs_mut(into, from, count);
            region::add_assign(x, y);
        } else {
            let (y, x) = self.runs_mut(from, into, count);
            region::add_assign(x, y);
        }
    }
}

/// What every transform of one codec call shares: the field tables, the
/// GF rung and the block size walked layer at a time (see the module
/// docs).
pub struct Transforms<'a> {
    t: &'a Tables,
    rung: Rung,
    block: usize,
}

impl<'a> Transforms<'a> {
    /// Transforms on `rung` that walk sub-transforms of at most `block`
    /// shards layer at a time.
    ///
    /// # Panics
    ///
    /// Panics if `block` is not a power of two of at least 2.
    pub fn new(t: &'a Tables, rung: Rung, block: usize) -> Transforms<'a> {
        assert!(block.is_power_of_two() && block >= 2, "block size");
        Transforms { t, rung, block }
    }

    /// In-place additive IFFT of `work[shards]` (time → "novel basis"
    /// coefficients). The run's length must be a power of two; shards
    /// from arena index `truncated` on must be zero (their groups are
    /// skipped); `skew_delta` selects the evaluation coset.
    ///
    /// # Panics
    ///
    /// Panics if the run's length is not a power of two or the run ends
    /// past the arena.
    pub fn ifft(
        &self,
        work: &mut Arena,
        shards: Range<usize>,
        truncated: usize,
        skew_delta: usize,
    ) {
        self.walk(work, &shards, skew_delta, shards.start..truncated, true, None);
    }

    /// [`Transforms::ifft`] followed by the top group of the FFT over the
    /// same shards at `fft_skew_delta`, the two top groups run as one
    /// merged butterfly per pair (see the module docs). What is left of
    /// that FFT is its two halves.
    ///
    /// # Panics
    ///
    /// As [`Transforms::ifft`].
    pub fn ifft_merging_fft_top(
        &self,
        work: &mut Arena,
        shards: Range<usize>,
        truncated: usize,
        skew_delta: usize,
        fft_skew_delta: usize,
    ) {
        // A one-shard transform has no top group.
        let fft_top =
            (shards.len() > 1).then(|| self.t.skew[shards.len() / 2 + fft_skew_delta - 1]);
        self.walk(work, &shards, skew_delta, shards.start..truncated, true, fft_top);
    }

    /// In-place additive FFT of `work[shards]` (coefficients →
    /// evaluations); the inverse of [`Transforms::ifft`] for matching
    /// shards and `skew_delta`. Only the arena shards in `outputs` are
    /// guaranteed to hold evaluations afterwards: groups that feed no
    /// output in that range are skipped, and the shards they would have
    /// written hold intermediate values.
    ///
    /// # Panics
    ///
    /// As [`Transforms::ifft`].
    pub fn fft(
        &self,
        work: &mut Arena,
        shards: Range<usize>,
        outputs: Range<usize>,
        skew_delta: usize,
    ) {
        self.walk(work, &shards, skew_delta, outputs, false, None);
    }

    fn walk(
        &self,
        work: &mut Arena,
        shards: &Range<usize>,
        skew_delta: usize,
        live: Range<usize>,
        inverse: bool,
        merge: Option<u16>,
    ) {
        let size = shards.len();
        assert!(size.is_power_of_two() && shards.end <= work.len(), "transform shards");
        let walk = Walk { tf: self, origin: shards.start, size, skew_delta, live, inverse, merge };
        walk.transform(work, shards.start, size);
    }
}

/// What one group does to each of its pairs `(x, y)`.
#[derive(Default)]
enum Butterfly {
    /// A skipped group, or a merged top whose two constants cancel.
    #[default]
    Identity,
    /// The zero-multiplier sentinel: `y ^= x`.
    Xor,
    Ifft(Multiplier),
    Fft(Multiplier),
    /// An IFFT top merged with an FFT top, see
    /// [`Multiplier::merged_butterflies`].
    Merged(Multiplier),
}

/// What one transform's walk carries down the group tree.
struct Walk<'a> {
    tf: &'a Transforms<'a>,
    /// Arena index of the transform's shard 0.
    origin: usize,
    size: usize,
    skew_delta: usize,
    /// Groups wholly outside this shard range are skipped.
    live: Range<usize>,
    /// IFFT (children before parents, `y ^= x; x ^= m·y`) or FFT.
    inverse: bool,
    /// The skew (log domain) of an FFT top group merged into this IFFT's
    /// top group.
    merge: Option<u16>,
}

impl Walk<'_> {
    fn touches(&self, lo: usize, size: usize) -> bool {
        lo < self.live.end && lo + size > self.live.start
    }

    /// The butterfly of group `(r, dist)`: one shared multiplier.
    fn group(&self, r: usize, dist: usize) -> Butterfly {
        let t = self.tf.t;
        let log_m = t.skew[r - self.origin + dist + self.skew_delta - 1];
        let multiplier = |log_m| simd::multiplier(self.tf.rung, t, log_m);
        match self.merge {
            Some(fft_top) if 2 * dist == self.size => {
                let element = |log: u16| if log == MODULUS { 0 } else { t.exp[usize::from(log)] };
                match t.log[usize::from(element(log_m) ^ element(fft_top))] {
                    MODULUS => Butterfly::Identity,
                    sum => Butterfly::Merged(multiplier(sum)),
                }
            }
            _ if log_m == MODULUS => Butterfly::Xor,
            _ if self.inverse => Butterfly::Ifft(multiplier(log_m)),
            _ => Butterfly::Fft(multiplier(log_m)),
        }
    }

    /// Butterflies `count` shards from `x0` against `count` from `y0`.
    fn butterflies(&self, work: &mut Arena, x0: usize, y0: usize, count: usize, op: &Butterfly) {
        let shard_bytes = work.shard_bytes;
        let (x, y) = work.runs_mut(x0, y0, count);
        match op {
            Butterfly::Identity => {}
            Butterfly::Xor => region::add_assign_on(self.tf.rung, y, x),
            Butterfly::Ifft(m) => m.ifft_butterflies(x, y, shard_bytes),
            Butterfly::Fft(m) => m.fft_butterflies(x, y, shard_bytes),
            Butterfly::Merged(m) => m.merged_butterflies(x, y, shard_bytes),
        }
    }

    /// The sub-transform over `[lo, lo + size)`.
    fn transform(&self, work: &mut Arena, lo: usize, size: usize) {
        if !self.touches(lo, size) {
            return;
        }
        let block = self.tf.block;
        if size <= block {
            // Layer at a time: ascending distances for the IFFT,
            // descending for the FFT; a group is one contiguous call.
            let layers = size.ilog2();
            for step in 0..layers {
                let dist = 1 << if self.inverse { step } else { layers - 1 - step };
                for r in (lo..lo + size).step_by(2 * dist) {
                    if self.touches(r, 2 * dist) {
                        self.butterflies(work, r, r + dist, dist, &self.group(r, dist));
                    }
                }
            }
            return;
        }
        let child = (size >> RADIX_LAYERS).max(block);
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
        let mut groups: [Butterfly; (1 << RADIX_LAYERS) - 1] = Default::default();
        for l in 0..layers {
            for g in 0..kids >> (l + 1) {
                let (r, dist) = (lo + g * (child << (l + 1)), child << l);
                if self.touches(r, 2 * dist) {
                    groups[kids - (kids >> l) + g] = self.group(r, dist);
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
                    let op = &groups[kids - (kids >> l) + g];
                    for x0 in (r + first..r + dist).step_by(child) {
                        self.butterflies(work, x0, x0 + dist, columns, op);
                    }
                }
            }
        }
    }
}

/// `work[into + p] ^= S(work[from..from + size])[p]` for every `p <
/// size`, where `S(v)[p]` is the XOR of `v[p + 2^b]` over the zero bits
/// `b < log2(size)` of `p` — the shift terms of the formal derivative
/// of a polynomial whose novel-basis coefficients are `v` (the
/// derivative is `v ^ S(v)`), which is how the decoder folds the
/// derivative across the two halves of its transform (see the module
/// docs). The two runs must not overlap.
///
/// The target is finished a block of `block` shards at a time, in one
/// visit while it is cache resident: first the terms inside the block
/// (step `i` folds the source run `[i, i + w)` onto the target run
/// `[i - w, i)`, `w` the lowest set bit of `i`), then one term from each
/// later source block that differs in a single zero bit.
///
/// # Panics
///
/// Panics if `size` or `block` is not a power of two, `block < 2`, the
/// runs overlap, or either ends past the arena.
pub fn fold_shifts(work: &mut Arena, from: usize, into: usize, size: usize, block: usize) {
    assert!(size.is_power_of_two() && from.max(into) + size <= work.len(), "fold size");
    assert!(from + size <= into || into + size <= from, "fold runs overlap");
    assert!(block.is_power_of_two() && block >= 2, "block size");
    let block = block.min(size);
    for lo in (0..size).step_by(block) {
        for i in 1..block {
            let width = 1 << i.trailing_zeros();
            work.xor_run(into + lo + i - width, from + lo + i, width);
        }
        let mut bit = block;
        while bit < size {
            if lo & bit == 0 {
                work.xor_run(into + lo, from + lo + bit, block);
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
        for size in [2usize, 4, 16, 64] {
            for delta in [0usize, size, 4 * size] {
                for block in [2usize, 8, 64] {
                    let tf = Transforms::new(&t, Rung::active(), block);
                    let original = arena(size, 34, 0x5EED ^ size as u64);
                    let mut work = arena(size, 34, 0x5EED ^ size as u64);
                    tf.ifft(&mut work, 0..size, size, delta);
                    assert_ne!(work.as_bytes(), original.as_bytes(), "transform must do something");
                    tf.fft(&mut work, 0..size, 0..size, delta);
                    assert_eq!(work.as_bytes(), original.as_bytes(), "size {size}, delta {delta}");
                }
            }
        }
    }

    #[test]
    fn truncated_ifft_matches_zero_padded_full_ifft() {
        let t = tables();
        let size = 32;
        let keep = 9; // non-power-of-two prefix
        for block in [2usize, 4, 32] {
            let tf = Transforms::new(&t, Rung::active(), block);
            let mut padded = arena(keep, 66, 77);
            padded.pad_zeroed(size);
            let mut truncated = arena(keep, 66, 77);
            truncated.pad_zeroed(size);
            tf.ifft(&mut padded, 0..size, size, size);
            tf.ifft(&mut truncated, 0..size, keep, size);
            assert_eq!(padded.as_bytes(), truncated.as_bytes());
        }
    }

    #[test]
    fn fold_of_a_constant_adds_nothing() {
        // In the novel basis, coefficient 0 is the constant term; the
        // derivative of a constant polynomial has no terms at all, and
        // every shift term reads a source shard above index 0.
        let size = 16;
        let mut work = Arena::new(BytesPool::global(), 2 * size, 10);
        work.push(&[0xAB; 10]);
        work.pad_zeroed(2 * size);
        fold_shifts(&mut work, 0, size, size, 4);
        assert_eq!(work.shard(0), [0xAB; 10]);
        assert!(work.as_bytes()[10..].iter().all(|&b| b == 0));
    }

    #[test]
    fn folding_twice_cancels() {
        // S(S(v)) = 0: the decoder folds both halves in place, one after
        // the other, on this identity.
        for (size, block) in [(2usize, 2usize), (16, 4), (64, 8), (64, 64)] {
            let mut work = arena(size, 6, size as u64);
            work.pad_zeroed(3 * size);
            fold_shifts(&mut work, 0, size, size, block);
            fold_shifts(&mut work, size, 2 * size, size, block);
            assert!(work.as_bytes()[2 * size * 6..].iter().all(|&b| b == 0), "size {size}");
        }
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
