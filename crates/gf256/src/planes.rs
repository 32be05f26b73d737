//! Region operations over byte planes: [`crate::region`]'s bodies for a
//! field whose `8·P`-bit symbols are split across `P` byte planes.
//!
//! A shard of `shard_bytes` bytes (a multiple of `P`) holds
//! `shard_bytes / P` symbols; symbol `k` is byte `k` of each of its `P`
//! contiguous planes. The split keeps each plane a byte stream, which is
//! what byte shuffles and `GF2P8AFFINEQB` want (the Leopard /
//! `reed-solomon-simd` layout), and makes a constant a `P × P` grid of 8×8
//! blocks ([`Blocks`]). `nc-fft`'s GF(2^16) is the `P = 2` case: it builds
//! each constant's form from its own field tables and runs it here.
//!
//! A [`Multiplier`] is one constant on one [`Rung`], built once and applied
//! to every region that shares it:
//!
//! ```text
//! mul_add:            x ^= m·y
//! mul_into:           x  = m·y          (x == y is mul_assign, in place)
//! ifft butterflies:   y ^= x;  x ^= m·y
//! fft butterflies:    x ^= m·y;  y ^= x
//! merged butterflies: t = m·(x ^ y);  x ^= t;  y ^= t
//! ```
//!
//! The butterflies are the additive FFT's, fused: one pass over a run of
//! shard pairs loads and stores each vector of `x` and `y` once. Plain
//! `x ^= y` has no planes: it is [`crate::region::add_assign`].

use crate::simd::{self, Rung, FFT, IFFT, MERGED, MUL_ADD, MUL_INTO};

pub use crate::simd::Blocks;

/// Multiplication by one constant over `P` byte planes, on one rung.
#[derive(Clone, Copy, Debug)]
pub struct Multiplier<const P: usize> {
    rung: Rung,
    form: Blocks<P>,
}

impl<const P: usize> Multiplier<P> {
    /// The sum of the constants whose blocks are `parts`, run on `rung`: a
    /// constant assembled from precomputed pieces (`nc-fft` sums the forms
    /// of its four nibbles). Only the form `rung` reads is summed.
    pub fn sum(rung: Rung, parts: &[&Blocks<P>]) -> Multiplier<P> {
        Multiplier { rung, form: Blocks::sum_for(rung, parts) }
    }

    /// `dst ^= m · src` over one shard.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length or the length is not a
    /// multiple of `P`.
    pub fn mul_add(&self, dst: &mut [u8], src: &[u8]) {
        simd::apply_planes::<MUL_ADD, P>(self.rung, &self.form, dst, src);
    }

    /// `dst = m · src` (overwriting) over one shard.
    ///
    /// # Panics
    ///
    /// As [`Multiplier::mul_add`].
    pub fn mul_into(&self, dst: &mut [u8], src: &[u8]) {
        simd::apply_planes::<MUL_INTO, P>(self.rung, &self.form, dst, src);
    }

    /// `dst = m · dst` in place over one shard.
    ///
    /// # Panics
    ///
    /// Panics if the length is not a multiple of `P`.
    pub fn mul_assign(&self, dst: &mut [u8]) {
        simd::apply_planes_in_place(self.rung, &self.form, dst);
    }

    /// The IFFT butterfly `y ^= x; x ^= m·y` over a run of shards: shard
    /// `s` of `x` pairs with shard `s` of `y`.
    ///
    /// # Panics
    ///
    /// Panics if the runs differ in length, `shard_bytes` is not a multiple
    /// of `P`, or it does not divide the run length.
    pub fn ifft_butterflies(&self, x: &mut [u8], y: &mut [u8], shard_bytes: usize) {
        simd::butterflies::<IFFT, P>(self.rung, &self.form, x, y, shard_bytes);
    }

    /// The FFT butterfly `x ^= m·y; y ^= x` over a run of shards.
    ///
    /// # Panics
    ///
    /// As [`Multiplier::ifft_butterflies`].
    pub fn fft_butterflies(&self, x: &mut [u8], y: &mut [u8], shard_bytes: usize) {
        simd::butterflies::<FFT, P>(self.rung, &self.form, x, y, shard_bytes);
    }

    /// An IFFT butterfly with constant `a` followed by an FFT butterfly with
    /// constant `b`, for `m = a ^ b`: `t = m·(x ^ y); x ^= t; y ^= t` over a
    /// run of shards — one multiply and one pass where the two butterflies
    /// take two of each.
    ///
    /// # Panics
    ///
    /// As [`Multiplier::ifft_butterflies`].
    pub fn merged_butterflies(&self, x: &mut [u8], y: &mut [u8], shard_bytes: usize) {
        simd::butterflies::<MERGED, P>(self.rung, &self.form, x, y, shard_bytes);
    }
}
