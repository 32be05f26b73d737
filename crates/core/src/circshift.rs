//! Multiplication-free erasure coding by byte-wise circular shift and
//! wrapping integer addition (Shum & Hou, *Network Coding Based on
//! Byte-wise Circular Shift and Integer Addition*).
//!
//! Every other backend in this workspace bottoms out in GF(2^8) region
//! multiplication — `PSHUFB` nibble shuffles, `GF2P8MULB`, or table rows.
//! This codec removes the multiplier entirely: packets are elements of the
//! ring **R = Z₂₅₆\[z\]/(z^L − 1)** with `L` an odd prime, where
//! multiplying by `z^s` is a byte-wise rotation by `s` and ring addition is
//! lane-wise `u8` wrapping addition. Both map to plain word ops
//! (`memcpy`-like span moves plus SWAR adds over `u64` words) that every
//! CPU executes at full store bandwidth with no tables, shuffles, or ISA
//! extensions.
//!
//! # Construction
//!
//! A source block of `k` bytes is **lifted** to `L` bytes
//! (`L` = the smallest odd prime ≥ max(k + 1, n)): the data, zero padding,
//! and one final parity byte chosen so the byte-sum is ≡ 0 (mod 256). The
//! zero-sum vectors form the ideal **M ⊂ R** on which `(z^d − 1)` is
//! invertible for every `d ≢ 0 (mod L)` — exactly the divisions decoding
//! needs. The lift costs `L − k` bytes of overhead per block
//! (3 bytes ≈ 0.07 % at the paper's k = 4096, where L = 4099).
//!
//! The coded packet for evaluation point `a ∈ {0, …, L−1}` is the
//! Vandermonde combination
//!
//! ```text
//! P(a) = Σᵢ z^{a·i} · mᵢ      (one rotate-add per source block)
//! ```
//!
//! so any `n` packets with **distinct** points form a Vandermonde system in
//! `x_j = z^{a_j}`, solved by the Björck–Pereyra recurrences using only
//! ring subtraction, rotation, and division by
//! `x_j − x_t = z^{a_t}(z^d − 1)`: the `(z^d − 1)` factor falls to an O(L)
//! cycle recurrence (`gcd(d, L) = 1` because `L` is prime), the free
//! additive constant is fixed by the zero-sum invariant (`L` odd makes `L`
//! invertible mod 256), and the `z^{a_t}` factor is undone by a rotation.
//!
//! Because every lifted block is zero-sum and the invariant is linear, all
//! coded packets are zero-sum too — a free integrity check applied to every
//! absorbed frame.
//!
//! # Wire format
//!
//! One frame is `[segment u32le][point u16le][magic u16le]` + `L` payload
//! bytes; deterministic like the FFT codec, the sender walks the point
//! space from the frame sequence number and the receiver deduplicates
//! points, completing a segment at `n` distinct ones.

use crate::codec::{Absorbed, CodecId, ErasureCodec, StreamCodecReceiver, StreamCodecSender};
use crate::error::Error;
use crate::segment::{segment_stream, CodingConfig};
use rand::RngCore;
use std::sync::Arc;

/// Frame magic distinguishing circular-shift frames from stray datagrams.
const MAGIC: u16 = 0xC51F;

/// Frame header bytes: segment (4) + point (2) + magic (2).
const HEADER_BYTES: usize = 8;

// ---------------------------------------------------------------------------
// SWAR byte lanes: wrapping add/sub over u64 words.
// ---------------------------------------------------------------------------

const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
const HIGH: u64 = 0x8080_8080_8080_8080;

/// Lane-wise `u8` wrapping addition across a `u64` word: add the low 7
/// bits carrylessly across lanes, then patch bit 7 of each lane with the
/// XOR identity (bit 7 has no lane to carry into).
#[inline]
fn swar_add(x: u64, y: u64) -> u64 {
    ((x & LOW7) + (y & LOW7)) ^ ((x ^ y) & HIGH)
}

/// Lane-wise `u8` wrapping subtraction: bias every lane's bit 7 so the low
/// 7-bit difference can never borrow across lanes, then reconstruct the
/// true bit 7 as `x₇ ⊕ y₇ ⊕ borrow₇`.
#[inline]
fn swar_sub(x: u64, y: u64) -> u64 {
    let z = (x | HIGH).wrapping_sub(y & LOW7);
    (z & LOW7) | ((x ^ y ^ z ^ HIGH) & HIGH)
}

/// `dst[i] = dst[i].wrapping_add(src[i])` over word-sized chunks.
#[inline]
fn span_add(dst: &mut [u8], src: &[u8]) {
    debug_assert_eq!(dst.len(), src.len());
    let mut d = dst.chunks_exact_mut(8);
    let mut s = src.chunks_exact(8);
    for (dc, sc) in (&mut d).zip(&mut s) {
        let x = u64::from_le_bytes(dc.try_into().unwrap());
        let y = u64::from_le_bytes(sc.try_into().unwrap());
        dc.copy_from_slice(&swar_add(x, y).to_le_bytes());
    }
    for (db, sb) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *db = db.wrapping_add(*sb);
    }
}

/// `dst[i] = dst[i].wrapping_sub(src[i])` over word-sized chunks.
#[inline]
fn span_sub(dst: &mut [u8], src: &[u8]) {
    debug_assert_eq!(dst.len(), src.len());
    let mut d = dst.chunks_exact_mut(8);
    let mut s = src.chunks_exact(8);
    for (dc, sc) in (&mut d).zip(&mut s) {
        let x = u64::from_le_bytes(dc.try_into().unwrap());
        let y = u64::from_le_bytes(sc.try_into().unwrap());
        dc.copy_from_slice(&swar_sub(x, y).to_le_bytes());
    }
    for (db, sb) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *db = db.wrapping_sub(*sb);
    }
}

// ---------------------------------------------------------------------------
// Ring operations: z^s is "rotate by s", addition is wrapping-add.
// ---------------------------------------------------------------------------

/// `dst += z^s · src`, i.e. `dst[(j + s) mod L] += src[j]` — the codec's
/// entire hot path, two contiguous SWAR add spans.
pub fn rotate_add(dst: &mut [u8], src: &[u8], s: usize) {
    let ell = dst.len();
    debug_assert_eq!(src.len(), ell);
    let s = s % ell;
    if s == 0 {
        return span_add(dst, src);
    }
    let (d_lo, d_hi) = dst.split_at_mut(s);
    span_add(d_hi, &src[..ell - s]);
    span_add(d_lo, &src[ell - s..]);
}

/// `dst -= z^s · src`, i.e. `dst[(j + s) mod L] -= src[j]`.
fn rotate_sub(dst: &mut [u8], src: &[u8], s: usize) {
    let ell = dst.len();
    debug_assert_eq!(src.len(), ell);
    let s = s % ell;
    if s == 0 {
        return span_sub(dst, src);
    }
    let (d_lo, d_hi) = dst.split_at_mut(s);
    span_sub(d_hi, &src[..ell - s]);
    span_sub(d_lo, &src[ell - s..]);
}

/// `dst = z^s · src` (overwrite): two `copy_from_slice` spans.
fn rotate_into(dst: &mut [u8], src: &[u8], s: usize) {
    let ell = dst.len();
    debug_assert_eq!(src.len(), ell);
    let s = s % ell;
    dst[s..].copy_from_slice(&src[..ell - s]);
    dst[..s].copy_from_slice(&src[ell - s..]);
}

/// Inverse of an odd byte modulo 256 (Newton's iteration doubles the
/// number of correct bits; three steps cover all eight).
fn inv_mod256(v: u8) -> u8 {
    debug_assert_eq!(v & 1, 1, "only odd residues are invertible mod 256");
    let mut inv = v; // correct to 2 bits for any odd v
    for _ in 0..3 {
        inv = inv.wrapping_mul(2u8.wrapping_sub(v.wrapping_mul(inv)));
    }
    inv
}

/// Byte-sum of a ring element modulo 256 (the zero-sum invariant).
fn byte_sum(v: &[u8]) -> u8 {
    v.iter().fold(0u8, |a, &b| a.wrapping_add(b))
}

/// Divides the zero-sum element `w` by `x_j − x_t = z^{shift}(z^d − 1)`,
/// returning the unique zero-sum quotient.
///
/// `(z^d − 1)·u = w` unrolls to the cycle recurrence
/// `u[(p + d) mod L] = u[p] − w[(p + d) mod L]` starting from `u[0] = 0`;
/// `gcd(d, L) = 1` (L prime, `d ≢ 0`) makes the orbit cover every index,
/// and the zero-sum of `w` makes the final wrap-around consistent. The
/// solution is unique up to an additive constant (the kernel of `z^d − 1`),
/// fixed by forcing zero sum: `γ = −Σu · L⁻¹ (mod 256)`. The `z^{shift}`
/// factor is undone by rotating the quotient by `L − shift`.
fn div_shifted_cyclic(w: &[u8], shift: usize, d: usize) -> Vec<u8> {
    let ell = w.len();
    debug_assert!(!d.is_multiple_of(ell), "division by z^shift·(z^0 − 1) is singular");
    let mut u = vec![0u8; ell];
    let mut p = 0usize;
    let mut val = 0u8;
    for _ in 1..ell {
        p = (p + d) % ell;
        val = val.wrapping_sub(w[p]);
        u[p] = val;
    }
    let gamma = byte_sum(&u).wrapping_neg().wrapping_mul(inv_mod256((ell % 256) as u8));
    for b in u.iter_mut() {
        *b = b.wrapping_add(gamma);
    }
    let mut out = vec![0u8; ell];
    rotate_into(&mut out, &u, ell - (shift % ell));
    out
}

// ---------------------------------------------------------------------------
// Shape: the lifted length L.
// ---------------------------------------------------------------------------

fn is_prime(v: usize) -> bool {
    if v < 2 {
        return false;
    }
    let mut f = 2usize;
    while f * f <= v {
        if v.is_multiple_of(f) {
            return false;
        }
        f += 1;
    }
    true
}

/// The ring dimension for a `(n, k)` generation: the smallest **odd**
/// prime `L ≥ max(k + 1, n)` — `k` data bytes plus the parity byte must
/// fit, and the `n` evaluation points must be distinct mod `L`.
///
/// # Errors
///
/// [`Error::InvalidConfig`] when `L` would not fit the 16-bit wire point
/// field.
pub fn lifted_len(config: CodingConfig) -> Result<usize, Error> {
    let mut ell = (config.block_size() + 1).max(config.blocks()).max(3);
    while !is_prime(ell) {
        ell += 1;
    }
    if ell > usize::from(u16::MAX) {
        return Err(Error::InvalidConfig {
            reason: "block size too large for the circular-shift codec's 16-bit point field",
        });
    }
    Ok(ell)
}

/// Lifts a `k`-byte source block into the zero-sum submodule `M`: data,
/// zero padding, and a final parity byte making the byte-sum ≡ 0 mod 256.
fn lift_block(block: &[u8], ell: usize) -> Vec<u8> {
    debug_assert!(block.len() < ell);
    let mut lifted = vec![0u8; ell];
    lifted[..block.len()].copy_from_slice(block);
    lifted[ell - 1] = byte_sum(block).wrapping_neg();
    lifted
}

// ---------------------------------------------------------------------------
// Sender.
// ---------------------------------------------------------------------------

/// The sending half: per-segment lifted source blocks, encoded on demand
/// with one rotate-add per block.
pub(crate) struct CircShiftSender {
    config: CodingConfig,
    ell: usize,
    original_len: usize,
    /// `segments[s][i]` is lifted source block `i` of segment `s`.
    segments: Vec<Vec<Vec<u8>>>,
}

impl CircShiftSender {
    /// Builds a sender for `data` coded under `config`.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] if the lifted length overflows the wire
    /// point field.
    pub(crate) fn new(config: CodingConfig, data: &[u8]) -> Result<CircShiftSender, Error> {
        let ell = lifted_len(config)?;
        let segments = segment_stream(config, data)
            .iter()
            .map(|seg| seg.iter_blocks().map(|b| lift_block(b, ell)).collect())
            .collect();
        Ok(CircShiftSender { config, ell, original_len: data.len(), segments })
    }

    /// Encodes the packet for evaluation `point` of `segment` over
    /// `payload` (`L` bytes, overwritten).
    fn encode_into(&self, payload: &mut [u8], segment: usize, point: usize) {
        payload.fill(0);
        for (i, lifted) in self.segments[segment].iter().enumerate() {
            rotate_add(payload, lifted, (point * i) % self.ell);
        }
    }
}

impl StreamCodecSender for CircShiftSender {
    fn codec(&self) -> CodecId {
        CodecId::CircShift
    }

    fn coding_config(&self) -> CodingConfig {
        self.config
    }

    fn total_segments(&self) -> usize {
        self.segments.len()
    }

    fn original_len(&self) -> usize {
        self.original_len
    }

    fn frame_wire_bytes(&self) -> usize {
        HEADER_BYTES + self.ell
    }

    fn frame_into(&self, segment: usize, seq: u64, _rng: &mut dyn RngCore, out: &mut [u8]) {
        assert!(segment < self.segments.len(), "segment out of range");
        assert_eq!(out.len(), HEADER_BYTES + self.ell, "frame buffer length");
        let point = (seq % self.ell as u64) as usize;
        let (header, payload) = out.split_at_mut(HEADER_BYTES);
        header[0..4].copy_from_slice(&(segment as u32).to_le_bytes());
        header[4..6].copy_from_slice(&(point as u16).to_le_bytes());
        header[6..8].copy_from_slice(&MAGIC.to_le_bytes());
        self.encode_into(payload, segment, point);
    }
}

// ---------------------------------------------------------------------------
// Receiver.
// ---------------------------------------------------------------------------

/// Per-segment receive state: collected distinct-point packets, then the
/// recovered source bytes.
enum SegmentState {
    Collecting { points: Vec<u16>, payloads: Vec<Vec<u8>> },
    Complete(Vec<u8>),
}

/// The receiving half: deduplicates points per segment and runs the
/// Björck–Pereyra solve at the `n`-th distinct one.
pub(crate) struct CircShiftReceiver {
    config: CodingConfig,
    ell: usize,
    original_len: usize,
    states: Vec<SegmentState>,
    complete: usize,
}

impl CircShiftReceiver {
    /// A receiver for `total_segments` segments of an `original_len`-byte
    /// stream coded under `config`.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] if the lifted length overflows the wire
    /// point field.
    pub(crate) fn new(
        config: CodingConfig,
        total_segments: usize,
        original_len: usize,
    ) -> Result<CircShiftReceiver, Error> {
        let ell = lifted_len(config)?;
        let states = (0..total_segments)
            .map(|_| SegmentState::Collecting { points: Vec::new(), payloads: Vec::new() })
            .collect();
        Ok(CircShiftReceiver { config, ell, original_len, states, complete: 0 })
    }

    /// Solves the Vandermonde system `P(a_j) = Σᵢ z^{a_j·i} mᵢ` for the
    /// lifted blocks via Björck–Pereyra over the ring, then strips lifts.
    fn decode_segment(&self, points: &[u16], payloads: &[Vec<u8>]) -> Vec<u8> {
        let n = self.config.blocks();
        let k = self.config.block_size();
        let ell = self.ell;
        debug_assert_eq!(points.len(), n);
        // Order by evaluation point so every stage-1 divisor difference is
        // a fixed positive residue.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&j| points[j]);
        let a: Vec<usize> = order.iter().map(|&j| usize::from(points[j])).collect();
        let mut c: Vec<Vec<u8>> = order.iter().map(|&j| payloads[j].clone()).collect();
        // Stage 1 — divided differences:
        //   c[j] ← (c[j] − c[j−1]) / (x_j − x_{j−t−1}),  x_j = z^{a_j}.
        for t in 0..n.saturating_sub(1) {
            for j in ((t + 1)..n).rev() {
                let (head, tail) = c.split_at_mut(j);
                span_sub(&mut tail[0], &head[j - 1]);
                let base = a[j - t - 1];
                let d = (a[j] + ell - base) % ell;
                c[j] = div_shifted_cyclic(&c[j], base, d);
            }
        }
        // Stage 2 — Newton back to monomial coefficients:
        //   c[j] ← c[j] − x_t · c[j+1], ascending j.
        for t in (0..n.saturating_sub(1)).rev() {
            for j in t..n - 1 {
                let (head, tail) = c.split_at_mut(j + 1);
                rotate_sub(&mut head[j], &tail[0], a[t]);
            }
        }
        // c[i] is now lifted block mᵢ: data bytes, padding, parity.
        let mut out = vec![0u8; n * k];
        for (i, m) in c.iter().enumerate() {
            debug_assert_eq!(byte_sum(m), 0, "recovered block broke the zero-sum invariant");
            out[i * k..(i + 1) * k].copy_from_slice(&m[..k]);
        }
        out
    }
}

impl StreamCodecReceiver for CircShiftReceiver {
    fn codec(&self) -> CodecId {
        CodecId::CircShift
    }

    fn absorb(&mut self, frame: &[u8]) -> Result<Absorbed, Error> {
        let expected = HEADER_BYTES + self.ell;
        if frame.len() != expected {
            return Err(Error::SizeMismatch { expected, actual: frame.len() });
        }
        let magic = u16::from_le_bytes([frame[6], frame[7]]);
        if magic != MAGIC {
            return Err(Error::DimensionMismatch { op: "circshift frame magic" });
        }
        let segment = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]) as usize;
        if segment >= self.states.len() {
            return Err(Error::DimensionMismatch { op: "circshift segment index" });
        }
        let point = u16::from_le_bytes([frame[4], frame[5]]);
        if usize::from(point) >= self.ell {
            return Err(Error::DimensionMismatch { op: "circshift evaluation point" });
        }
        let payload = &frame[HEADER_BYTES..];
        // Every valid coded packet is zero-sum (the lift invariant is
        // linear), so a non-zero sum is a corrupt frame — and rejecting it
        // here keeps the decoder's division step consistent.
        if byte_sum(payload) != 0 {
            return Err(Error::DimensionMismatch { op: "circshift frame checksum" });
        }
        let n = self.config.blocks();
        let SegmentState::Collecting { points, payloads } = &mut self.states[segment] else {
            return Ok(Absorbed { segment, innovative: false, segment_complete: false });
        };
        if points.contains(&point) {
            return Ok(Absorbed { segment, innovative: false, segment_complete: false });
        }
        points.push(point);
        payloads.push(payload.to_vec());
        if points.len() < n {
            return Ok(Absorbed { segment, innovative: true, segment_complete: false });
        }
        let recovered = {
            let SegmentState::Collecting { points, payloads } = &self.states[segment] else {
                unreachable!("state checked above");
            };
            self.decode_segment(points, payloads)
        };
        self.states[segment] = SegmentState::Complete(recovered);
        self.complete += 1;
        Ok(Absorbed { segment, innovative: true, segment_complete: true })
    }

    fn segment_complete(&self, segment: usize) -> bool {
        matches!(self.states.get(segment), Some(SegmentState::Complete(_)))
    }

    fn segments_complete(&self) -> usize {
        self.complete
    }

    fn is_complete(&self) -> bool {
        self.complete == self.states.len()
    }

    fn recover(&self) -> Option<Vec<u8>> {
        if !self.is_complete() {
            return None;
        }
        // lint: allow(vec-capacity) — recovery output that escapes to the caller; no recycle edge.
        let mut out = Vec::with_capacity(self.states.len() * self.config.segment_bytes());
        for state in &self.states {
            let SegmentState::Complete(bytes) = state else { unreachable!("all complete") };
            out.extend_from_slice(bytes);
        }
        out.truncate(self.original_len);
        Some(out)
    }
}

/// The circular-shift backend: [`CodecId::CircShift`] plus both factory
/// halves.
#[derive(Copy, Clone, Debug, Default)]
pub struct CircShiftCodec;

impl ErasureCodec for CircShiftCodec {
    fn id(&self) -> CodecId {
        CodecId::CircShift
    }

    fn make_sender(
        &self,
        config: CodingConfig,
        data: &[u8],
    ) -> Result<Arc<dyn StreamCodecSender>, Error> {
        Ok(Arc::new(CircShiftSender::new(config, data)?))
    }

    fn make_receiver(
        &self,
        config: CodingConfig,
        total_segments: usize,
        original_len: usize,
    ) -> Result<Box<dyn StreamCodecReceiver>, Error> {
        Ok(Box::new(CircShiftReceiver::new(config, total_segments, original_len)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn swar_add_and_sub_match_bytewise_exhaustively() {
        for x in 0..=255u8 {
            for y in 0..=255u8 {
                // Place the pair in different lanes alongside noise so a
                // cross-lane carry or borrow cannot hide.
                let xs = u64::from_le_bytes([x, 0xFF, x, 0x00, 0x80, x, 0x7F, y]);
                let ys = u64::from_le_bytes([y, 0x01, 0xFF, y, 0x80, 0x7F, y, x]);
                let sum = swar_add(xs, ys).to_le_bytes();
                let diff = swar_sub(xs, ys).to_le_bytes();
                for i in 0..8 {
                    assert_eq!(sum[i], xs.to_le_bytes()[i].wrapping_add(ys.to_le_bytes()[i]));
                    assert_eq!(diff[i], xs.to_le_bytes()[i].wrapping_sub(ys.to_le_bytes()[i]));
                }
            }
        }
    }

    #[test]
    fn inv_mod256_inverts_every_odd_byte() {
        for v in (1..=255u8).step_by(2) {
            assert_eq!(v.wrapping_mul(inv_mod256(v)), 1, "v={v}");
        }
    }

    #[test]
    fn rotation_ops_agree_with_index_arithmetic() {
        let ell = 11;
        let src: Vec<u8> = (0..ell as u8).map(|i| i * 7 + 3).collect();
        for s in 0..ell {
            let mut dst = vec![1u8; ell];
            rotate_add(&mut dst, &src, s);
            for j in 0..ell {
                assert_eq!(dst[(j + s) % ell], 1u8.wrapping_add(src[j]), "add s={s} j={j}");
            }
            let mut dst = vec![200u8; ell];
            rotate_sub(&mut dst, &src, s);
            for j in 0..ell {
                assert_eq!(dst[(j + s) % ell], 200u8.wrapping_sub(src[j]), "sub s={s} j={j}");
            }
            let mut dst = vec![0u8; ell];
            rotate_into(&mut dst, &src, s);
            for j in 0..ell {
                assert_eq!(dst[(j + s) % ell], src[j], "into s={s} j={j}");
            }
        }
    }

    #[test]
    fn division_inverts_shifted_cyclic_multiplication() {
        // For zero-sum u: dividing w = z^shift·(z^d − 1)·u must return u.
        let ell = 13;
        for seed in 0..5u8 {
            let mut u: Vec<u8> =
                (0..ell as u8).map(|i| i.wrapping_mul(31).wrapping_add(seed)).collect();
            let fix = byte_sum(&u);
            u[0] = u[0].wrapping_sub(fix); // project into the zero-sum ideal
            for shift in 0..ell {
                for d in 1..ell {
                    let mut w = vec![0u8; ell];
                    // w = z^{shift+d}·u − z^shift·u
                    rotate_add(&mut w, &u, (shift + d) % ell);
                    rotate_sub(&mut w, &u, shift);
                    assert_eq!(
                        div_shifted_cyclic(&w, shift, d),
                        u,
                        "shift={shift} d={d} seed={seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn lifted_len_is_an_odd_prime_covering_the_shape() {
        for (n, k, want) in [(4, 16, 17), (8, 4096, 4099), (128, 4096, 4099), (200, 16, 211)] {
            let config = CodingConfig::new(n, k).unwrap();
            let ell = lifted_len(config).unwrap();
            assert_eq!(ell, want, "n={n} k={k}");
            assert!(is_prime(ell) && ell % 2 == 1 && ell > k && ell >= n);
        }
        // 1-byte blocks still get data + parity + a point space ≥ n.
        assert_eq!(lifted_len(CodingConfig::new(1, 1).unwrap()).unwrap(), 3);
        assert!(lifted_len(CodingConfig::new(2, 70_000).unwrap()).is_err());
    }

    #[test]
    fn roundtrips_through_the_trait_objects() {
        let config = CodingConfig::new(4, 16).unwrap();
        let data: Vec<u8> = (0..150u8).collect();
        let codec = CircShiftCodec;
        let sender = codec.make_sender(config, &data).unwrap();
        assert_eq!(sender.codec(), CodecId::CircShift);
        assert_eq!(sender.frame_wire_bytes(), HEADER_BYTES + 17);
        let mut receiver =
            codec.make_receiver(config, sender.total_segments(), sender.original_len()).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut completions = 0;
        let mut seq = 0u64;
        while !receiver.is_complete() {
            for segment in 0..sender.total_segments() {
                let wire = sender.frame_wire(segment, seq, &mut rng);
                assert_eq!(wire.len(), sender.frame_wire_bytes());
                let absorbed = receiver.absorb(&wire).unwrap();
                assert_eq!(absorbed.segment, segment);
                if absorbed.segment_complete {
                    completions += 1;
                }
            }
            seq += 1;
        }
        assert_eq!(completions, sender.total_segments());
        assert_eq!(receiver.recover().unwrap(), data);
    }

    #[test]
    fn decodes_from_any_distinct_points_including_out_of_order() {
        let config = CodingConfig::new(5, 8).unwrap();
        let data: Vec<u8> = (0..40u8).map(|i| i.wrapping_mul(23)).collect();
        let sender = CircShiftSender::new(config, &data).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        // Points delivered out of order, with a duplicate mixed in.
        for points in [[6u64, 2, 9, 0, 4], [10, 7, 3, 8, 1]] {
            let mut receiver = CircShiftReceiver::new(config, 1, data.len()).unwrap();
            let dup = sender.frame_wire(0, points[0], &mut rng);
            assert!(receiver.absorb(&dup).unwrap().innovative);
            assert!(!receiver.absorb(&dup).unwrap().innovative);
            for &p in &points[1..] {
                let wire = sender.frame_wire(0, p, &mut rng);
                assert!(receiver.absorb(&wire).unwrap().innovative);
            }
            assert!(receiver.is_complete());
            assert_eq!(receiver.recover().unwrap(), data);
        }
    }

    #[test]
    fn corrupt_frames_are_rejected_and_leave_the_receiver_usable() {
        let config = CodingConfig::new(3, 8).unwrap();
        let data = vec![9u8; 24];
        let sender = CircShiftSender::new(config, &data).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut receiver = CircShiftReceiver::new(config, 1, data.len()).unwrap();
        assert!(receiver.absorb(&[0u8; 3]).is_err()); // short
        let mut bad = sender.frame_wire(0, 0, &mut rng);
        bad[6] ^= 0xFF; // magic
        assert!(receiver.absorb(&bad).is_err());
        let mut flipped = sender.frame_wire(0, 1, &mut rng);
        let last = flipped.len() - 1;
        flipped[last] ^= 0x5A; // payload corruption breaks the zero-sum check
        assert!(receiver.absorb(&flipped).is_err());
        for p in 0..3 {
            receiver.absorb(&sender.frame_wire(0, p, &mut rng)).unwrap();
        }
        assert_eq!(receiver.recover().unwrap(), data);
    }

    #[test]
    fn single_block_generation_roundtrips() {
        let config = CodingConfig::new(1, 5).unwrap();
        let data = [1u8, 2, 3, 4, 5];
        let sender = CircShiftSender::new(config, &data).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut receiver = CircShiftReceiver::new(config, 1, data.len()).unwrap();
        // Any single point recovers a 1-block generation.
        receiver.absorb(&sender.frame_wire(0, 4, &mut rng)).unwrap();
        assert_eq!(receiver.recover().unwrap(), data);
    }
}
