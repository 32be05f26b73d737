//! Equivalence suite for the GF(2^16) dispatch ladder and the blocked
//! transforms built on it.
//!
//! Part one: every rung this host can run, on every operation
//! (`mul_add_assign`, `mul_into`, `mul_assign`, `xor_assign`, the fused
//! IFFT and FFT butterflies), must equal a symbol-by-symbol scalar walk
//! through `Tables::mul_log` — at lengths on both sides of every vector
//! width and for the log coefficients with special meaning (0 and
//! `MODULUS` are both ×1 under wrap semantics). Rungs the host lacks are
//! printed as skipped, never silently passed.
//!
//! Part two: the transforms must not depend on how they are walked. Every
//! forced block size must produce the bytes of a per-shard,
//! layer-at-a-time reference written here from nothing but the portable
//! `mul_add` and XOR — with shifted cosets, truncated inputs and
//! restricted output ranges.

use nc_fft::afft::{self, Arena};
use nc_fft::simd::{self, Gf16Kernel, Multiplier};
use nc_fft::{tables, Tables, MODULUS};
use nc_pool::BytesPool;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

const LENGTHS: [usize; 10] = [2, 30, 62, 64, 66, 126, 128, 1022, 1024, 4098];

fn random_bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
    let mut bytes = vec![0u8; len];
    rng.fill_bytes(&mut bytes);
    bytes
}

/// Every rung worth testing; the ones this host lacks are reported.
fn rungs() -> Vec<Gf16Kernel> {
    let all = [
        Gf16Kernel::Gfni,
        Gf16Kernel::Avx2,
        Gf16Kernel::Ssse3,
        Gf16Kernel::Neon,
        Gf16Kernel::Portable,
    ];
    for kernel in all.iter().filter(|k| !k.is_available()) {
        eprintln!("skipped: {} rung not available on this host", kernel.name());
    }
    all.into_iter().filter(|k| k.is_available()).collect()
}

/// `m · src` symbol by symbol over the split-plane layout.
fn scalar_product(t: &Tables, src: &[u8], log_m: u16) -> Vec<u8> {
    let half = src.len() / 2;
    let mut out = vec![0u8; src.len()];
    for i in 0..half {
        let p = t.mul_log(u16::from(src[i]) | u16::from(src[half + i]) << 8, log_m);
        out[i] = p as u8;
        out[half + i] = (p >> 8) as u8;
    }
    out
}

fn xor(a: &[u8], b: &[u8]) -> Vec<u8> {
    a.iter().zip(b).map(|(x, y)| x ^ y).collect()
}

#[test]
fn every_rung_matches_the_scalar_walk_on_every_operation() {
    let t = tables();
    let mut rng = StdRng::seed_from_u64(0x6F16);
    let random_log = rng.gen_range(2..MODULUS - 1);
    for kernel in rungs() {
        for len in LENGTHS {
            let src = random_bytes(&mut rng, len);
            let dst0 = random_bytes(&mut rng, len);
            for log_m in [0, 1, MODULUS - 1, MODULUS, random_log] {
                let product = scalar_product(&t, &src, log_m);
                let context = format!("{kernel:?}, len {len}, log_m {log_m}");

                let mut dst = dst0.clone();
                simd::mul_add_assign_with_kernel(kernel, &t, &mut dst, &src, log_m);
                assert_eq!(dst, xor(&dst0, &product), "mul_add_assign ({context})");

                let mut dst = dst0.clone();
                simd::mul_into_with_kernel(kernel, &t, &mut dst, &src, log_m);
                assert_eq!(dst, product, "mul_into ({context})");

                let mut dst = src.clone(); // in place: source and destination alias
                simd::mul_assign_with_kernel(kernel, &t, &mut dst, log_m);
                assert_eq!(dst, product, "mul_assign ({context})");

                // The prepared form takes the same coefficients without
                // the region entry points' ×1 fast paths.
                let mul = Multiplier::new(kernel, &t, log_m);
                let mut dst = dst0.clone();
                mul.mul_add(&mut dst, &src);
                assert_eq!(dst, xor(&dst0, &product), "Multiplier::mul_add ({context})");
                let mut dst = src.clone();
                mul.mul_assign(&mut dst);
                assert_eq!(dst, product, "Multiplier::mul_assign ({context})");
            }
        }
    }
}

#[test]
fn fused_butterflies_match_the_scalar_walk_on_every_rung() {
    let t = tables();
    let mut rng = StdRng::seed_from_u64(0xB0FF);
    let random_log = rng.gen_range(2..MODULUS - 1);
    for kernel in rungs() {
        for shard_bytes in LENGTHS {
            // Three shards per run: planes are per shard, not per run.
            let x0 = random_bytes(&mut rng, 3 * shard_bytes);
            let y0 = random_bytes(&mut rng, 3 * shard_bytes);
            for log_m in [0, 1, MODULUS - 1, MODULUS, random_log] {
                let mul = Multiplier::new(kernel, &t, log_m);
                let context = format!("{kernel:?}, shard {shard_bytes}, log_m {log_m}");
                let times_m = |run: &[u8]| -> Vec<u8> {
                    run.chunks(shard_bytes).flat_map(|s| scalar_product(&t, s, log_m)).collect()
                };

                // IFFT: y ^= x; x ^= m·y.
                let (mut x, mut y) = (x0.clone(), y0.clone());
                mul.ifft_butterflies(&mut x, &mut y, shard_bytes);
                let want_y = xor(&y0, &x0);
                let want_x = xor(&x0, &times_m(&want_y));
                assert_eq!((x, y), (want_x, want_y), "ifft butterfly ({context})");

                // FFT: x ^= m·y; y ^= x.
                let (mut x, mut y) = (x0.clone(), y0.clone());
                mul.fft_butterflies(&mut x, &mut y, shard_bytes);
                let want_x = xor(&x0, &times_m(&y0));
                let want_y = xor(&y0, &want_x);
                assert_eq!((x, y), (want_x, want_y), "fft butterfly ({context})");
            }
        }
    }
}

#[test]
fn xor_assign_is_plain_xor_at_every_length() {
    let mut rng = StdRng::seed_from_u64(0x0A0A);
    for len in LENGTHS.into_iter().chain([0, 1, 63, 65, 129, 4097]) {
        let a = random_bytes(&mut rng, len);
        let b = random_bytes(&mut rng, len);
        let mut dst = a.clone();
        simd::xor_assign(&mut dst, &b);
        assert_eq!(dst, xor(&a, &b), "len {len}");
    }
}

// ---------------------------------------------------------------------------
// Transforms: per-shard, layer-at-a-time references (the shape the code
// had before it was blocked), against every forced block size.
// ---------------------------------------------------------------------------

type Shards = Vec<Vec<u8>>;

fn pair(work: &mut Shards, i: usize, j: usize) -> (&mut Vec<u8>, &mut Vec<u8>) {
    let (head, tail) = work.split_at_mut(j);
    (&mut head[i], &mut tail[0])
}

fn reference_ifft(t: &Tables, work: &mut Shards, size: usize, truncated: usize, delta: usize) {
    let mut dist = 1;
    while dist < size {
        for r in (0..truncated).step_by(2 * dist) {
            let log_m = t.skew[r + dist + delta - 1];
            for i in r..r + dist {
                let (x, y) = pair(work, i, i + dist);
                *y = xor(y, x);
                if log_m != MODULUS {
                    simd::mul_add_assign_with_kernel(Gf16Kernel::Portable, t, x, y, log_m);
                }
            }
        }
        dist *= 2;
    }
}

fn reference_fft(t: &Tables, work: &mut Shards, size: usize, delta: usize) {
    let mut dist = size / 2;
    while dist >= 1 {
        for r in (0..size).step_by(2 * dist) {
            let log_m = t.skew[r + dist + delta - 1];
            for i in r..r + dist {
                let (x, y) = pair(work, i, i + dist);
                if log_m != MODULUS {
                    simd::mul_add_assign_with_kernel(Gf16Kernel::Portable, t, x, y, log_m);
                }
                *y = xor(y, x);
            }
        }
        dist /= 2;
    }
}

fn reference_derivative(work: &mut Shards, size: usize) {
    for i in 1..size {
        let width = ((i ^ (i - 1)) + 1) >> 1;
        for j in 0..width {
            let (x, y) = pair(work, i - width + j, i + j);
            *x = xor(x, y);
        }
    }
}

fn arena_of(shards: &Shards) -> Arena {
    let mut arena = Arena::new(BytesPool::global(), shards.len(), shards[0].len());
    shards.iter().for_each(|s| arena.push(s));
    arena
}

fn shards_of(arena: &Arena) -> Shards {
    (0..arena.len()).map(|i| arena.shard(i).to_vec()).collect()
}

/// Transform sizes 2..256 with shard lengths on both sides of the vector
/// widths; the last shape is wide enough that a node's column tile holds
/// only some of its columns, so the tile loop takes several steps.
const SHAPES: [(usize, usize); 9] =
    [(2, 2), (4, 30), (8, 66), (16, 2), (32, 30), (64, 66), (128, 2), (256, 30), (256, 1024)];

/// Forced block sizes: 2, 4, 8 and the whole transform (layer at a time).
fn blocks(size: usize) -> [usize; 4] {
    [2, 4, 8, size.max(2)]
}

#[test]
fn blocked_ifft_matches_the_reference_at_every_block_size() {
    let t = tables();
    let mut rng = StdRng::seed_from_u64(0x1FF7);
    for kernel in rungs() {
        for (size, shard_bytes) in SHAPES {
            // Full input, a ragged prefix, and a single live shard.
            for truncated in [size, size * 5 / 8 + 1, 1] {
                let truncated = truncated.min(size);
                for delta in [0, size, 3 * size] {
                    let mut input: Shards =
                        (0..size).map(|_| random_bytes(&mut rng, shard_bytes)).collect();
                    input[truncated..].iter_mut().for_each(|s| s.fill(0));
                    let mut want = input.clone();
                    reference_ifft(&t, &mut want, size, truncated, delta);
                    for block in blocks(size) {
                        let mut work = arena_of(&input);
                        afft::ifft(&t, kernel, &mut work, size, truncated, delta, block);
                        assert_eq!(
                            shards_of(&work),
                            want,
                            "{kernel:?} size {size} truncated {truncated} delta {delta} block {block}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn blocked_fft_matches_the_reference_inside_every_output_range() {
    let t = tables();
    let mut rng = StdRng::seed_from_u64(0xFF71);
    for kernel in rungs() {
        for (size, shard_bytes) in SHAPES {
            // All outputs; a prefix (the encoder); the decoder's
            // `[m, m + original_count)` with m = size / 2, with a smaller
            // m and a non-power-of-two count; one shard.
            let ranges = [
                0..size,
                0..size * 3 / 8 + 1,
                size / 2..size,
                size / 4..size / 4 + size * 9 / 16,
                size - 1..size,
            ];
            for delta in [0, size] {
                let input: Shards =
                    (0..size).map(|_| random_bytes(&mut rng, shard_bytes)).collect();
                let mut want = input.clone();
                reference_fft(&t, &mut want, size, delta);
                for outputs in ranges.iter().filter(|r| !r.is_empty()) {
                    for block in blocks(size) {
                        let mut work = arena_of(&input);
                        afft::fft(&t, kernel, &mut work, size, outputs.clone(), delta, block);
                        assert_eq!(
                            shards_of(&work)[outputs.clone()],
                            want[outputs.clone()],
                            "{kernel:?} size {size} outputs {outputs:?} delta {delta} block {block}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn blocked_formal_derivative_matches_the_reference_at_every_block_size() {
    let mut rng = StdRng::seed_from_u64(0xDE71);
    for (size, shard_bytes) in SHAPES {
        let input: Shards = (0..size).map(|_| random_bytes(&mut rng, shard_bytes)).collect();
        let mut want = input.clone();
        reference_derivative(&mut want, size);
        for block in blocks(size) {
            let mut work = arena_of(&input);
            afft::formal_derivative(&mut work, size, block);
            assert_eq!(shards_of(&work), want, "size {size} block {block}");
        }
    }
}

#[test]
fn transforms_touch_only_their_first_size_shards() {
    // An arena larger than the transform: the tail is left alone.
    let t = tables();
    let mut rng = StdRng::seed_from_u64(0x7A11);
    let input: Shards = (0..24).map(|_| random_bytes(&mut rng, 18)).collect();
    let mut work = arena_of(&input);
    afft::ifft(&t, simd::active_kernel(), &mut work, 16, 16, 16, 4);
    afft::formal_derivative(&mut work, 16, 4);
    afft::fft(&t, simd::active_kernel(), &mut work, 16, 0..16, 0, 4);
    assert_eq!(shards_of(&work)[16..], input[16..]);
}
