//! Equivalence suite for GF(2^16) on the GF rung ladder and the blocked
//! transforms built on it.
//!
//! Part one: every rung this host can run (the ones it lacks are printed),
//! on every operation (`mul_add_assign`, `mul_into`, `mul_assign`, the
//! fused IFFT, FFT and merged butterflies), must equal a symbol-by-symbol
//! scalar walk through `Tables::mul_log`, at lengths on both sides of every
//! vector width and for the log coefficients 0 and `MODULUS` (both ×1).
//! The active rung is the one `NC_GF_BACKEND` asks for, GF(2^8)'s; the
//! byte-at-a-time rungs run the portable walk.
//!
//! Part two: the transforms must not depend on how they are walked. Every
//! forced block size must produce the bytes of a per-shard,
//! layer-at-a-time reference written here from nothing but the portable
//! `mul_add` and XOR — with shifted cosets, truncated inputs, restricted
//! output ranges, runs that start inside the arena and the encoder's
//! merged top group. The derivative fold, XOR only, runs on the rung the
//! process dispatches to (`NC_GF_BACKEND` forces one per CI step).

use nc_fft::afft::{fold_shifts, Arena, Transforms};
use nc_fft::simd;
use nc_fft::{tables, Tables, MODULUS};
use nc_pool::BytesPool;
use nc_rlnc::gf256::simd::{Kernel, Rung};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

const LENGTHS: [usize; 10] = [2, 30, 62, 64, 66, 126, 128, 1022, 1024, 4098];

fn random_bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
    let mut bytes = vec![0u8; len];
    rng.fill_bytes(&mut bytes);
    bytes
}

/// Every rung this host can run; the ones it lacks are reported.
fn rungs() -> Vec<Rung> {
    for kernel in Kernel::ALL.into_iter().filter(|&k| Rung::new(k).is_none()) {
        eprintln!("skipped: {} rung not available on this host", kernel.name());
    }
    Kernel::available()
}

/// The portable rung: the references' multiply.
fn portable() -> Rung {
    Rung::new(Kernel::Portable).expect("needs no ISA")
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
    for rung in rungs() {
        for len in LENGTHS {
            let src = random_bytes(&mut rng, len);
            let dst0 = random_bytes(&mut rng, len);
            for log_m in [0, 1, MODULUS - 1, MODULUS, random_log] {
                let product = scalar_product(&t, &src, log_m);
                let context = format!("{rung:?}, len {len}, log_m {log_m}");

                let mut dst = dst0.clone();
                simd::mul_add_assign_on(rung, &t, &mut dst, &src, log_m);
                assert_eq!(dst, xor(&dst0, &product), "mul_add_assign ({context})");

                let mut dst = dst0.clone();
                simd::mul_into_on(rung, &t, &mut dst, &src, log_m);
                assert_eq!(dst, product, "mul_into ({context})");

                let mut dst = src.clone(); // in place: source and destination alias
                simd::mul_assign_on(rung, &t, &mut dst, log_m);
                assert_eq!(dst, product, "mul_assign ({context})");

                // The prepared form takes the same coefficients without
                // the region entry points' ×1 fast paths.
                let mul = simd::multiplier(rung, &t, log_m);
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
fn one_override_picks_the_rung_of_both_fields() {
    // Whatever `NC_GF_BACKEND` this process was started with (CI pins it
    // per lane): GF(2^16) runs on the rung GF(2^8) resolves, which is the
    // one asked for when the host has it and `available()[0]` otherwise.
    let value = std::env::var("NC_GF_BACKEND").ok().map(|v| v.trim().to_ascii_lowercase());
    let named = match value.as_deref() {
        Some("table") => Some("portable"),
        other => other,
    };
    let forced = Kernel::ALL.into_iter().find(|k| Some(k.name()) == named).and_then(Rung::new);
    let rung = forced.unwrap_or(Kernel::available()[0]);
    assert_eq!(simd::active_kernel().name(), nc_rlnc::gf256::simd::active_kernel().name());
    assert_eq!(Rung::active(), rung, "NC_GF_BACKEND={value:?}");

    // What the active-rung entry point runs is that rung, byte for byte.
    let (t, mut rng) = (tables(), StdRng::seed_from_u64(0x0E12));
    let (src, mut active) = (random_bytes(&mut rng, 4098), random_bytes(&mut rng, 4098));
    let mut explicit = active.clone();
    simd::mul_add_assign(&t, &mut active, &src, 0x1D2C);
    simd::mul_add_assign_on(rung, &t, &mut explicit, &src, 0x1D2C);
    assert_eq!(active, explicit);

    // Two planes run each vector rung's own body; the byte-at-a-time
    // references have none and run the portable walk (their bytes are
    // checked against the scalar walk with every other rung's above).
    for rung in Kernel::available() {
        let walk = [Kernel::Portable, Kernel::Nibble, Kernel::LoopWide, Kernel::LogExp];
        let want = if walk.contains(&rung.kernel()) { Kernel::Portable } else { rung.kernel() };
        assert_eq!(rung.body(2), want, "{rung:?}");
    }
}

#[test]
fn fused_butterflies_match_the_scalar_walk_on_every_rung() {
    let t = tables();
    let mut rng = StdRng::seed_from_u64(0xB0FF);
    let random_log = rng.gen_range(2..MODULUS - 1);
    for rung in rungs() {
        for shard_bytes in LENGTHS {
            // Three shards per run: planes are per shard, not per run.
            let x0 = random_bytes(&mut rng, 3 * shard_bytes);
            let y0 = random_bytes(&mut rng, 3 * shard_bytes);
            for log_m in [0, 1, MODULUS - 1, MODULUS, random_log] {
                let mul = simd::multiplier(rung, &t, log_m);
                let context = format!("{rung:?}, shard {shard_bytes}, log_m {log_m}");
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

                // Merged: t = m·(x ^ y); x ^= t; y ^= t.
                let (mut x, mut y) = (x0.clone(), y0.clone());
                mul.merged_butterflies(&mut x, &mut y, shard_bytes);
                let t = times_m(&xor(&x0, &y0));
                assert_eq!((x, y), (xor(&x0, &t), xor(&y0, &t)), "merged butterfly ({context})");
            }
        }
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
                    simd::mul_add_assign_on(portable(), t, x, y, log_m);
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
            fft_group(t, work, r, dist, t.skew[r + dist + delta - 1]);
        }
        dist /= 2;
    }
}

/// The FFT butterflies of group `(r, dist)` with skew `log_m`.
fn fft_group(t: &Tables, work: &mut Shards, r: usize, dist: usize, log_m: u16) {
    for i in r..r + dist {
        let (x, y) = pair(work, i, i + dist);
        if log_m != MODULUS {
            simd::mul_add_assign_on(portable(), t, x, y, log_m);
        }
        *y = xor(y, x);
    }
}

/// `S(src)[p]`: the XOR of `src[p + 2^b]` over the zero bits `b` of `p`.
fn reference_shifts(src: &Shards) -> Shards {
    let size = src.len();
    (0..size)
        .map(|p| {
            let mut acc = vec![0u8; src[0].len()];
            for b in (0..size.ilog2()).map(|b| 1 << b).filter(|b| p & b == 0) {
                acc = xor(&acc, &src[p + b]);
            }
            acc
        })
        .collect()
}

/// An arena holding `lead` random shards, then `shards`.
fn arena_of(rng: &mut StdRng, lead: usize, shards: &Shards) -> Arena {
    let bytes = shards[0].len();
    let mut arena = Arena::new(BytesPool::global(), lead + shards.len(), bytes);
    (0..lead).for_each(|_| arena.push(&random_bytes(rng, bytes)));
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

/// Where a transform's run starts in its arena: at shard 0, and after
/// `size` other shards (the decoder's upper half).
fn leads(size: usize) -> [usize; 2] {
    [0, size]
}

#[test]
fn blocked_ifft_matches_the_reference_at_every_block_size() {
    let t = tables();
    let mut rng = StdRng::seed_from_u64(0x1FF7);
    for rung in rungs() {
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
                    for (block, lead) in
                        blocks(size).into_iter().zip(leads(size).into_iter().cycle())
                    {
                        let mut work = arena_of(&mut rng, lead, &input);
                        let tf = Transforms::new(&t, rung, block);
                        tf.ifft(&mut work, lead..lead + size, lead + truncated, delta);
                        assert_eq!(
                            shards_of(&work)[lead..],
                            want,
                            "{rung:?} size {size} truncated {truncated} delta {delta} block {block} lead {lead}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn merged_ifft_matches_the_ifft_then_the_fft_top_group() {
    let t = tables();
    let mut rng = StdRng::seed_from_u64(0x3E76);
    for rung in rungs() {
        for (size, shard_bytes) in SHAPES {
            for truncated in [size, size / 2 + 1, 1] {
                // The encoder's chunk cosets against the recovery coset
                // (0), and a second FFT coset.
                for (delta, fft_delta) in [(size, 0), (3 * size, 0), (size, 2 * size)] {
                    let mut input: Shards =
                        (0..size).map(|_| random_bytes(&mut rng, shard_bytes)).collect();
                    input[truncated..].iter_mut().for_each(|s| s.fill(0));
                    let mut want = input.clone();
                    reference_ifft(&t, &mut want, size, truncated, delta);
                    fft_group(&t, &mut want, 0, size / 2, t.skew[size / 2 + fft_delta - 1]);
                    for block in blocks(size) {
                        let mut work = arena_of(&mut rng, 0, &input);
                        let tf = Transforms::new(&t, rung, block);
                        tf.ifft_merging_fft_top(&mut work, 0..size, truncated, delta, fft_delta);
                        assert_eq!(
                            shards_of(&work),
                            want,
                            "{rung:?} size {size} truncated {truncated} delta {delta} fft {fft_delta} block {block}"
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
    for rung in rungs() {
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
                    for (block, lead) in
                        blocks(size).into_iter().zip(leads(size).into_iter().cycle())
                    {
                        let mut work = arena_of(&mut rng, lead, &input);
                        let tf = Transforms::new(&t, rung, block);
                        let shifted = lead + outputs.start..lead + outputs.end;
                        tf.fft(&mut work, lead..lead + size, shifted.clone(), delta);
                        assert_eq!(
                            shards_of(&work)[shifted],
                            want[outputs.clone()],
                            "{rung:?} size {size} outputs {outputs:?} delta {delta} block {block} lead {lead}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn derivative_fold_matches_the_reference_at_every_block_size() {
    let mut rng = StdRng::seed_from_u64(0xDE71);
    for (size, shard_bytes) in SHAPES {
        let src: Shards = (0..size).map(|_| random_bytes(&mut rng, shard_bytes)).collect();
        let dst: Shards = (0..size).map(|_| random_bytes(&mut rng, shard_bytes)).collect();
        let want: Shards =
            dst.iter().zip(reference_shifts(&src)).map(|(d, s)| xor(d, &s)).collect();
        for block in blocks(size) {
            // Source below the target (the decoder's lower half folded
            // into the upper), and above it.
            let both: Shards = src.iter().chain(&dst).cloned().collect();
            let mut work = arena_of(&mut rng, 0, &both);
            fold_shifts(&mut work, 0, size, size, block);
            assert_eq!(
                shards_of(&work),
                [src.clone(), want.clone()].concat(),
                "up, size {size} block {block}"
            );

            let both: Shards = dst.iter().chain(&src).cloned().collect();
            let mut work = arena_of(&mut rng, 0, &both);
            fold_shifts(&mut work, size, 0, size, block);
            assert_eq!(
                shards_of(&work),
                [want.clone(), src.clone()].concat(),
                "down, size {size} block {block}"
            );
        }
    }
}

#[test]
fn transforms_touch_only_their_own_shards() {
    // The transforms run over [8, 24) and fold [8, 16) onto [24, 32) of a
    // 40-shard arena: the shards outside are left alone.
    let t = tables();
    let mut rng = StdRng::seed_from_u64(0x7A11);
    let input: Shards = (0..40).map(|_| random_bytes(&mut rng, 18)).collect();
    let mut work = arena_of(&mut rng, 0, &input);
    let tf = Transforms::new(&t, Rung::active(), 4);
    tf.ifft(&mut work, 8..24, 24, 16);
    tf.ifft_merging_fft_top(&mut work, 8..24, 24, 16, 0);
    fold_shifts(&mut work, 8, 24, 8, 4);
    tf.fft(&mut work, 8..24, 8..24, 0);
    let after = shards_of(&work);
    assert_eq!(after[..8], input[..8]);
    assert_eq!(after[32..], input[32..]);
}
