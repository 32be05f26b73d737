//! Bit-exactness oracle for the additive-FFT codec: the O(n log n)
//! transform pipeline is checked against a naive O(n²) Lagrange
//! polynomial-evaluation reference built from nothing but the scalar
//! field primitives ([`Tables::mul`] / [`Tables::inv`]) — no FFTs, no
//! skew tables, no SIMD region kernels.
//!
//! The code under test is the LCH systematic Reed–Solomon construction:
//! with `m = recovery_count.next_power_of_two()`, original shard `i`
//! sits at evaluation point `m + i` (the Cantor-basis remap makes point
//! index and field element literally equal), padded with zero shards to
//! whole chunks of `m`, and parity shard `j` is the XOR over chunks of
//! the chunk's unique degree-< m interpolant evaluated at point `j`.
//! The reference computes exactly that with textbook Lagrange
//! interpolation, one symbol column at a time.
//!
//! Erasure decoding needs no separate reference: the original data *is*
//! the oracle. Seeded loss patterns — non-power-of-two shard counts,
//! arbitrary survivor subsets, all-parity-lost — must reproduce it
//! bit-exactly or fail cleanly.

use nc_fft::{decode_segment, encode_segment, tables, Tables};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Symbol `i` of a shard stored in the split lo/hi plane layout the
/// region kernels use: low product bytes first, high bytes in the
/// second half.
fn symbol(shard: &[u8], i: usize) -> u16 {
    let half = shard.len() / 2;
    u16::from(shard[i]) | (u16::from(shard[i + half]) << 8)
}

/// Lagrange evaluation at `y` of the unique polynomial through
/// `(xs[k], vs[k])`, assuming `y` is none of the `xs`. O(n²) in the
/// number of points, scalar field ops only.
fn lagrange_eval(t: &Tables, xs: &[u16], vs: &[u16], y: u16) -> u16 {
    let mut numerator = 1u16;
    for &x in xs {
        numerator = t.mul(numerator, y ^ x);
    }
    let mut acc = 0u16;
    for (i, (&xi, &vi)) in xs.iter().zip(vs).enumerate() {
        if vi == 0 {
            continue;
        }
        let mut denominator = y ^ xi;
        for (j, &xj) in xs.iter().enumerate() {
            if j != i {
                denominator = t.mul(denominator, xi ^ xj);
            }
        }
        acc ^= t.mul(vi, t.mul(numerator, t.inv(denominator)));
    }
    acc
}

/// Parity symbols by the naive definition of the systematic code:
/// `parity[j][col]` is the XOR over chunks of each chunk's interpolant
/// (data at points `m + c·m ..`, zero-padded to `m`) evaluated at `j`.
fn reference_parity(t: &Tables, original: &[Vec<u8>], recovery_count: usize) -> Vec<Vec<u16>> {
    let m = recovery_count.next_power_of_two();
    let chunks = original.len().div_ceil(m);
    let columns = original[0].len() / 2;
    let mut parity = vec![vec![0u16; columns]; recovery_count];
    for c in 0..chunks {
        let xs: Vec<u16> = (0..m).map(|k| (m + c * m + k) as u16).collect();
        for col in 0..columns {
            let vs: Vec<u16> =
                (0..m).map(|k| original.get(c * m + k).map_or(0, |s| symbol(s, col))).collect();
            for (j, row) in parity.iter_mut().enumerate() {
                row[col] ^= lagrange_eval(t, &xs, &vs, j as u16);
            }
        }
    }
    parity
}

fn random_segment(n: usize, shard_bytes: usize, rng: &mut impl Rng) -> Vec<Vec<u8>> {
    (0..n).map(|_| (0..shard_bytes).map(|_| rng.gen()).collect()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every parity shard the FFT encoder emits equals the naive
    /// polynomial-evaluation reference, symbol for symbol — across
    /// non-power-of-two shard counts and multi-chunk geometries.
    #[test]
    fn encode_matches_the_lagrange_oracle(
        n in 1usize..40,
        recovery in 1usize..10,
        columns in 1usize..8,
        seed: u64,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data = random_segment(n, columns * 2, &mut rng);
        let refs: Vec<&[u8]> = data.iter().map(|s| s.as_slice()).collect();
        let encoded = encode_segment(&refs, recovery).expect("valid geometry");

        let expected = reference_parity(&tables(), &data, recovery);
        for (j, (shard, symbols)) in encoded.iter().zip(&expected).enumerate() {
            for (col, &want) in symbols.iter().enumerate() {
                prop_assert_eq!(
                    symbol(shard, col), want,
                    "parity {} column {} diverges from the oracle (n={}, r={})",
                    j, col, n, recovery
                );
            }
        }
    }

    /// Seeded erasure patterns: erase a random set of originals, keep a
    /// random *subset* of recovery shards exactly large enough, and the
    /// decode must reproduce the data bit-exactly.
    #[test]
    fn seeded_erasures_recover_bit_exactly(
        n in 1usize..40,
        recovery in 1usize..10,
        seed: u64,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data = random_segment(n, 16, &mut rng);
        let refs: Vec<&[u8]> = data.iter().map(|s| s.as_slice()).collect();
        let encoded = encode_segment(&refs, recovery).expect("valid geometry");

        let erased = rng.gen_range(0..=n.min(recovery));
        let mut original_idx: Vec<usize> = (0..n).collect();
        original_idx.shuffle(&mut rng);
        let lost = &original_idx[..erased];
        let mut recovery_idx: Vec<usize> = (0..recovery).collect();
        recovery_idx.shuffle(&mut rng);
        let kept = &recovery_idx[..erased];

        let original: Vec<Option<&[u8]>> =
            (0..n).map(|i| (!lost.contains(&i)).then(|| data[i].as_slice())).collect();
        let available: Vec<Option<&[u8]>> =
            (0..recovery).map(|i| kept.contains(&i).then(|| encoded[i].as_slice())).collect();
        let decoded = decode_segment(&original, &available).expect("enough survivors");
        prop_assert_eq!(&decoded, &data, "lost={:?} kept={:?}", lost, kept);
    }

    /// All parity lost but every original present: the systematic layout
    /// means the decode is a pure reassembly and must still be exact.
    #[test]
    fn all_parity_lost_still_decodes(n in 1usize..24, recovery in 1usize..8, seed: u64) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data = random_segment(n, 8, &mut rng);
        let original: Vec<Option<&[u8]>> = data.iter().map(|s| Some(s.as_slice())).collect();
        let available: Vec<Option<&[u8]>> = vec![None; recovery];
        let decoded = decode_segment(&original, &available).expect("originals all present");
        prop_assert_eq!(&decoded, &data);
    }
}

/// Multi-chunk geometry pinned (not left to the generator): 70 originals
/// against 6 recovery shards is `m = 8` and nine IFFT chunks over the
/// cosets `8, 16, …, 72`, the last one ragged (6 of 8 shards).
#[test]
fn multi_chunk_encode_matches_the_lagrange_oracle() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x00C4_0C45);
    for (n, recovery) in [(70usize, 6usize), (17, 4), (9, 1)] {
        assert!(n > recovery.next_power_of_two(), "more than one chunk");
        let data = random_segment(n, 6, &mut rng);
        let refs: Vec<&[u8]> = data.iter().map(|s| s.as_slice()).collect();
        let encoded = encode_segment(&refs, recovery).expect("valid geometry");
        let expected = reference_parity(&tables(), &data, recovery);
        for (j, (shard, symbols)) in encoded.iter().zip(&expected).enumerate() {
            for (col, &want) in symbols.iter().enumerate() {
                assert_eq!(
                    symbol(shard, col),
                    want,
                    "parity {j} column {col} (n={n}, r={recovery})"
                );
            }
        }
    }
}

/// Every original lost: the decode sees recovery shards only, so every
/// output comes out of the transform pipeline and none by copy — with
/// exactly enough recovery shards, and with a sparse subset of more.
#[test]
fn recovery_only_decode_reproduces_every_original() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x0DEC_0DE5);
    for (n, recovery) in [(1usize, 1usize), (5, 5), (8, 8), (13, 16), (6, 11)] {
        let data = random_segment(n, 10, &mut rng);
        let refs: Vec<&[u8]> = data.iter().map(|s| s.as_slice()).collect();
        let encoded = encode_segment(&refs, recovery).expect("valid geometry");
        let mut kept: Vec<usize> = (0..recovery).collect();
        kept.shuffle(&mut rng);
        kept.truncate(n);
        let original: Vec<Option<&[u8]>> = vec![None; n];
        let available: Vec<Option<&[u8]>> =
            (0..recovery).map(|i| kept.contains(&i).then(|| encoded[i].as_slice())).collect();
        let decoded = decode_segment(&original, &available).expect("n recovery shards suffice");
        assert_eq!(decoded, data, "n={n} r={recovery} kept={kept:?}");
    }
}
