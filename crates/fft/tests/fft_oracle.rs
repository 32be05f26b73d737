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
//! arbitrary survivor subsets, all-parity-lost, erased originals in
//! either half of the decode transform or in both — must reproduce it
//! bit-exactly or fail cleanly, and fold exactly the halves that hold
//! erased originals (`fft.decode_folds`).
//!
//! `PROPTEST_CASES=1024` deepens every property (CI runs it so in
//! release mode).

use nc_fft::{decode_segment, encode_segment, tables, Tables};
use nc_rlnc::Error;
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

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

/// Decodes one segment and checks the halves it folded against the
/// erased originals: original `i` sits at point `m + i` of a length-`n_fft`
/// transform, and each half of those points that holds an erased
/// original is folded once. Decodes in this file run one at a time, so
/// the delta of the process-wide `fft.decode_folds` counter is this
/// call's own (checked unless `NC_TELEMETRY` is off). Returns the decode
/// and the number of halves holding erased originals.
fn decode(
    original: &[Option<&[u8]>],
    recovery: &[Option<&[u8]>],
) -> (Result<Vec<Vec<u8>>, Error>, u64) {
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let folds = nc_telemetry::default_registry().counter("fft.decode_folds");
    let before = folds.get();
    let decoded = decode_segment(original, recovery);
    let folded = folds.get() - before;

    let m = recovery.len().next_power_of_two();
    let half = (m + original.len()).next_power_of_two() / 2;
    let upper = |i: usize| m + i >= half;
    let erased: Vec<usize> = (0..original.len()).filter(|&i| original[i].is_none()).collect();
    let want = if decoded.is_ok() {
        u64::from(erased.iter().any(|&i| !upper(i))) + u64::from(erased.iter().any(|&i| upper(i)))
    } else {
        0
    };
    if nc_telemetry::enabled() {
        assert_eq!(folded, want, "halves folded for erased originals {erased:?}");
    }
    (decoded, want)
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
        let (decoded, _) = decode(&original, &available);
        prop_assert_eq!(&decoded.expect("enough survivors"), &data, "lost={:?} kept={:?}", lost, kept);
    }

    /// All parity lost but every original present: the systematic layout
    /// means the decode is a pure reassembly and must still be exact.
    #[test]
    fn all_parity_lost_still_decodes(n in 1usize..24, recovery in 1usize..8, seed: u64) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data = random_segment(n, 8, &mut rng);
        let original: Vec<Option<&[u8]>> = data.iter().map(|s| Some(s.as_slice())).collect();
        let available: Vec<Option<&[u8]>> = vec![None; recovery];
        let (decoded, folds) = decode(&original, &available);
        prop_assert_eq!(&decoded.expect("originals all present"), &data);
        prop_assert_eq!(folds, 0, "the systematic fast path folds nothing");
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
        let (decoded, _) = decode(&original, &available);
        assert_eq!(
            decoded.expect("n recovery shards suffice"),
            data,
            "n={n} r={recovery} kept={kept:?}"
        );
    }
}

/// Erased originals only in the upper half of the decode transform, only
/// in the lower half, and on both sides of it. 70 originals against 6
/// recovery shards is `m = 8` and `n_fft = 128`: original `i` sits at
/// point `8 + i`, so originals from 56 on are in the upper half. At
/// 100:100 (`m = 128`, `n_fft = 256`) and 1000:100 (`m = 128`,
/// `n_fft = 2048`, upper from original 896) the same split recurs.
#[test]
fn erasures_fold_the_halves_that_hold_them() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x4A1F);
    let cases: [(usize, usize, &[usize], u64); 10] = [
        (70, 6, &[60, 69], 1),
        (70, 6, &[56], 1),
        (70, 6, &[10, 20, 55], 1),
        (70, 6, &[10, 60], 2),
        (70, 6, &[0, 55, 56, 69], 2),
        (100, 100, &[0, 99], 1),
        (1000, 100, &[900, 999], 1),
        (1000, 100, &[3, 500, 895], 1),
        (1000, 100, &[895, 896], 2),
        (1000, 100, &[0, 450, 999], 2),
    ];
    for (n, recovery, erase, folds) in cases {
        let data = random_segment(n, 8, &mut rng);
        let refs: Vec<&[u8]> = data.iter().map(|s| s.as_slice()).collect();
        let encoded = encode_segment(&refs, recovery).expect("valid geometry");
        let original: Vec<Option<&[u8]>> =
            (0..n).map(|i| (!erase.contains(&i)).then(|| data[i].as_slice())).collect();
        let mut kept: Vec<usize> = (0..recovery).collect();
        kept.shuffle(&mut rng);
        kept.truncate(erase.len());
        let available: Vec<Option<&[u8]>> =
            (0..recovery).map(|i| kept.contains(&i).then(|| encoded[i].as_slice())).collect();
        let (decoded, folded) = decode(&original, &available);
        assert_eq!(decoded.expect("enough survivors"), data, "n={n} r={recovery} erase={erase:?}");
        assert_eq!(folded, folds, "n={n} r={recovery} erase={erase:?}");
    }
}
