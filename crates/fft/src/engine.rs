//! Segment-level systematic encode and erasure decode.
//!
//! A segment is `original_count` equal-length shards (the *original*
//! data) plus `recovery_count` parity shards. Encoding evaluates the data
//! polynomial over recovery cosets with one truncated IFFT per m-sized
//! chunk, each ending in the FFT's merged top group, and the two halves
//! of the final FFT — O((n/m)·m log m + m log m) region operations — and
//! decoding recovers any erased originals from any mix of surviving
//! shards via the Lin–Chung–Han construction: an error-locator built with
//! two Walsh-Hadamard transforms at the transform's length against the
//! precomputed `log_walsh` folds, then the IFFT, formal derivative and
//! FFT with their top layers peeled off — two half IFFTs, one derivative
//! fold per half that holds erased originals into the other half's
//! storage, and one half FFT there (see [`crate::afft`]). Compare dense
//! RLNC's O(n²) coefficient work per segment and O(n³) Gaussian
//! elimination.
//!
//! The working set of a call is one contiguous [`Arena`] taken from the
//! process [`BytesPool`] and returned to it, so steady-state coding keeps
//! two large buffers alive instead of allocating per shard; output shards
//! are pool vectors filled by copy (no zeroing pass). Both paths record
//! wall time into the `fft.encode_ns` / `fft.decode_ns` histograms; a
//! decode whose originals all survived is the *systematic fast path* —
//! counted in `fft.systematic_fast_path` and answered by pure copy; the
//! others count the halves they fold in `fft.decode_folds`.

use crate::afft::{block_shards, fold_shifts, Arena, Transforms};
use crate::metrics::metrics;
use crate::simd;
use crate::tables::{fwht, tables, Tables, MODULUS, ORDER};
use nc_pool::BytesPool;
use nc_rlnc::gf256::simd::Rung;
use nc_rlnc::Error;
use std::time::Instant;

/// Validates one segment's shard geometry; returns the shard byte length.
fn shard_bytes_of<'a, I: Iterator<Item = &'a [u8]>>(mut shards: I) -> Result<usize, Error> {
    let first = shards
        .next()
        .ok_or(Error::InvalidConfig { reason: "a segment needs at least one shard present" })?;
    let bytes = first.len();
    if bytes == 0 || bytes % 2 != 0 {
        return Err(Error::InvalidConfig {
            reason: "GF(2^16) shards must be non-empty and even-length",
        });
    }
    for s in shards {
        if s.len() != bytes {
            return Err(Error::SizeMismatch { expected: bytes, actual: s.len() });
        }
    }
    Ok(bytes)
}

/// Produces `recovery_count` parity shards for `original` on the active
/// GF rung.
///
/// Shards must all be the same non-zero even length (GF(2^16) symbols).
/// Capacity bound: with `m = recovery_count.next_power_of_two()`, the
/// evaluation cosets `m·1 .. m·(chunks+1)` must fit the field, i.e.
/// `m + original.len()` rounded up to chunks of `m` stays ≤ 2^16.
pub fn encode_segment(original: &[&[u8]], recovery_count: usize) -> Result<Vec<Vec<u8>>, Error> {
    encode_segment_on(Rung::active(), original, recovery_count)
}

/// [`encode_segment`] on an explicit rung (tests, ablation).
pub fn encode_segment_on(
    rung: Rung,
    original: &[&[u8]],
    recovery_count: usize,
) -> Result<Vec<Vec<u8>>, Error> {
    if recovery_count == 0 {
        return Err(Error::InvalidConfig { reason: "recovery_count must be at least 1" });
    }
    let shard_bytes = shard_bytes_of(original.iter().copied())?;
    let m = recovery_count.next_power_of_two();
    let chunks = original.len().div_ceil(m);
    if !matches!(m.checked_mul(chunks + 1), Some(points) if points <= ORDER) {
        return Err(Error::InvalidConfig {
            reason: "original + recovery shard count exceeds GF(2^16) capacity",
        });
    }

    let started = Instant::now();
    let t = tables();
    let pool = BytesPool::global();
    let tf = Transforms::new(&t, rung, block_shards(shard_bytes));

    // Accumulate Σ_c IFFT(chunk c over coset m + c·m) into `work`, each
    // chunk ending in the final FFT's top group (it is linear, so it may
    // run before the sum).
    let transform = |arena: &mut Arena, c: usize, chunk: &[&[u8]]| {
        chunk.iter().for_each(|shard| arena.push(shard));
        arena.pad_zeroed(m);
        tf.ifft_merging_fft_top(arena, 0..m, chunk.len(), m + c * m, 0);
    };
    let mut work = Arena::new(pool, m, shard_bytes);
    transform(&mut work, 0, &original[..original.len().min(m)]);
    if chunks > 1 {
        let mut scratch = Arena::new(pool, m, shard_bytes);
        for (c, chunk) in original.chunks(m).enumerate().skip(1) {
            scratch.clear();
            transform(&mut scratch, c, chunk);
            work.xor_assign(&scratch);
        }
        scratch.recycle(pool);
    }

    // Evaluate over the recovery coset (points 0..m) with the FFT's two
    // halves; only the first `recovery_count` outputs are computed and
    // leave the function.
    let half = m / 2;
    if half > 0 {
        tf.fft(&mut work, 0..half, 0..recovery_count, 0);
        tf.fft(&mut work, half..m, 0..recovery_count, half);
    }
    let recovery = (0..recovery_count).map(|i| pool.take_vec_copy(work.shard(i))).collect();
    work.recycle(pool);

    let mx = metrics();
    mx.encode_ns.record(started.elapsed().as_nanos() as u64);
    mx.recovery_shards.add(recovery_count as u64);
    Ok(recovery)
}

/// Recovers the full original shard list from whatever survived, on the
/// active GF rung.
///
/// `original[i]` / `recovery[i]` are `None` where the shard was lost.
/// Succeeds whenever the erased originals are covered by surviving
/// recovery shards (any `original.len()` total survivors of a systematic
/// Reed–Solomon code suffice); otherwise [`Error::RankDeficient`].
///
/// When every original survived this is the **systematic fast path**:
/// pure copies, no transform, `fft.systematic_fast_path` incremented.
pub fn decode_segment(
    original: &[Option<&[u8]>],
    recovery: &[Option<&[u8]>],
) -> Result<Vec<Vec<u8>>, Error> {
    decode_segment_on(Rung::active(), original, recovery)
}

/// [`decode_segment`] on an explicit rung (tests, ablation).
pub fn decode_segment_on(
    rung: Rung,
    original: &[Option<&[u8]>],
    recovery: &[Option<&[u8]>],
) -> Result<Vec<Vec<u8>>, Error> {
    let original_count = original.len();
    let recovery_count = recovery.len();
    if original_count == 0 || recovery_count == 0 {
        return Err(Error::InvalidConfig {
            reason: "decode needs both original and recovery shard positions",
        });
    }
    let m = recovery_count.next_power_of_two();
    if m + original_count > ORDER {
        return Err(Error::InvalidConfig {
            reason: "original + recovery shard count exceeds GF(2^16) capacity",
        });
    }
    let shard_bytes =
        shard_bytes_of(original.iter().chain(recovery.iter()).filter_map(|s| s.as_deref()))?;

    let Some(first_erased) = original.iter().position(Option::is_none) else {
        metrics().systematic_fast_path.inc();
        return Ok(original.iter().map(|s| s.expect("all present").to_vec()).collect());
    };
    let erased_originals = original.iter().filter(|s| s.is_none()).count();
    let present_recovery = recovery.iter().filter(|s| s.is_some()).count();
    if erased_originals > present_recovery {
        return Err(Error::RankDeficient {
            rank: original_count - erased_originals + present_recovery,
            needed: original_count,
        });
    }

    let started = Instant::now();
    let t = tables();
    let pool = BytesPool::global();
    let n_fft = (m + original_count).next_power_of_two();
    let err_loc = error_locator(&t, original, recovery, m, n_fft);

    // The work arena, filled in position order: present shards scaled by
    // the locator, erased and padding positions zero. Nothing else is
    // zeroed — the buffer arrives with stale contents.
    let mut work = Arena::new(pool, n_fft, shard_bytes);
    let mut place = |position: usize, shard: &Option<&[u8]>| {
        work.pad_zeroed(position);
        if let Some(shard) = shard {
            work.push(shard);
            simd::mul_assign_on(rung, &t, work.shard_mut(position), err_loc[position]);
        }
    };
    recovery.iter().enumerate().for_each(|(i, r)| place(i, r));
    original.iter().enumerate().for_each(|(i, o)| place(m + i, o));
    work.pad_zeroed(n_fft);

    // IFFT, formal derivative and FFT with the top layers peeled off (see
    // `crate::afft`): half `k` of the points is evaluated in the other
    // half's storage, so erased original `p` is read back from `p ^ half`.
    // Only the halves holding erased originals are folded and evaluated,
    // and only from the first to the last of those.
    let half = n_fft / 2;
    let last_erased = original.iter().rposition(Option::is_none).expect("one is erased");
    let erased = m + first_erased..m + last_erased + 1;
    let points = |k: usize| erased.start.max(k * half)..erased.end.min(k * half + half);
    let block = block_shards(shard_bytes);
    let tf = Transforms::new(&t, rung, block);
    for k in 0..2 {
        tf.ifft(&mut work, k * half..k * half + half, m + original_count, k * half);
    }
    let folded = (0..2).filter(|&k| !points(k).is_empty());
    for k in folded.clone() {
        fold_shifts(&mut work, k * half, (1 - k) * half, half, block);
    }
    for k in folded.clone() {
        let (wanted, storage) = (points(k), (1 - k) * half);
        let outputs = (wanted.start ^ half)..((wanted.end - 1) ^ half) + 1;
        tf.fft(&mut work, storage..storage + half, outputs, k * half);
    }

    let out = original
        .iter()
        .enumerate()
        .map(|(i, o)| match o {
            Some(shard) => pool.take_vec_copy(shard),
            None => {
                let mut recovered = pool.take_vec_copy(work.shard((m + i) ^ half));
                let unscale = MODULUS - err_loc[m + i];
                simd::mul_assign_on(rung, &t, &mut recovered, unscale);
                recovered
            }
        })
        .collect();
    work.recycle(pool);

    let mx = metrics();
    mx.decode_ns.record(started.elapsed().as_nanos() as u64);
    mx.decodes.inc();
    mx.decode_folds.add(folded.count() as u64);
    Ok(out)
}

/// The decoder's error locator in the log domain at the first `n_fft`
/// field points: 1 at every erased position (padding recovery positions
/// count as erased), then two FWHTs against `log_walsh` turn the
/// indicator into the log-domain evaluations of the locator polynomial.
/// The indicator is zero from `n_fft` on, so its length-2^16 transform
/// at `j·n_fft + r` is its length-`n_fft` transform at `r`, and the
/// product folded modulo `n_fft` is that times `log_walsh` folded modulo
/// `n_fft`: both passes run at length `n_fft`.
fn error_locator(
    t: &Tables,
    original: &[Option<&[u8]>],
    recovery: &[Option<&[u8]>],
    m: usize,
    n_fft: usize,
) -> Vec<u16> {
    let mut err_loc = vec![0u16; n_fft];
    for (e, r) in err_loc.iter_mut().zip(recovery) {
        if r.is_none() {
            *e = 1;
        }
    }
    for e in err_loc.iter_mut().take(m).skip(recovery.len()) {
        *e = 1;
    }
    for (e, o) in err_loc[m..].iter_mut().zip(original) {
        if o.is_none() {
            *e = 1;
        }
    }
    fwht(&mut err_loc, m + original.len());
    for (e, &w) in err_loc.iter_mut().zip(t.log_walsh_folded(n_fft)) {
        *e = ((u32::from(*e) * u32::from(w)) % u32::from(MODULUS)) as u16;
    }
    fwht(&mut err_loc, n_fft);
    err_loc
}

#[cfg(all(test, not(nc_check)))]
mod tests {
    use super::*;

    fn segment(count: usize, bytes: usize, seed: u64) -> Vec<Vec<u8>> {
        let mut state = seed | 1;
        (0..count)
            .map(|_| {
                (0..bytes)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        state as u8
                    })
                    .collect()
            })
            .collect()
    }

    fn roundtrip(original_count: usize, recovery_count: usize, erase: &[usize]) {
        let data = segment(original_count, 36, 0xF00D + original_count as u64);
        let refs: Vec<&[u8]> = data.iter().map(|s| s.as_slice()).collect();
        let recovery = encode_segment(&refs, recovery_count).expect("encode");
        assert_eq!(recovery.len(), recovery_count);

        // Erase the listed originals; supply just enough recovery shards.
        let original: Vec<Option<&[u8]>> = (0..original_count)
            .map(|i| (!erase.contains(&i)).then(|| data[i].as_slice()))
            .collect();
        let available: Vec<Option<&[u8]>> = (0..recovery_count)
            .map(|i| (i < erase.len()).then(|| recovery[i].as_slice()))
            .collect();
        let decoded = decode_segment(&original, &available).expect("decode");
        assert_eq!(decoded, data, "n={original_count} r={recovery_count} erase={erase:?}");
    }

    #[test]
    fn roundtrips_across_shapes() {
        roundtrip(1, 1, &[0]);
        roundtrip(4, 4, &[1, 2]);
        roundtrip(8, 8, &[0, 1, 2, 3, 4, 5, 6, 7]); // all originals from parity
        roundtrip(5, 3, &[4, 0]); // non-power-of-two both ways
        roundtrip(13, 7, &[12, 3, 9]);
        roundtrip(70, 6, &[69, 0]); // multiple IFFT chunks (m=8 < n=70)
    }

    #[test]
    fn error_locator_matches_the_length_2_16_transform() {
        // The construction before the folds: the indicator's FWHT at the
        // field's full length, times `log_walsh`, folded modulo `n_fft`.
        let t = tables();
        let data = segment(70, 2, 3);
        for (erase, lose) in
            [(&[0usize, 69][..], &[1usize][..]), (&[5, 6, 60], &[]), (&[], &[0, 5])]
        {
            let original: Vec<Option<&[u8]>> =
                (0..70).map(|i| (!erase.contains(&i)).then(|| data[i].as_slice())).collect();
            let recovery: Vec<Option<&[u8]>> =
                (0..6).map(|i| (!lose.contains(&i)).then(|| data[i].as_slice())).collect();
            let (m, n_fft) = (8, 128);
            let mut indicator = vec![0u16; ORDER];
            for p in lose.iter().copied().chain(6..m).chain(erase.iter().map(|i| m + i)) {
                indicator[p] = 1;
            }
            fwht(&mut indicator, ORDER);
            let mut want = vec![0u16; n_fft];
            for (i, (&e, &w)) in indicator.iter().zip(t.log_walsh_folded(ORDER)).enumerate() {
                let product = ((u32::from(e) * u32::from(w)) % u32::from(MODULUS)) as u16;
                want[i % n_fft] = crate::tables::add_mod(want[i % n_fft], product);
            }
            fwht(&mut want, n_fft);
            let got = error_locator(&t, &original, &recovery, m, n_fft);
            // Equal as residues: log 0 and log MODULUS both multiply by one.
            let residues = |v: &[u16]| v.iter().map(|x| x % MODULUS).collect::<Vec<_>>();
            assert_eq!(residues(&got), residues(&want), "erase {erase:?} lose {lose:?}");
        }
    }

    #[test]
    fn any_sufficient_recovery_subset_works() {
        let data = segment(6, 10, 42);
        let refs: Vec<&[u8]> = data.iter().map(|s| s.as_slice()).collect();
        let recovery = encode_segment(&refs, 6).expect("encode");
        // Lose originals 1 and 4; use recovery shards 3 and 5 (not 0/1).
        let original: Vec<Option<&[u8]>> =
            (0..6).map(|i| (i != 1 && i != 4).then(|| data[i].as_slice())).collect();
        let available: Vec<Option<&[u8]>> =
            (0..6).map(|i| (i == 3 || i == 5).then(|| recovery[i].as_slice())).collect();
        assert_eq!(decode_segment(&original, &available).expect("decode"), data);
    }

    #[test]
    fn systematic_fast_path_copies_without_field_work() {
        let data = segment(3, 8, 7);
        let original: Vec<Option<&[u8]>> = data.iter().map(|s| Some(s.as_slice())).collect();
        let before = crate::metrics::metrics().systematic_fast_path.get();
        let decoded = decode_segment(&original, &[None, None, None]).expect("fast path");
        assert_eq!(decoded, data);
        assert_eq!(crate::metrics::metrics().systematic_fast_path.get(), before + 1);
    }

    #[test]
    fn insufficient_survivors_are_rank_deficient_not_garbage() {
        let data = segment(4, 8, 9);
        let refs: Vec<&[u8]> = data.iter().map(|s| s.as_slice()).collect();
        let recovery = encode_segment(&refs, 2).expect("encode");
        let original: Vec<Option<&[u8]>> = vec![None, None, None, Some(data[3].as_slice())];
        let available: Vec<Option<&[u8]>> = vec![Some(recovery[0].as_slice()), None];
        assert!(matches!(
            decode_segment(&original, &available),
            Err(Error::RankDeficient { rank: 2, needed: 4 })
        ));
    }

    #[test]
    fn geometry_errors_are_clean() {
        assert!(encode_segment(&[], 1).is_err());
        assert!(encode_segment(&[&[1, 2, 3][..]], 1).is_err(), "odd shard length");
        assert!(encode_segment(&[&[1, 2][..]], 0).is_err());
        let mismatched: Vec<&[u8]> = vec![&[1, 2], &[1, 2, 3, 4]];
        assert!(matches!(
            encode_segment(&mismatched, 1),
            Err(Error::SizeMismatch { expected: 2, actual: 4 })
        ));
    }
}
