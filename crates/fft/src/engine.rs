//! Segment-level systematic encode and erasure decode.
//!
//! A segment is `original_count` equal-length shards (the *original*
//! data) plus `recovery_count` parity shards. Encoding evaluates the data
//! polynomial over recovery cosets with one truncated IFFT per m-sized
//! chunk and a final FFT — O((n/m)·m log m + m log m) region operations —
//! and decoding recovers any erased originals from any mix of surviving
//! shards via the Lin–Chung–Han construction: an error-locator built with
//! two Walsh-Hadamard transforms against the precomputed `log_walsh`
//! table, one big IFFT, a formal derivative, and one big FFT. Compare
//! dense RLNC's O(n²) coefficient work per segment and O(n³) Gaussian
//! elimination.
//!
//! The working set of a call is one contiguous [`Arena`] taken from the
//! process [`BytesPool`] and returned to it, so steady-state coding keeps
//! two large buffers alive instead of allocating per shard; output shards
//! are pool vectors filled by copy (no zeroing pass). Both paths record
//! wall time into the `fft.encode_ns` / `fft.decode_ns` histograms; a
//! decode whose originals all survived is the *systematic fast path* —
//! counted in `fft.systematic_fast_path` and answered by pure copy.

use crate::afft::{block_shards, fft, formal_derivative, ifft, Arena};
use crate::metrics::metrics;
use crate::simd::{self, Gf16Kernel};
use crate::tables::{add_mod, fwht, tables, MODULUS, ORDER};
use nc_pool::BytesPool;
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
/// kernel.
///
/// Shards must all be the same non-zero even length (GF(2^16) symbols).
/// Capacity bound: with `m = recovery_count.next_power_of_two()`, the
/// evaluation cosets `m·1 .. m·(chunks+1)` must fit the field, i.e.
/// `m + original.len()` rounded up to chunks of `m` stays ≤ 2^16.
pub fn encode_segment(original: &[&[u8]], recovery_count: usize) -> Result<Vec<Vec<u8>>, Error> {
    encode_segment_with_kernel(simd::active_kernel(), original, recovery_count)
}

/// [`encode_segment`] on an explicit kernel (tests, ablation); a kernel
/// the host lacks runs portably.
pub fn encode_segment_with_kernel(
    kernel: Gf16Kernel,
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
    let block = block_shards(shard_bytes);

    // Accumulate Σ_c IFFT(chunk c over coset m + c·m) into `work`.
    let transform = |arena: &mut Arena, c: usize, chunk: &[&[u8]]| {
        chunk.iter().for_each(|shard| arena.push(shard));
        arena.pad_zeroed(m);
        ifft(&t, kernel, arena, m, chunk.len(), m + c * m, block);
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

    // Evaluate over the recovery coset (points 0..m); only the first
    // `recovery_count` outputs are computed and leave the function.
    fft(&t, kernel, &mut work, m, 0..recovery_count, 0, block);
    let recovery = (0..recovery_count).map(|i| pool.take_vec_copy(work.shard(i))).collect();
    work.recycle(pool);

    let mx = metrics();
    mx.encode_ns.record(started.elapsed().as_nanos() as u64);
    mx.recovery_shards.add(recovery_count as u64);
    Ok(recovery)
}

/// Recovers the full original shard list from whatever survived, on the
/// active kernel.
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
    decode_segment_with_kernel(simd::active_kernel(), original, recovery)
}

/// [`decode_segment`] on an explicit kernel (tests, ablation); a kernel
/// the host lacks runs portably.
pub fn decode_segment_with_kernel(
    kernel: Gf16Kernel,
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
    let block = block_shards(shard_bytes);

    // Error locator: 1 at every erased position (padding recovery
    // positions count as erased), then two FWHTs against log_walsh turn
    // the indicator into the log-domain evaluations of the locator
    // polynomial at the field points. Only the first `n_fft` evaluations
    // are read, so the second transform runs at length `n_fft` over the
    // product folded modulo `n_fft` instead of at length `ORDER`.
    let mut indicator = vec![0u16; ORDER];
    for (e, r) in indicator.iter_mut().zip(recovery.iter()) {
        if r.is_none() {
            *e = 1;
        }
    }
    for e in indicator.iter_mut().take(m).skip(recovery_count) {
        *e = 1;
    }
    for (i, o) in original.iter().enumerate() {
        if o.is_none() {
            indicator[m + i] = 1;
        }
    }
    fwht(&mut indicator, m + original_count);
    let mut err_loc = vec![0u16; n_fft];
    for (i, (&e, &w)) in indicator.iter().zip(t.log_walsh.iter()).enumerate() {
        let product = ((u32::from(e) * u32::from(w)) % u32::from(MODULUS)) as u16;
        let folded = &mut err_loc[i % n_fft];
        *folded = add_mod(*folded, product);
    }
    fwht(&mut err_loc, n_fft);

    // The work arena, filled in position order: present shards scaled by
    // the locator, erased and padding positions zero. Nothing else is
    // zeroed — the buffer arrives with stale contents.
    let mut work = Arena::new(pool, n_fft, shard_bytes);
    let mut place = |position: usize, shard: &Option<&[u8]>| {
        work.pad_zeroed(position);
        if let Some(shard) = shard {
            work.push(shard);
            simd::mul_assign_with_kernel(kernel, &t, work.shard_mut(position), err_loc[position]);
        }
    };
    recovery.iter().enumerate().for_each(|(i, r)| place(i, r));
    original.iter().enumerate().for_each(|(i, o)| place(m + i, o));
    work.pad_zeroed(n_fft);

    // Only the erased originals are read back, so only the outputs from
    // the first to the last of them are evaluated.
    let last_erased = original.iter().rposition(Option::is_none).expect("one is erased");
    ifft(&t, kernel, &mut work, n_fft, m + original_count, 0, block);
    formal_derivative(&mut work, n_fft, block);
    fft(&t, kernel, &mut work, n_fft, m + first_erased..m + last_erased + 1, 0, block);

    let out = original
        .iter()
        .enumerate()
        .map(|(i, o)| match o {
            Some(shard) => pool.take_vec_copy(shard),
            None => {
                let mut recovered = pool.take_vec_copy(work.shard(m + i));
                let unscale = MODULUS - err_loc[m + i];
                simd::mul_assign_with_kernel(kernel, &t, &mut recovered, unscale);
                recovered
            }
        })
        .collect();
    work.recycle(pool);

    let mx = metrics();
    mx.decode_ns.record(started.elapsed().as_nanos() as u64);
    mx.decodes.inc();
    Ok(out)
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
