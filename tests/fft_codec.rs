//! The GF(2^16) additive-FFT codec inside the tier-1 command: encode on
//! every rung this CPU has against a Lagrange polynomial-evaluation
//! oracle built from scalar field operations only, round trips at the
//! benchmark's shape (4096 shards of 1 KiB) compared byte for byte, and
//! the stream codec at n = 4096 driven through `absorb`.

use extreme_nc::fft::engine::{decode_segment_with_kernel, encode_segment_with_kernel};
use extreme_nc::fft::simd::Gf16Kernel;
use extreme_nc::fft::{
    decode_segment, encode_segment, tables, Fft16StreamReceiver, Fft16StreamSender, Tables,
};
use extreme_nc::prelude::*;
use extreme_nc::rlnc::codec::{StreamCodecReceiver, StreamCodecSender};
use rand::seq::SliceRandom;
use rand::{RngCore, SeedableRng};

const SHARDS: usize = 4096;
const SHARD_BYTES: usize = 1024;

fn random_shards(rng: &mut impl RngCore, count: usize, bytes: usize) -> Vec<Vec<u8>> {
    (0..count)
        .map(|_| {
            let mut shard = vec![0u8; bytes];
            rng.fill_bytes(&mut shard);
            shard
        })
        .collect()
}

/// Symbol `i` of a shard in the split lo/hi plane layout.
fn symbol(shard: &[u8], i: usize) -> u16 {
    u16::from(shard[i]) | u16::from(shard[i + shard.len() / 2]) << 8
}

/// The value at `y` of the unique polynomial through `(xs[k], vs[k])`, by
/// textbook Lagrange interpolation: O(n²) scalar multiplies, no transform.
fn lagrange_eval(t: &Tables, xs: &[u16], vs: &[u16], y: u16) -> u16 {
    let mut acc = 0;
    for (i, (&xi, &vi)) in xs.iter().zip(vs).enumerate() {
        let (mut numerator, mut denominator) = (vi, 1);
        for (j, &xj) in xs.iter().enumerate() {
            if j != i {
                numerator = t.mul(numerator, y ^ xj);
                denominator = t.mul(denominator, xi ^ xj);
            }
        }
        acc ^= t.mul(numerator, t.inv(denominator));
    }
    acc
}

#[test]
fn encode_matches_a_lagrange_oracle_on_every_rung() {
    // 11 originals against 5 recovery shards: m = 8, two chunks (the
    // second ragged), originals at points 8.., parity j at point j.
    let t = tables();
    let (n, recovery, m, columns) = (11usize, 5usize, 8usize, 3usize);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x0F_AC1E);
    let data = random_shards(&mut rng, n, 2 * columns);
    let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
    let mut want = vec![vec![0u16; columns]; recovery];
    for chunk in 0..n.div_ceil(m) {
        let xs: Vec<u16> = (0..m).map(|k| (m + chunk * m + k) as u16).collect();
        for col in 0..columns {
            let vs: Vec<u16> =
                (0..m).map(|k| data.get(chunk * m + k).map_or(0, |s| symbol(s, col))).collect();
            for (j, row) in want.iter_mut().enumerate() {
                row[col] ^= lagrange_eval(&t, &xs, &vs, j as u16);
            }
        }
    }
    for kernel in Gf16Kernel::available() {
        let parity = encode_segment_with_kernel(kernel, &refs, recovery).expect("valid geometry");
        let got: Vec<Vec<u16>> =
            parity.iter().map(|s| (0..columns).map(|c| symbol(s, c)).collect()).collect();
        assert_eq!(got, want, "{kernel:?}");
    }
}

/// Erases `lost` originals, keeps as many recovery shards (chosen by
/// `rng`), decodes, and compares every byte.
fn round_trip(data: &[Vec<u8>], recovery: &[Vec<u8>], lost: &[usize], rng: &mut impl RngCore) {
    let mut original: Vec<Option<&[u8]>> = data.iter().map(|s| Some(s.as_slice())).collect();
    lost.iter().for_each(|&i| original[i] = None);
    let mut order: Vec<usize> = (0..recovery.len()).collect();
    order.shuffle(rng);
    let mut present: Vec<Option<&[u8]>> = vec![None; recovery.len()];
    order[..lost.len()].iter().for_each(|&i| present[i] = Some(recovery[i].as_slice()));
    let decoded = decode_segment(&original, &present).expect("enough survivors");
    assert!(decoded == data, "{} erasures: decoded shards differ from the originals", lost.len());
}

#[test]
fn round_trips_4096_by_1k_byte_for_byte() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x4096_1024);
    let data = random_shards(&mut rng, SHARDS, SHARD_BYTES);
    let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
    let recovery = encode_segment(&refs, SHARDS).expect("shape fits GF(2^16)");

    let mut order: Vec<usize> = (0..SHARDS).collect();
    order.shuffle(&mut rng);
    round_trip(&data, &recovery, &order[..SHARDS / 2], &mut rng); // 50% erasure
    round_trip(&data, &recovery, &order, &mut rng); // all originals lost
    round_trip(&data, &recovery, &[2731], &mut rng); // a single erasure

    // Every rung computes the same parity and the same recovered shards.
    let mut original: Vec<Option<&[u8]>> = refs.iter().map(|s| Some(*s)).collect();
    order[..SHARDS / 2].iter().for_each(|&i| original[i] = None);
    let present: Vec<Option<&[u8]>> = recovery.iter().map(|s| Some(s.as_slice())).collect();
    for kernel in Gf16Kernel::available() {
        assert!(
            encode_segment_with_kernel(kernel, &refs, SHARDS).expect("encode") == recovery,
            "{kernel:?} parity differs from the active kernel's"
        );
        assert!(
            decode_segment_with_kernel(kernel, &original, &present).expect("decode") == data,
            "{kernel:?} recovered shards differ from the originals"
        );
    }
}

#[test]
fn stream_codec_completes_on_the_nth_distinct_shard_at_n_4096() {
    // Half the originals and half the recovery shards, every frame sent
    // twice: duplicates must not count towards completion, so the segment
    // completes exactly when the 4096th *distinct* shard is absorbed.
    let config = CodingConfig::new(SHARDS, 64).expect("valid");
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x57EA);
    let mut data = vec![0u8; config.segment_bytes() - 100];
    rng.fill_bytes(&mut data);
    let sender = Fft16StreamSender::new(config, &data).expect("shape fits the codec");
    let mut receiver = Fft16StreamReceiver::new(config, 1, data.len()).expect("shape");

    let shards: Vec<usize> = (0..SHARDS / 2).chain(SHARDS..SHARDS + SHARDS / 2).collect();
    for (count, &shard) in shards.iter().enumerate() {
        let frame = sender.frame_wire(0, shard as u64, &mut rng);
        let first = receiver.absorb(&frame).expect("well-formed frame");
        assert!(first.innovative, "shard {shard} is new");
        assert_eq!(first.segment_complete, count + 1 == SHARDS, "after {} shards", count + 1);
        let again = receiver.absorb(&frame).expect("well-formed frame");
        assert!(!again.innovative && !again.segment_complete, "shard {shard} repeated");
    }
    assert!(receiver.is_complete());
    assert!(receiver.recover().as_deref() == Some(data.as_slice()), "stream differs");
}
