//! Property tests for the circular-shift codec: every generation shape and
//! point subset must round-trip encode → decode bit-exact through the
//! trait-object seam, with the same stream semantics as dense RLNC.

use nc_rlnc::circshift::lifted_len;
use nc_rlnc::codec::{DenseRlncCodec, ErasureCodec};
use nc_rlnc::{CircShiftCodec, CodecId, CodingConfig};
use proptest::prelude::*;
use rand::SeedableRng;

/// Exhaustive over tiny shapes: every (n, k) with n, k ≤ 6, recovering
/// from the *last* n points of the point space rather than the first.
#[test]
fn all_small_shapes_roundtrip_from_arbitrary_points() {
    let codec = CircShiftCodec;
    for n in 1..=6usize {
        for k in 1..=6usize {
            let config = CodingConfig::new(n, k).unwrap();
            let ell = lifted_len(config).unwrap();
            let data: Vec<u8> =
                (0..(2 * config.segment_bytes() - 1)).map(|i| (i * 89 + n * 7 + k) as u8).collect();
            let sender = codec.make_sender(config, &data).unwrap();
            let mut receiver = codec
                .make_receiver(config, sender.total_segments(), sender.original_len())
                .unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64((n * 31 + k) as u64);
            for seq in ((ell - n) as u64)..(ell as u64) {
                for segment in 0..sender.total_segments() {
                    receiver.absorb(&sender.frame_wire(segment, seq, &mut rng)).unwrap();
                }
            }
            assert!(receiver.is_complete(), "n={n} k={k}");
            assert_eq!(receiver.recover().unwrap(), data, "n={n} k={k}");
        }
    }
}

#[test]
fn circshift_frames_are_rejected_by_the_rlnc_receiver() {
    // Cross-codec safety: a circular-shift frame must not be absorbable as
    // a dense RLNC frame of the same stream shape (sizes differ by design:
    // L > k and the header layouts disagree).
    let config = CodingConfig::new(4, 16).unwrap();
    let data = vec![7u8; config.segment_bytes()];
    let sender = CircShiftCodec.make_sender(config, &data).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let frame = sender.frame_wire(0, 0, &mut rng);
    let mut rlnc = DenseRlncCodec.make_receiver(config, 1, data.len()).unwrap();
    assert!(rlnc.absorb(&frame).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn proptest_roundtrip_random_shapes_points_and_data(
        n in 1usize..12,
        k in 1usize..48,
        seed in 0u64..1024,
    ) {
        let config = CodingConfig::new(n, k).unwrap();
        let ell = lifted_len(config).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        use rand::Rng;
        let len = 1 + (seed as usize * 17) % (3 * config.segment_bytes());
        let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        let codec = CircShiftCodec;
        let sender = codec.make_sender(config, &data).unwrap();
        prop_assert_eq!(sender.codec(), CodecId::CircShift);
        let mut receiver = codec
            .make_receiver(config, sender.total_segments(), sender.original_len())
            .unwrap();
        // A random permutation of the point space delivers n distinct
        // points per segment in arbitrary order.
        let mut points: Vec<u64> = (0..ell as u64).collect();
        for i in (1..points.len()).rev() {
            points.swap(i, rng.gen_range(0..=i));
        }
        for &p in points.iter().take(n) {
            for segment in 0..sender.total_segments() {
                let absorbed = receiver.absorb(&sender.frame_wire(segment, p, &mut rng)).unwrap();
                prop_assert!(absorbed.innovative);
            }
        }
        prop_assert!(receiver.is_complete());
        prop_assert_eq!(receiver.recover().unwrap(), data);
    }

    #[test]
    fn proptest_duplicates_never_complete_early(
        n in 2usize..8,
        k in 1usize..16,
        seed in 0u64..256,
    ) {
        let config = CodingConfig::new(n, k).unwrap();
        let data = vec![0x5Au8; config.segment_bytes()];
        let codec = CircShiftCodec;
        let sender = codec.make_sender(config, &data).unwrap();
        let mut receiver = codec.make_receiver(config, 1, data.len()).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        // n−1 distinct points, each delivered twice: still incomplete.
        for p in 0..(n as u64 - 1) {
            for _ in 0..2 {
                receiver.absorb(&sender.frame_wire(0, p, &mut rng)).unwrap();
            }
        }
        prop_assert!(!receiver.is_complete());
        prop_assert!(receiver.recover().is_none());
        receiver.absorb(&sender.frame_wire(0, n as u64 - 1, &mut rng)).unwrap();
        prop_assert!(receiver.is_complete());
        prop_assert_eq!(receiver.recover().unwrap(), data);
    }
}
