//! Property-based tests of the end-to-end coding invariants.

use nc_rlnc::prelude::*;
use nc_rlnc::stream::StreamEncoder;
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

fn arb_config() -> impl Strategy<Value = CodingConfig> {
    (1usize..24, 1usize..96).prop_map(|(n, k)| CodingConfig::new(n, k).expect("non-zero dims"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any segment decodes from random dense coded blocks, for any (n, k).
    #[test]
    fn encode_decode_roundtrip(config in arb_config(), seed: u64) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data: Vec<u8> = (0..config.segment_bytes()).map(|_| rng.gen()).collect();
        let encoder = Encoder::new(Segment::from_bytes(config, data.clone()).unwrap());
        let mut decoder = Decoder::new(config);
        let mut attempts = 0;
        while !decoder.is_complete() {
            decoder.push(encoder.encode(&mut rng)).unwrap();
            attempts += 1;
            prop_assert!(attempts < config.blocks() + 64, "decode failed to converge");
        }
        prop_assert_eq!(decoder.recover().unwrap(), data);
    }

    /// Progressive and two-stage decoding recover identical segments from
    /// identical block sets.
    #[test]
    fn decoders_agree(config in arb_config(), seed: u64) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data: Vec<u8> = (0..config.segment_bytes()).map(|_| rng.gen()).collect();
        let encoder = Encoder::new(Segment::from_bytes(config, data.clone()).unwrap());

        let mut progressive = Decoder::new(config);
        let mut two_stage = TwoStageDecoder::new(config);
        let mut attempts = 0;
        while !two_stage.is_full() {
            let block = encoder.encode(&mut rng);
            let innovative_ts = two_stage.push(block.clone()).unwrap();
            let innovative_pg = progressive.push(block).unwrap();
            // Both decoders must agree on what is innovative.
            prop_assert_eq!(innovative_ts, innovative_pg);
            attempts += 1;
            prop_assert!(attempts < config.blocks() + 64);
        }
        prop_assert_eq!(two_stage.decode().unwrap(), data.clone());
        prop_assert_eq!(progressive.recover().unwrap(), data);
    }

    /// Recoding at an intermediate hop never breaks decodability once the
    /// hop has gathered full rank.
    #[test]
    fn recoding_preserves_decodability(config in arb_config(), seed: u64) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data: Vec<u8> = (0..config.segment_bytes()).map(|_| rng.gen()).collect();
        let encoder = Encoder::new(Segment::from_bytes(config, data.clone()).unwrap());

        let mut recoder = Recoder::new(config);
        // Gather enough blocks to have full rank with overwhelming probability.
        for _ in 0..config.blocks() + 8 {
            recoder.push(encoder.encode(&mut rng)).unwrap();
        }
        let mut decoder = Decoder::new(config);
        let mut attempts = 0;
        while !decoder.is_complete() {
            decoder.push(recoder.recode(&mut rng).unwrap()).unwrap();
            attempts += 1;
            prop_assert!(attempts < config.blocks() + 96, "recoded stream stalled");
        }
        prop_assert_eq!(decoder.recover().unwrap(), data);
    }

    /// The wire format roundtrips bit-exactly.
    #[test]
    fn wire_roundtrip(config in arb_config(), seed: u64) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data: Vec<u8> = (0..config.segment_bytes()).map(|_| rng.gen()).collect();
        let encoder = Encoder::new(Segment::from_bytes(config, data).unwrap());
        let block = encoder.encode(&mut rng);
        let parsed = CodedBlock::from_wire(config, &block.to_wire()).unwrap();
        prop_assert_eq!(parsed, block);
    }

    /// Matrix inversion: A · A⁻¹ == I for random invertible matrices.
    #[test]
    fn matrix_inverse_property(n in 1usize..24, seed: u64) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let m = GfMatrix::random_dense(n, &mut rng);
        match m.invert() {
            Ok(inv) => {
                prop_assert!(m.mul(&inv).unwrap().is_identity());
                prop_assert!(inv.mul(&m).unwrap().is_identity());
            }
            Err(_) => prop_assert!(m.rank() < n, "invert refused a full-rank matrix"),
        }
    }

    /// Rank never exceeds the number of innovative pushes, and dependent
    /// blocks never change the decoder state.
    #[test]
    fn rank_monotonicity(config in arb_config(), seed: u64) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data: Vec<u8> = (0..config.segment_bytes()).map(|_| rng.gen()).collect();
        let encoder = Encoder::new(Segment::from_bytes(config, data).unwrap());
        let mut decoder = Decoder::new(config);
        let mut last_rank = 0;
        for _ in 0..config.blocks() * 2 {
            let innovative = decoder.push(encoder.encode(&mut rng)).unwrap();
            let rank = decoder.rank();
            if innovative {
                prop_assert_eq!(rank, last_rank + 1);
            } else {
                prop_assert_eq!(rank, last_rank);
            }
            last_rank = rank;
        }
        let s = decoder.stats();
        prop_assert_eq!(s.received, config.blocks() * 2);
        prop_assert_eq!(s.innovative + s.discarded_dependent, s.received);
    }

    /// A batch is the same blocks — coefficient vectors and payloads — as
    /// that many successive single encodes from the same RNG state, for
    /// counts on both sides of the eight-row kernel tile.
    #[test]
    fn batch_equals_successive_encodes(config in arb_config(), count in 0usize..20, seed: u64) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data: Vec<u8> = (0..config.segment_bytes()).map(|_| rng.gen()).collect();
        let encoder = Encoder::new(Segment::from_bytes(config, data).unwrap());
        let mut rng_batch = rand::rngs::StdRng::seed_from_u64(seed ^ 1);
        let mut rng_serial = rand::rngs::StdRng::seed_from_u64(seed ^ 1);
        let batch = encoder.encode_batch(&mut rng_batch, count);
        let serial: Vec<CodedBlock> = (0..count).map(|_| encoder.encode(&mut rng_serial)).collect();
        prop_assert_eq!(batch, serial);
        // Both left the RNG in the same state.
        prop_assert_eq!(rng_batch.gen::<u64>(), rng_serial.gen::<u64>());
    }

    /// Both decoders recover the source from an arrival order that mixes
    /// systematic, coded, duplicated and recoded (dependent) blocks, agree on
    /// every innovation verdict, refuse everything after completion, and
    /// return the same bytes however often they are asked.
    #[test]
    fn decoders_agree_on_hostile_arrivals(config in arb_config(), systematic: bool, seed: u64) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = config.blocks();
        let data: Vec<u8> = (0..config.segment_bytes()).map(|_| rng.gen()).collect();
        let encoder = Encoder::new(Segment::from_bytes(config, data.clone()).unwrap());

        let mut arrivals: Vec<CodedBlock> = if systematic {
            (0..n).map(|i| encoder.systematic(i)).collect()
        } else {
            let mut mixed: Vec<CodedBlock> = (0..n / 2).map(|i| encoder.systematic(i)).collect();
            mixed.extend(encoder.encode_batch(&mut rng, n + 8));
            mixed
        };
        // Duplicates, and a combination of two blocks already in the set.
        arrivals.push(arrivals[0].clone());
        arrivals.push(arrivals[n / 2].clone());
        let mut recoder = Recoder::new(config);
        recoder.push(arrivals[0].clone()).unwrap();
        recoder.push(arrivals[n - 1].clone()).unwrap();
        arrivals.push(recoder.recode(&mut rng).unwrap());
        arrivals.shuffle(&mut rng);

        let mut progressive = Decoder::new(config);
        let mut two_stage = TwoStageDecoder::new(config);
        let mut innovative = 0;
        for block in &arrivals {
            let verdict = progressive.push(block.clone()).unwrap();
            prop_assert_eq!(two_stage.push(block.clone()).unwrap(), verdict);
            innovative += usize::from(verdict);
            prop_assert_eq!(progressive.rank(), innovative);
            prop_assert_eq!(progressive.recover().is_some(), innovative == n);
        }
        // All-systematic input always completes; n/2 + n + 8 mixed draws
        // fall short with probability below 2^-64.
        prop_assert!(progressive.is_complete() && two_stage.is_full());
        prop_assert_eq!(two_stage.blocks().len(), n);
        for late in [encoder.encode(&mut rng), encoder.systematic(0)] {
            prop_assert!(!progressive.push(late.clone()).unwrap());
            prop_assert!(!two_stage.push(late).unwrap());
        }
        prop_assert_eq!(progressive.recover().unwrap(), data.clone());
        prop_assert_eq!(progressive.recover().unwrap(), data.clone());
        prop_assert_eq!(two_stage.decode().unwrap(), data.clone());
        prop_assert_eq!(two_stage.decode().unwrap(), data);
    }

    /// `next_frames` is `next_frame` called that many times: same segments,
    /// same coefficient vectors, same payloads, whatever the batch size and
    /// however the draws fall on the segments.
    #[test]
    fn next_frames_equals_next_frame(
        config in arb_config(),
        segments in 1usize..5,
        count in 0usize..40,
        seed: u64,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let len = (segments - 1) * config.segment_bytes() + 1 + rng.gen_range(0..config.segment_bytes());
        let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        let serial = StreamEncoder::new(config, &data).unwrap();
        let batched = StreamEncoder::new(config, &data).unwrap();
        let mut rng_serial = rand::rngs::StdRng::seed_from_u64(seed ^ 1);
        let mut rng_batch = rand::rngs::StdRng::seed_from_u64(seed ^ 1);
        // Two batches, so the second starts mid-rotation.
        for _ in 0..2 {
            let want: Vec<_> = (0..count).map(|_| serial.next_frame(&mut rng_serial)).collect();
            prop_assert_eq!(batched.next_frames(&mut rng_batch, count), want);
        }
    }
}
