//! The systematic dense stream path against the non-systematic reference.
//!
//! The dense sender opens every segment with its `n` source blocks verbatim
//! (`seq < n`, unit coefficient vectors) and codes random combinations
//! after that; `StreamDecoder` copies a unit frame into its source's slot
//! and solves only the sources that did not arrive that way. A seeded
//! sweep over shapes, tail padding, loss, duplicates, reordering and late
//! frames must decode bit-exact against the source and agree frame by
//! frame with one reference `Decoder` per segment, whatever mix of unit and
//! coded frames arrives. Hostile unit-like rows must never panic.

use extreme_nc::rlnc::codec::DenseRlncCodec;
use extreme_nc::rlnc::{CodedBlock, CodingConfig, Decoder, ErasureCodec, StreamCodecReceiver};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

const SEGMENTS: usize = 3;

/// How a segment's frames are put on the link.
#[derive(Copy, Clone, Debug)]
enum Schedule {
    /// Sequence order, segments round-robin.
    InOrder,
    /// Each delivery picks a random frame among those in flight.
    Reordered,
    /// Frame `n` (the first coded one) goes out before the source blocks,
    /// so it borrows slot 0 and every unit frame after it moves it on.
    CodedFirst,
}

impl Schedule {
    /// The sequence number of a segment's `index`-th frame on the link.
    fn seq(self, n: usize, index: usize) -> u64 {
        let seq = match self {
            Schedule::CodedFirst if index == 0 => n,
            Schedule::CodedFirst if index <= n => index - 1,
            _ => index,
        };
        seq as u64
    }
}

/// A frame on the link: its segment, its sequence number, its wire bytes.
type Frame = (usize, u64, Vec<u8>);

/// The coded block a frame carries, for the reference `Decoder`: the `n`
/// coefficients and `k` payload bytes behind the 8-byte segment header.
fn block_of(config: CodingConfig, wire: &[u8]) -> CodedBlock {
    assert_eq!(wire.len(), 8 + config.coded_block_bytes(), "frame length");
    let (coefficients, payload) = wire[8..].split_at(config.blocks());
    CodedBlock::new(coefficients.to_vec(), payload.to_vec())
}

/// The receiving end of one transfer, checked frame by frame against one
/// reference `Decoder` per segment.
struct Checked {
    config: CodingConfig,
    case: String,
    receiver: Box<dyn StreamCodecReceiver>,
    reference: Vec<Decoder>,
    /// Innovative unit frames absorbed, per segment.
    unit_rows: Vec<usize>,
    /// `ℓ`, the sources solved at completion, per completed segment.
    lost_rows: Vec<usize>,
}

impl Checked {
    fn deliver(&mut self, (segment, seq, wire): Frame) {
        let n = self.config.blocks();
        let case = format!("{} segment {segment} seq {seq}", self.case);
        let absorbed = self.receiver.absorb(&wire).expect("well-formed frame");
        assert_eq!(absorbed.segment, segment, "{case}");
        let reference = &mut self.reference[segment];
        let was_complete = reference.is_complete();
        let want = reference.push(block_of(self.config, &wire)).expect("right shape");
        assert_eq!(absorbed.innovative, want, "{case}");
        let completed = !was_complete && reference.is_complete();
        assert_eq!(absorbed.segment_complete, completed, "{case}");
        assert_eq!(self.receiver.segment_complete(segment), reference.is_complete(), "{case}");
        if want && seq < n as u64 {
            self.unit_rows[segment] += 1;
        }
        if completed {
            self.lost_rows.push(n - self.unit_rows[segment]);
        }
    }

    fn all_complete(&self) -> bool {
        self.reference.iter().all(Decoder::is_complete)
    }
}

/// One transfer of a tail-padded `SEGMENTS`-segment stream through a lossy,
/// duplicating link; returns `ℓ` for every segment.
fn transfer(config: CodingConfig, loss: f64, order: Schedule, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (n, segment_bytes) = (config.blocks(), config.segment_bytes());
    let len = SEGMENTS * segment_bytes - rng.gen_range(0..segment_bytes);
    let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
    let sender = DenseRlncCodec.make_sender(config, &data).expect("non-empty");
    assert_eq!(sender.total_segments(), SEGMENTS);
    let case = format!("n {n} k {} loss {loss} {order:?} seed {seed}", config.block_size());
    let mut rx = Checked {
        config,
        case: case.clone(),
        receiver: DenseRlncCodec.make_receiver(config, SEGMENTS, len).expect("valid announce"),
        reference: (0..SEGMENTS).map(|_| Decoder::new(config)).collect(),
        unit_rows: vec![0; SEGMENTS],
        lost_rows: Vec::new(),
    };
    let mut sent = [0usize; SEGMENTS];
    let mut in_flight: Vec<Frame> = Vec::new();
    let hold = if matches!(order, Schedule::Reordered) { 6 } else { 0 };
    for round in 0.. {
        assert!(round < 10_000, "no progress: {case}");
        if rx.all_complete() && in_flight.is_empty() {
            break;
        }
        for (segment, sent) in sent.iter_mut().enumerate() {
            if rx.reference[segment].is_complete() {
                continue;
            }
            let seq = order.seq(n, *sent);
            *sent += 1;
            let wire = sender.frame_wire(segment, seq, &mut rng);
            if rng.gen_bool(loss) {
                continue;
            }
            if rng.gen_bool(0.05) {
                in_flight.push((segment, seq, wire.clone()));
            }
            in_flight.push((segment, seq, wire));
        }
        let keep = if rx.all_complete() { 0 } else { hold };
        while in_flight.len() > keep {
            let at = if hold > 0 { rng.gen_range(0..in_flight.len()) } else { 0 };
            rx.deliver(in_flight.remove(at));
        }
    }
    // Late frames, unit and coded, change nothing once a segment is done.
    for (segment, sent) in sent.into_iter().enumerate() {
        for seq in [0, n as u64 - 1, n as u64, sent as u64 + 7] {
            rx.deliver((segment, seq, sender.frame_wire(segment, seq, &mut rng)));
        }
    }
    let mut want: Vec<u8> =
        rx.reference.iter().flat_map(|d| d.recover().expect("complete")).collect();
    want.truncate(len);
    assert_eq!(want, data, "reference decode: {case}");
    assert!(rx.receiver.is_complete(), "{case}");
    assert_eq!(rx.receiver.recover().expect("complete"), data, "{case}");
    assert_eq!(rx.receiver.into_recovered().expect("complete"), data, "{case}");
    rx.lost_rows
}

#[test]
fn systematic_and_coded_arrivals_decode_bit_exact_against_the_reference() {
    let mut seen = BTreeSet::new();
    let mut seed = 0x5eed_0000u64;
    for n in 1..=20 {
        for k in [1, 19, 130] {
            let config = CodingConfig::new(n, k).expect("valid");
            for loss in [0.0, 0.2, 0.45, 0.7] {
                for order in [Schedule::InOrder, Schedule::Reordered, Schedule::CodedFirst] {
                    seed += 1;
                    for lost in transfer(config, loss, order, seed) {
                        if loss == 0.0 && matches!(order, Schedule::InOrder) {
                            assert_eq!(lost, 0, "a lossless systematic segment solves nothing");
                        }
                        seen.insert(match lost {
                            0 => "none",
                            1..=7 => "row-at-a-time",
                            _ => "tiled",
                        });
                    }
                }
            }
        }
    }
    // ℓ = 0 skips the product; ℓ < 8 runs the row-at-a-time path only;
    // ℓ >= 8 fills at least one eight-output GFNI tile.
    assert_eq!(seen, BTreeSet::from(["none", "row-at-a-time", "tiled"]));
}

/// One frame of segment 0 of a one-segment stream, built by hand: segment
/// index and segment count (4 bytes little-endian each), then the
/// coefficients and the payload.
fn frame(coefficients: Vec<u8>, payload: Vec<u8>) -> Vec<u8> {
    [&0u32.to_le_bytes()[..], &1u32.to_le_bytes(), &coefficients, &payload].concat()
}

#[test]
fn hostile_unit_like_rows_never_panic_and_scaled_units_still_decode() {
    let config = CodingConfig::new(6, 32).expect("valid");
    let (n, k) = (config.blocks(), config.block_size());
    let mut rng = StdRng::seed_from_u64(26);
    let data: Vec<u8> = (0..config.segment_bytes()).map(|_| rng.gen()).collect();
    let source = |i: usize| &data[i * k..(i + 1) * k];
    let unit = |i: usize, c: u8| {
        let mut coefficients = vec![0; n];
        coefficients[i] = c;
        coefficients
    };
    let scaled = |i: usize, c: u8| {
        let mut payload = vec![0; k];
        extreme_nc::gf256::region::mul_into(&mut payload, source(i), c);
        payload
    };

    // Honest but unusual rows: `c·e_i` is a coded frame (its payload is
    // `c·b_i`), so a later `e_i` is dependent; zero rows and repeated unit
    // rows are dependent too.
    let sender = DenseRlncCodec.make_sender(config, &data).expect("non-empty");
    let mut receiver = DenseRlncCodec.make_receiver(config, 1, data.len()).expect("valid");
    let mut reference = Decoder::new(config);
    let honest = [
        frame(vec![0; n], vec![0xA5; k]),
        frame(unit(2, 7), scaled(2, 7)),
        frame(unit(2, 1), source(2).to_vec()),
        frame(unit(0, 1), source(0).to_vec()),
        frame(unit(0, 1), source(0).to_vec()),
        frame(unit(4, 0x53), scaled(4, 0x53)),
        frame(unit(1, 1), source(1).to_vec()),
    ];
    for wire in
        honest.iter().cloned().chain((n as u64..).map(|seq| sender.frame_wire(0, seq, &mut rng)))
    {
        if reference.is_complete() {
            break;
        }
        let want = reference.push(block_of(config, &wire));
        assert_eq!(receiver.absorb(&wire).expect("well-formed").innovative, want.expect("shape"));
    }
    assert_eq!(receiver.recover().expect("complete"), data);

    // Lying rows: unit-like coefficients over garbage payloads, in any
    // mix. The result is garbage, but every call returns and the
    // receiver completes with a segment of the right length.
    for seed in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut receiver = DenseRlncCodec.make_receiver(config, 1, data.len()).expect("valid");
        for _ in 0..4 * n {
            let i = rng.gen_range(0..n);
            let coefficients = match rng.gen_range(0..4) {
                0 => vec![0; n],
                1 => unit(i, 1),
                2 => unit(i, rng.gen_range(2..=255)),
                _ => (0..n).map(|_| rng.gen()).collect(),
            };
            let payload: Vec<u8> = (0..k).map(|_| rng.gen()).collect();
            receiver.absorb(&frame(coefficients, payload)).expect("well-formed");
        }
        if receiver.is_complete() {
            assert_eq!(receiver.recover().expect("complete").len(), data.len());
        }
    }
}
