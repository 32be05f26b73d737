//! Integration of the stream-transfer layer with the substrates: lossy
//! delivery, recoding relays, and the streaming planner's peer counts
//! fitting the load they admit.

use extreme_nc::net::streaming::{CapacityPlan, Nic, StreamProfile};
use extreme_nc::prelude::*;
use extreme_nc::rlnc::stream::{StreamDecoder, StreamEncoder};
use extreme_nc::rlnc::{StreamCodecReceiver, StreamCodecSender};
use rand::{Rng, SeedableRng};

#[test]
fn lossy_stream_transfer_recovers_exactly() {
    let config = CodingConfig::new(8, 64).expect("valid");
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let file: Vec<u8> = (0..10_000).map(|_| rng.gen()).collect();
    let sender = StreamEncoder::new(config, &file).expect("non-empty");
    let mut receiver = StreamDecoder::new(config, sender.total_segments(), file.len());

    // Segments round-robin, each from its first systematic frame on.
    let mut seq = vec![0u64; sender.total_segments()];
    let mut guard = 0;
    for segment in (0..sender.total_segments()).cycle() {
        if receiver.is_complete() {
            break;
        }
        let frame = sender.frame_wire(segment, seq[segment], &mut rng);
        seq[segment] += 1;
        if rng.gen_bool(0.3) {
            continue; // 30% loss, no retransmission
        }
        receiver.absorb(&frame).expect("well-formed");
        guard += 1;
        assert!(guard < 20 * sender.total_segments() * config.blocks(), "stalled");
    }
    assert_eq!(receiver.recover().expect("complete"), file);
}

#[test]
fn a_sink_fed_by_two_partial_relays_decodes_bit_exact() {
    // Relays A and B each buffer a different half of a generation's coded
    // blocks. A's recodes alone cannot lift the sink past half rank;
    // recodes from both complete the generation.
    let config = CodingConfig::new(8, 32).expect("valid");
    let mut rng = rand::rngs::StdRng::seed_from_u64(77);
    let data: Vec<u8> = (0..config.segment_bytes()).map(|_| rng.gen()).collect();
    let encoder = Encoder::new(Segment::from_bytes(config, data.clone()).expect("sized"));
    let (mut a, mut b) = (Recoder::new(config), Recoder::new(config));
    for relay in [&mut a, &mut b] {
        for _ in 0..config.blocks() / 2 {
            relay.push(encoder.encode(&mut rng)).expect("well-formed");
        }
    }
    let mut sink = Decoder::new(config);
    for _ in 0..2 * config.blocks() {
        sink.push(a.recode(&mut rng).expect("buffered")).expect("well-formed");
    }
    assert_eq!(sink.rank(), config.blocks() / 2, "A alone holds half the generation");
    for relay in [&b, &a].into_iter().cycle().take(4 * config.blocks()) {
        if sink.is_complete() {
            break;
        }
        sink.push(relay.recode(&mut rng).expect("buffered")).expect("well-formed");
    }
    assert_eq!(sink.recover().expect("complete"), data);
}

#[test]
fn capacity_planner_admits_its_servable_load_and_no_more() {
    // One compute-bound plan (150 MB/s under two GigE) and one NIC-bound
    // plan (294 MB/s behind one GigE): the planned peers' coded demand fits
    // under the tighter of the two rates, and 10% more peers do not.
    let profile = StreamProfile::high_quality_video();
    for (rate, nic) in [(150.0e6, Nic::gigabit_bonded(2)), (294.0e6, Nic::gigabit())] {
        let plan = CapacityPlan::plan(rate, profile, nic);
        let capacity = rate.min(nic.total_bytes_per_s());
        let load = |peers: usize| peers as f64 * profile.coded_bytes_per_peer();

        let servable = plan.servable_peers();
        assert!(load(servable) <= capacity, "planned load must be servable: {plan:?}");
        let over = servable + servable / 10 + 1;
        assert!(load(over) > capacity, "oversubscription must show: {plan:?}");
    }
}

#[test]
fn gpu_encoded_stream_is_decodable_frame_by_frame() {
    use extreme_nc::gpu::api::EncodeScheme;

    // A server that encodes frames on the (simulated) GPU; frames travel
    // through the stream wire format.
    let config = CodingConfig::new(8, 64).expect("valid");
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let file: Vec<u8> = (0..config.segment_bytes() * 2).map(|_| rng.gen()).collect();
    let segments: Vec<Segment> = extreme_nc::rlnc::segment::segment_stream(config, &file);
    let mut gpu = GpuEncoder::new(DeviceSpec::gtx280(), EncodeScheme::Table(TableVariant::Tb4));

    let mut receiver = StreamDecoder::new(config, segments.len(), file.len());
    'outer: for (idx, seg) in segments.iter().enumerate() {
        // Generate n+2 coded blocks for this segment on the GPU.
        let coeffs: Vec<Vec<u8>> = (0..config.blocks() + 2)
            .map(|_| (0..config.blocks()).map(|_| rng.gen_range(1..=255)).collect())
            .collect();
        let (blocks, _) = gpu.encode_blocks(seg, &coeffs);
        for block in blocks {
            receiver.absorb(&frame(idx, segments.len(), &block)).expect("well-formed");
            if receiver.is_complete() {
                break 'outer;
            }
        }
    }
    assert_eq!(receiver.recover().expect("complete"), file);
}

/// `block` as dense frame bytes: segment index and segment count (4 bytes
/// little-endian each), then the coefficients and the payload.
fn frame(segment: usize, total_segments: usize, block: &CodedBlock) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(segment as u32).to_le_bytes());
    out.extend_from_slice(&(total_segments as u32).to_le_bytes());
    out.extend_from_slice(block.coefficients());
    out.extend_from_slice(block.payload());
    out
}

#[test]
fn circshift_stream_round_trips_through_dropped_frames() {
    use extreme_nc::net::{codec_for, make_sender, CodecId};

    // The multiplication-free backend through the same seam the transport
    // negotiates: registry-built sender and receiver, a quarter of the
    // frames dropped, no retransmission.
    let config = CodingConfig::new(16, 128).expect("valid");
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let file: Vec<u8> = (0..10_000).map(|_| rng.gen()).collect();
    let sender = make_sender(CodecId::CircShift, config, &file).expect("valid circshift shape");
    let segments = sender.total_segments();
    let mut receiver = codec_for(CodecId::CircShift)
        .make_receiver(config, segments, file.len())
        .expect("announced shape");

    let mut dropped = 0;
    for seq in 0..4 * config.blocks() as u64 {
        for segment in 0..segments {
            if receiver.segment_complete(segment) {
                continue;
            }
            let frame = sender.frame_wire(segment, seq, &mut rng);
            if rng.gen_bool(0.25) {
                dropped += 1;
                continue;
            }
            receiver.absorb(&frame).expect("well-formed");
        }
    }
    assert!(dropped > 0, "the loss was exercised");
    assert_eq!(receiver.recover().as_deref(), Some(file.as_slice()));
}
