//! Integration of the stream-transfer layer with the substrates: lossy
//! delivery, swarm distribution, and the streaming server's capacity
//! arithmetic agreeing with the planner.

use extreme_nc::p2p::{SwarmConfig, SwarmSim, Topology};
use extreme_nc::prelude::*;
use extreme_nc::rlnc::stream::{StreamDecoder, StreamEncoder};
use extreme_nc::streaming::{CapacityPlan, Nic, StreamProfile};
use rand::{Rng, SeedableRng};

#[test]
fn lossy_stream_transfer_recovers_exactly() {
    let config = CodingConfig::new(8, 64).expect("valid");
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let file: Vec<u8> = (0..10_000).map(|_| rng.gen()).collect();
    let sender = StreamEncoder::new(config, &file).expect("non-empty");
    let mut receiver = StreamDecoder::new(config, sender.total_segments(), file.len());

    let mut guard = 0;
    while !receiver.is_complete() {
        let frame = sender.next_frame(&mut rng);
        if rng.gen_bool(0.3) {
            continue; // 30% loss, no retransmission
        }
        receiver.push(frame).expect("well-formed");
        guard += 1;
        assert!(guard < 20 * sender.total_segments() * config.blocks(), "stalled");
    }
    assert_eq!(receiver.recover().expect("complete"), file);
}

#[test]
fn swarm_distribution_matches_direct_decode() {
    // The same generation distributed through a recoding swarm and decoded
    // directly must agree — network coding is transparent to content.
    let coding = CodingConfig::new(8, 32).expect("valid");
    let topo = Topology::chain(2, 20e6, 20e6);
    let mut cfg = SwarmConfig::new(coding);
    cfg.segments = 3;
    let mut sim = SwarmSim::new(topo, cfg, 77);
    let report = sim.run();
    assert_eq!(report.completed_peers, 2, "{report:?}");
    // (Data integrity is asserted inside the simulator on completion.)
    assert!(report.overhead_ratio() < 0.5);
}

#[test]
fn capacity_planner_agrees_with_server_behaviour() {
    use extreme_nc::streaming::{CodingBackend, ServiceMode, StreamingServer};

    struct Fixed(f64);
    impl CodingBackend for Fixed {
        fn name(&self) -> String {
            "fixed".into()
        }
        fn encoding_rate(&mut self, _c: CodingConfig) -> f64 {
            self.0
        }
    }

    let config = CodingConfig::new(128, 4096).expect("valid");
    let profile = StreamProfile::high_quality_video();
    let nic = Nic::gigabit_bonded(2);
    let rate = 150.0e6;
    let plan = CapacityPlan::plan(rate, profile, nic);
    let servable = plan.servable_peers();

    // At exactly the planned peer count the server must keep everyone fed…
    let mut backend = Fixed(rate);
    let mut server = StreamingServer::new(&mut backend, config, profile, nic, ServiceMode::Live);
    server.add_peers(servable);
    let tick = server.tick(1.0);
    assert_eq!(tick.underserved_peers, 0, "planned load must be servable");

    // …and 10% beyond it, someone must starve.
    let mut backend2 = Fixed(rate);
    let mut server2 = StreamingServer::new(&mut backend2, config, profile, nic, ServiceMode::Live);
    server2.add_peers(servable + servable / 10 + 1);
    let tick2 = server2.tick(1.0);
    assert!(tick2.underserved_peers > 0, "oversubscription must show");
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
            let frame = extreme_nc::rlnc::stream::StreamFrame {
                segment: idx as u32,
                total_segments: segments.len() as u32,
                block,
            };
            receiver.push(frame).expect("well-formed");
            if receiver.is_complete() {
                break 'outer;
            }
        }
    }
    assert_eq!(receiver.recover().expect("complete"), file);
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
