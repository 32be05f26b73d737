//! Per-layer probes: each times calls into one crate's public functions
//! from outside, for a fixed slice of wall time, and reports the median
//! over equal batches. They run after the workload phases of a traced
//! run and do not depend on which workload that was.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use nc_fft::{Fft16StreamReceiver, Fft16StreamSender};
use nc_gpu::api::EncodeScheme;
use nc_gpu::{GpuEncoder, TableVariant};
use nc_gpu_sim::DeviceSpec;
use nc_net::channel::{memory_pair, BatchSocket, Channel, FaultProfile, UdpChannel};
use nc_net::receiver::{ReceiverConfig, ReceiverEvent, ReceiverSession};
use nc_net::session::{SenderConfig, SenderEvent, SenderSession};
use nc_net::wire::{Datagram, Payload};
use nc_pool::BytesPool;
use nc_rlnc::codec::{StreamCodecReceiver, StreamCodecSender};
use nc_rlnc::stream::StreamEncoder;
use nc_rlnc::{CodingConfig, Decoder, Encoder, Segment, TwoStageDecoder};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::codec::{Dense, Fft};
use crate::host::sub_seed;
use crate::server::{ServerLoad, Shape};
use crate::spans::Tracer;
use crate::stats::{summarize, Summary};
use crate::udp::transfer_over_udp;
use crate::workload::{Sizing, Workload};

/// Metric name -> measured value.
pub type Metrics = BTreeMap<&'static str, Summary>;

/// How long each probe may run and how often the short transfers repeat.
#[derive(Clone, Copy)]
pub struct Budget {
    pub slice: Duration,
    pub repeats: usize,
    pub smoke: bool,
}

impl Budget {
    pub fn new(smoke: bool) -> Budget {
        if smoke {
            Budget { slice: Duration::from_millis(4), repeats: 1, smoke }
        } else {
            Budget { slice: Duration::from_millis(120), repeats: 5, smoke }
        }
    }
}

fn random_bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

/// Calls `batch` (which does `units` units of work) until `slice` has
/// passed, at least three times; returns units per second per call.
fn rate(slice: Duration, units: f64, mut batch: impl FnMut()) -> Summary {
    let started = Instant::now();
    let mut rates = Vec::new();
    while rates.len() < 3 || started.elapsed() < slice {
        let t = Instant::now();
        batch();
        rates.push(units / t.elapsed().as_secs_f64());
    }
    summarize(&rates)
}

/// Seconds per unit from a units-per-second summary (quartiles swap).
fn inverted(s: Summary, factor: f64) -> Summary {
    Summary { value: factor / s.value, q1: factor / s.q3, q3: factor / s.q1, n: s.n }
}

/// `nc-gf256`: the region kernels the dense codec is built on.
pub fn gf256(m: &mut Metrics, seed: u64, b: Budget) {
    const CALLS: usize = 64;
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, "probe.gf256"));
    m.insert("gf256.kernel", Summary::single(f64::from(nc_gf256::simd::active_kernel().id())));
    for (name, len) in [("gf256.mul_add_mb_s_4k", 4096usize), ("gf256.mul_add_mb_s_1k", 1024)] {
        let src = random_bytes(&mut rng, len);
        let mut dst = random_bytes(&mut rng, len);
        let mut c = 1u8;
        let r = rate(b.slice, (CALLS * len) as f64 / 1e6, || {
            for _ in 0..CALLS {
                c = c.wrapping_add(1).max(2);
                nc_gf256::region::mul_add_assign(&mut dst, black_box(&src), c);
            }
            black_box(&mut dst);
        });
        m.insert(name, r);
    }
    let sources: Vec<Vec<u8>> = (0..Dense::BLOCKS).map(|_| random_bytes(&mut rng, 4096)).collect();
    let refs: Vec<&[u8]> = sources.iter().map(Vec::as_slice).collect();
    let coeffs: Vec<u8> = (0..Dense::BLOCKS).map(|_| rng.gen_range(1..=255)).collect();
    let mut dst = vec![0u8; 4096];
    let r = rate(b.slice, 4096.0 / 1e6, || {
        dst.fill(0);
        nc_gf256::region::dot_assign(&mut dst, black_box(&refs), black_box(&coeffs));
        black_box(&mut dst);
    });
    m.insert("gf256.dot_mb_s_128x4k", r);
}

/// `nc-rlnc` on the 128 x 4 KB shape: the encoder rung of the ladder,
/// per-push and recover cost of the progressive decoder, and the two
/// stages of `TwoStageDecoder` (read from its telemetry histograms'
/// sums, one decode at a time).
pub fn rlnc(m: &mut Metrics, seed: u64, b: Budget) {
    let sizing = Sizing::new(b.smoke, 0.0);
    let mut dense = Dense::setup(sub_seed(seed, "probe.rlnc"), sizing);
    let mut tr = Tracer::disabled();
    let started = Instant::now();
    let mut rates = Vec::new();
    while rates.len() < 2 || started.elapsed() < b.slice {
        let rep = dense.rep(0, &mut tr);
        rates.push(rep.encode_bytes as f64 / rep.encode_s / 1e6);
    }
    m.insert("ladder.encoder_mb_s", summarize(&rates));

    let config = CodingConfig::new(Dense::BLOCKS, Dense::BLOCK_BYTES).expect("valid");
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, "probe.rlnc.blocks"));
    let data = random_bytes(&mut rng, config.segment_bytes());
    let encoder = Encoder::new(Segment::from_bytes(config, data.clone()).expect("sized"));
    let (mut push_us, mut recover_ms, mut stage1_ms, mut stage2_mb_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let hist_sum = |name: &str| nc_telemetry::default_registry().histogram(name).sum();
    for _ in 0..b.repeats {
        let mut decoder = Decoder::new(config);
        for block in encoder.encode_batch(&mut rng, Dense::CODED_PER_VISIT) {
            let t = Instant::now();
            decoder.push(block).expect("shape matches");
            push_us.push(t.elapsed().as_secs_f64() * 1e6);
            if decoder.is_complete() {
                break;
            }
        }
        let t = Instant::now();
        let recovered = decoder.recover();
        recover_ms.push(t.elapsed().as_secs_f64() * 1e3);
        assert_eq!(recovered.as_deref(), Some(data.as_slice()), "probe decode is bit-exact");

        let mut two_stage = TwoStageDecoder::new(config);
        for block in encoder.encode_batch(&mut rng, Dense::CODED_PER_VISIT) {
            two_stage.push(block).expect("shape matches");
        }
        let (s1, s2) = (hist_sum("core.stage1_invert_ns"), hist_sum("core.stage2_multiply_ns"));
        let decoded = two_stage.decode().expect("full rank after n + 8 draws");
        assert_eq!(decoded, data, "two-stage decode is bit-exact");
        let stage1_ns = hist_sum("core.stage1_invert_ns") - s1;
        let stage2_ns = hist_sum("core.stage2_multiply_ns") - s2;
        if stage1_ns > 0 && stage2_ns > 0 {
            stage1_ms.push(stage1_ns as f64 / 1e6);
            stage2_mb_s.push(data.len() as f64 / (stage2_ns as f64 / 1e9) / 1e6);
        }
    }
    m.insert("rlnc.push_us_p50", summarize(&push_us));
    m.insert("rlnc.recover_ms_p50", summarize(&recover_ms));
    m.insert("rlnc.two_stage_stage1_ms_p50", summarize(&stage1_ms));
    m.insert("rlnc.two_stage_stage2_mb_s", summarize(&stage2_mb_s));
}

/// `nc-fft`: its GF(2^16) kernel, the engine's encode and decode, and
/// what the stream codec seam adds on top of the engine.
pub fn fft(m: &mut Metrics, seed: u64, b: Budget) {
    const CALLS: usize = 64;
    let kernel = nc_fft::simd::active_kernel();
    let id = ["portable", "ssse3", "avx2", "neon"].iter().position(|n| *n == kernel.name());
    m.insert("fft.kernel", Summary::single(id.map_or(-1.0, |i| i as f64)));

    let tables = nc_fft::tables();
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, "probe.fft"));
    let src = random_bytes(&mut rng, 1024);
    let mut dst = random_bytes(&mut rng, 1024);
    let mut log_m = 1u16;
    let r = rate(b.slice, (CALLS * 1024) as f64 / 1e6, || {
        for _ in 0..CALLS {
            log_m = log_m.wrapping_mul(31).wrapping_add(7) % nc_fft::MODULUS;
            nc_fft::simd::mul_add_assign(&tables, &mut dst, black_box(&src), log_m);
        }
        black_box(&mut dst);
    });
    m.insert("fft.gf16_mul_add_mb_s_1k", r);

    // The engine on the workload's own shape and inputs.
    let sizing = Sizing::new(b.smoke, 0.0);
    let mut engine = Fft::setup(seed, sizing);
    let mut tr = Tracer::disabled();
    let reps: Vec<_> = (0..b.repeats).map(|i| engine.rep(i, &mut tr)).collect();
    let encode_s = summarize(&reps.iter().map(|r| r.encode_s).collect::<Vec<_>>());
    let decode_s = summarize(&reps.iter().map(|r| r.decode_s).collect::<Vec<_>>());
    m.insert("fft.encode_self_s", encode_s);
    m.insert("fft.decode_self_s", decode_s);

    // The same segment through the stream codec: the sender precomputes
    // recovery shards, the receiver absorbs the surviving half of the
    // originals plus as many recovery shards, decodes and reassembles.
    let (shards, bytes) = if b.smoke { (256, 64) } else { (Fft::SHARDS, Fft::SHARD_BYTES) };
    let config = CodingConfig::new(shards, bytes).expect("valid");
    let data = random_bytes(&mut rng, shards * bytes);
    let seam: Vec<f64> = (0..b.repeats)
        .map(|_| {
            let t = Instant::now();
            let sender = Fft16StreamSender::new(config, &data).expect("shape fits the codec");
            let mut receiver = Fft16StreamReceiver::new(config, 1, data.len()).expect("shape");
            for shard in (0..shards / 2).chain(shards..shards + shards / 2) {
                let frame = sender.frame_wire(0, shard as u64, &mut rng);
                receiver.absorb(&frame).expect("well-formed frame");
                BytesPool::global().recycle(frame);
            }
            let recovered = receiver.recover();
            let elapsed = t.elapsed().as_secs_f64();
            assert_eq!(recovered.as_deref(), Some(data.as_slice()), "seam decode is bit-exact");
            elapsed
        })
        .collect();
    let seam_s = summarize(&seam).value;
    let engine_s = encode_s.value + decode_s.value;
    m.insert("fft.codec_seam_share", Summary::single(((seam_s - engine_s) / seam_s).max(0.0)));
}

/// `nc-net` wire codec: `Datagram::encode` / `decode`, CRC included.
pub fn wire(m: &mut Metrics, seed: u64, b: Budget) {
    const CALLS: usize = 16;
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, "probe.wire"));
    // A data frame of `block` payload bytes under n = 16: frame header,
    // coefficients, block.
    let datagram = |rng: &mut StdRng, block: usize| {
        Datagram::new(7, Payload::Data(random_bytes(rng, 8 + 16 + block)))
    };
    let batch: Vec<Datagram> = (0..CALLS).map(|_| datagram(&mut rng, 1024)).collect();
    let r = rate(b.slice, CALLS as f64, || {
        for d in &batch {
            let bytes = black_box(d).encode().expect("fits a datagram");
            BytesPool::global().recycle(black_box(bytes));
        }
    });
    m.insert("net.wire_encode_ns_p50_1k", inverted(r, 1e9));
    let encoded: Vec<Vec<u8>> = batch.iter().map(|d| d.encode().expect("fits")).collect();
    let r = rate(b.slice, CALLS as f64, || {
        for bytes in &encoded {
            black_box(Datagram::decode(black_box(bytes)).expect("round trip"));
        }
    });
    m.insert("net.wire_decode_ns_p50_1k", inverted(r, 1e9));

    let big: Vec<Datagram> = (0..CALLS).map(|_| datagram(&mut rng, 4096)).collect();
    let r = rate(b.slice, (CALLS * 4096) as f64 / 1e6, || {
        for d in &big {
            let bytes = d.encode().expect("fits a datagram");
            black_box(Datagram::decode(&bytes).expect("round trip"));
            BytesPool::global().recycle(bytes);
        }
    });
    m.insert("net.wire_mb_s_4k", r);
}

/// The ladder's wire rung: coded frames of the 128 x 4 KB shape drawn
/// from a `StreamEncoder` and wrapped into datagrams, payload bytes/s.
pub fn ladder_wire(m: &mut Metrics, seed: u64, b: Budget) {
    const CALLS: usize = 16;
    let config = CodingConfig::new(Dense::BLOCKS, Dense::BLOCK_BYTES).expect("valid");
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, "probe.ladder.wire"));
    let segments = if b.smoke { 1 } else { 8 };
    let data = random_bytes(&mut rng, segments * config.segment_bytes());
    let encoder = StreamEncoder::new(config, &data).expect("non-empty");
    let mut seq = 0u64;
    let r = rate(b.slice, (CALLS * Dense::BLOCK_BYTES) as f64 / 1e6, || {
        for _ in 0..CALLS {
            let frame = encoder.frame_wire(seq as usize % segments, seq, &mut rng);
            seq += 1;
            let bytes = Datagram::new(1, Payload::Data(frame)).encode().expect("fits");
            BytesPool::global().recycle(black_box(bytes));
        }
    });
    m.insert("ladder.wire_mb_s", r);
}

/// What one in-memory session transfer measured.
struct MemTransfer {
    mb_s: f64,
    poll_ns: Vec<f64>,
    handle_ns: Vec<f64>,
}

/// One stream from a `SenderSession` to a `ReceiverSession` over
/// `memory_pair`, both pumped by this thread: no socket, no thread
/// hand-off, every `poll` and `handle_bytes` timed.
fn session_over_memory(config: CodingConfig, data: &[u8], seed: u64) -> MemTransfer {
    let encoder: Arc<dyn StreamCodecSender> =
        Arc::new(StreamEncoder::new(config, data).expect("non-empty"));
    let (mut a, mut b) = memory_pair();
    let started = Instant::now();
    let mut tx = SenderSession::new(encoder, 1, SenderConfig::default(), seed, started)
        .expect("frame fits a datagram");
    let mut rx = ReceiverSession::new(1, ReceiverConfig::default(), started);
    let (mut poll_ns, mut handle_ns) = (Vec::new(), Vec::new());
    let give_up = Duration::from_secs(30);
    'transfer: while started.elapsed() < give_up {
        loop {
            match rx.poll(Instant::now()) {
                ReceiverEvent::Transmit(bytes) => {
                    b.send(&bytes).expect("memory channel");
                    BytesPool::global().recycle(bytes);
                }
                ReceiverEvent::Wait(_) => break,
                ReceiverEvent::Finished => break 'transfer,
            }
        }
        while let Some(bytes) = a.recv_timeout(Duration::ZERO).expect("memory channel") {
            if let Ok(datagram) = Datagram::decode(&bytes) {
                tx.handle_datagram(&datagram, Instant::now());
            }
        }
        for _ in 0..32 {
            let t = Instant::now();
            let event = tx.poll(t);
            poll_ns.push(t.elapsed().as_nanos() as f64);
            match event {
                SenderEvent::Transmit(bytes) => {
                    a.send(&bytes).expect("memory channel");
                    BytesPool::global().recycle(bytes);
                }
                SenderEvent::Wait(_) | SenderEvent::Finished => break,
            }
        }
        while let Some(bytes) = b.recv_timeout(Duration::ZERO).expect("memory channel") {
            let t = Instant::now();
            rx.handle_bytes(&bytes, t);
            handle_ns.push(t.elapsed().as_nanos() as f64);
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    assert_eq!(rx.recovered(), Some(data), "in-memory transfer is bit-exact");
    MemTransfer { mb_s: data.len() as f64 / elapsed / 1e6, poll_ns, handle_ns }
}

/// `nc-net` session layer with no socket under it, on the transport
/// workloads' 16 x 1 KiB shape and (ladder rung) on 128 x 4 KB.
pub fn session_memory(m: &mut Metrics, seed: u64, b: Budget) {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, "probe.session"));
    let small = CodingConfig::new(16, 1024).expect("valid");
    let data = random_bytes(&mut rng, if b.smoke { 64 << 10 } else { 2 << 20 });
    let runs: Vec<MemTransfer> =
        (0..b.repeats).map(|i| session_over_memory(small, &data, seed + i as u64)).collect();
    m.insert("net.session_mem_mb_s", summarize(&runs.iter().map(|r| r.mb_s).collect::<Vec<_>>()));
    let all = |f: fn(&MemTransfer) -> &Vec<f64>| -> Vec<f64> {
        runs.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    m.insert("net.sender_poll_ns_p50", summarize(&all(|r| &r.poll_ns)));
    m.insert("net.receiver_handle_ns_p50", summarize(&all(|r| &r.handle_ns)));

    let paper = CodingConfig::new(Dense::BLOCKS, Dense::BLOCK_BYTES).expect("valid");
    let data = random_bytes(&mut rng, paper.segment_bytes() * if b.smoke { 1 } else { 8 });
    let runs: Vec<f64> =
        (0..b.repeats).map(|i| session_over_memory(paper, &data, seed + i as u64).mb_s).collect();
    m.insert("ladder.session_mem_mb_s", summarize(&runs));
}

/// `nc-net` channel / sysio with no session above it: pre-encoded 1 KiB
/// datagrams through a `BatchSocket` pair (bare forwarding) and the cost
/// of one `UdpChannel::send`.
pub fn udp_raw(m: &mut Metrics, seed: u64, b: Budget) {
    const BATCH: usize = 64;
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, "probe.udp"));
    let template = Datagram::new(3, Payload::Data(random_bytes(&mut rng, 8 + 16 + 1024)))
        .encode()
        .expect("fits");
    let mut tx = BatchSocket::bind("127.0.0.1:0", 2048).expect("bind");
    let mut rx = BatchSocket::bind("127.0.0.1:0", 2048).expect("bind");
    rx.set_recv_buffer(crate::host::RCVBUF_REQUEST_BYTES).expect("resize rcvbuf");
    let to = rx.local_addr().expect("addr");
    let r = rate(b.slice, BATCH as f64 / 1e3, || {
        for _ in 0..BATCH {
            tx.queue(to, BytesPool::global().take_vec_copy(&template)).expect("queue");
        }
        tx.flush().expect("flush");
        let mut got = 0;
        while got < BATCH {
            let n = rx
                .recv_batch(Duration::from_millis(50), |_, bytes| {
                    black_box(bytes);
                })
                .expect("recv");
            if n == 0 {
                break; // a loopback drop; the batch still counts its time
            }
            got += n;
        }
    });
    m.insert("net.udp_raw_kpps_1k", r);

    const SENDS: usize = 16;
    let peer = std::net::UdpSocket::bind("127.0.0.1:0").expect("bind");
    let mut channel =
        UdpChannel::connect("127.0.0.1:0", peer.local_addr().expect("addr")).expect("connect");
    peer.connect(channel.local_addr().expect("addr")).expect("connect");
    let mut sink = UdpChannel::from_socket(peer);
    let started = Instant::now();
    let mut send_ns = Vec::new();
    while send_ns.len() < 3 || started.elapsed() < b.slice {
        let t = Instant::now();
        for _ in 0..SENDS {
            channel.send(black_box(&template)).expect("send");
        }
        send_ns.push(t.elapsed().as_nanos() as f64 / SENDS as f64);
        while sink.recv_timeout(Duration::ZERO).expect("recv").is_some() {}
    }
    m.insert("net.udp_send_ns_p50", summarize(&send_ns));
}

/// `nc-gpu` on the SIMT simulator: Table-based-5 at n = 128, k = 4 KB.
/// The modeled rate is a deterministic function of the seed; the host
/// seconds are what simulating that one batch costs here.
pub fn gpu_sim(m: &mut Metrics, seed: u64, b: Budget) {
    let (modeled_mb_s, host_s) = gpu_sim_tb5(seed, b.smoke);
    m.insert("gpu_sim.tb5_modeled_mb_s", Summary::single(modeled_mb_s));
    m.insert("gpu_sim.tb5_host_s", Summary::single(host_s));
}

/// `(modeled MB/s, host seconds)` of one simulated Tb5 encode batch.
pub fn gpu_sim_tb5(seed: u64, smoke: bool) -> (f64, f64) {
    let (n, k) = if smoke { (16, 256) } else { (Dense::BLOCKS, Dense::BLOCK_BYTES) };
    // Nearly all of the host time is the simulator zeroing the GTX 280's
    // 1 GiB of device memory; a smoke run models a 16 MiB part instead.
    let spec = if smoke {
        DeviceSpec { device_mem_bytes: 16 << 20, ..DeviceSpec::gtx280() }
    } else {
        DeviceSpec::gtx280()
    };
    let mut encoder = GpuEncoder::new(spec, EncodeScheme::Table(TableVariant::Tb5));
    let t = Instant::now();
    // 8 n coded blocks: the batch size the figure binaries measure with.
    let measured = encoder.measure(n, k, 8 * n, sub_seed(seed, "probe.gpu_sim"));
    (measured.rate / 1e6, t.elapsed().as_secs_f64())
}

/// The ladder's two socket rungs on the 128 x 4 KB shape: one lossless
/// unpaced UDP transfer, and a few streams through `ShardedServer`.
pub fn ladder_sockets(m: &mut Metrics, seed: u64, b: Budget) {
    let config = CodingConfig::new(Dense::BLOCKS, Dense::BLOCK_BYTES).expect("valid");
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, "probe.ladder.udp"));
    let data = random_bytes(&mut rng, config.segment_bytes() * if b.smoke { 1 } else { 8 });
    let encoder: Arc<dyn StreamCodecSender> =
        Arc::new(StreamEncoder::new(config, &data).expect("non-empty"));
    // 4 KB frames: a 32-frame window stays inside the default SO_RCVBUF.
    let sender = SenderConfig {
        window_frames: 32,
        deadline: Some(Duration::from_secs(60)),
        ..SenderConfig::default()
    };
    let mut tr = Tracer::disabled();
    let rates: Vec<f64> = (0..b.repeats)
        .map(|i| {
            let t = transfer_over_udp(
                encoder.clone(),
                FaultProfile::lossless(),
                0,
                sender.clone(),
                seed + i as u64,
                &mut tr,
            )
            .expect("loopback socket I/O");
            assert_eq!(t.recovered.as_deref(), Some(data.as_slice()), "ladder UDP is bit-exact");
            data.len() as f64 / (t.transfer_ms / 1e3) / 1e6
        })
        .collect();
    m.insert("ladder.udp_1x_mb_s", summarize(&rates));

    let mut load = ServerLoad::build(
        sub_seed(seed, "probe.ladder.sharded"),
        Shape {
            blocks: Dense::BLOCKS,
            block_bytes: Dense::BLOCK_BYTES,
            stream_bytes: config.segment_bytes() * if b.smoke { 1 } else { 4 },
            sessions: 4,
            distinct: 4,
            window_frames: 32,
            pace: None,
            late_after: None,
            single_rep: false,
            min_reps: 1,
            loop_kind: "closed loop (flow window)",
        },
    );
    let rates: Vec<f64> = (0..b.repeats)
        .map(|i| {
            let rep = load.rep(i, &mut tr);
            assert_eq!(rep.failed + rep.mismatched, 0, "ladder sharded transfer is bit-exact");
            rep.payload_bytes as f64 / rep.wall_s / 1e6
        })
        .collect();
    m.insert("ladder.sharded_mb_s", summarize(&rates));
}

/// Every probe, in ladder order.
pub fn run_all(m: &mut Metrics, seed: u64, b: Budget) {
    gf256(m, seed, b);
    rlnc(m, seed, b);
    fft(m, seed, b);
    wire(m, seed, b);
    ladder_wire(m, seed, b);
    session_memory(m, seed, b);
    udp_raw(m, seed, b);
    gpu_sim(m, seed, b);
    ladder_sockets(m, seed, b);
}

/// The seven-rung ladder as text, each rung with its ratio to the rung
/// below it.
pub fn ladder_text(m: &Metrics) -> String {
    let mut out = String::from("layer ladder on 128 x 4 KB (MB/s; ratio to the rung below):\n");
    let mut below: Option<f64> = None;
    for name in crate::names::LADDER {
        let value = m.get(name).map_or(0.0, |s| s.value);
        let ratio = match below {
            // The dot rung counts output bytes; each is n source bytes.
            Some(b) if b > 0.0 && name == "gf256.dot_mb_s_128x4k" => format!(
                "{:.4} of the rung below ({:.3} as source bytes: x n = {})",
                value / b,
                value * Dense::BLOCKS as f64 / b,
                Dense::BLOCKS
            ),
            Some(b) if b > 0.0 => format!("{:.3} of the rung below", value / b),
            _ => "-".to_string(),
        };
        out.push_str(&format!("  {name:<26} {value:>12.2}  {ratio}\n"));
        below = Some(value);
    }
    out
}
