//! The metric and workload names, with units and directions: the single
//! list the runner prints from and `BENCHMARK.json` must equal (the
//! package's tests compare the two).

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric's name, unit and direction.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Higher }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Lower }
}

/// The six workloads, in run order.
pub const WORKLOADS: [&str; 6] = [
    "dense_128x4k",
    "fft_4096x1k",
    "udp_lossy_1x",
    "server_steady_16x",
    "server_churn_1000x6k",
    "server_paced_768k",
];

/// Gated metrics: every workload reports every one of them, from the
/// untraced run, and none is ever 0.
pub const END_TO_END: [MetricDef; 4] = [
    hi("goodput_mb_s", "MB/s"),
    lo("delivery_ms_p50", "ms"),
    lo("cpu_s_per_gb", "s/GB"),
    lo("setup_s", "s"),
];

/// Reported, not gated: printed by the traced run for every workload
/// (0 where a workload never touches the layer).
pub const PER_LAYER: [MetricDef; 58] = [
    // End-to-end numbers that exist only on some workloads.
    hi("encode_mb_s", "MB/s"),
    hi("decode_mb_s", "MB/s"),
    lo("segment_decode_ms_p50", "ms"),
    lo("transfer_ms_p50", "ms"),
    hi("sessions_per_s", "1/s"),
    lo("wire_overhead", "ratio"),
    lo("failed_share", "ratio"),
    // nc-gf256
    hi("gf256.kernel", "id"),
    hi("gf256.mul_add_mb_s_4k", "MB/s"),
    hi("gf256.mul_add_mb_s_1k", "MB/s"),
    hi("gf256.dot_mb_s_128x4k", "MB/s"),
    // nc-rlnc
    lo("rlnc.encode_busy_share", "ratio"),
    hi("rlnc.encode_bound_ratio", "ratio"),
    lo("rlnc.push_us_p50", "us"),
    lo("rlnc.recover_ms_p50", "ms"),
    lo("rlnc.dependent_share", "ratio"),
    lo("rlnc.blocks_coded", "count"),
    lo("rlnc.two_stage_stage1_ms_p50", "ms"),
    hi("rlnc.two_stage_stage2_mb_s", "MB/s"),
    // nc-fft
    hi("fft.kernel", "id"),
    hi("fft.gf16_mul_add_mb_s_1k", "MB/s"),
    lo("fft.encode_self_s", "s"),
    lo("fft.decode_self_s", "s"),
    lo("fft.codec_seam_share", "ratio"),
    lo("fft.table_init_s", "s"),
    // nc-pool
    hi("pool.buffer_hit_share", "ratio"),
    hi("pool.bytes_recycled", "count"),
    lo("pool.tasks_executed", "count"),
    lo("pool.worker_idle_share", "ratio"),
    // nc-net: wire
    lo("net.wire_encode_ns_p50_1k", "ns"),
    lo("net.wire_decode_ns_p50_1k", "ns"),
    hi("net.wire_mb_s_4k", "MB/s"),
    // nc-net: session
    lo("net.sender_poll_ns_p50", "ns"),
    lo("net.receiver_handle_ns_p50", "ns"),
    hi("net.session_mem_mb_s", "MB/s"),
    hi("net.innovative_share", "ratio"),
    lo("net.redundancy_factor", "ratio"),
    lo("net.loss_estimate", "ratio"),
    lo("net.acks_per_frame", "ratio"),
    // nc-net: channel / sysio
    lo("net.syscalls_per_datagram", "ratio"),
    hi("net.udp_raw_kpps_1k", "kpps"),
    lo("net.udp_send_ns_p50", "ns"),
    lo("net.rx_bytes_copied_per_datagram", "B"),
    hi("net.rcvbuf_granted_bytes", "B"),
    // nc-net: server
    lo("net.deadline_miss_us_p99", "us"),
    lo("net.shard_forwards", "count"),
    lo("net.datagrams_per_payload_frame", "ratio"),
    lo("net.reannounces", "count"),
    lo("net.transfer_ms_p99", "ms"),
    lo("net.client_cpu_share", "ratio"),
    // nc-gpu / nc-gpu-sim
    hi("gpu_sim.tb5_modeled_mb_s", "MB/s"),
    lo("gpu_sim.tb5_host_s", "s"),
    // harness
    lo("trace.overhead_share", "ratio"),
    // The layer ladder on the paper's 128 x 4 KB shape; its two lowest
    // rungs are gf256.mul_add_mb_s_4k and gf256.dot_mb_s_128x4k above.
    hi("ladder.encoder_mb_s", "MB/s"),
    hi("ladder.wire_mb_s", "MB/s"),
    hi("ladder.session_mem_mb_s", "MB/s"),
    hi("ladder.udp_1x_mb_s", "MB/s"),
    hi("ladder.sharded_mb_s", "MB/s"),
];

/// The ladder's rungs, bottom first.
pub const LADDER: [&str; 7] = [
    "gf256.mul_add_mb_s_4k",
    "gf256.dot_mb_s_128x4k",
    "ladder.encoder_mb_s",
    "ladder.wire_mb_s",
    "ladder.session_mem_mb_s",
    "ladder.udp_1x_mb_s",
    "ladder.sharded_mb_s",
];

/// The definition of `name`, gated or not.
pub fn lookup(name: &str) -> Option<MetricDef> {
    END_TO_END.iter().chain(PER_LAYER.iter()).copied().find(|d| d.name == name)
}
