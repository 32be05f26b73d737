//! Full report generators, one per figure/table plus the in-text numbers.
//!
//! Each function returns the complete text the `nc-bench` driver prints for
//! it; [`FIGURES`] names them for the driver, for `nc-bench all` and for the
//! golden-file test that checks every modeled one byte for byte.

use std::time::Instant;

use nc_cpu::{measure, ParallelEncoder, ParallelSegmentDecoder, Partitioning};
use nc_cpu_model::{CpuModel, EncodeStrategy};
use nc_gf256::simd;
use nc_gpu::api::EncodeScheme;
use nc_gpu::decode_single::DecodeOptions;
use nc_gpu::{Fidelity, GpuEncoder, GpuMultiDecoder, GpuProgressiveDecoder, TableVariant};
use nc_gpu_sim::DeviceSpec;
use nc_rlnc::{CodedBlock, CodingConfig, Decoder, Encoder, Segment};
use nc_streaming::{CapacityPlan, HybridBackend, Nic, StreamProfile};
use rand::{Rng, SeedableRng};

use crate::grids::{block_sizes, to_mb, BLOCK_COUNTS, BLOCK_COUNTS_FIG8};
use crate::runners::{
    circshift_rotate_add_rate, cpu_decode_multi_series, cpu_decode_single_series,
    cpu_encode_series, fig7_ladder, gf_axpy_rate, gpu_decode_multi_series, gpu_decode_single_rate,
    gpu_decode_single_series, gpu_encode_series, host_encode_series,
};
use crate::series::format_table;

/// Generates the complete text of one figure.
pub type Generator = fn() -> String;

/// Every figure the driver prints, in `nc-bench all` order: the name it is
/// run by and the generator of its text. `<name>_sanitize` is what
/// `nc-bench <name> --sanitize` runs.
pub const FIGURES: &[(&str, Generator)] = &[
    ("fig4a", fig4a),
    ("fig4b", fig4b),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig7_sanitize", fig7_sanitize),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("misc", misc),
    ("streaming_capacity", streaming_capacity),
    ("ablation", ablation),
    ("ablation_sanitize", ablation_sanitize),
    ("calibrate", calibrate),
    ("host_simd", host_simd),
    ("pool", pool),
];

/// The figures timed on this host rather than modeled. Their numbers move
/// from run to run, so they have no golden file.
pub const HOST_MEASURED: &[&str] = &["host_simd", "pool"];

/// Fig. 4(a): loop-based encoding, GTX 280 vs 8800 GT.
pub fn fig4a() -> String {
    let ks = block_sizes();
    let mut series = Vec::new();
    for &n in &BLOCK_COUNTS {
        series.push(gpu_encode_series(
            DeviceSpec::gtx280(),
            EncodeScheme::LoopBased,
            n,
            &ks,
            format!("GTX280 (n={n})"),
        ));
    }
    for &n in &BLOCK_COUNTS {
        series.push(gpu_encode_series(
            DeviceSpec::geforce_8800gt(),
            EncodeScheme::LoopBased,
            n,
            &ks,
            format!("8800GT (n={n})"),
        ));
    }
    let mut out =
        format_table("Fig. 4(a): loop-based encoding bandwidth (MB/s)", "block size", &series);
    out.push_str("paper anchors: GTX280 plateaus 133 / 66 / 33.6 MB/s; 8800GT at ~half.\n");
    out
}

/// Fig. 4(b): single-segment decoding, GTX 280 vs Mac Pro.
pub fn fig4b() -> String {
    let ks = block_sizes();
    let mut series = Vec::new();
    for &n in &BLOCK_COUNTS {
        series.push(gpu_decode_single_series(
            DeviceSpec::gtx280(),
            n,
            &ks,
            DecodeOptions::default(),
            format!("GTX280 (n={n})"),
        ));
    }
    for &n in &BLOCK_COUNTS {
        series.push(cpu_decode_single_series(n, &ks, format!("Mac Pro (n={n})")));
    }
    let mut out =
        format_table("Fig. 4(b): single-segment decoding bandwidth (MB/s)", "block size", &series);
    out.push_str(
        "paper anchors: CPU wins below 8 KB; GTX280 overtakes at >= 8 KB (n=128);\n\
         Mac Pro plateau ~57 MB/s at n=128.\n",
    );
    out
}

/// Fig. 6: Table-based-1 vs loop-based on GTX 280.
pub fn fig6() -> String {
    let ks = block_sizes();
    let mut series = Vec::new();
    for &n in &BLOCK_COUNTS {
        series.push(gpu_encode_series(
            DeviceSpec::gtx280(),
            EncodeScheme::Table(TableVariant::Tb1),
            n,
            &ks,
            format!("TB GTX280 (n={n})"),
        ));
    }
    for &n in &BLOCK_COUNTS {
        series.push(gpu_encode_series(
            DeviceSpec::gtx280(),
            EncodeScheme::LoopBased,
            n,
            &ks,
            format!("LB GTX280 (n={n})"),
        ));
    }
    let mut out = format_table(
        "Fig. 6: table-based vs loop-based encoding on GTX 280 (MB/s)",
        "block size",
        &series,
    );
    let (tb, lb) = series.split_at(BLOCK_COUNTS.len());
    for (t, l) in tb.iter().zip(lb) {
        let min_gain = t
            .points
            .iter()
            .zip(&l.points)
            .map(|(&(_, ty), &(_, ly))| (ty / ly - 1.0) * 100.0)
            .fold(f64::INFINITY, f64::min);
        out.push_str(&format!("minimum TB gain over LB for {}: {:.1}%\n", t.label, min_gain));
    }
    out.push_str("paper: at least +30% across all settings.\n");
    out
}

/// Fig. 7 paper values for comparison.
pub const FIG7_PAPER: [(&str, f64); 7] = [
    ("Loop-based", 133.0),
    ("Table-based-0", 16.0),
    ("Table-based-1", 172.0),
    ("Table-based-2", 193.0),
    ("Table-based-3", 208.0),
    ("Table-based-4", 239.0),
    ("Table-based-5", 294.0),
];

/// Fig. 7: the optimization ladder at n = 128, k = 4 KB.
pub fn fig7() -> String {
    let ladder = fig7_ladder(128, 4096);
    let mut out = String::from("## Fig. 7: encoding schemes at n=128, k=4 KB, GTX 280 (MB/s)\n");
    out.push_str(&format!(
        "{:<16}  {:>8}  {:>8}  {:>7}\n{}\n",
        "scheme",
        "paper",
        "model",
        "delta",
        "-".repeat(46)
    ));
    for (label, rate) in &ladder {
        let paper =
            FIG7_PAPER.iter().find(|(l, _)| l == label).map(|&(_, v)| v).unwrap_or(f64::NAN);
        let delta = (rate / paper - 1.0) * 100.0;
        out.push_str(&format!("{label:<16}  {paper:>8.1}  {rate:>8.1}  {delta:>+6.1}%\n"));
    }
    let lb = ladder[0].1;
    let tb5 = ladder.last().expect("non-empty").1;
    out.push_str(&format!("\nTable-based-5 / Loop-based = {:.2}x (paper: 2.2x)\n", tb5 / lb));
    out
}

/// Fig. 8: Table-based-5 across n up to 1024.
pub fn fig8() -> String {
    let ks = block_sizes();
    let mut series = Vec::new();
    for &n in &BLOCK_COUNTS_FIG8 {
        series.push(gpu_encode_series(
            DeviceSpec::gtx280(),
            EncodeScheme::Table(TableVariant::Tb5),
            n,
            &ks,
            format!("n = {n}"),
        ));
    }
    let mut out = format_table(
        "Fig. 8: highly optimized (Table-based-5) encoding on GTX 280 (MB/s)",
        "block size",
        &series,
    );
    out.push_str("paper anchors: plateaus 294 / 147 / 73.5 / 36.6 MB/s.\n");
    for s in &series {
        out.push_str(&format!("measured plateau {}: {:.1} MB/s\n", s.label, s.peak()));
    }
    out
}

/// Fig. 9: multi-segment decoding.
pub fn fig9() -> String {
    let ks = block_sizes();
    let mut series = Vec::new();
    let mut share_series = Vec::new();

    let (rates, shares) =
        gpu_decode_multi_series(DeviceSpec::gtx280(), 128, 60, &ks, "GTX280-2/SM (n=128)");
    series.push(rates);
    share_series.push(shares);

    for &n in &BLOCK_COUNTS {
        let (rates, shares) =
            gpu_decode_multi_series(DeviceSpec::gtx280(), n, 30, &ks, format!("GTX280 (n={n})"));
        series.push(rates);
        share_series.push(shares);
    }
    for &n in &BLOCK_COUNTS {
        series.push(cpu_decode_multi_series(n, &ks, format!("Mac Pro (n={n})")));
    }

    let mut out = format_table(
        "Fig. 9: parallel multi-segment decoding bandwidth (MB/s)",
        "block size",
        &series,
    );
    out.push_str(&format_table(
        "Fig. 9 annotations: first-stage (C^-1) share of the decoding task (%)",
        "block size",
        &share_series,
    ));
    out.push_str(
        "paper anchors: GPU/CPU 1.3-4.2x above 256 B; 2/SM beats 1/SM by up to 1.4x;\n\
         Mac Pro drops at 8K (n=512) / 16K (n=256) / 32K (n=128); peak ~254 MB/s.\n",
    );
    out
}

/// Fig. 10: CPU full-block vs partitioned-block encoding.
pub fn fig10() -> String {
    let ks = block_sizes();
    let mut series = Vec::new();
    for &n in &BLOCK_COUNTS {
        series.push(cpu_encode_series(
            n,
            &ks,
            EncodeStrategy::FullBlock,
            format!("FB Mac Pro (n={n})"),
        ));
    }
    for &n in &BLOCK_COUNTS {
        series.push(cpu_encode_series(
            n,
            &ks,
            EncodeStrategy::PartitionedBlock,
            format!("PB Mac Pro (n={n})"),
        ));
    }
    let mut out = format_table(
        "Fig. 10: full-block vs partitioned-block CPU encoding (MB/s)",
        "block size",
        &series,
    );
    out.push_str("paper anchors: FB flat at 67.2 / 33.6 / 16.8 MB/s; PB converges at large k.\n");
    out
}

/// Host SIMD report: measured GF(2^8) region bandwidth of every rung of
/// the kernel ladder this machine has, and the Fig. 10 full-vs-partitioned
/// sweep repeated on live hardware on the active rung — the measured
/// companion to the modeled Mac Pro curves.
pub fn host_simd() -> String {
    let mut out =
        String::from("## Host SIMD (host-measured): GF(2^8) region arithmetic on this machine\n\n");
    let rungs = simd::Kernel::available();
    out.push_str(&format!(
        "active kernel: {} (available: {})\n\n",
        simd::active_kernel().name(),
        rungs.iter().map(|r| r.kernel().name()).collect::<Vec<_>>().join(", "),
    ));

    // Single-core axpy, rung by rung at 1 KiB / 4 KiB / 16 KiB, with the
    // speedup over the 256-byte-row table (the `portable` rung) at
    // k = 4 KiB, plus the multiplication-free circular-shift primitive as
    // its own row of the ablation.
    out.push_str("### mul_add_assign bandwidth per kernel + circular shift, single core (MB/s)\n");
    let sizes = [1024usize, 4096, 16 * 1024];
    out.push_str(&format!(
        "{:<10} {:>10} {:>10} {:>10} {:>14}\n{}\n",
        "kernel",
        "1 KiB",
        "4 KiB",
        "16 KiB",
        "vs table@4K",
        "-".repeat(58)
    ));
    let rows: Vec<(simd::Kernel, Vec<f64>)> = rungs
        .iter()
        .map(|&rung| (rung.kernel(), sizes.iter().map(|&k| gf_axpy_rate(rung, k)).collect()))
        .collect();
    let table_4k = rows
        .iter()
        .find_map(|(kernel, rates)| (*kernel == simd::Kernel::Portable).then_some(rates[1]))
        .expect("the portable rung is always available");
    for (kernel, rates) in &rows {
        out.push_str(&format!(
            "{:<10} {:>10.1} {:>10.1} {:>10.1} {:>13.2}x\n",
            kernel.name(),
            rates[0],
            rates[1],
            rates[2],
            rates[1] / table_4k,
        ));
    }
    let circ_rates: Vec<f64> = sizes.iter().map(|&k| circshift_rotate_add_rate(k)).collect();
    out.push_str(&format!(
        "{:<10} {:>10.1} {:>10.1} {:>10.1} {:>13.2}x\n",
        "circshift",
        circ_rates[0],
        circ_rates[1],
        circ_rates[2],
        circ_rates[1] / table_4k,
    ));
    out.push_str(
        "(portable is the 256-byte product-table row; the nibble-table shuffle\n\
         kernels multiply 32 bytes per instruction pair on AVX2, GFNI 64 bytes\n\
         per instruction. circshift is the Shum & Hou rotate-and-add over\n\
         Z_256[z]/(z^L - 1): no GF multiply at all, so its per-op bandwidth is\n\
         memory-bound even without SIMD.)\n\n",
    );

    // Fig. 10 on live hardware: the partitioning trade-off on the active
    // rung. Reduced grid so the sweep stays interactive on small hosts.
    let ks: Vec<usize> = block_sizes().into_iter().filter(|&k| k >= 512).collect();
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut series = Vec::new();
    for &n in &[128usize, 256] {
        series.push(host_encode_series(
            n,
            &ks,
            threads,
            Partitioning::FullBlock,
            format!("FB host (n={n})"),
        ));
    }
    for &n in &[128usize, 256] {
        series.push(host_encode_series(
            n,
            &ks,
            threads,
            Partitioning::PartitionedBlock,
            format!("PB host (n={n})"),
        ));
    }
    out.push_str(&format_table(
        &format!(
            "Fig. 10 on this host: full-block vs partitioned-block encode, \
             {}, {threads} thread(s) (MB/s)",
            measure::gf_path()
        ),
        "block size",
        &series,
    ));
    out.push_str(
        "(Same shape as the modeled Mac Pro: FB is flat in k, PB converges once\n\
         partitions span whole cache lines; absolute rates are this host's.)\n",
    );
    out
}

/// The in-text numbers of Secs. 4.3, 4.4, 5.1.3, 5.4.
pub fn misc() -> String {
    let mut out = String::from("## In-text measurements\n\n");

    // Sec. 4.3: instruction and memory rates of loop-based encoding.
    let mut enc = GpuEncoder::new(DeviceSpec::gtx280(), EncodeScheme::LoopBased);
    let m = enc.measure(128, 4096, 128, 5);
    let word_mults_per_s = m.rate * 128.0 / 4.0;
    out.push_str(&format!(
        "Sec 4.3  loop encode (128, 4K): {:.1} MB/s; {:.0} M word-mults/s (paper: 4463 M)\n",
        to_mb(m.rate),
        word_mults_per_s / 1e6
    ));
    let gmem_rate = m.launch.counters.gmem_bytes as f64 / m.launch.elapsed_s;
    out.push_str(&format!(
        "Sec 4.3  memory traffic {:.1} GB/s of {:.1} GB/s peak — \"substantially lower\"\n",
        gmem_rate / 1e9,
        DeviceSpec::gtx280().mem_bandwidth / 1e9
    ));
    out.push_str(&format!(
        "Sec 4.3  compute-bound: {} (issue {:.0}% of SM busy cycles; paper ~91%)\n",
        m.launch.is_compute_bound(),
        m.launch.compute_cycles as f64 / m.launch.sm_cycles as f64 * 100.0
    ));

    // Sec. 4.4: dummy-input probe.
    let mut dummy = GpuEncoder::new(DeviceSpec::gtx280(), EncodeScheme::LoopBasedDummyInput);
    let d = dummy.measure(128, 4096, 128, 5);
    out.push_str(&format!(
        "Sec 4.4  dummy-input encode gains {:+.2}% (paper: ~0.5%; memory fully hidden)\n",
        (d.rate / m.rate - 1.0) * 100.0
    ));

    // Sec. 5.1.3: VoD preprocessing overhead — amortize preprocessing over
    // n blocks (VoD: a fresh segment per batch) vs very many (live).
    let mut tb = GpuEncoder::new(DeviceSpec::gtx280(), EncodeScheme::Table(TableVariant::Tb5));
    let vod = tb.measure(128, 4096, 128, 6);
    let mut tb2 = GpuEncoder::new(DeviceSpec::gtx280(), EncodeScheme::Table(TableVariant::Tb5));
    let live = tb2.measure(128, 4096, 128 * 64, 6);
    out.push_str(&format!(
        "Sec 5.1.3  VoD (n blocks/segment) vs live amortization: {:.2}% slower (paper: 0.6%)\n",
        (1.0 - vod.rate / live.rate) * 100.0
    ));

    // Sec. 5.1.3: table-based encoding hurts the CPU.
    let model = CpuModel::mac_pro_8core();
    let drop = 1.0
        - model.encode_rate_table(128, 4096)
            / model.encode_rate(128, 4096, EncodeStrategy::FullBlock);
    out.push_str(&format!(
        "Sec 5.1.3  CPU table-based encode drops {:.0}% from loop-based SIMD (paper: up to 43%)\n",
        drop * 100.0
    ));

    // Sec. 5.4.1: hybrid GPU+CPU encoding.
    let config = CodingConfig::new(128, 4096).expect("valid");
    let mut hybrid = HybridBackend::gtx280_plus_mac_pro();
    let share = hybrid.gpu_share(config);
    out.push_str(&format!(
        "Sec 5.4.1  hybrid GPU+CPU is additive; GPU/CPU ratio {:.1}x (paper: ~4.3x)\n",
        share / (1.0 - share)
    ));

    // Sec. 5.4.2: atomicMin pivot search.
    let base = gpu_decode_single_rate(
        DeviceSpec::gtx280(),
        128,
        4096,
        DecodeOptions { use_atomic_min: false, cache_coefficients: false },
    );
    let atomic = gpu_decode_single_rate(
        DeviceSpec::gtx280(),
        128,
        4096,
        DecodeOptions { use_atomic_min: true, cache_coefficients: false },
    );
    out.push_str(&format!(
        "Sec 5.4.2  atomicMin pivot search: {:+.2}% decode (paper: ~0.6%)\n",
        (atomic / base - 1.0) * 100.0
    ));

    // Sec. 5.4.3: aggressive coefficient caching (n = 128 only).
    out.push_str(
        "Sec 5.4.3  coefficient caching in shared memory (paper: +0.5%..3.4% over a\n\
         baseline that already cached 'various data structures'; our baseline is less\n\
         aggressively cached, so the marginal gain is larger at small k):\n",
    );
    for k in [512usize, 1024, 4096, 16384] {
        let plain = gpu_decode_single_rate(
            DeviceSpec::gtx280(),
            128,
            k,
            DecodeOptions { use_atomic_min: true, cache_coefficients: false },
        );
        let cached = gpu_decode_single_rate(
            DeviceSpec::gtx280(),
            128,
            k,
            DecodeOptions { use_atomic_min: true, cache_coefficients: true },
        );
        out.push_str(&format!("           k={k:<6} {:+.2}%\n", (cached / plain - 1.0) * 100.0));
    }

    // Sec. 5.1.3 close: the hypothetical 32 KiB-shared-memory device that
    // could hold 16 conflict-free replicas. `compute_cycles` is per
    // critical SM while the conflict counter is device-aggregate, so the
    // subtraction divides by the SM count first.
    let mut enc32 = GpuEncoder::new(DeviceSpec::gtx280(), EncodeScheme::Table(TableVariant::Tb5));
    let m32 = enc32.measure(128, 4096, 128, 8);
    let per_sm_conflicts =
        m32.launch.counters.smem_conflict_cycles / DeviceSpec::gtx280().sm_count as u64;
    let conflict_free = m32.rate
        * (m32.launch.compute_cycles as f64
            / m32.launch.compute_cycles.saturating_sub(per_sm_conflicts) as f64);
    out.push_str(&format!(
        "Sec 5.1.3  fully conflict-free TB5 estimate: {:.0} MB/s (paper: 330-340 MB/s)\n",
        to_mb(conflict_free)
    ));
    out
}

/// The design-choice ablations of DESIGN.md §5.
pub fn ablation() -> String {
    use nc_gpu::ablation;
    let mut out = String::from("## Ablations of the paper's design choices\n\n");

    out.push_str("### Source-layout coalescing (loop-based encode, n=128, k=4 KB)\n");
    for p in ablation::coalescing_ablation(128, 4096) {
        out.push_str(&format!(
            "{:<14} {:>8.1} MB/s   {:>9} gmem transactions\n",
            p.setting,
            to_mb(p.rate),
            p.launch.counters.gmem_transactions
        ));
    }
    out.push_str("(Fig. 2's row-major layout is what makes encode compute-bound.)\n\n");

    out.push_str("### Tb5 exp-table replicas (n=128, k=4 KB)\n");
    for p in ablation::replica_ablation(128, 4096) {
        out.push_str(&format!(
            "{:<14} {:>8.1} MB/s   {:>9} bank-conflict cycles\n",
            p.setting,
            to_mb(p.rate),
            p.launch.counters.smem_conflict_cycles
        ));
    }
    out.push_str("(The paper adds replicas purely to shed conflicts; Sec. 5.1.3.)\n\n");

    out.push_str("### Stage-2 recovery scheme (multi-segment decode, n=128, k=16 KB, 30 seg)\n");
    for (label, rate, share) in ablation::stage2_ablation(128, 16384, 30) {
        out.push_str(&format!(
            "{label:<14} {:>8.1} MB/s   stage-1 share {:>4.1}%\n",
            to_mb(rate),
            share * 100.0
        ));
    }
    out.push_str("(Only the table-based stage 2 reaches the paper's 254 MB/s class.)\n\n");

    out.push_str("### DRAM-latency sensitivity (single-segment decode, n=128, k=4 KB)\n");
    for (latency, rate) in ablation::latency_sensitivity(128, 4096) {
        out.push_str(&format!("{latency:>5} cycles   {:>8.1} MB/s\n", to_mb(rate)));
    }
    out.push_str("(The starved Fig. 3 decoder is exactly as latency-bound as Sec. 4.3 argues.)\n");
    out
}

/// Fig. 7 `--sanitize`: every rung of the ladder run functionally under the
/// kernel sanitizer, with the per-rung memory-behavior evidence (global
/// transactions per op, bank-conflict cycles per shared op) next to the
/// sanitizer's own findings. The ladder's whole story — TB0's uncoalesced
/// global tables, TB1–TB4's shared-memory bank conflicts, TB5's replica
/// trick shedding them — shows up as lint deltas.
pub fn fig7_sanitize() -> String {
    use nc_gpu::encode_loop::{LoopEncodeKernel, SourceLayout};
    use nc_gpu::encode_table::TB5_REPLICAS;
    use nc_gpu_sim::{Gpu, LaunchStats, SanitizerConfig, Severity};

    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let data: Vec<u8> = (0..SANITIZED_N * SANITIZED_K).map(|_| rng.gen()).collect();
    let coeffs_host: Vec<u8> =
        (0..SANITIZED_M * SANITIZED_N).map(|_| rng.gen_range(1..=255)).collect();

    let mut out =
        String::from("## Fig. 7 under the kernel sanitizer (n=128, k=4 KB, functional)\n\n");
    out.push_str(&format!(
        "{:<16} {:>10} {:>14}  findings\n{}\n",
        "scheme",
        "gmem tx/op",
        "conflict cyc/op",
        "-".repeat(76)
    ));

    let mut describe = |label: &str, stats: &LaunchStats| {
        let c = &stats.counters;
        let tx_per_op = c.gmem_transactions as f64 / c.gmem_ops.max(1) as f64;
        let cyc_per_op = c.smem_conflict_cycles as f64 / c.smem_ops.max(1) as f64;
        let report = stats.sanitizer.as_ref().expect("sanitized launch");
        let mut findings: Vec<String> = report
            .diagnostics
            .iter()
            .map(|d| format!("{} (x{})", d.kind.label(), d.occurrences))
            .collect();
        if findings.is_empty() {
            findings.push("clean".to_string());
        }
        out.push_str(&format!(
            "{label:<16} {tx_per_op:>10.2} {cyc_per_op:>14.2}  {}\n",
            findings.join(", ")
        ));
        assert!(
            report.is_clean(),
            "{label}: shipped kernel must be free of correctness errors:\n{}",
            report.render()
        );
        report.count(Severity::Warning)
    };

    // Rung 0: the loop-based encoder as the pre-ladder baseline.
    {
        let (n, k, m) = (SANITIZED_N, SANITIZED_K, SANITIZED_M);
        let mut gpu = Gpu::new(DeviceSpec::gtx280());
        gpu.enable_sanitizer(SanitizerConfig::default());
        let source = gpu.alloc(n * k);
        let coeffs = gpu.alloc(m * n);
        let output = gpu.alloc(m * k);
        gpu.upload(source, &data);
        gpu.upload(coeffs, &coeffs_host);
        let kernel = LoopEncodeKernel {
            source,
            coeffs,
            output,
            n,
            k,
            m,
            dummy_input: false,
            layout: SourceLayout::RowMajor,
        };
        let stats = gpu.launch(&kernel, kernel.grid());
        describe("Loop-based", &stats);
    }

    for variant in TableVariant::ALL {
        let stats = sanitized_table_encode(variant, TB5_REPLICAS, &data, &coeffs_host);
        describe(&format!("{variant:?}"), &stats);
    }

    out.push_str(
        "\nall rungs free of correctness errors; lints trace the ladder: global tables\n\
         are uncoalesced (TB0), shared byte tables pay bank conflicts (TB1-TB3),\n\
         texture lookups sidestep shared memory (TB4), and the eight word-width\n\
         replicas cut the conflicts but cannot eliminate them (TB5): with eight\n\
         replicas over sixteen banks, lanes L and L+8 of a half-warp still collide\n\
         whenever their table indices share parity, leaving a residual ~2-way\n\
         serialization the lint keeps flagging (see `ablation --sanitize` for the\n\
         1/2/4/8-replica ladder). One block per SM keeps occupancy low by design\n\
         (Sec. 5.1.2), which the occupancy note records on every rung.\n",
    );
    out
}

/// Ablation `--sanitize`: the Tb5 replica ladder's conflict evidence and a
/// full progressive-decode session for every `DecodeOptions` combination,
/// all under the sanitizer.
pub fn ablation_sanitize() -> String {
    use nc_gpu_sim::{SanitizerConfig, Severity};

    let mut out = String::from("## Ablations under the kernel sanitizer\n\n");

    // ---- Tb5 replica ladder: conflicts drain as replicas multiply.
    out.push_str("### Tb5 exp-table replicas (n=128, k=4 KB, functional)\n");
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let data: Vec<u8> = (0..SANITIZED_N * SANITIZED_K).map(|_| rng.gen()).collect();
    let coeffs_host: Vec<u8> =
        (0..SANITIZED_M * SANITIZED_N).map(|_| rng.gen_range(1..=255)).collect();
    for replicas in [1usize, 2, 4, 8] {
        let stats = sanitized_table_encode(TableVariant::Tb5, replicas, &data, &coeffs_host);
        let c = &stats.counters;
        let report = stats.sanitizer.as_ref().expect("sanitized launch");
        let conflict = report
            .of_kind(nc_gpu_sim::DiagnosticKind::BankConflict)
            .next()
            .map(|d| d.detail.clone())
            .unwrap_or_else(|| "no bank-conflict lint".to_string());
        assert!(report.is_clean(), "Tb5 x{replicas} must be clean:\n{}", report.render());
        out.push_str(&format!(
            "{replicas} replica(s): {:>8.2} conflict cyc/op — {conflict}\n",
            c.smem_conflict_cycles as f64 / c.smem_ops.max(1) as f64,
        ));
    }
    // ---- Progressive decoder: every DecodeOptions combination, a whole
    // session (n innovative blocks) under racecheck + memcheck.
    out.push_str("\n### Progressive decoder option matrix (n=32, k=512, full session)\n");
    let config = CodingConfig::new(32, 512).expect("valid");
    for options in [
        DecodeOptions { use_atomic_min: false, cache_coefficients: false },
        DecodeOptions { use_atomic_min: true, cache_coefficients: false },
        DecodeOptions { use_atomic_min: false, cache_coefficients: true },
        DecodeOptions { use_atomic_min: true, cache_coefficients: true },
    ] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let bytes: Vec<u8> = (0..config.segment_bytes()).map(|_| rng.gen()).collect();
        let enc = Encoder::new(Segment::from_bytes(config, bytes).unwrap());
        let mut dec =
            GpuProgressiveDecoder::new(DeviceSpec::gtx280(), config, options, Fidelity::Functional);
        dec.enable_sanitizer(SanitizerConfig::default());
        while !dec.is_complete() {
            let b = enc.encode(&mut rng);
            dec.push(b.coefficients(), b.payload()).expect("pivot result word");
        }
        let report = dec.sanitizer_report().expect("sanitizer enabled");
        assert!(report.is_clean(), "decoder {options:?} must be clean:\n{}", report.render());
        out.push_str(&format!(
            "atomic_min={:<5} cache={:<5}  {} launches, errors {}, warnings {}, notes {}\n",
            options.use_atomic_min,
            options.cache_coefficients,
            report.launches,
            report.count(Severity::Error),
            report.count(Severity::Warning),
            report.count(Severity::Info),
        ));
    }
    out.push_str(
        "\n(The decoder's few resident warps per SM surface as low-occupancy notes —\n\
         the starvation of Fig. 3 — while racecheck confirms the barrier placement\n\
         around the pivot scratch and the shared coefficient cache.)\n",
    );
    out
}

// The `(n, k)` of the sanitized encode launches, and `m`, the coded blocks
// per launch: large enough that the encode phase dominates the one-off
// table staging (whose replica-strided stores are conflict-heavy but
// amortized, exactly as Sec. 5.1.2 argues for per-launch staging).
const SANITIZED_N: usize = 128;
const SANITIZED_K: usize = 4096;
const SANITIZED_M: usize = 32;

/// One functional Table-based encode of `SANITIZED_M` coded blocks of
/// `data` on a fresh GTX 280 under the kernel sanitizer, with the operands
/// transformed into the log domain `variant` expects.
fn sanitized_table_encode(
    variant: TableVariant,
    tb5_replicas: usize,
    data: &[u8],
    coeffs_host: &[u8],
) -> nc_gpu_sim::LaunchStats {
    use nc_gpu::encode_table::TableEncodeKernel;
    use nc_gpu::preprocess::{log_table_bytes, LogConvention};
    use nc_gpu_sim::{Gpu, SanitizerConfig};

    let preprocessed = |bytes: &[u8]| -> Vec<u8> {
        if !variant.uses_log_domain() {
            return bytes.to_vec();
        }
        let conv = if variant.uses_remapped_sentinel() {
            LogConvention::Remapped
        } else {
            LogConvention::Sentinel
        };
        let table = log_table_bytes(conv);
        bytes.iter().map(|&b| table[b as usize]).collect()
    };
    let (n, k, m) = (SANITIZED_N, SANITIZED_K, SANITIZED_M);
    let mut gpu = Gpu::new(DeviceSpec::gtx280());
    gpu.enable_sanitizer(SanitizerConfig::default());
    let source = gpu.alloc(n * k);
    let coeffs = gpu.alloc(m * n);
    let output = gpu.alloc(m * k);
    let table_bytes = variant.table_bytes();
    let tables = gpu.alloc(table_bytes.len());
    gpu.upload(source, &preprocessed(data));
    gpu.upload(coeffs, &preprocessed(coeffs_host));
    gpu.upload(tables, &table_bytes);
    let kernel = TableEncodeKernel {
        variant,
        source,
        coeffs,
        output,
        tables,
        n,
        k,
        m,
        sm_blocks: gpu.spec().sm_count,
        tb5_replicas,
    };
    gpu.launch(&kernel, kernel.grid())
}

/// The Sec. 5.1.1 streaming-capacity table.
pub fn streaming_capacity() -> String {
    let profile = StreamProfile::high_quality_video();
    let config = CodingConfig::new(128, 4096).expect("valid");
    let mut out = String::from("## Sec. 5.1.1 / 6: streaming-server capacity\n\n");
    out.push_str(&format!(
        "segment: 128 x 4 KB = 512 KB; stream 768 kbps; buffering delay {:.2} s (paper: 5.33 s)\n\n",
        profile.buffering_delay_s(config)
    ));
    out.push_str(&format!(
        "{:<34} {:>10} {:>12} {:>12}\n",
        "encoder", "MB/s", "peers(comp)", "peers(2xGbE)"
    ));
    // Decimal-MB rates, as the paper divides them.
    for (label, rate_mb) in [
        ("GTX280 loop-based (Sec 4)", 133.0),
        ("GTX280 table-based-1 (Sec 5.1.2)", 177.1),
        ("GTX280 table-based-5 (Sec 5.1.3)", 294.0),
    ] {
        let plan = CapacityPlan::plan(rate_mb * 1e6, profile, Nic::gigabit_bonded(2));
        out.push_str(&format!(
            "{label:<34} {rate_mb:>10.1} {:>12} {:>12}\n",
            plan.compute_peers,
            plan.servable_peers()
        ));
    }
    let blocks = CapacityPlan::blocks_per_segment(1385, config);
    out.push_str(&format!(
        "\ncoded blocks per segment at 1385 peers: {blocks} (paper: \"at least 177,333\")\n"
    ));
    let segments_in_gpu = DeviceSpec::gtx280().device_mem_bytes / config.segment_bytes();
    out.push_str(&format!(
        "GTX280 device memory holds {segments_in_gpu} such segments (paper: \"hundreds\")\n"
    ));
    out.push_str("paper anchors: 1385 / 1844 / >3000 peers; 294 MB/s saturates two GbE.\n");
    out
}

/// Calibration probe: the simulator's value at every anchor point the cost
/// model was fitted to (DESIGN.md §7), next to the paper's number.
pub fn calibrate() -> String {
    let mut out = String::from("anchor                                paper     model\n");
    out.push_str("----------------------------------------------------\n");

    // Loop-based encode, GTX 280, n=128 (plateau over k).
    for (n, paper) in [(128usize, 133.0f64), (256, 66.0), (512, 33.6)] {
        let mut enc = GpuEncoder::new(DeviceSpec::gtx280(), EncodeScheme::LoopBased);
        let m = enc.measure(n, 4096, n, 1);
        out.push_str(&format!(
            "LB encode GTX280 n={n:<4} k=4K       {paper:>7.1}  {:>8.1}\n",
            to_mb(m.rate)
        ));
    }
    // 8800 GT loop-based.
    let mut enc = GpuEncoder::new(DeviceSpec::geforce_8800gt(), EncodeScheme::LoopBased);
    let m = enc.measure(128, 4096, 128, 1);
    out.push_str(&format!(
        "LB encode 8800GT n=128 k=4K        {:>7.1}  {:>8.1}\n",
        66.0,
        to_mb(m.rate)
    ));

    // Table-based ladder, n=128, k=4K.
    let ladder = [
        (TableVariant::Tb0, 16.0),
        (TableVariant::Tb1, 172.0),
        (TableVariant::Tb2, 193.0),
        (TableVariant::Tb3, 208.0),
        (TableVariant::Tb4, 239.0),
        (TableVariant::Tb5, 294.0),
    ];
    for (v, paper) in ladder {
        let mut enc = GpuEncoder::new(DeviceSpec::gtx280(), EncodeScheme::Table(v));
        let m = enc.measure(128, 4096, 128, 2);
        out.push_str(&format!(
            "{v:?} encode GTX280 n=128 k=4K       {paper:>7.1}  {:>8.1}\n",
            to_mb(m.rate)
        ));
    }

    // Single-segment decode, GTX 280, n=128 at several k.
    for (k, note) in [(1024usize, "(CPU wins here)"), (8192, "(crossover ~57)"), (16384, "")] {
        let config = CodingConfig::new(128, k).unwrap();
        let mut dec = GpuProgressiveDecoder::new(
            DeviceSpec::gtx280(),
            config,
            DecodeOptions::default(),
            Fidelity::Timing,
        );
        let mut seed = 0u64;
        while !dec.is_complete() {
            seed += 1;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let coeffs: Vec<u8> = (0..128).map(|_| rng.gen_range(1..=255)).collect();
            let payload: Vec<u8> = (0..k).map(|_| rng.gen()).collect();
            dec.push(&coeffs, &payload).expect("pivot result word");
        }
        let rate = (128 * k) as f64 / dec.kernel_seconds();
        out.push_str(&format!(
            "SS decode GTX280 n=128 k={k:<6}  {:>7}  {:>8.1}  {note}\n",
            "?",
            to_mb(rate)
        ));
    }

    // Multi-segment decode, GTX 280, n=128, k=16K: 30-seg and 60-seg.
    let config = CodingConfig::new(128, 16384).unwrap();
    let mut md = GpuMultiDecoder::new(DeviceSpec::gtx280());
    for (segments, seed, paper) in [(30, 3, 180.0), (60, 4, 254.0)] {
        let o = md.measure(config, segments, seed);
        out.push_str(&format!(
            "MS decode GTX280 {segments}seg n=128 k=16K {paper:>7.1}  {:>8.1}  (stage1 {:.0}%)\n",
            to_mb(o.rate),
            o.stage1_share * 100.0
        ));
    }
    let config_small = CodingConfig::new(128, 1024).unwrap();
    for (segments, seed, paper) in [(30, 5, 64), (60, 6, 48)] {
        let o = md.measure(config_small, segments, seed);
        out.push_str(&format!(
            "MS decode GTX280 {segments}seg n=128 k=1K  stage1 share paper {paper}%: {:.0}%  rate {:.1}\n",
            o.stage1_share * 100.0,
            to_mb(o.rate)
        ));
    }
    out
}

/// Executor report, timed on this host: multi-segment decode throughput on
/// the persistent `nc-pool` executor against the spawn-per-wave strategy it
/// replaced, and parallel-encode bandwidth on the same pool.
pub fn pool() -> String {
    const SEGMENTS: usize = 64;
    const REPS: usize = 15;
    let config = CodingConfig::new(8, 64).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xBE7C);
    let inputs: Vec<Vec<CodedBlock>> = (0..SEGMENTS)
        .map(|_| {
            let data: Vec<u8> = (0..config.segment_bytes()).map(|_| rng.gen()).collect();
            let enc = Encoder::new(Segment::from_bytes(config, data).unwrap());
            enc.encode_batch(&mut rng, config.blocks() + 4)
        })
        .collect();

    let mut out = format!(
        "## nc-pool executor (host-measured): n={} k={} segments={SEGMENTS}\n",
        config.blocks(),
        config.block_size()
    );
    let mut pooled_8 = 0.0;
    for threads in [1usize, 4, 8] {
        let decoder = ParallelSegmentDecoder::new(config, threads);
        decoder.decode_segments(&inputs).unwrap(); // warm the pool
        let rate = SEGMENTS as f64
            / best_of(REPS, || {
                decoder.decode_segments(&inputs).unwrap();
            });
        out.push_str(&format!("  decode {threads} threads: {rate:.0} segments/s\n"));
        pooled_8 = rate;
    }
    let baseline = SEGMENTS as f64 / best_of(REPS, || spawn_per_wave_decode(config, 8, &inputs));
    out.push_str(&format!("  spawn-per-wave 8 threads: {baseline:.0} segments/s\n"));
    out.push_str(&format!(
        "  speedup vs spawn-per-wave (8 threads): {:.2}x\n",
        pooled_8 / baseline
    ));

    // Parallel-encode bandwidth on the same pool (full-block, Sec. 5.3).
    let enc_config = CodingConfig::new(64, 4096).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xE14C);
    let data: Vec<u8> = (0..enc_config.segment_bytes()).map(|_| rng.gen()).collect();
    let m = 16usize;
    let coeffs: Vec<Vec<u8>> =
        (0..m).map(|_| (0..64).map(|_| rng.gen_range(1..=255)).collect()).collect();
    let encoder = ParallelEncoder::new(
        Segment::from_bytes(enc_config, data).unwrap(),
        8,
        Partitioning::FullBlock,
    );
    encoder.encode_batch(&coeffs); // warm the pool
    let secs = best_of(REPS, || {
        encoder.encode_batch(&coeffs);
    });
    out.push_str(&format!(
        "  parallel encode (n=64 k=4096, 8 threads): {:.1} MB/s\n",
        (m * 4096) as f64 / secs / 1e6
    ));
    out
}

/// The pre-pool dispatch strategy, for the speedup denominator: one scoped
/// thread per chunk of segments, spawned afresh on every call.
fn spawn_per_wave_decode(config: CodingConfig, threads: usize, segments: &[Vec<CodedBlock>]) {
    let mut results: Vec<Option<Vec<u8>>> = (0..segments.len()).map(|_| None).collect();
    let chunk = segments.len().div_ceil(threads.clamp(1, segments.len().max(1)));
    std::thread::scope(|scope| {
        for (seg_chunk, out_chunk) in segments.chunks(chunk).zip(results.chunks_mut(chunk)) {
            scope.spawn(move || {
                for (blocks, slot) in seg_chunk.iter().zip(out_chunk.iter_mut()) {
                    let mut decoder = Decoder::new(config);
                    for b in blocks {
                        if decoder.is_complete() {
                            break;
                        }
                        decoder.push(b.clone()).unwrap();
                    }
                    *slot = Some(decoder.try_recover().unwrap());
                }
            });
        }
    });
}

/// Best-of-`reps` wall time for `f`, in seconds.
fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    // `tests/golden_figures.rs` checks every modeled generator byte for
    // byte; here we only make sure the cheap ones produce content.
    use super::*;

    #[test]
    fn fig10_report_contains_all_series() {
        let r = fig10();
        assert!(r.contains("FB Mac Pro (n=128)"));
        assert!(r.contains("PB Mac Pro (n=512)"));
        assert!(r.contains("32K"));
    }

    #[test]
    fn streaming_capacity_contains_paper_numbers() {
        let r = streaming_capacity();
        assert!(r.contains("1385"));
        assert!(r.contains("buffering delay"));
    }
}
