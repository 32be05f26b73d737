//! Execution counters and launch statistics.

use serde::{Deserialize, Serialize};

/// Raw event counters accumulated while executing kernel code.
///
/// One `ExecCounters` exists per thread block during execution; the
/// scheduler folds them into per-SM bins and the timing model converts the
/// totals into cycles (see [`crate::timing`]).
#[derive(Copy, Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ExecCounters {
    /// Warp instructions issued (ALU work, address math, branches).
    pub warp_instructions: u64,
    /// Global-memory transactions after coalescing.
    pub gmem_transactions: u64,
    /// Bytes moved to/from device memory (transaction granularity).
    pub gmem_bytes: u64,
    /// Warp-level global memory operations (each may span several
    /// transactions); used for latency-exposure accounting.
    pub gmem_ops: u64,
    /// Shared-memory access operations (warp-level).
    pub smem_ops: u64,
    /// Extra serialization cycles caused by shared-memory bank conflicts,
    /// measured from the kernels' actual address streams.
    pub smem_conflict_cycles: u64,
    /// Texture fetches that hit the cache.
    pub tex_hits: u64,
    /// Texture fetches that missed and went to device memory.
    pub tex_misses: u64,
    /// `__syncthreads()`-style barriers executed.
    pub syncs: u64,
    /// Atomic operations on shared memory.
    pub shared_atomics: u64,
}

impl ExecCounters {
    /// Adds another counter set into this one.
    pub fn merge(&mut self, other: &ExecCounters) {
        self.warp_instructions += other.warp_instructions;
        self.gmem_transactions += other.gmem_transactions;
        self.gmem_bytes += other.gmem_bytes;
        self.gmem_ops += other.gmem_ops;
        self.smem_ops += other.smem_ops;
        self.smem_conflict_cycles += other.smem_conflict_cycles;
        self.tex_hits += other.tex_hits;
        self.tex_misses += other.tex_misses;
        self.syncs += other.syncs;
        self.shared_atomics += other.shared_atomics;
    }

    /// Every counter multiplied by `f`, truncated toward zero (how a
    /// sampled launch scales its executed blocks to the grid and spreads
    /// the total over the SMs).
    pub(crate) fn scaled(&self, f: f64) -> ExecCounters {
        let s = |v: u64| (v as f64 * f) as u64;
        ExecCounters {
            warp_instructions: s(self.warp_instructions),
            gmem_transactions: s(self.gmem_transactions),
            gmem_bytes: s(self.gmem_bytes),
            gmem_ops: s(self.gmem_ops),
            smem_ops: s(self.smem_ops),
            smem_conflict_cycles: s(self.smem_conflict_cycles),
            tex_hits: s(self.tex_hits),
            tex_misses: s(self.tex_misses),
            syncs: s(self.syncs),
            shared_atomics: s(self.shared_atomics),
        }
    }
}

/// The result of one kernel launch: aggregate counters plus the modeled
/// execution time.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct LaunchStats {
    /// Blocks launched.
    pub grid_blocks: usize,
    /// Threads per block.
    pub block_threads: usize,
    /// Resident blocks per SM the occupancy calculation allowed.
    pub resident_blocks_per_sm: usize,
    /// Resident warps per SM.
    pub resident_warps_per_sm: usize,
    /// Aggregate counters over all blocks.
    pub counters: ExecCounters,
    /// Modeled cycles on the critical-path SM.
    pub sm_cycles: u64,
    /// Modeled wall-clock seconds, including launch overhead.
    pub elapsed_s: f64,
    /// Compute (issue + shared-memory + sync) cycles on the critical SM.
    pub compute_cycles: u64,
    /// DRAM-bandwidth-limited cycles on the critical SM.
    pub memory_cycles: u64,
    /// Memory-latency cycles the occupancy could not hide.
    pub exposed_latency_cycles: u64,
    /// This launch's sanitizer findings, when the sanitizer was enabled
    /// (see [`crate::sanitizer`]); `None` for uninstrumented launches.
    pub sanitizer: Option<crate::sanitizer::SanitizerReport>,
}

impl LaunchStats {
    /// Effective throughput for `useful_bytes` of output produced by this
    /// launch, in bytes/second.
    pub fn throughput(&self, useful_bytes: usize) -> f64 {
        useful_bytes as f64 / self.elapsed_s
    }

    /// Whether the launch was compute-bound (as the paper's encoder is).
    pub fn is_compute_bound(&self) -> bool {
        self.compute_cycles >= self.memory_cycles
    }

    /// Which of the three modeled resources bounded this launch.
    pub fn bottleneck(&self) -> Bottleneck {
        if self.exposed_latency_cycles >= self.compute_cycles
            && self.exposed_latency_cycles >= self.memory_cycles
        {
            Bottleneck::Latency
        } else if self.compute_cycles >= self.memory_cycles {
            Bottleneck::Compute
        } else {
            Bottleneck::Bandwidth
        }
    }

    /// A profiler-style multi-line summary of the launch — the simulator's
    /// stand-in for a CUDA profiler report.
    pub fn summary(&self) -> String {
        let pct = |x: u64| {
            if self.sm_cycles == 0 {
                0.0
            } else {
                x as f64 / self.sm_cycles as f64 * 100.0
            }
        };
        let mut out = String::new();
        out.push_str(&format!(
            "grid {} x {} threads | {} resident block(s)/SM ({} warps) | {:.3} ms | bound by {:?}
",
            self.grid_blocks,
            self.block_threads,
            self.resident_blocks_per_sm,
            self.resident_warps_per_sm,
            self.elapsed_s * 1e3,
            self.bottleneck(),
        ));
        out.push_str(&format!(
            "  issue+smem+sync {:>12} cyc ({:>5.1}%)   dram-bw {:>12} cyc ({:>5.1}%)   exposed-latency {:>12} cyc ({:>5.1}%)
",
            self.compute_cycles,
            pct(self.compute_cycles),
            self.memory_cycles,
            pct(self.memory_cycles),
            self.exposed_latency_cycles,
            pct(self.exposed_latency_cycles),
        ));
        out.push_str(&format!(
            "  {} warp instructions | {} gmem transactions ({} B) | {} smem conflict cyc | tex {}/{} hit/miss | {} syncs
",
            self.counters.warp_instructions,
            self.counters.gmem_transactions,
            self.counters.gmem_bytes,
            self.counters.smem_conflict_cycles,
            self.counters.tex_hits,
            self.counters.tex_misses,
            self.counters.syncs,
        ));
        out
    }
}

/// The binding resource of a launch (see [`LaunchStats::bottleneck`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Bottleneck {
    /// Instruction issue, shared-memory serialization and barriers.
    Compute,
    /// DRAM bandwidth.
    Bandwidth,
    /// Exposed DRAM latency (occupancy too low to hide it).
    Latency,
}

/// Accumulates the stats of several launches (plus host↔device transfers)
/// into one pipeline-level timing, e.g. preprocessing + encode kernels, or
/// the two decode stages of Sec. 5.2.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct PipelineStats {
    /// Total modeled seconds across all recorded phases.
    pub total_s: f64,
    /// Per-phase `(label, seconds)` breakdown.
    pub phases: Vec<(String, f64)>,
}

impl PipelineStats {
    /// Creates an empty pipeline record.
    pub fn new() -> PipelineStats {
        PipelineStats::default()
    }

    /// Records a phase.
    pub fn record(&mut self, label: impl Into<String>, seconds: f64) {
        self.total_s += seconds;
        self.phases.push((label.into(), seconds));
    }

    /// Sum of the seconds of every phase whose label contains `needle` —
    /// used e.g. to compute the paper's "first stage share of the decoding
    /// task" annotations in Fig. 9.
    pub fn share_of(&self, needle: &str) -> f64 {
        if self.total_s == 0.0 {
            return 0.0;
        }
        let sum: f64 =
            self.phases.iter().filter(|(label, _)| label.contains(needle)).map(|(_, s)| s).sum();
        sum / self.total_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_merge() {
        let mut a = ExecCounters { warp_instructions: 5, gmem_bytes: 64, ..Default::default() };
        let b = ExecCounters { warp_instructions: 7, syncs: 2, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.warp_instructions, 12);
        assert_eq!(a.gmem_bytes, 64);
        assert_eq!(a.syncs, 2);
    }

    #[test]
    fn throughput_uses_elapsed_time() {
        let stats = LaunchStats { elapsed_s: 0.5, ..Default::default() };
        assert_eq!(stats.throughput(1_000_000), 2_000_000.0);
    }

    #[test]
    fn bottleneck_classification() {
        let mut stats = LaunchStats {
            compute_cycles: 100,
            memory_cycles: 10,
            exposed_latency_cycles: 5,
            sm_cycles: 100,
            ..Default::default()
        };
        assert_eq!(stats.bottleneck(), Bottleneck::Compute);
        stats.memory_cycles = 200;
        assert_eq!(stats.bottleneck(), Bottleneck::Bandwidth);
        stats.exposed_latency_cycles = 500;
        assert_eq!(stats.bottleneck(), Bottleneck::Latency);
    }

    #[test]
    fn summary_is_rich_and_nonempty() {
        let stats = LaunchStats {
            grid_blocks: 30,
            block_threads: 256,
            resident_blocks_per_sm: 1,
            resident_warps_per_sm: 8,
            sm_cycles: 1000,
            compute_cycles: 900,
            memory_cycles: 100,
            elapsed_s: 1e-3,
            ..Default::default()
        };
        let s = stats.summary();
        assert!(s.contains("30 x 256"));
        assert!(s.contains("Compute"));
        assert!(s.lines().count() >= 3);
    }

    #[test]
    fn pipeline_share() {
        let mut p = PipelineStats::new();
        p.record("stage1: invert seg0", 3.0);
        p.record("stage2: multiply seg0", 1.0);
        assert!((p.share_of("stage1") - 0.75).abs() < 1e-12);
        assert!((p.total_s - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_pipeline_share_is_zero() {
        assert_eq!(PipelineStats::new().share_of("x"), 0.0);
    }
}
