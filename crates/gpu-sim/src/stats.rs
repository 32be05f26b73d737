//! Execution counters and launch statistics.

use serde::{Deserialize, Serialize};

/// Raw event counters accumulated while executing kernel code.
///
/// One `ExecCounters` exists per thread block during execution; the
/// scheduler folds them into per-SM bins and the timing model converts the
/// totals into cycles (see `crate::timing`).
#[derive(Copy, Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ExecCounters {
    /// Warp instructions issued (ALU work, address math, branches).
    pub(crate) warp_instructions: u64,
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
    pub(crate) tex_hits: u64,
    /// Texture fetches that missed and went to device memory.
    pub(crate) tex_misses: u64,
    /// `__syncthreads()`-style barriers executed.
    pub(crate) syncs: u64,
    /// Atomic operations on shared memory.
    pub(crate) shared_atomics: u64,
}

impl ExecCounters {
    /// Adds another counter set into this one.
    pub(crate) fn merge(&mut self, other: &ExecCounters) {
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
    pub(crate) block_threads: usize,
    /// Resident blocks per SM the occupancy calculation allowed.
    pub(crate) resident_blocks_per_sm: usize,
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
    pub(crate) exposed_latency_cycles: u64,
    /// This launch's sanitizer findings, when the sanitizer was enabled
    /// (see `crate::sanitizer`); `None` for uninstrumented launches.
    pub sanitizer: Option<crate::sanitizer::SanitizerReport>,
}

impl LaunchStats {
    /// Whether the launch was compute-bound (as the paper's encoder is).
    pub fn is_compute_bound(&self) -> bool {
        self.compute_cycles >= self.memory_cycles
    }
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
