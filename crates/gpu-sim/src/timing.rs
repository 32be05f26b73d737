//! The launch timing model.
//!
//! Per SM, the model combines three resources:
//!
//! 1. **Issue pipeline** — every warp instruction occupies the SM's 8 SPs
//!    for `warp_size / cores_per_sm` = 4 cycles; shared-memory bank
//!    conflicts and barriers add serialization cycles on the same pipeline.
//! 2. **DRAM bandwidth** — coalesced transaction bytes divided by the SM's
//!    share of device bandwidth. Compute and memory overlap, so an SM's
//!    busy time is the *maximum* of the two (the paper verifies encode is
//!    compute-bound by showing a dummy-input benchmark gains only 0.5%).
//! 3. **Exposed memory latency** — with few resident warps the SM cannot
//!    cover DRAM latency; each warp-level memory operation (plus each
//!    uncoalesced replay transaction) exposes `latency / resident_warps`
//!    cycles once occupancy drops below the full-hiding threshold. This
//!    term is what starves the paper's single-segment decoder at small
//!    block sizes (Sec. 4.2.2/4.3) and what makes global-memory log/exp
//!    tables "result in very poor performance" (Sec. 5.1).
//!
//! Calibration: the free constants below were fixed against three anchor
//! points of the paper (loop encode 133 MB/s, TB5 encode 294 MB/s, 6-segment
//! decode 254 MB/s — see DESIGN.md §7); everything else is prediction.

use crate::device::DeviceSpec;
use crate::stats::{ExecCounters, LaunchStats};

/// Cycles charged per `__syncthreads()` barrier.
pub(crate) const SYNC_COST_CYCLES: u64 = 48;

/// Resident warps per SM needed to fully hide DRAM latency.
pub(crate) const WARPS_FOR_FULL_HIDING: u64 = 24;

/// Computes the occupancy of a launch: resident blocks per SM given the
/// block's thread and shared-memory footprint.
///
/// # Panics
///
/// Panics if a single block exceeds the device's per-block limits (such a
/// launch would fail on real hardware).
pub(crate) fn occupancy(spec: &DeviceSpec, block_threads: usize, shared_bytes: usize) -> usize {
    assert!(
        block_threads >= 1 && block_threads <= spec.max_threads_per_block,
        "block of {block_threads} threads exceeds device limit {}",
        spec.max_threads_per_block
    );
    assert!(
        shared_bytes <= spec.shared_mem_usable(),
        "block requests {shared_bytes} B shared, device provides {}",
        spec.shared_mem_usable()
    );
    let by_threads = spec.max_threads_per_sm / block_threads;
    let by_shared = spec.shared_mem_usable().checked_div(shared_bytes).unwrap_or(usize::MAX);
    spec.max_blocks_per_sm.min(by_threads).min(by_shared).max(1)
}

/// Converts per-SM counter totals into a [`LaunchStats`], taking the
/// critical-path SM (the one that finishes last).
pub(crate) fn model_launch(
    spec: &DeviceSpec,
    per_sm: &[ExecCounters],
    grid_blocks: usize,
    block_threads: usize,
    resident_blocks: usize,
) -> LaunchStats {
    let resident_warps = (resident_blocks * block_threads.div_ceil(spec.warp_size)).max(1) as u64;
    let bytes_per_cycle_per_sm = spec.mem_bandwidth / spec.sm_count as f64 / spec.core_clock_hz;

    let mut total = ExecCounters::default();
    let mut worst_cycles = 0u64;
    let mut worst = (0u64, 0u64, 0u64); // compute, memory, exposed

    for c in per_sm {
        total.merge(c);
        let issue = c.warp_instructions * spec.cycles_per_warp_instruction();
        let compute = issue + c.smem_conflict_cycles + c.syncs * SYNC_COST_CYCLES;
        let memory = (c.gmem_bytes as f64 / bytes_per_cycle_per_sm).ceil() as u64;
        let exposed = if resident_warps >= WARPS_FOR_FULL_HIDING {
            0
        } else {
            // Latency stalls form a third pipeline that overlaps with both
            // compute and bandwidth. Each warp-level memory operation costs
            // one DRAM round trip; *divergent* (uncoalesced) operations
            // replay once per extra transaction beyond the two-transaction
            // (one per half-warp) coalesced floor — this replay serialization
            // is what buries table lookups kept in global memory
            // (Table-based-0). With w resident warps the SM overlaps w
            // stalls, and below the full-hiding threshold a (1 - w/24)
            // fraction of each reaches the critical path.
            let hiding = 1.0 - resident_warps as f64 / WARPS_FOR_FULL_HIDING as f64;
            let replays = c.gmem_transactions.saturating_sub(2 * c.gmem_ops);
            // Replays overlap partially with one another (the memory
            // controller pipelines them), so they cost half a round trip.
            (((c.gmem_ops + replays / 2) * spec.mem_latency_cycles) as f64 * hiding
                / resident_warps as f64) as u64
        };
        let sm_cycles = compute.max(memory).max(exposed);
        if sm_cycles > worst_cycles {
            worst_cycles = sm_cycles;
            worst = (compute, memory, exposed);
        }
    }

    let elapsed_s = worst_cycles as f64 / spec.core_clock_hz + spec.launch_overhead_s;
    LaunchStats {
        grid_blocks,
        block_threads,
        resident_blocks_per_sm: resident_blocks,
        resident_warps_per_sm: resident_warps as usize,
        counters: total,
        sm_cycles: worst_cycles,
        elapsed_s,
        compute_cycles: worst.0,
        memory_cycles: worst.1,
        exposed_latency_cycles: worst.2,
        sanitizer: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gtx() -> DeviceSpec {
        DeviceSpec::gtx280()
    }

    #[test]
    fn occupancy_limited_by_threads() {
        // 256-thread blocks: 1024 / 256 = 4 resident blocks (paper encode).
        assert_eq!(occupancy(&gtx(), 256, 0), 4);
    }

    #[test]
    fn occupancy_limited_by_shared_memory() {
        // 8 KiB of shared per block allows only 1 resident block of 16 KiB.
        assert_eq!(occupancy(&gtx(), 64, 8 * 1024), 1);
    }

    #[test]
    fn occupancy_limited_by_block_cap() {
        assert_eq!(occupancy(&gtx(), 32, 0), 8);
    }

    #[test]
    #[should_panic]
    fn oversized_block_panics() {
        let _ = occupancy(&gtx(), 1024, 0);
    }

    #[test]
    fn compute_bound_launch_scales_with_instructions() {
        let spec = gtx();
        let mk = |instr: u64| ExecCounters { warp_instructions: instr, ..Default::default() };
        let a = model_launch(&spec, &[mk(1000)], 1, 256, 4);
        let b = model_launch(&spec, &[mk(2000)], 1, 256, 4);
        assert!(b.sm_cycles == 2 * a.sm_cycles);
        assert!(a.is_compute_bound());
    }

    #[test]
    fn memory_bound_launch_uses_bandwidth() {
        let spec = gtx();
        let c = ExecCounters {
            warp_instructions: 1,
            gmem_bytes: 1_000_000,
            gmem_ops: 100,
            gmem_transactions: 100,
            ..Default::default()
        };
        let stats = model_launch(&spec, &[c], 1, 256, 4);
        assert!(!stats.is_compute_bound());
        // 1 MB over one SM's bandwidth share (141.7 GB/s / 30).
        let expected_s = 1_000_000.0 / (spec.mem_bandwidth / 30.0);
        let modeled_s = stats.memory_cycles as f64 / spec.core_clock_hz;
        assert!((modeled_s - expected_s).abs() / expected_s < 0.01);
    }

    #[test]
    fn low_occupancy_exposes_latency() {
        let spec = gtx();
        let c = ExecCounters {
            warp_instructions: 100,
            gmem_ops: 1000,
            gmem_bytes: 64_000,
            ..Default::default()
        };
        let starved = model_launch(&spec, &[c], 1, 64, 1); // 2 warps
        let saturated = model_launch(&spec, &[c], 1, 256, 4); // 32 warps
        assert!(starved.exposed_latency_cycles > 0);
        assert_eq!(saturated.exposed_latency_cycles, 0);
        assert!(starved.sm_cycles > saturated.sm_cycles);
    }

    #[test]
    fn critical_path_is_the_slowest_sm() {
        let spec = gtx();
        let light = ExecCounters { warp_instructions: 10, ..Default::default() };
        let heavy = ExecCounters { warp_instructions: 10_000, ..Default::default() };
        let stats = model_launch(&spec, &[light, heavy], 2, 256, 4);
        assert_eq!(stats.sm_cycles, 10_000 * 4);
    }

    #[test]
    fn sync_and_conflict_cycles_extend_compute() {
        let spec = gtx();
        let c = ExecCounters {
            warp_instructions: 100,
            syncs: 10,
            smem_conflict_cycles: 77,
            ..Default::default()
        };
        let stats = model_launch(&spec, &[c], 1, 256, 4);
        assert_eq!(stats.compute_cycles, 400 + 10 * SYNC_COST_CYCLES + 77);
    }
}
