//! Property-based tests of the memory-system models: coalescing and
//! bank-conflict invariants that must hold for *any* address stream, since
//! the kernels' measured costs rest on them.

use nc_gpu_sim::{DeviceSpec, Gpu, GridConfig, Kernel, LaunchCtx};
use proptest::prelude::*;

/// A kernel that performs exactly one warp load at caller-chosen addresses
/// and records nothing else.
struct OneLoad {
    addrs: Vec<u64>,
    word: bool,
    buf: nc_gpu_sim::DeviceBuffer,
}

impl Kernel for OneLoad {
    fn run_block(&self, ctx: &mut dyn LaunchCtx) {
        let addrs: Vec<u64> = self.addrs.iter().map(|&a| self.buf.addr(a as usize)).collect();
        if self.word {
            let mut out = vec![0u32; addrs.len()];
            ctx.ld_global_u32(&addrs, &mut out);
        } else {
            let mut out = vec![0u8; addrs.len()];
            ctx.ld_global_u8(&addrs, &mut out);
        }
    }
}

/// A kernel that performs exactly one shared-memory warp load.
struct OneSharedLoad {
    addrs: Vec<u64>,
}

impl Kernel for OneSharedLoad {
    fn run_block(&self, ctx: &mut dyn LaunchCtx) {
        let mut out = vec![0u32; self.addrs.len()];
        ctx.ld_shared_u32(&self.addrs, &mut out);
    }
}

fn run_gmem(addrs: Vec<u64>, word: bool) -> nc_gpu_sim::ExecCounters {
    let mut gpu = Gpu::new(DeviceSpec::gtx280());
    let buf = gpu.alloc(1 << 16);
    let stats = gpu.launch(
        &OneLoad { addrs, word, buf },
        GridConfig { blocks: 1, threads_per_block: 32, shared_bytes: 0 },
    );
    stats.counters
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Transactions are bounded: at least one per half-warp touched, at
    /// most one per lane.
    #[test]
    fn transaction_bounds(
        raw in proptest::collection::vec(0u64..16_000, 1..=32),
    ) {
        let lanes = raw.len() as u64;
        let aligned: Vec<u64> = raw.iter().map(|a| a * 4).collect();
        let c = run_gmem(aligned, true);
        let half_warps = raw.len().div_ceil(16) as u64;
        prop_assert!(c.gmem_transactions >= half_warps);
        prop_assert!(c.gmem_transactions <= lanes);
    }

    /// Coalescing is permutation-invariant within a half-warp: shuffling
    /// lanes inside each 16-lane group never changes the transaction count.
    #[test]
    fn coalescing_is_order_invariant_within_half_warps(
        mut raw in proptest::collection::vec(0u64..4_000, 16),
        swap_a in 0usize..16,
        swap_b in 0usize..16,
    ) {
        let before = run_gmem(raw.iter().map(|a| a * 4).collect(), true).gmem_transactions;
        raw.swap(swap_a, swap_b);
        let after = run_gmem(raw.iter().map(|a| a * 4).collect(), true).gmem_transactions;
        prop_assert_eq!(before, after);
    }

    /// A contiguous aligned run of 16 words is always exactly one
    /// transaction per half-warp.
    #[test]
    fn contiguous_runs_coalesce(base in 0u64..512) {
        let addrs: Vec<u64> = (0..16).map(|i| base * 64 + i * 4).collect();
        let c = run_gmem(addrs, true);
        prop_assert_eq!(c.gmem_transactions, 1);
    }

    /// Byte loads use 32-byte segments: a 16-byte contiguous run is one
    /// transaction when 32-byte aligned.
    #[test]
    fn byte_runs_coalesce(base in 0u64..512) {
        let addrs: Vec<u64> = (0..16).map(|i| base * 32 + i).collect();
        let c = run_gmem(addrs, false);
        prop_assert_eq!(c.gmem_transactions, 1);
    }

    /// Shared-memory conflict cycles are bounded by full serialization
    /// (16 distinct words on one bank), and zero for any
    /// stride-1 word access.
    #[test]
    fn bank_conflict_bounds(
        words in proptest::collection::vec(0u64..4080, 1..=32),
    ) {
        let mut gpu = Gpu::new(DeviceSpec::gtx280());
        let addrs: Vec<u64> = words.iter().map(|w| w * 4).collect();
        let stats = gpu.launch(
            &OneSharedLoad { addrs },
            GridConfig { blocks: 1, threads_per_block: 32, shared_bytes: 16 * 1024 - 64 },
        );
        // Max degree is 16 per half-warp → 15 extra slots × 2 cycles each.
        let half_warps = words.len().div_ceil(16) as u64;
        prop_assert!(stats.counters.smem_conflict_cycles <= half_warps * 15 * 2);
    }

    #[test]
    fn stride_one_never_conflicts(start in 0u64..1000) {
        let mut gpu = Gpu::new(DeviceSpec::gtx280());
        let addrs: Vec<u64> = (0..16).map(|i| (start + i) * 4).collect();
        let stats = gpu.launch(
            &OneSharedLoad { addrs },
            GridConfig { blocks: 1, threads_per_block: 32, shared_bytes: 8 * 1024 },
        );
        prop_assert_eq!(stats.counters.smem_conflict_cycles, 0);
    }
}
