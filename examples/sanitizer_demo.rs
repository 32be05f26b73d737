//! The kernel sanitizer catching a cross-warp race the simulator masks.
//!
//! Run with `cargo run --release --example sanitizer_demo`.
//!
//! The simulator executes warps in lockstep program order, so the racy
//! kernel below computes the "right" answer — on real hardware the two
//! warps race and the read is undefined. The sanitizer flags it anyway;
//! adding the barrier makes the same exchange legal.

use nc_gpu_sim::{BlockCtx, DeviceSpec, Gpu, GridConfig, Kernel};

/// Warp 0 publishes a shared word; warp 1 consumes it, with or without
/// the `__syncthreads()` in between.
struct Handoff {
    with_barrier: bool,
}

impl Kernel for Handoff {
    fn run_block(&self, ctx: &mut BlockCtx<'_>) {
        ctx.at_warp(0);
        ctx.st_shared_u32(&[0], &[42]);
        if self.with_barrier {
            ctx.sync();
        }
        ctx.at_warp(1);
        let mut got = [0u32];
        ctx.ld_shared_u32(&[0], &mut got);
        assert_eq!(got[0], 42, "lockstep masks the race functionally");
    }
}

fn main() {
    let grid = GridConfig { blocks: 1, threads_per_block: 64, shared_bytes: 64 };

    for with_barrier in [false, true] {
        let mut gpu = Gpu::new(DeviceSpec::gtx280());
        let label = if with_barrier { "handoff-synced" } else { "handoff-racy" };
        let stats = gpu.launch_checked(&Handoff { with_barrier }, grid, label);
        let report = stats.sanitizer.expect("launch_checked always sanitizes");
        println!("{label}: clean = {}", report.is_clean());
        print!("{}", report.render());
        println!();
    }
}
