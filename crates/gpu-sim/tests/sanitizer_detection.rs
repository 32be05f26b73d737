//! The sanitizer must catch injected defects — and stay silent on clean
//! kernels.
//!
//! Each defective toy kernel here models a bug class the warp-lockstep
//! simulator would otherwise mask (the simulator executes warps in order,
//! so a cross-warp race still produces the "right" answer functionally):
//! the value of the sanitizer is that these launches *fail loudly anyway*.

use nc_gpu_sim::{
    BlockCtx, DeviceSpec, DiagnosticKind, Gpu, GridConfig, Kernel, SanitizerConfig, Severity,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

const WARP: usize = 32;

fn gpu() -> Gpu {
    Gpu::new(DeviceSpec::gtx280())
}

/// Warp 0 stores a shared word; warp 1 reads it back in the same barrier
/// epoch. Lockstep execution makes this deterministic in the simulator,
/// but on hardware the warps race.
struct CrossWarpRace;

impl Kernel for CrossWarpRace {
    fn run_block(&self, ctx: &mut BlockCtx<'_>) {
        ctx.at_warp(0);
        ctx.st_shared_u32(&[0], &[0xDEAD_BEEF]);
        ctx.at_warp(1);
        let mut out = [0u32];
        ctx.ld_shared_u32(&[0], &mut out);
        assert_eq!(out[0], 0xDEAD_BEEF, "lockstep masks the race functionally");
    }
}

/// The same exchange with a barrier between producer and consumer: the
/// canonical fix, and the positive control for the race rule.
struct SyncedHandoff;

impl Kernel for SyncedHandoff {
    fn run_block(&self, ctx: &mut BlockCtx<'_>) {
        ctx.at_warp(0);
        ctx.st_shared_u32(&[0], &[0xDEAD_BEEF]);
        ctx.sync();
        ctx.at_warp(1);
        let mut out = [0u32];
        ctx.ld_shared_u32(&[0], &mut out);
    }
}

/// Writes one word past the end of its buffer, into the 256-byte
/// alignment gap between allocations — exactly the overflow a
/// `buf.addr()` bounds assert cannot see because the kernel does raw
/// address arithmetic.
struct GapOverflow {
    buf: nc_gpu_sim::DeviceBuffer,
}

impl Kernel for GapOverflow {
    fn run_block(&self, ctx: &mut BlockCtx<'_>) {
        let one_past_end = self.buf.addr(self.buf.len() - 4) + 4;
        ctx.st_global_u32(&[one_past_end], &[7]);
    }
}

/// Reads a buffer that was allocated but never uploaded or stored to.
struct UninitRead {
    buf: nc_gpu_sim::DeviceBuffer,
}

impl Kernel for UninitRead {
    fn run_block(&self, ctx: &mut BlockCtx<'_>) {
        let mut out = [0u32];
        ctx.ld_global_u32(&[self.buf.addr(0)], &mut out);
    }
}

/// Reads shared memory no instrumented store initialized.
struct UninitSharedRead;

impl Kernel for UninitSharedRead {
    fn run_block(&self, ctx: &mut BlockCtx<'_>) {
        let mut out = [0u32];
        ctx.ld_shared_u32(&[0], &mut out);
    }
}

#[test]
fn cross_warp_shared_race_is_flagged() {
    let mut g = gpu();
    let grid = GridConfig { blocks: 1, threads_per_block: 2 * WARP, shared_bytes: 64 };
    let stats = g.launch_checked(&CrossWarpRace, grid, "racy-toy");
    let report = stats.sanitizer.expect("sanitized launch");
    assert!(report.has(DiagnosticKind::SharedRace), "race not caught:\n{}", report.render());
    assert!(!report.is_clean());
    let d = report.of_kind(DiagnosticKind::SharedRace).next().expect("finding");
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.kernel, "racy-toy", "label must be attributed");
}

#[test]
fn barrier_between_warps_silences_the_race() {
    let mut g = gpu();
    let grid = GridConfig { blocks: 1, threads_per_block: 2 * WARP, shared_bytes: 64 };
    let stats = g.launch_checked(&SyncedHandoff, grid, "synced-toy");
    let report = stats.sanitizer.expect("sanitized launch");
    assert!(
        !report.has(DiagnosticKind::SharedRace),
        "false positive on synced handoff:\n{}",
        report.render()
    );
    assert!(report.is_clean());
}

#[test]
fn global_write_into_alignment_gap_is_flagged() {
    let mut g = gpu();
    g.enable_sanitizer(SanitizerConfig::correctness_only());
    // 100 bytes rounds up to a 256-byte slot: bytes 100..256 are a gap.
    let buf = g.alloc(100);
    g.upload(buf, &[0u8; 100]);
    let _second = g.alloc(64); // a neighbor the overflow must not reach
    let grid = GridConfig { blocks: 1, threads_per_block: WARP, shared_bytes: 0 };
    let stats = g.launch_checked(&GapOverflow { buf }, grid, "oob-toy");
    let report = stats.sanitizer.expect("sanitized launch");
    assert!(
        report.has(DiagnosticKind::GlobalOutOfBounds),
        "gap overflow not caught:\n{}",
        report.render()
    );
    assert!(!report.is_clean());
}

#[test]
fn uninitialized_global_read_is_flagged() {
    let mut g = gpu();
    // Enabled before alloc, so the fresh buffer starts as shadow-uninit.
    g.enable_sanitizer(SanitizerConfig::correctness_only());
    let buf = g.alloc(64);
    let grid = GridConfig { blocks: 1, threads_per_block: WARP, shared_bytes: 0 };
    let stats = g.launch_checked(&UninitRead { buf }, grid, "uninit-toy");
    let report = stats.sanitizer.expect("sanitized launch");
    assert!(
        report.has(DiagnosticKind::UninitializedGlobalRead),
        "uninit read not caught:\n{}",
        report.render()
    );

    // Uploading makes the same read legitimate.
    let mut g = gpu();
    g.enable_sanitizer(SanitizerConfig::correctness_only());
    let buf = g.alloc(64);
    g.upload(buf, &[1u8; 64]);
    let stats = g.launch_checked(&UninitRead { buf }, grid, "uploaded-toy");
    assert!(stats.sanitizer.expect("sanitized").is_clean());
}

#[test]
fn uninitialized_shared_read_is_flagged() {
    let mut g = gpu();
    let grid = GridConfig { blocks: 1, threads_per_block: WARP, shared_bytes: 64 };
    let stats = g.launch_checked(&UninitSharedRead, grid, "uninit-shared-toy");
    let report = stats.sanitizer.expect("sanitized launch");
    assert!(
        report.has(DiagnosticKind::UninitializedSharedRead),
        "uninit shared read not caught:\n{}",
        report.render()
    );
}

/// A well-formed kernel: stage global data into shared memory, barrier,
/// read it back, write it out. Every access pattern the sanitizer checks
/// (global extents, shadow init, barrier epochs) is exercised legally.
struct CleanStager {
    src: nc_gpu_sim::DeviceBuffer,
    dst: nc_gpu_sim::DeviceBuffer,
    words_per_block: usize,
}

impl Kernel for CleanStager {
    fn run_block(&self, ctx: &mut BlockCtx<'_>) {
        let wpb = self.words_per_block;
        let block = ctx.block_idx();
        let mut addrs = Vec::new();
        let mut vals = [0u32; WARP];

        // Stage: each warp copies its stripe of the block's words in.
        for warp in 0..ctx.warps() {
            ctx.at_warp(warp);
            for base in (warp * WARP..wpb).step_by(ctx.warps() * WARP) {
                let lanes = WARP.min(wpb - base);
                addrs.clear();
                for lane in 0..lanes {
                    addrs.push(self.src.addr((block * wpb + base + lane) * 4));
                }
                ctx.ld_global_u32(&addrs, &mut vals[..lanes]);
                let saddrs: Vec<u64> = (0..lanes).map(|l| ((base + l) * 4) as u64).collect();
                ctx.st_shared_u32(&saddrs, &vals[..lanes]);
            }
        }
        ctx.sync();

        // Drain: warps read each other's staging (legal after the barrier).
        for warp in 0..ctx.warps() {
            ctx.at_warp(warp);
            for base in (warp * WARP..wpb).step_by(ctx.warps() * WARP) {
                let lanes = WARP.min(wpb - base);
                let flipped = wpb - base - lanes; // cross-warp stripe
                let saddrs: Vec<u64> = (0..lanes).map(|l| ((flipped + l) * 4) as u64).collect();
                ctx.ld_shared_u32(&saddrs, &mut vals[..lanes]);
                addrs.clear();
                for lane in 0..lanes {
                    addrs.push(self.dst.addr((block * wpb + flipped + lane) * 4));
                }
                ctx.st_global_u32(&addrs, &vals[..lanes]);
            }
        }
    }
}

/// A sampled launch runs with the sanitizer suspended, whether it samples
/// or (its grid under the cap) runs every block, and leaves everything it
/// could have written marked initialized for the launches after it.
#[test]
fn sampled_launches_are_never_sanitized() {
    let mut g = gpu();
    g.enable_sanitizer(SanitizerConfig::correctness_only());
    let (blocks, words_per_block) = (8, 2 * WARP);
    let bytes = blocks * words_per_block * 4;
    let src = g.alloc(bytes);
    g.upload(src, &vec![5u8; bytes]);
    let staged = g.alloc(bytes); // written only by the sampled launch below
    let out = g.alloc(bytes);
    let grid = GridConfig { blocks, threads_per_block: 2 * WARP, shared_bytes: bytes / blocks };
    let session_launches = |g: &Gpu| g.sanitizer_report().expect("enabled").launches;

    // Two of eight blocks run: `staged` is only partly written.
    let sampled = g.launch_sampled(&CleanStager { src, dst: staged, words_per_block }, grid, 2);
    assert_eq!(sampled.sanitizer, None);
    assert_eq!(session_launches(&g), 0);

    // The full launch reading all of `staged` is sanitized and finds no
    // uninitialized read: the sampled launch marked it initialized.
    let full =
        g.launch_checked(&CleanStager { src: staged, dst: out, words_per_block }, grid, "reader");
    let report = full.sanitizer.expect("sanitized launch");
    assert!(
        !report.has(DiagnosticKind::UninitializedGlobalRead),
        "read after a sampled launch flagged:
{}",
        report.render()
    );
    assert_eq!(session_launches(&g), 1);

    // A grid that fits under the cap runs in full, still unsanitized: the
    // race below would be an error in a sanitized launch.
    let racy = GridConfig { blocks: 2, threads_per_block: 2 * WARP, shared_bytes: 64 };
    let stats = g.launch_sampled(&CrossWarpRace, racy, 4);
    assert_eq!(stats.sanitizer, None);
    assert_eq!(stats.grid_blocks, 2);
    assert_eq!(session_launches(&g), 1);
    assert!(!g.sanitizer_report().expect("enabled").has(DiagnosticKind::SharedRace));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Clean kernels stay clean across random grid shapes: no false
    /// positives from memcheck or racecheck at any block/warp count.
    #[test]
    fn clean_kernel_yields_zero_diagnostics(
        blocks in 1usize..5,
        warps_per_block in 1usize..5,
        chunks in 1usize..4,
        seed: u64,
    ) {
        let words_per_block = warps_per_block * WARP * chunks;
        let bytes = blocks * words_per_block * 4;
        let mut g = gpu();
        g.enable_sanitizer(SanitizerConfig::correctness_only());
        let src = g.alloc(bytes);
        let dst = g.alloc(bytes);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data: Vec<u8> = (0..bytes).map(|_| rng.gen()).collect();
        g.upload(src, &data);
        g.upload(dst, &vec![0u8; bytes]);

        let grid = GridConfig {
            blocks,
            threads_per_block: warps_per_block * WARP,
            shared_bytes: words_per_block * 4,
        };
        let kernel = CleanStager { src, dst, words_per_block };
        let stats = g.launch_checked(&kernel, grid, "clean-stager");
        let report = stats.sanitizer.expect("sanitized launch");
        prop_assert!(
            report.diagnostics.is_empty(),
            "false positives on a clean kernel:\n{}",
            report.render()
        );
        let (copied, _) = g.download(dst);
        prop_assert_eq!(copied, data, "staging round-trip must be exact");
    }
}
