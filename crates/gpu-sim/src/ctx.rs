//! The kernel execution context: warp-level SIMT operations with cost
//! accounting.
//!
//! Kernels in this simulator are written **warp-vectorized**: instead of one
//! function per thread, kernel code iterates over the warps of its block and
//! issues operations on behalf of all (active) lanes at once, passing one
//! address/value per lane. This mirrors how the hardware actually executes
//! — and it lets the simulator observe the full per-warp address vector, so
//! global-memory coalescing and shared-memory bank conflicts are *measured*,
//! not estimated.
//!
//! Kernels program against the object-safe [`LaunchCtx`] surface, so the
//! same body runs on the simulator's [`BlockCtx`] and on any other executor
//! that implements the trait. On the simulator every operation is
//! functionally executed (loads return real data, stores mutate real device
//! memory) and charged to [`ExecCounters`]. ALU work that has no memory side
//! effect is charged via [`LaunchCtx::alu`].

use crate::device::DeviceSpec;
use crate::mem::GlobalMemory;
use crate::sanitizer::SanitizerState;
use crate::shared::SharedMem;
use crate::stats::ExecCounters;
use crate::texture::TexCache;

/// The warp-vectorized instruction surface a kernel body programs against.
///
/// One call issues an operation for **all active lanes of the current
/// warp**; address slices carry one address per lane. The warp-wide
/// operations panic if more than a warp of lanes is passed, the address and
/// value slices differ in length, or an address is out of device memory.
pub trait LaunchCtx {
    /// This block's index within the launch grid.
    fn block_idx(&self) -> usize;
    /// Total blocks in the launch grid.
    fn grid_blocks(&self) -> usize;
    /// Threads in this block.
    fn block_threads(&self) -> usize;
    /// The executing device's specification.
    fn spec(&self) -> &DeviceSpec;

    /// Number of warps in this block.
    fn warps(&self) -> usize {
        self.block_threads().div_ceil(self.spec().warp_size)
    }

    /// Number of active lanes in warp `w` (the last warp may be partial).
    fn lanes_in_warp(&self, w: usize) -> usize {
        let ws = self.spec().warp_size;
        self.block_threads().saturating_sub(w * ws).min(ws)
    }

    /// Declares which warp issues the operations that follow, for the
    /// sanitizer's race attribution (kernels call this at the top of their
    /// per-warp loops). Has no effect on cost accounting.
    fn at_warp(&mut self, warp: usize);
    /// Charges `warp_instructions` instructions of pure ALU/register work
    /// (no memory side effects).
    fn alu(&mut self, warp_instructions: u64);
    /// Block-wide barrier (`__syncthreads()`).
    fn sync(&mut self);

    /// Warp load of 4-byte global words: `out[i] = *addrs[i]` for every
    /// active lane. Coalescing is computed from the actual address vector.
    fn ld_global_u32(&mut self, addrs: &[u64], out: &mut [u32]);
    /// Warp store of 4-byte global words.
    fn st_global_u32(&mut self, addrs: &[u64], vals: &[u32]);
    /// Warp load of single global bytes.
    fn ld_global_u8(&mut self, addrs: &[u64], out: &mut [u8]);
    /// Warp store of single global bytes.
    fn st_global_u8(&mut self, addrs: &[u64], vals: &[u8]);
    /// Whole-warp read of one 4-byte global word — the *memory broadcast*
    /// the paper's Fig. 2 partitioning exploits for coefficient loads. One
    /// transaction regardless of warp width.
    fn ld_global_u32_broadcast(&mut self, addr: u64) -> u32;

    /// Warp load of 4-byte shared-memory words; bank conflicts are measured
    /// from the byte addresses.
    fn ld_shared_u32(&mut self, addrs: &[u64], out: &mut [u32]);
    /// Warp store of 4-byte shared-memory words.
    fn st_shared_u32(&mut self, addrs: &[u64], vals: &[u32]);
    /// Warp load of shared-memory bytes.
    fn ld_shared_u8(&mut self, addrs: &[u64], out: &mut [u8]);
    /// Warp store of shared-memory bytes.
    fn st_shared_u8(&mut self, addrs: &[u64], vals: &[u8]);
    /// Block-wide broadcast load of one shared word that every warp
    /// consumes (a pivot, a factor). Conflict-free within each warp.
    fn ld_shared_u32_broadcast(&mut self, addr: u32) -> u32;
    /// Warp-level `atomicMin` on one shared word: every active lane
    /// proposes a value; the final minimum is stored and returned.
    ///
    /// # Panics
    ///
    /// On the simulator, if the device lacks shared-memory atomics (the
    /// paper notes the GTX 280 is the first CUDA GPU with them; the 8800 GT
    /// has none).
    fn atomic_min_shared_u32(&mut self, addr: u32, lane_vals: &[u32]) -> u32;

    /// Warp byte fetch through the texture cache (Table-based-4's exp-table
    /// path).
    fn tex_fetch_u8(&mut self, addrs: &[u64], out: &mut [u8]);

    /// Reads a device word *without charging any cost*.
    ///
    /// For kernels that model an on-chip mirror of device data (e.g. a
    /// shared-memory cache of the coefficient matrix): the access cost is
    /// charged against the mirror via [`LaunchCtx::ld_shared_u32`], while
    /// the functional value is read here from the authoritative global
    /// copy. Never use this as a shortcut around a real, costed access.
    /// The sanitizer ignores this read too — the paired shared-memory
    /// access is the one that is checked.
    fn peek_global_u32(&self, addr: u64) -> u32;
    /// Read-only view of this block's shared memory.
    fn shared_slice(&self) -> &[u8];
}

/// The simulator's per-block execution context handed to
/// [`crate::Kernel::run_block`].
pub struct BlockCtx<'a> {
    block_idx: usize,
    grid_blocks: usize,
    block_threads: usize,
    spec: &'a DeviceSpec,
    gmem: &'a mut GlobalMemory,
    tex: &'a mut TexCache,
    shared: SharedMem,
    counters: ExecCounters,
    san: Option<&'a mut SanitizerState>,
}

impl<'a> BlockCtx<'a> {
    #[allow(clippy::too_many_arguments)] // launch plumbing, one call site
    pub(crate) fn new(
        block_idx: usize,
        grid_blocks: usize,
        block_threads: usize,
        shared_bytes: usize,
        spec: &'a DeviceSpec,
        gmem: &'a mut GlobalMemory,
        tex: &'a mut TexCache,
        san: Option<&'a mut SanitizerState>,
    ) -> BlockCtx<'a> {
        let mut ctx = BlockCtx {
            block_idx,
            grid_blocks,
            block_threads,
            spec,
            gmem,
            tex,
            shared: SharedMem::new(shared_bytes, spec.shared_mem_banks),
            counters: ExecCounters::default(),
            san,
        };
        if let Some(san) = ctx.san.as_deref_mut() {
            san.begin_block(block_idx, shared_bytes);
        }
        ctx
    }

    pub(crate) fn into_counters(self) -> ExecCounters {
        self.counters
    }

    #[inline]
    fn half_warp(&self) -> usize {
        self.spec.warp_size / 2
    }

    #[inline]
    fn check_warp(&self, addrs: usize, vals: usize) {
        assert!(addrs <= self.spec.warp_size, "more lanes than a warp: {addrs}");
        assert_eq!(addrs, vals, "lane address/value count mismatch");
    }
}

impl LaunchCtx for BlockCtx<'_> {
    #[inline]
    fn block_idx(&self) -> usize {
        self.block_idx
    }

    #[inline]
    fn grid_blocks(&self) -> usize {
        self.grid_blocks
    }

    #[inline]
    fn block_threads(&self) -> usize {
        self.block_threads
    }

    #[inline]
    fn spec(&self) -> &DeviceSpec {
        self.spec
    }

    #[inline]
    fn at_warp(&mut self, warp: usize) {
        if let Some(san) = self.san.as_deref_mut() {
            san.set_warp(warp);
        }
    }

    #[inline]
    fn alu(&mut self, warp_instructions: u64) {
        self.counters.warp_instructions += warp_instructions;
    }

    #[inline]
    fn sync(&mut self) {
        self.counters.syncs += 1;
        if let Some(san) = self.san.as_deref_mut() {
            san.on_sync();
        }
    }

    // ------------------------------------------------------------------
    // Global memory
    // ------------------------------------------------------------------

    fn ld_global_u32(&mut self, addrs: &[u64], out: &mut [u32]) {
        self.check_warp(addrs.len(), out.len());
        let hw = self.half_warp();
        let tx = GlobalMemory::charge(&mut self.counters, addrs, 4, hw);
        self.counters.warp_instructions += 1;
        if let Some(san) = self.san.as_deref_mut() {
            san.global_access(addrs, 4, false, tx, self.spec.warp_size);
        }
        for (o, &a) in out.iter_mut().zip(addrs) {
            *o = self.gmem.read_u32(a);
        }
    }

    fn st_global_u32(&mut self, addrs: &[u64], vals: &[u32]) {
        self.check_warp(addrs.len(), vals.len());
        let hw = self.half_warp();
        let tx = GlobalMemory::charge(&mut self.counters, addrs, 4, hw);
        self.counters.warp_instructions += 1;
        if let Some(san) = self.san.as_deref_mut() {
            san.global_access(addrs, 4, true, tx, self.spec.warp_size);
        }
        for (&a, &v) in addrs.iter().zip(vals) {
            self.gmem.write_u32(a, v);
        }
    }

    fn ld_global_u8(&mut self, addrs: &[u64], out: &mut [u8]) {
        self.check_warp(addrs.len(), out.len());
        let hw = self.half_warp();
        let tx = GlobalMemory::charge(&mut self.counters, addrs, 1, hw);
        self.counters.warp_instructions += 1;
        if let Some(san) = self.san.as_deref_mut() {
            san.global_access(addrs, 1, false, tx, self.spec.warp_size);
        }
        for (o, &a) in out.iter_mut().zip(addrs) {
            *o = self.gmem.read_u8(a);
        }
    }

    fn st_global_u8(&mut self, addrs: &[u64], vals: &[u8]) {
        self.check_warp(addrs.len(), vals.len());
        let hw = self.half_warp();
        let tx = GlobalMemory::charge(&mut self.counters, addrs, 1, hw);
        self.counters.warp_instructions += 1;
        if let Some(san) = self.san.as_deref_mut() {
            san.global_access(addrs, 1, true, tx, self.spec.warp_size);
        }
        for (&a, &v) in addrs.iter().zip(vals) {
            self.gmem.write_u8(a, v);
        }
    }

    fn ld_global_u32_broadcast(&mut self, addr: u64) -> u32 {
        self.counters.gmem_ops += 1;
        self.counters.gmem_transactions += 1;
        self.counters.gmem_bytes += 64;
        self.counters.warp_instructions += 1;
        if let Some(san) = self.san.as_deref_mut() {
            san.global_one(addr, 4, false);
        }
        self.gmem.read_u32(addr)
    }

    // ------------------------------------------------------------------
    // Shared memory
    // ------------------------------------------------------------------

    fn ld_shared_u32(&mut self, addrs: &[u64], out: &mut [u32]) {
        self.check_warp(addrs.len(), out.len());
        let hw = self.half_warp();
        let extra = self.shared.charge(&mut self.counters, addrs, hw);
        self.counters.warp_instructions += 1;
        if let Some(san) = self.san.as_deref_mut() {
            san.shared_access(addrs, 4, false, extra, self.spec.warp_size);
        }
        for (o, &a) in out.iter_mut().zip(addrs) {
            *o = self.shared.read_u32(a as u32);
        }
    }

    fn st_shared_u32(&mut self, addrs: &[u64], vals: &[u32]) {
        self.check_warp(addrs.len(), vals.len());
        let hw = self.half_warp();
        let extra = self.shared.charge(&mut self.counters, addrs, hw);
        self.counters.warp_instructions += 1;
        if let Some(san) = self.san.as_deref_mut() {
            san.shared_access(addrs, 4, true, extra, self.spec.warp_size);
        }
        for (&a, &v) in addrs.iter().zip(vals) {
            self.shared.write_u32(a as u32, v);
        }
    }

    fn ld_shared_u8(&mut self, addrs: &[u64], out: &mut [u8]) {
        self.check_warp(addrs.len(), out.len());
        let hw = self.half_warp();
        let extra = self.shared.charge(&mut self.counters, addrs, hw);
        self.counters.warp_instructions += 1;
        if let Some(san) = self.san.as_deref_mut() {
            san.shared_access(addrs, 1, false, extra, self.spec.warp_size);
        }
        for (o, &a) in out.iter_mut().zip(addrs) {
            *o = self.shared.read_u8(a as u32);
        }
    }

    fn st_shared_u8(&mut self, addrs: &[u64], vals: &[u8]) {
        self.check_warp(addrs.len(), vals.len());
        let hw = self.half_warp();
        let extra = self.shared.charge(&mut self.counters, addrs, hw);
        self.counters.warp_instructions += 1;
        if let Some(san) = self.san.as_deref_mut() {
            san.shared_access(addrs, 1, true, extra, self.spec.warp_size);
        }
        for (&a, &v) in addrs.iter().zip(vals) {
            self.shared.write_u8(a as u32, v);
        }
    }

    /// Charged as one conflict-free access per warp of the block; under
    /// the sanitizer the read is attributed to *all* warps, so a same-epoch
    /// write to the word from any warp is reported as a race.
    fn ld_shared_u32_broadcast(&mut self, addr: u32) -> u32 {
        let warps = self.warps() as u64;
        self.counters.warp_instructions += warps;
        self.counters.smem_ops += warps;
        if let Some(san) = self.san.as_deref_mut() {
            san.shared_broadcast_read(addr, warps as usize);
        }
        self.shared.read_u32(addr)
    }

    /// Atomics to one address serialize, which is charged as conflict
    /// cycles.
    fn atomic_min_shared_u32(&mut self, addr: u32, lane_vals: &[u32]) -> u32 {
        assert!(
            self.spec.has_shared_atomics,
            "{} does not support shared-memory atomics",
            self.spec.name
        );
        assert!(lane_vals.len() <= self.spec.warp_size, "more lanes than a warp");
        self.counters.warp_instructions += 1;
        self.counters.shared_atomics += lane_vals.len() as u64;
        // Same-address atomics serialize lane by lane.
        self.counters.smem_conflict_cycles +=
            lane_vals.len() as u64 * crate::shared::SMEM_CYCLES_PER_HALF_WARP;
        if let Some(san) = self.san.as_deref_mut() {
            san.shared_atomic(addr);
        }
        let mut min = self.shared.read_u32(addr);
        for &v in lane_vals {
            min = min.min(v);
        }
        self.shared.write_u32(addr, min);
        min
    }

    // ------------------------------------------------------------------
    // Texture memory
    // ------------------------------------------------------------------

    /// Texture address calculation is cheaper than shared-memory indexing,
    /// so only the fetch instruction itself is charged.
    fn tex_fetch_u8(&mut self, addrs: &[u64], out: &mut [u8]) {
        self.check_warp(addrs.len(), out.len());
        self.counters.warp_instructions += 1;
        self.tex.access(&mut self.counters, addrs);
        if let Some(san) = self.san.as_deref_mut() {
            // Texture reads are memchecked like global reads but excluded
            // from the coalescing lint (the cache absorbs scatter).
            for &a in addrs {
                san.global_one(a, 1, false);
            }
        }
        for (o, &a) in out.iter_mut().zip(addrs) {
            *o = self.gmem.read_u8(a);
        }
    }

    // ------------------------------------------------------------------
    // Uncharged functional access
    // ------------------------------------------------------------------

    #[inline]
    fn peek_global_u32(&self, addr: u64) -> u32 {
        self.gmem.read_u32(addr)
    }

    fn shared_slice(&self) -> &[u8] {
        self.shared.as_slice()
    }
}
