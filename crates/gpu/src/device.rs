//! Backend-agnostic device layer: one kernel body, many executors.
//!
//! A kernel is an [`nc_gpu_sim::Kernel`]: one body written against the
//! object-safe [`nc_gpu_sim::LaunchCtx`] instruction surface (loads/stores,
//! barriers, ALU charges). This module decouples that body from what
//! executes it, the way krnl/autograph put host and device execution behind
//! one API: [`DeviceBackend`] is the executor — buffer management, uploads,
//! downloads, grid launches, per-launch [`LaunchStats`].
//!
//! Two executors implement [`DeviceBackend`]:
//!
//! * [`SimBackend`] — the cycle-model simulator (sanitizer and sampled
//!   launches preserved); `elapsed_s` is **modeled** time.
//! * [`HostDeviceBackend`] — kernel blocks executed in parallel on
//!   [`nc_pool`] workers against atomic host memory; `elapsed_s` is
//!   **measured** wall-clock time. This validates the simulator's cost
//!   model against a real executor and keeps every pipeline testable
//!   without a GPU.
//!
//! Bit-exactness versus the `nc-rlnc` CPU reference is the invariant: the
//! same [`Kernel`] must produce identical bytes on every backend.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use nc_gpu_sim::{
    DeviceBuffer, DeviceSpec, ExecCounters, Gpu, GridConfig, Kernel, LaunchCtx, LaunchStats,
    SanitizerConfig, SanitizerReport, TransferStats,
};
use nc_pool::Pool;

/// Byte ranges whose contents are sampling artifacts and must not reach a
/// consumer (see [`crate::Fidelity::Timing`]): a `launch_sampled` executes
/// only a strided subset of blocks, so output buffers hold garbage outside
/// the sampled stripes. Backends poison such buffers and debug-assert that
/// no poisoned range is downloaded or peeked.
#[derive(Debug, Default)]
pub(crate) struct PoisonSet {
    ranges: Vec<(u64, u64)>,
}

impl PoisonSet {
    /// Marks a buffer's range as poisoned (idempotent per range).
    fn add(&mut self, buf: DeviceBuffer) {
        if buf.is_empty() || self.overlaps(buf) {
            return;
        }
        self.ranges.push((buf.offset(), buf.len() as u64));
    }

    /// Clears poison from every range overlapping `buf` (a fresh upload or
    /// poke makes the bytes real again).
    fn clear(&mut self, buf: DeviceBuffer) {
        let (o, l) = (buf.offset(), buf.len() as u64);
        self.ranges.retain(|&(ro, rl)| !(ro < o + l && o < ro + rl));
    }

    /// Whether any poisoned range overlaps `buf`.
    fn overlaps(&self, buf: DeviceBuffer) -> bool {
        let (o, l) = (buf.offset(), buf.len() as u64);
        if l == 0 {
            return false;
        }
        self.ranges.iter().any(|&(ro, rl)| ro < o + l && o < ro + rl)
    }

    fn clear_all(&mut self) {
        self.ranges.clear();
    }

    /// Debug-asserts that reading `buf` is safe.
    fn check_read(&self, buf: DeviceBuffer, what: &str) {
        debug_assert!(
            !self.overlaps(buf),
            "{what} of poisoned device buffer (offset {}, len {}): the range was \
             written by a sampled Timing-fidelity launch and holds garbage outside \
             the sampled stripes; Timing results must not be consumed",
            buf.offset(),
            buf.len(),
        );
    }
}

/// An executor for [`Kernel`]s: buffer management, transfers, grid
/// launches, and per-launch statistics.
///
/// The trait is object-safe; pipelines hold a `Box<dyn DeviceBackend>` and
/// are oblivious to whether time is modeled or measured (the
/// [`LaunchStats::time_source`] field says which).
pub trait DeviceBackend {
    /// Human-readable executor name (e.g. `"sim"`, `"host"`).
    fn name(&self) -> &'static str;
    /// The device specification kernels size their grids against.
    fn spec(&self) -> &DeviceSpec;

    /// Allocates `len` zeroed bytes of device memory.
    fn alloc(&mut self, len: usize) -> DeviceBuffer;
    /// Frees all allocations and zeroes device memory.
    fn reset(&mut self);

    /// Copies `data` (whose length must equal the buffer's) to the device.
    fn upload(&mut self, buf: DeviceBuffer, data: &[u8]) -> TransferStats;
    /// Copies a buffer back to the host with transfer accounting.
    fn download(&mut self, buf: DeviceBuffer) -> (Vec<u8>, TransferStats);
    /// Host-side copy of a buffer without transfer accounting (result-word
    /// plumbing, test inspection).
    fn peek(&self, buf: DeviceBuffer) -> Vec<u8>;
    /// Host-side write without transfer accounting (table setup, test
    /// fixtures).
    fn poke(&mut self, buf: DeviceBuffer, data: &[u8]);

    /// Executes every block of the grid.
    fn launch(&mut self, kernel: &dyn Kernel, grid: GridConfig) -> LaunchStats;
    /// Executes a strided sample of at most `max_blocks_executed` blocks
    /// (block 0 always included) and scales time and counters to the full
    /// grid. Output buffers hold garbage outside the sampled stripes —
    /// callers must [`DeviceBackend::poison`] them.
    fn launch_sampled(
        &mut self,
        kernel: &dyn Kernel,
        grid: GridConfig,
        max_blocks_executed: usize,
    ) -> LaunchStats;

    /// Marks a buffer as holding sampling artifacts; a subsequent download
    /// or peek debug-asserts, an upload or poke clears the mark.
    fn poison(&mut self, buf: DeviceBuffer);

    /// Enables the kernel sanitizer, if this executor has one. Returns
    /// whether sanitizing is active.
    fn enable_sanitizer(&mut self, config: SanitizerConfig) -> bool {
        let _ = config;
        false
    }
    /// The accumulated sanitizer report, if any.
    fn sanitizer_report(&self) -> Option<&SanitizerReport> {
        None
    }
}

// ---------------------------------------------------------------------------
// Simulator backend
// ---------------------------------------------------------------------------

/// The cycle-model executor: wraps [`nc_gpu_sim::Gpu`], preserving the
/// sanitizer and sampled-measurement paths. `elapsed_s` is modeled
/// GTX-280-class time ([`nc_gpu_sim::TimeSource::Modeled`]).
pub struct SimBackend {
    gpu: Gpu,
    poison: PoisonSet,
}

impl SimBackend {
    /// Creates a simulator executor for the given device.
    pub fn new(spec: DeviceSpec) -> SimBackend {
        SimBackend { gpu: Gpu::new(spec), poison: PoisonSet::default() }
    }

    /// The wrapped simulator (ablation studies need raw access).
    pub fn gpu_mut(&mut self) -> &mut Gpu {
        &mut self.gpu
    }
}

impl DeviceBackend for SimBackend {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn spec(&self) -> &DeviceSpec {
        self.gpu.spec()
    }

    fn alloc(&mut self, len: usize) -> DeviceBuffer {
        self.gpu.alloc(len)
    }

    fn reset(&mut self) {
        self.poison.clear_all();
        self.gpu.reset();
    }

    fn upload(&mut self, buf: DeviceBuffer, data: &[u8]) -> TransferStats {
        self.poison.clear(buf);
        self.gpu.upload(buf, data)
    }

    fn download(&mut self, buf: DeviceBuffer) -> (Vec<u8>, TransferStats) {
        self.poison.check_read(buf, "download");
        self.gpu.download(buf)
    }

    fn peek(&self, buf: DeviceBuffer) -> Vec<u8> {
        self.poison.check_read(buf, "peek");
        self.gpu.peek(buf).to_vec()
    }

    fn poke(&mut self, buf: DeviceBuffer, data: &[u8]) {
        self.poison.clear(buf);
        self.gpu.poke(buf, data);
    }

    fn launch(&mut self, kernel: &dyn Kernel, grid: GridConfig) -> LaunchStats {
        self.gpu.launch(kernel, grid)
    }

    fn launch_sampled(
        &mut self,
        kernel: &dyn Kernel,
        grid: GridConfig,
        max_blocks_executed: usize,
    ) -> LaunchStats {
        self.gpu.launch_sampled(kernel, grid, max_blocks_executed)
    }

    fn poison(&mut self, buf: DeviceBuffer) {
        self.poison.add(buf);
    }

    fn enable_sanitizer(&mut self, config: SanitizerConfig) -> bool {
        self.gpu.enable_sanitizer(config);
        true
    }

    fn sanitizer_report(&self) -> Option<&SanitizerReport> {
        self.gpu.sanitizer_report()
    }
}

// ---------------------------------------------------------------------------
// Host backend
// ---------------------------------------------------------------------------

/// Host execution context: one per thread block, running the same
/// warp-vectorized kernel body against shared atomic global memory and a
/// private shared-memory arena.
///
/// Counters are functional tallies (ops, bytes, barriers) — the host has no
/// coalescer or bank model; its authority is the wall clock.
struct HostCtx<'a> {
    block_idx: usize,
    grid_blocks: usize,
    block_threads: usize,
    spec: &'a DeviceSpec,
    gmem: &'a [AtomicU8],
    shared: Vec<u8>,
    counters: ExecCounters,
    current_warp: usize,
}

impl<'a> HostCtx<'a> {
    fn new(
        block_idx: usize,
        grid: GridConfig,
        spec: &'a DeviceSpec,
        gmem: &'a [AtomicU8],
    ) -> HostCtx<'a> {
        HostCtx {
            block_idx,
            grid_blocks: grid.blocks,
            block_threads: grid.threads_per_block,
            spec,
            gmem,
            shared: vec![0; grid.shared_bytes],
            counters: ExecCounters::default(),
            current_warp: 0,
        }
    }

    fn into_counters(self) -> ExecCounters {
        self.counters
    }

    #[inline]
    fn g_read_u8(&self, addr: u64) -> u8 {
        self.gmem[addr as usize].load(Ordering::Relaxed)
    }

    #[inline]
    fn g_write_u8(&self, addr: u64, v: u8) {
        self.gmem[addr as usize].store(v, Ordering::Relaxed);
    }

    #[inline]
    fn g_read_u32(&self, addr: u64) -> u32 {
        let a = addr as usize;
        u32::from_le_bytes([
            self.gmem[a].load(Ordering::Relaxed),
            self.gmem[a + 1].load(Ordering::Relaxed),
            self.gmem[a + 2].load(Ordering::Relaxed),
            self.gmem[a + 3].load(Ordering::Relaxed),
        ])
    }

    #[inline]
    fn g_write_u32(&self, addr: u64, v: u32) {
        let a = addr as usize;
        for (i, b) in v.to_le_bytes().into_iter().enumerate() {
            self.gmem[a + i].store(b, Ordering::Relaxed);
        }
    }

    #[inline]
    fn s_read_u32(&self, addr: usize) -> u32 {
        u32::from_le_bytes(self.shared[addr..addr + 4].try_into().expect("4-byte shared read"))
    }

    #[inline]
    fn s_write_u32(&mut self, addr: usize, v: u32) {
        self.shared[addr..addr + 4].copy_from_slice(&v.to_le_bytes());
    }

    #[inline]
    fn tally(&mut self, lanes: usize) {
        debug_assert!(lanes <= self.spec.warp_size, "access wider than a warp");
        self.counters.warp_instructions += 1;
    }
}

impl LaunchCtx for HostCtx<'_> {
    fn block_idx(&self) -> usize {
        self.block_idx
    }
    fn grid_blocks(&self) -> usize {
        self.grid_blocks
    }
    fn block_threads(&self) -> usize {
        self.block_threads
    }
    fn spec(&self) -> &DeviceSpec {
        self.spec
    }
    fn at_warp(&mut self, warp: usize) {
        debug_assert!(warp < self.warps(), "warp index out of range");
        self.current_warp = warp;
    }
    fn alu(&mut self, warp_instructions: u64) {
        self.counters.warp_instructions += warp_instructions;
    }
    fn sync(&mut self) {
        // Blocks run their warps to completion sequentially on the host, so
        // the barrier is a no-op beyond its accounting.
        self.counters.syncs += 1;
    }

    fn ld_global_u32(&mut self, addrs: &[u64], out: &mut [u32]) {
        assert_eq!(addrs.len(), out.len(), "lane count mismatch");
        self.tally(addrs.len());
        self.counters.gmem_ops += 1;
        self.counters.gmem_bytes += 4 * addrs.len() as u64;
        self.counters.gmem_transactions += 1;
        for (a, o) in addrs.iter().zip(out.iter_mut()) {
            *o = self.g_read_u32(*a);
        }
    }

    fn st_global_u32(&mut self, addrs: &[u64], vals: &[u32]) {
        assert_eq!(addrs.len(), vals.len(), "lane count mismatch");
        self.tally(addrs.len());
        self.counters.gmem_ops += 1;
        self.counters.gmem_bytes += 4 * addrs.len() as u64;
        self.counters.gmem_transactions += 1;
        for (a, v) in addrs.iter().zip(vals.iter()) {
            self.g_write_u32(*a, *v);
        }
    }

    fn ld_global_u8(&mut self, addrs: &[u64], out: &mut [u8]) {
        assert_eq!(addrs.len(), out.len(), "lane count mismatch");
        self.tally(addrs.len());
        self.counters.gmem_ops += 1;
        self.counters.gmem_bytes += addrs.len() as u64;
        self.counters.gmem_transactions += 1;
        for (a, o) in addrs.iter().zip(out.iter_mut()) {
            *o = self.g_read_u8(*a);
        }
    }

    fn st_global_u8(&mut self, addrs: &[u64], vals: &[u8]) {
        assert_eq!(addrs.len(), vals.len(), "lane count mismatch");
        self.tally(addrs.len());
        self.counters.gmem_ops += 1;
        self.counters.gmem_bytes += addrs.len() as u64;
        self.counters.gmem_transactions += 1;
        for (a, v) in addrs.iter().zip(vals.iter()) {
            self.g_write_u8(*a, *v);
        }
    }

    fn ld_global_u32_broadcast(&mut self, addr: u64) -> u32 {
        self.counters.warp_instructions += 1;
        self.counters.gmem_ops += 1;
        self.counters.gmem_bytes += 4;
        self.counters.gmem_transactions += 1;
        self.g_read_u32(addr)
    }

    fn ld_shared_u32(&mut self, addrs: &[u64], out: &mut [u32]) {
        assert_eq!(addrs.len(), out.len(), "lane count mismatch");
        self.tally(addrs.len());
        self.counters.smem_ops += 1;
        for (a, o) in addrs.iter().zip(out.iter_mut()) {
            *o = self.s_read_u32(*a as usize);
        }
    }

    fn st_shared_u32(&mut self, addrs: &[u64], vals: &[u32]) {
        assert_eq!(addrs.len(), vals.len(), "lane count mismatch");
        self.tally(addrs.len());
        self.counters.smem_ops += 1;
        for (a, v) in addrs.iter().zip(vals.iter()) {
            self.s_write_u32(*a as usize, *v);
        }
    }

    fn ld_shared_u8(&mut self, addrs: &[u64], out: &mut [u8]) {
        assert_eq!(addrs.len(), out.len(), "lane count mismatch");
        self.tally(addrs.len());
        self.counters.smem_ops += 1;
        for (a, o) in addrs.iter().zip(out.iter_mut()) {
            *o = self.shared[*a as usize];
        }
    }

    fn st_shared_u8(&mut self, addrs: &[u64], vals: &[u8]) {
        assert_eq!(addrs.len(), vals.len(), "lane count mismatch");
        self.tally(addrs.len());
        self.counters.smem_ops += 1;
        for (a, v) in addrs.iter().zip(vals.iter()) {
            self.shared[*a as usize] = *v;
        }
    }

    fn ld_shared_u32_broadcast(&mut self, addr: u32) -> u32 {
        self.counters.warp_instructions += 1;
        self.counters.smem_ops += 1;
        self.s_read_u32(addr as usize)
    }

    fn atomic_min_shared_u32(&mut self, addr: u32, lane_vals: &[u32]) -> u32 {
        self.counters.shared_atomics += lane_vals.len() as u64;
        let mut cur = self.s_read_u32(addr as usize);
        for &v in lane_vals {
            cur = cur.min(v);
        }
        self.s_write_u32(addr as usize, cur);
        cur
    }

    fn tex_fetch_u8(&mut self, addrs: &[u64], out: &mut [u8]) {
        assert_eq!(addrs.len(), out.len(), "lane count mismatch");
        self.tally(addrs.len());
        // The host has no texture unit; fetches read global memory and are
        // tallied as cache hits (the tables fit any modern L1).
        self.counters.tex_hits += addrs.len() as u64;
        for (a, o) in addrs.iter().zip(out.iter_mut()) {
            *o = self.g_read_u8(*a);
        }
    }

    fn peek_global_u32(&self, addr: u64) -> u32 {
        self.g_read_u32(addr)
    }

    fn shared_slice(&self) -> &[u8] {
        &self.shared
    }
}

/// The host executor: kernel blocks run in parallel on [`nc_pool`] workers
/// against atomic host memory, and `elapsed_s` is **measured wall-clock
/// time** ([`nc_gpu_sim::TimeSource::Measured`]).
///
/// Global memory is a `Vec<AtomicU8>` accessed with relaxed ordering: the
/// kernel contract is that concurrent blocks write disjoint regions (the
/// simulator's racecheck lane enforces this), so atomicity is needed only
/// to share the arena safely across workers, not for inter-block
/// communication. Memory grows on demand up to the spec's
/// `device_mem_bytes`.
pub struct HostDeviceBackend {
    spec: DeviceSpec,
    pool: Arc<Pool>,
    storage: Vec<AtomicU8>,
    cursor: u64,
    poison: PoisonSet,
}

impl HostDeviceBackend {
    /// Creates a host executor on the process-global worker pool. The
    /// `spec` provides grid geometry (SM count, warp size, shared-memory
    /// budget) — kernels tuned for the GTX 280 keep their shapes; only the
    /// clock is real.
    pub fn new(spec: DeviceSpec) -> HostDeviceBackend {
        HostDeviceBackend::with_pool(spec, Pool::global())
    }

    /// Creates a host executor on a caller-supplied pool (tests, pinned
    /// thread counts).
    pub fn with_pool(spec: DeviceSpec, pool: Arc<Pool>) -> HostDeviceBackend {
        HostDeviceBackend {
            spec,
            pool,
            storage: Vec::new(),
            cursor: 0,
            poison: PoisonSet::default(),
        }
    }

    /// The worker pool backing kernel execution.
    pub fn pool(&self) -> &Arc<Pool> {
        &self.pool
    }

    fn range(&self, buf: DeviceBuffer) -> std::ops::Range<usize> {
        let start = buf.offset() as usize;
        let end = start + buf.len();
        assert!(end <= self.storage.len(), "device buffer outside allocated storage");
        start..end
    }

    fn copy_out(&self, buf: DeviceBuffer) -> Vec<u8> {
        self.storage[self.range(buf)].iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }

    fn copy_in(&self, buf: DeviceBuffer, data: &[u8]) {
        assert_eq!(data.len(), buf.len(), "upload length must match buffer length");
        for (cell, &b) in self.storage[self.range(buf)].iter().zip(data) {
            cell.store(b, Ordering::Relaxed);
        }
    }

    /// Runs `block_ids` of the grid in parallel chunks, one chunk per pool
    /// worker, and returns merged counters plus the measured seconds.
    fn run_blocks(
        &self,
        kernel: &dyn Kernel,
        grid: GridConfig,
        block_ids: &[usize],
    ) -> (ExecCounters, f64) {
        let chunk = block_ids.len().div_ceil(self.pool.threads().max(1)).max(1);
        let merged = Mutex::new(ExecCounters::default());
        let start = Instant::now();
        self.pool.scope(|scope| {
            for part in block_ids.chunks(chunk) {
                let storage = &self.storage;
                let spec = &self.spec;
                let merged = &merged;
                scope.spawn(move || {
                    let mut local = ExecCounters::default();
                    for &bi in part {
                        let mut ctx = HostCtx::new(bi, grid, spec, storage);
                        kernel.run_block(&mut ctx);
                        local.merge(&ctx.into_counters());
                    }
                    merged.lock().expect("counter lock").merge(&local);
                });
            }
        });
        let elapsed = start.elapsed().as_secs_f64();
        (merged.into_inner().expect("counter lock"), elapsed)
    }

    fn stats(&self, grid: GridConfig, counters: ExecCounters, elapsed_s: f64) -> LaunchStats {
        LaunchStats {
            grid_blocks: grid.blocks,
            block_threads: grid.threads_per_block,
            // Occupancy is meaningless on the host; report the worker count
            // as the resident parallelism.
            resident_blocks_per_sm: self.pool.threads().max(1),
            resident_warps_per_sm: self.pool.threads().max(1),
            counters,
            sm_cycles: 0,
            elapsed_s,
            compute_cycles: 0,
            memory_cycles: 0,
            exposed_latency_cycles: 0,
            sanitizer: None,
            time_source: nc_gpu_sim::TimeSource::Measured,
        }
    }
}

impl DeviceBackend for HostDeviceBackend {
    fn name(&self) -> &'static str {
        "host"
    }

    fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    fn alloc(&mut self, len: usize) -> DeviceBuffer {
        let aligned = self.cursor.next_multiple_of(256);
        let end = aligned + len as u64;
        assert!(
            end <= self.spec.device_mem_bytes as u64,
            "host device arena exhausted: need {len} bytes at {aligned}, capacity {}",
            self.spec.device_mem_bytes
        );
        while (self.storage.len() as u64) < end {
            self.storage.push(AtomicU8::new(0));
        }
        self.cursor = end;
        DeviceBuffer::from_raw(aligned, len as u64)
    }

    fn reset(&mut self) {
        self.cursor = 0;
        self.storage.clear();
        self.poison.clear_all();
    }

    fn upload(&mut self, buf: DeviceBuffer, data: &[u8]) -> TransferStats {
        self.poison.clear(buf);
        let start = Instant::now();
        self.copy_in(buf, data);
        TransferStats { bytes: data.len(), seconds: start.elapsed().as_secs_f64() }
    }

    fn download(&mut self, buf: DeviceBuffer) -> (Vec<u8>, TransferStats) {
        self.poison.check_read(buf, "download");
        let start = Instant::now();
        let data = self.copy_out(buf);
        let stats = TransferStats { bytes: data.len(), seconds: start.elapsed().as_secs_f64() };
        (data, stats)
    }

    fn peek(&self, buf: DeviceBuffer) -> Vec<u8> {
        self.poison.check_read(buf, "peek");
        self.copy_out(buf)
    }

    fn poke(&mut self, buf: DeviceBuffer, data: &[u8]) {
        self.poison.clear(buf);
        self.copy_in(buf, data);
    }

    fn launch(&mut self, kernel: &dyn Kernel, grid: GridConfig) -> LaunchStats {
        assert!(grid.blocks > 0, "empty launch grid");
        let ids: Vec<usize> = (0..grid.blocks).collect();
        let (counters, elapsed) = self.run_blocks(kernel, grid, &ids);
        self.stats(grid, counters, elapsed)
    }

    fn launch_sampled(
        &mut self,
        kernel: &dyn Kernel,
        grid: GridConfig,
        max_blocks_executed: usize,
    ) -> LaunchStats {
        assert!(grid.blocks > 0, "empty launch grid");
        assert!(max_blocks_executed > 0, "must execute at least one block");
        let stride = grid.blocks.div_ceil(max_blocks_executed).max(1);
        let ids: Vec<usize> = (0..grid.blocks).step_by(stride).collect();
        let (mut counters, elapsed) = self.run_blocks(kernel, grid, &ids);
        let scale = grid.blocks as f64 / ids.len() as f64;
        let scale_u64 = |v: u64| (v as f64 * scale).round() as u64;
        counters = ExecCounters {
            warp_instructions: scale_u64(counters.warp_instructions),
            gmem_transactions: scale_u64(counters.gmem_transactions),
            gmem_bytes: scale_u64(counters.gmem_bytes),
            gmem_ops: scale_u64(counters.gmem_ops),
            smem_ops: scale_u64(counters.smem_ops),
            smem_conflict_cycles: scale_u64(counters.smem_conflict_cycles),
            tex_hits: scale_u64(counters.tex_hits),
            tex_misses: counters.tex_misses,
            syncs: scale_u64(counters.syncs),
            shared_atomics: scale_u64(counters.shared_atomics),
        };
        self.stats(grid, counters, elapsed * scale)
    }

    fn poison(&mut self, buf: DeviceBuffer) {
        self.poison.add(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Doubles every u32 in a buffer, one word per thread.
    struct DoubleKernel {
        buf: DeviceBuffer,
        words: usize,
    }

    impl Kernel for DoubleKernel {
        fn run_block(&self, ctx: &mut dyn LaunchCtx) {
            let ws = ctx.spec().warp_size;
            let base = ctx.block_idx() * ctx.block_threads();
            for w in 0..ctx.warps() {
                ctx.at_warp(w);
                let lanes = ctx.lanes_in_warp(w);
                let mut addrs = Vec::with_capacity(lanes);
                for lane in 0..lanes {
                    let i = base + w * ws + lane;
                    addrs.push(self.buf.addr((i % self.words) * 4));
                }
                let mut vals = vec![0u32; lanes];
                ctx.ld_global_u32(&addrs, &mut vals);
                for v in &mut vals {
                    *v = v.wrapping_mul(2);
                }
                ctx.alu(1);
                ctx.st_global_u32(&addrs, &vals);
            }
        }
    }

    fn roundtrip_on(dev: &mut dyn DeviceBackend) {
        let words = 1024usize;
        let buf = dev.alloc(words * 4);
        let data: Vec<u8> = (0..words).flat_map(|i| (i as u32).to_le_bytes()).collect();
        dev.upload(buf, &data);
        let kernel = DoubleKernel { buf, words };
        let grid =
            GridConfig { blocks: words.div_ceil(256), threads_per_block: 256, shared_bytes: 0 };
        let stats = dev.launch(&kernel, grid);
        assert!(stats.elapsed_s > 0.0, "launch must report time");
        let (out, _) = dev.download(buf);
        for i in 0..words {
            let v = u32::from_le_bytes(out[i * 4..i * 4 + 4].try_into().unwrap());
            assert_eq!(v, (i as u32) * 2, "word {i} on {}", dev.name());
        }
    }

    #[test]
    fn sim_and_host_backends_agree_on_a_simple_kernel() {
        roundtrip_on(&mut SimBackend::new(DeviceSpec::gtx280()));
        roundtrip_on(&mut HostDeviceBackend::new(DeviceSpec::gtx280()));
    }

    #[test]
    fn host_backend_reports_measured_time() {
        let mut dev = HostDeviceBackend::new(DeviceSpec::gtx280());
        let buf = dev.alloc(256 * 4);
        dev.upload(buf, &[1u8; 1024]);
        let kernel = DoubleKernel { buf, words: 256 };
        let grid = GridConfig { blocks: 1, threads_per_block: 256, shared_bytes: 0 };
        let stats = dev.launch(&kernel, grid);
        assert_eq!(stats.time_source, nc_gpu_sim::TimeSource::Measured);

        let mut sim = SimBackend::new(DeviceSpec::gtx280());
        let sbuf = sim.alloc(256 * 4);
        sim.upload(sbuf, &[1u8; 1024]);
        let skernel = DoubleKernel { buf: sbuf, words: 256 };
        assert_eq!(sim.launch(&skernel, grid).time_source, nc_gpu_sim::TimeSource::Modeled);
    }

    #[test]
    fn host_alloc_is_aligned_and_reset_reclaims() {
        let mut dev = HostDeviceBackend::new(DeviceSpec::gtx280());
        let a = dev.alloc(100);
        let b = dev.alloc(100);
        assert_eq!(a.offset() % 256, 0);
        assert_eq!(b.offset() % 256, 0);
        assert!(b.offset() >= a.offset() + 100);
        dev.poke(a, &[7u8; 100]);
        dev.reset();
        let c = dev.alloc(100);
        assert_eq!(c.offset(), 0);
        assert!(dev.peek(c).iter().all(|&x| x == 0), "reset must zero memory");
    }

    #[test]
    fn sampled_launch_scales_counters_and_time() {
        let mut dev = HostDeviceBackend::new(DeviceSpec::gtx280());
        let words = 64 * 256;
        let buf = dev.alloc(words * 4);
        dev.upload(buf, &vec![0u8; words * 4]);
        let kernel = DoubleKernel { buf, words };
        let grid = GridConfig { blocks: 64, threads_per_block: 256, shared_bytes: 0 };
        let full = dev.launch(&kernel, grid);
        let sampled = dev.launch_sampled(&kernel, grid, 8);
        // 8 of 64 blocks executed, scaled by 8x: counters should match the
        // full launch exactly for this uniform kernel.
        assert_eq!(sampled.counters.gmem_ops, full.counters.gmem_ops);
        assert_eq!(sampled.grid_blocks, 64);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "poison is a debug-assert")]
    #[should_panic(expected = "poisoned")]
    fn poisoned_buffers_fail_loudly_on_read() {
        let mut dev = HostDeviceBackend::new(DeviceSpec::gtx280());
        let buf = dev.alloc(64);
        dev.poison(buf);
        let _ = dev.peek(buf);
    }

    #[test]
    fn upload_clears_poison() {
        let mut dev = HostDeviceBackend::new(DeviceSpec::gtx280());
        let buf = dev.alloc(64);
        dev.poison(buf);
        dev.upload(buf, &[3u8; 64]);
        assert_eq!(dev.peek(buf), vec![3u8; 64]);
    }

    #[test]
    fn poison_set_tracks_overlaps() {
        let mut p = PoisonSet::default();
        let a = DeviceBuffer::from_raw(0, 64);
        let b = DeviceBuffer::from_raw(64, 64);
        let c = DeviceBuffer::from_raw(32, 64); // straddles a and b
        p.add(a);
        assert!(p.overlaps(a));
        assert!(!p.overlaps(b));
        assert!(p.overlaps(c));
        p.clear(c);
        assert!(!p.overlaps(a));
    }
}
