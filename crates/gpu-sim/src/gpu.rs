//! The host-side GPU handle: allocation, transfers, kernel launches.

use crate::ctx::{BlockCtx, LaunchCtx};
use crate::device::DeviceSpec;
use crate::mem::{DeviceBuffer, GlobalMemory};
use crate::sanitizer::{SanitizerConfig, SanitizerReport, SanitizerState};
use crate::stats::{ExecCounters, LaunchStats};
use crate::texture::TexCache;
use crate::timing;

/// A kernel: code executed once per thread block of a launch.
///
/// Kernel code is warp-vectorized against the object-safe [`LaunchCtx`]
/// surface, so one body runs on the simulator ([`BlockCtx`]) and on any
/// other executor. Blocks must be mutually independent, as on real
/// hardware, because an executor may run them in any order or in parallel.
/// (The simulator runs them in grid order, but relying on that is a kernel
/// bug.) `Sync` lets a parallel executor share one kernel reference across
/// worker threads.
pub trait Kernel: Sync {
    /// Executes one thread block.
    fn run_block(&self, ctx: &mut dyn LaunchCtx);
}

/// Launch geometry: the `<<<grid, block, shared>>>` triple of CUDA.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct GridConfig {
    /// Thread blocks in the grid.
    pub blocks: usize,
    /// Threads per block.
    pub threads_per_block: usize,
    /// Dynamic shared memory per block, in bytes.
    pub shared_bytes: usize,
}

/// Timing of one host↔device transfer over PCIe.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct TransferStats {
    /// Bytes moved.
    pub bytes: usize,
    /// Modeled transfer seconds (latency + bytes / bandwidth).
    pub seconds: f64,
}

/// A simulated GPU: device memory plus the launch machinery.
///
/// ```
/// use nc_gpu_sim::{Gpu, DeviceSpec, GridConfig, Kernel, LaunchCtx};
///
/// /// Doubles every 32-bit word of a buffer.
/// struct DoubleKernel { buf: nc_gpu_sim::DeviceBuffer, words: usize }
///
/// impl Kernel for DoubleKernel {
///     fn run_block(&self, ctx: &mut dyn LaunchCtx) {
///         let lanes = ctx.block_threads();
///         let base = self.buf;
///         let mut addrs = Vec::new();
///         let mut vals = vec![0u32; 32];
///         for warp in 0..ctx.warps() {
///             addrs.clear();
///             for lane in 0..ctx.lanes_in_warp(warp) {
///                 let idx = ctx.block_idx() * lanes + warp * 32 + lane;
///                 if idx < self.words {
///                     addrs.push(base.addr(idx * 4));
///                 }
///             }
///             if addrs.is_empty() { continue; }
///             let n = addrs.len();
///             ctx.ld_global_u32(&addrs, &mut vals[..n]);
///             for v in &mut vals[..n] { *v = v.wrapping_mul(2); }
///             ctx.alu(1);
///             ctx.st_global_u32(&addrs, &vals[..n]);
///         }
///     }
/// }
///
/// let mut gpu = Gpu::new(DeviceSpec::gtx280());
/// let buf = gpu.alloc(1024 * 4);
/// let host: Vec<u8> = (0..1024u32).flat_map(|i| i.to_le_bytes()).collect();
/// gpu.upload(buf, &host);
/// let stats = gpu.launch(
///     &DoubleKernel { buf, words: 1024 },
///     GridConfig { blocks: 4, threads_per_block: 256, shared_bytes: 0 },
/// );
/// assert!(stats.elapsed_s > 0.0);
/// let (out, _) = gpu.download(buf);
/// assert_eq!(&out[4..8], &2u32.to_le_bytes());
/// ```
pub struct Gpu {
    spec: DeviceSpec,
    mem: GlobalMemory,
    tex_caches: Vec<TexCache>,
    sanitizer: Option<SanitizerState>,
}

impl Gpu {
    /// Creates a GPU with the given specification.
    pub fn new(spec: DeviceSpec) -> Gpu {
        let tex_caches = (0..spec.sm_count)
            .map(|_| TexCache::new(spec.tex_cache_bytes, spec.tex_line_bytes))
            .collect();
        Gpu { mem: GlobalMemory::new(spec.device_mem_bytes), tex_caches, spec, sanitizer: None }
    }

    /// Turns the kernel sanitizer on (see [`crate::sanitizer`]): subsequent
    /// launches are instrumented and their findings accumulate in
    /// [`Gpu::sanitizer_report`]. Memory allocated before this call is
    /// conservatively treated as initialized, so enable the sanitizer
    /// before allocating to get full uninitialized-read coverage.
    pub fn enable_sanitizer(&mut self, config: SanitizerConfig) {
        self.sanitizer = Some(SanitizerState::new(config, &self.mem));
    }

    /// Turns the sanitizer off, returning the accumulated session report.
    pub fn disable_sanitizer(&mut self) -> Option<SanitizerReport> {
        self.sanitizer.take().map(|s| s.report().clone())
    }

    /// Whether the sanitizer is currently enabled.
    pub fn sanitizer_enabled(&self) -> bool {
        self.sanitizer.is_some()
    }

    /// The findings of every sanitized launch so far, if enabled.
    pub fn sanitizer_report(&self) -> Option<&SanitizerReport> {
        self.sanitizer.as_ref().map(|s| s.report())
    }

    /// The device specification.
    #[inline]
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Allocates `len` bytes of device memory.
    ///
    /// # Panics
    ///
    /// Panics when device memory is exhausted.
    pub fn alloc(&mut self, len: usize) -> DeviceBuffer {
        let buf = self.mem.alloc(len);
        if let Some(san) = &mut self.sanitizer {
            san.note_alloc(buf.offset, buf.len);
        }
        buf
    }

    /// Frees all device allocations.
    pub fn reset(&mut self) {
        self.mem.reset();
        for cache in &mut self.tex_caches {
            cache.invalidate();
        }
        if let Some(san) = &mut self.sanitizer {
            san.clear_shadow();
        }
    }

    /// Copies host data into a device buffer, returning the modeled PCIe
    /// transfer time.
    ///
    /// # Panics
    ///
    /// Panics if `data` does not fit the buffer exactly.
    pub fn upload(&mut self, buf: DeviceBuffer, data: &[u8]) -> TransferStats {
        assert_eq!(data.len(), buf.len(), "upload size mismatch");
        self.mem.slice_mut(buf).copy_from_slice(data);
        if let Some(san) = &mut self.sanitizer {
            san.mark_initialized(buf.offset, buf.len);
        }
        self.transfer_stats(data.len())
    }

    /// Copies a device buffer back to the host.
    pub fn download(&self, buf: DeviceBuffer) -> (Vec<u8>, TransferStats) {
        (self.mem.slice(buf).to_vec(), self.transfer_stats(buf.len()))
    }

    /// Zero-cost host-side peek at device memory (debugging/verification;
    /// does not model a transfer).
    pub fn peek(&self, buf: DeviceBuffer) -> &[u8] {
        self.mem.slice(buf)
    }

    /// Zero-cost host-side write into device memory (test setup).
    pub fn poke(&mut self, buf: DeviceBuffer, data: &[u8]) {
        assert_eq!(data.len(), buf.len(), "poke size mismatch");
        self.mem.slice_mut(buf).copy_from_slice(data);
        if let Some(san) = &mut self.sanitizer {
            san.mark_initialized(buf.offset, buf.len);
        }
    }

    /// Launches `kernel` over `grid`, executing every block functionally
    /// and returning modeled timing.
    ///
    /// Blocks are distributed round-robin over SMs, as the hardware's block
    /// scheduler does for uniform workloads.
    ///
    /// # Panics
    ///
    /// Panics if the grid is empty or a block exceeds device limits.
    pub fn launch<K: Kernel + ?Sized>(&mut self, kernel: &K, grid: GridConfig) -> LaunchStats {
        self.launch_inner(kernel, grid, std::any::type_name::<K>())
    }

    /// Launches `kernel` under the sanitizer with an explicit report label,
    /// enabling the sanitizer (default configuration) if it is not on yet.
    ///
    /// This is the entry point kernel test suites use: functional execution
    /// and timing are identical to [`Gpu::launch`], and the returned
    /// [`LaunchStats::sanitizer`] carries this launch's findings.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Gpu::launch`].
    pub fn launch_checked<K: Kernel + ?Sized>(
        &mut self,
        kernel: &K,
        grid: GridConfig,
        label: &str,
    ) -> LaunchStats {
        if self.sanitizer.is_none() {
            self.enable_sanitizer(SanitizerConfig::default());
        }
        self.launch_inner(kernel, grid, label)
    }

    fn launch_inner<K: Kernel + ?Sized>(
        &mut self,
        kernel: &K,
        grid: GridConfig,
        label: &str,
    ) -> LaunchStats {
        assert!(grid.blocks > 0, "empty grid");
        let m = crate::metrics::metrics();
        let host_span = m.host_time_ns.span();
        // Occupancy capacity, capped by how many blocks the grid actually
        // supplies per SM — a 30-block grid on 30 SMs keeps one resident
        // block each no matter the theoretical capacity. (This cap is what
        // lets the paper's two-inversions-per-SM decoding hide latency
        // better than one-per-SM.)
        let resident = timing::occupancy(&self.spec, grid.threads_per_block, grid.shared_bytes)
            .min(grid.blocks.div_ceil(self.spec.sm_count));

        // Texture caches persist across blocks of one launch but start cold:
        // shared memory (and thus any table a prior launch cached) is not
        // persistent across launches, and neither is cache residency
        // guaranteed, so we model the conservative cold start.
        for cache in &mut self.tex_caches {
            cache.invalidate();
        }

        if let Some(san) = &mut self.sanitizer {
            san.begin_launch(label);
        }
        let mut per_sm = vec![ExecCounters::default(); self.spec.sm_count];
        for block_idx in 0..grid.blocks {
            let sm = block_idx % self.spec.sm_count;
            let mut ctx = BlockCtx::new(
                block_idx,
                grid.blocks,
                grid.threads_per_block,
                grid.shared_bytes,
                &self.spec,
                &mut self.mem,
                &mut self.tex_caches[sm],
                self.sanitizer.as_mut(),
            );
            kernel.run_block(&mut ctx);
            per_sm[sm].merge(&ctx.into_counters());
        }

        let mut stats = timing::model_launch(
            &self.spec,
            &per_sm,
            grid.blocks,
            grid.threads_per_block,
            resident,
        );
        if let Some(san) = &mut self.sanitizer {
            stats.sanitizer = Some(san.finish_launch(&stats));
        }
        m.launches.inc();
        m.blocks_executed.add(grid.blocks as u64);
        m.modeled_time_ns.record((stats.elapsed_s * 1e9) as u64);
        host_span.stop();
        stats
    }

    /// Launches `kernel` over `grid`, but *functionally executes only a
    /// deterministic subset* of at most `max_blocks_executed` blocks and
    /// scales the counters up to the full grid.
    ///
    /// This is a measurement accelerator for **uniform** grids (every block
    /// performs statistically identical work, as all the network-coding
    /// kernels do): the modeled timing converges to [`Gpu::launch`]'s while
    /// the host-side simulation cost stays bounded. Device memory is only
    /// partially written, so the functional output must not be consumed —
    /// use [`Gpu::launch`] when results matter.
    ///
    /// # Panics
    ///
    /// Panics if the grid is empty, a block exceeds device limits, or
    /// `max_blocks_executed` is zero.
    ///
    /// Sampled launches are never sanitized: the skipped blocks leave
    /// device memory partially written, which would poison the
    /// initialization shadow. An enabled sanitizer is suspended for the
    /// duration and everything allocated is conservatively marked
    /// initialized afterward.
    pub fn launch_sampled<K: Kernel + ?Sized>(
        &mut self,
        kernel: &K,
        grid: GridConfig,
        max_blocks_executed: usize,
    ) -> LaunchStats {
        let suspended = self.sanitizer.take();
        let stats = self.launch_sampled_inner(kernel, grid, max_blocks_executed);
        if let Some(mut san) = suspended {
            san.mark_all_initialized();
            self.sanitizer = Some(san);
        }
        stats
    }

    fn launch_sampled_inner<K: Kernel + ?Sized>(
        &mut self,
        kernel: &K,
        grid: GridConfig,
        max_blocks_executed: usize,
    ) -> LaunchStats {
        assert!(grid.blocks > 0, "empty grid");
        assert!(max_blocks_executed > 0, "must execute at least one block");
        if grid.blocks <= max_blocks_executed {
            return self.launch(kernel, grid);
        }
        let m = crate::metrics::metrics();
        let host_span = m.host_time_ns.span();
        let resident = timing::occupancy(&self.spec, grid.threads_per_block, grid.shared_bytes)
            .min(grid.blocks.div_ceil(self.spec.sm_count));
        for cache in &mut self.tex_caches {
            cache.invalidate();
        }

        // Execute an evenly spaced subset and pool the counters.
        let stride = grid.blocks.div_ceil(max_blocks_executed);
        let mut pooled = ExecCounters::default();
        let mut executed = 0usize;
        for block_idx in (0..grid.blocks).step_by(stride) {
            let sm = block_idx % self.spec.sm_count;
            let mut ctx = BlockCtx::new(
                block_idx,
                grid.blocks,
                grid.threads_per_block,
                grid.shared_bytes,
                &self.spec,
                &mut self.mem,
                &mut self.tex_caches[sm],
                None,
            );
            kernel.run_block(&mut ctx);
            pooled.merge(&ctx.into_counters());
            executed += 1;
        }

        // Scale to the full grid and spread evenly over SMs, mirroring the
        // round-robin distribution of a uniform launch.
        let scale = grid.blocks as f64 / executed as f64;
        let scale_u64 = |v: u64| (v as f64 * scale) as u64;
        let total = ExecCounters {
            warp_instructions: scale_u64(pooled.warp_instructions),
            gmem_transactions: scale_u64(pooled.gmem_transactions),
            gmem_bytes: scale_u64(pooled.gmem_bytes),
            gmem_ops: scale_u64(pooled.gmem_ops),
            smem_ops: scale_u64(pooled.smem_ops),
            smem_conflict_cycles: scale_u64(pooled.smem_conflict_cycles),
            tex_hits: scale_u64(pooled.tex_hits),
            tex_misses: pooled.tex_misses, // cold misses do not scale with grid
            syncs: scale_u64(pooled.syncs),
            shared_atomics: scale_u64(pooled.shared_atomics),
        };
        let per_sm: Vec<ExecCounters> = (0..self.spec.sm_count)
            .map(|_| {
                let f = 1.0 / self.spec.sm_count as f64;
                ExecCounters {
                    warp_instructions: (total.warp_instructions as f64 * f) as u64,
                    gmem_transactions: (total.gmem_transactions as f64 * f) as u64,
                    gmem_bytes: (total.gmem_bytes as f64 * f) as u64,
                    gmem_ops: (total.gmem_ops as f64 * f) as u64,
                    smem_ops: (total.smem_ops as f64 * f) as u64,
                    smem_conflict_cycles: (total.smem_conflict_cycles as f64 * f) as u64,
                    tex_hits: (total.tex_hits as f64 * f) as u64,
                    tex_misses: (total.tex_misses as f64 * f) as u64,
                    syncs: (total.syncs as f64 * f) as u64,
                    shared_atomics: (total.shared_atomics as f64 * f) as u64,
                }
            })
            .collect();
        let stats = timing::model_launch(
            &self.spec,
            &per_sm,
            grid.blocks,
            grid.threads_per_block,
            resident,
        );
        m.launches.inc();
        // Only `executed` blocks ran on the host; count real work, not the
        // scaled-up grid.
        m.blocks_executed.add(executed as u64);
        m.modeled_time_ns.record((stats.elapsed_s * 1e9) as u64);
        host_span.stop();
        stats
    }

    fn transfer_stats(&self, bytes: usize) -> TransferStats {
        TransferStats {
            bytes,
            seconds: self.spec.pcie_latency_s + bytes as f64 / self.spec.pcie_bandwidth,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Kernel that XORs two buffers into a third, one word per thread.
    struct XorKernel {
        a: DeviceBuffer,
        b: DeviceBuffer,
        out: DeviceBuffer,
        words: usize,
    }

    impl Kernel for XorKernel {
        fn run_block(&self, ctx: &mut dyn LaunchCtx) {
            let block_threads = ctx.block_threads();
            for warp in 0..ctx.warps() {
                let mut addrs_a = Vec::new();
                let mut addrs_b = Vec::new();
                let mut addrs_o = Vec::new();
                for lane in 0..ctx.lanes_in_warp(warp) {
                    let idx = ctx.block_idx() * block_threads + warp * 32 + lane;
                    if idx < self.words {
                        addrs_a.push(self.a.addr(idx * 4));
                        addrs_b.push(self.b.addr(idx * 4));
                        addrs_o.push(self.out.addr(idx * 4));
                    }
                }
                if addrs_a.is_empty() {
                    continue;
                }
                let n = addrs_a.len();
                let mut va = vec![0u32; n];
                let mut vb = vec![0u32; n];
                ctx.ld_global_u32(&addrs_a, &mut va);
                ctx.ld_global_u32(&addrs_b, &mut vb);
                for (x, y) in va.iter_mut().zip(&vb) {
                    *x ^= *y;
                }
                ctx.alu(1);
                ctx.st_global_u32(&addrs_o, &va);
            }
        }
    }

    #[test]
    fn xor_kernel_is_functionally_correct() {
        let mut gpu = Gpu::new(DeviceSpec::gtx280());
        let words = 1000usize;
        let a = gpu.alloc(words * 4);
        let b = gpu.alloc(words * 4);
        let out = gpu.alloc(words * 4);
        let ha: Vec<u8> = (0..words as u32).flat_map(|i| i.to_le_bytes()).collect();
        let hb: Vec<u8> = (0..words as u32).flat_map(|i| (i * 7).to_le_bytes()).collect();
        gpu.upload(a, &ha);
        gpu.upload(b, &hb);
        let stats = gpu.launch(
            &XorKernel { a, b, out, words },
            GridConfig { blocks: 8, threads_per_block: 128, shared_bytes: 0 },
        );
        let (result, _) = gpu.download(out);
        for i in 0..words {
            let x = u32::from_le_bytes(result[i * 4..i * 4 + 4].try_into().unwrap());
            assert_eq!(x, (i as u32) ^ (i as u32 * 7));
        }
        assert!(stats.elapsed_s > 0.0);
        assert!(stats.counters.gmem_transactions > 0);
    }

    #[test]
    fn coalesced_kernel_moves_expected_bytes() {
        let mut gpu = Gpu::new(DeviceSpec::gtx280());
        let words = 1024usize;
        let a = gpu.alloc(words * 4);
        let b = gpu.alloc(words * 4);
        let out = gpu.alloc(words * 4);
        let stats = gpu.launch(
            &XorKernel { a, b, out, words },
            GridConfig { blocks: 4, threads_per_block: 256, shared_bytes: 0 },
        );
        // 3 fully coalesced streams of 4 KiB each = 12 KiB at transaction
        // granularity.
        assert_eq!(stats.counters.gmem_bytes, 3 * words as u64 * 4);
    }

    #[test]
    fn slower_clock_means_longer_launch() {
        let run = |spec: DeviceSpec| {
            let mut gpu = Gpu::new(spec);
            let words = 4096usize;
            let a = gpu.alloc(words * 4);
            let b = gpu.alloc(words * 4);
            let out = gpu.alloc(words * 4);
            gpu.launch(
                &XorKernel { a, b, out, words },
                GridConfig { blocks: 64, threads_per_block: 256, shared_bytes: 0 },
            )
            .elapsed_s
        };
        let fast = run(DeviceSpec::gtx280());
        let slow = run(DeviceSpec::geforce_8800gt());
        assert!(slow > fast, "8800 GT ({slow}) should be slower than GTX 280 ({fast})");
    }

    #[test]
    fn transfers_model_pcie() {
        let mut gpu = Gpu::new(DeviceSpec::gtx280());
        let buf = gpu.alloc(1 << 20);
        let stats = gpu.upload(buf, &vec![0u8; 1 << 20]);
        let expected = gpu.spec().pcie_latency_s + (1u64 << 20) as f64 / gpu.spec().pcie_bandwidth;
        assert!((stats.seconds - expected).abs() < 1e-12);
        let (_, down) = gpu.download(buf);
        assert_eq!(down.bytes, 1 << 20);
    }

    #[test]
    fn sampled_launch_approximates_full_launch() {
        let words = 65536usize;
        let mk = |gpu: &mut Gpu| {
            let a = gpu.alloc(words * 4);
            let b = gpu.alloc(words * 4);
            let out = gpu.alloc(words * 4);
            XorKernel { a, b, out, words }
        };
        let grid = GridConfig { blocks: 256, threads_per_block: 256, shared_bytes: 0 };

        let mut gpu_full = Gpu::new(DeviceSpec::gtx280());
        let k_full = mk(&mut gpu_full);
        let full = gpu_full.launch(&k_full, grid);

        let mut gpu_sampled = Gpu::new(DeviceSpec::gtx280());
        let k_sampled = mk(&mut gpu_sampled);
        let sampled = gpu_sampled.launch_sampled(&k_sampled, grid, 16);

        let rel = (sampled.elapsed_s - full.elapsed_s).abs() / full.elapsed_s;
        assert!(rel < 0.05, "sampled launch off by {rel}");
        let instr_rel = (sampled.counters.warp_instructions as f64
            - full.counters.warp_instructions as f64)
            .abs()
            / full.counters.warp_instructions as f64;
        assert!(instr_rel < 0.05, "instruction scaling off by {instr_rel}");
    }

    #[test]
    fn sampled_launch_with_small_grid_is_exact() {
        let mut gpu = Gpu::new(DeviceSpec::gtx280());
        let words = 1024usize;
        let a = gpu.alloc(words * 4);
        let b = gpu.alloc(words * 4);
        let out = gpu.alloc(words * 4);
        let kern = XorKernel { a, b, out, words };
        let grid = GridConfig { blocks: 4, threads_per_block: 256, shared_bytes: 0 };
        let sampled = gpu.launch_sampled(&kern, grid, 16);
        let mut gpu2 = Gpu::new(DeviceSpec::gtx280());
        let a2 = gpu2.alloc(words * 4);
        let b2 = gpu2.alloc(words * 4);
        let out2 = gpu2.alloc(words * 4);
        let full = gpu2.launch(&XorKernel { a: a2, b: b2, out: out2, words }, grid);
        assert_eq!(sampled.counters, full.counters);
    }

    #[test]
    #[should_panic]
    fn empty_grid_is_rejected() {
        let mut gpu = Gpu::new(DeviceSpec::gtx280());
        let buf = gpu.alloc(4);
        let _ = gpu.launch(
            &XorKernel { a: buf, b: buf, out: buf, words: 0 },
            GridConfig { blocks: 0, threads_per_block: 32, shared_bytes: 0 },
        );
    }
}
