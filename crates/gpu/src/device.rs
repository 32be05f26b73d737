//! The pipelines' handle on the device: the cycle-model simulator
//! ([`nc_gpu_sim::Gpu`]) plus the bookkeeping that keeps
//! [`crate::Fidelity::Timing`] output from being read.
//!
//! Every kernel is one [`nc_gpu_sim::Kernel`] body written against the
//! [`nc_gpu_sim::LaunchCtx`] instruction surface; the simulator executes it
//! and models its time. Bit-exactness versus the `nc-rlnc` CPU reference is
//! the invariant, checked under the kernel sanitizer.

use nc_gpu_sim::{
    DeviceBuffer, DeviceSpec, Gpu, GridConfig, Kernel, LaunchStats, SanitizerConfig,
    SanitizerReport, TransferStats,
};

/// Byte ranges whose contents are sampling artifacts and must not reach a
/// consumer (see [`crate::Fidelity::Timing`]): a `launch_sampled` executes
/// only a strided subset of blocks, so output buffers hold garbage outside
/// the sampled stripes. [`Device`] poisons such buffers and debug-asserts
/// that no poisoned range is downloaded or peeked.
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

/// The simulator behind every pipeline, with its poisoned ranges: the
/// pipelines [`Device::poison`] what a [`Device::launch_sampled`] wrote,
/// and a later download or peek of it debug-asserts.
pub(crate) struct Device {
    gpu: Gpu,
    poison: PoisonSet,
}

impl Device {
    pub(crate) fn new(spec: DeviceSpec) -> Device {
        Device { gpu: Gpu::new(spec), poison: PoisonSet::default() }
    }

    pub(crate) fn spec(&self) -> &DeviceSpec {
        self.gpu.spec()
    }

    pub(crate) fn alloc(&mut self, len: usize) -> DeviceBuffer {
        self.gpu.alloc(len)
    }

    /// Frees all allocations and forgets every poisoned range.
    pub(crate) fn reset(&mut self) {
        self.poison.clear_all();
        self.gpu.reset();
    }

    /// Copies `data` to the device with PCIe accounting; clears poison.
    pub(crate) fn upload(&mut self, buf: DeviceBuffer, data: &[u8]) -> TransferStats {
        self.poison.clear(buf);
        self.gpu.upload(buf, data)
    }

    /// Copies a buffer back to the host with PCIe accounting.
    pub(crate) fn download(&self, buf: DeviceBuffer) -> (Vec<u8>, TransferStats) {
        self.poison.check_read(buf, "download");
        self.gpu.download(buf)
    }

    /// Reads a buffer without transfer accounting (result words, recovery).
    pub(crate) fn peek(&self, buf: DeviceBuffer) -> &[u8] {
        self.poison.check_read(buf, "peek");
        self.gpu.peek(buf)
    }

    /// Writes a buffer without transfer accounting (tables); clears poison.
    pub(crate) fn poke(&mut self, buf: DeviceBuffer, data: &[u8]) {
        self.poison.clear(buf);
        self.gpu.poke(buf, data);
    }

    pub(crate) fn launch(&mut self, kernel: &dyn Kernel, grid: GridConfig) -> LaunchStats {
        self.gpu.launch(kernel, grid)
    }

    /// Executes a strided sample of at most `max_blocks_executed` blocks
    /// and scales to the full grid; callers poison the outputs.
    pub(crate) fn launch_sampled(
        &mut self,
        kernel: &dyn Kernel,
        grid: GridConfig,
        max_blocks_executed: usize,
    ) -> LaunchStats {
        self.gpu.launch_sampled(kernel, grid, max_blocks_executed)
    }

    /// Marks a buffer as holding sampling artifacts.
    pub(crate) fn poison(&mut self, buf: DeviceBuffer) {
        self.poison.add(buf);
    }

    pub(crate) fn enable_sanitizer(&mut self, config: SanitizerConfig) {
        self.gpu.enable_sanitizer(config);
    }

    pub(crate) fn sanitizer_report(&self) -> Option<&SanitizerReport> {
        self.gpu.sanitizer_report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A simulator with a small device memory (the buffers here are tiny).
    fn small_device() -> Device {
        Device::new(DeviceSpec { device_mem_bytes: 1 << 20, ..DeviceSpec::gtx280() })
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "poison is a debug-assert")]
    #[should_panic(expected = "poisoned")]
    fn poisoned_buffers_fail_loudly_on_read() {
        let mut dev = small_device();
        let buf = dev.alloc(64);
        dev.poison(buf);
        let _ = dev.peek(buf);
    }

    #[test]
    fn upload_clears_poison() {
        let mut dev = small_device();
        let buf = dev.alloc(64);
        dev.poison(buf);
        dev.upload(buf, &[3u8; 64]);
        assert_eq!(dev.peek(buf), &[3u8; 64]);
    }

    #[test]
    fn poison_set_tracks_overlaps() {
        let mut p = PoisonSet::default();
        let whole = small_device().alloc(128);
        let a = whole.sub(0, 64);
        let b = whole.sub(64, 64);
        let c = whole.sub(32, 64); // straddles a and b
        p.add(a);
        assert!(p.overlaps(a));
        assert!(!p.overlaps(b));
        assert!(p.overlaps(c));
        p.clear(c);
        assert!(!p.overlaps(a));
    }
}
