//! The pipelines' handle on the device: the cycle-model simulator
//! ([`nc_gpu_sim::Gpu`]) plus the bookkeeping that keeps
//! [`Fidelity::Timing`] output from being read.
//!
//! Every kernel is one [`nc_gpu_sim::Kernel`] body written against
//! [`nc_gpu_sim::BlockCtx`]; the simulator executes it and models its time.
//! [`Device::launch_at`] turns the pipeline's [`Fidelity`] into a full or a
//! sampled launch. Bit-exactness versus the `nc-rlnc` CPU reference is the
//! invariant, checked under the kernel sanitizer.

use nc_gpu_sim::{
    DeviceBuffer, DeviceSpec, Gpu, GridConfig, Kernel, LaunchStats, SanitizerConfig,
    SanitizerReport, TransferStats,
};

use crate::Fidelity;

/// Byte ranges whose contents are sampling artifacts and must not reach a
/// consumer (see [`Fidelity::Timing`]): a sampled launch executes only a
/// strided subset of blocks, so output buffers hold garbage outside
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

/// The simulator behind every pipeline, with its poisoned ranges: a
/// [`Fidelity::Timing`] launch poisons what it wrote, and a later download
/// or peek of it debug-asserts.
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

    /// Launches `kernel` at `fidelity`. `Functional` runs every block.
    /// `Timing` executes a strided sample of at most `sample_cap` blocks,
    /// scales it to the full grid, and poisons `partial`, the buffers the
    /// sample leaves half-written.
    pub(crate) fn launch_at(
        &mut self,
        fidelity: Fidelity,
        kernel: &dyn Kernel,
        grid: GridConfig,
        sample_cap: usize,
        partial: &[DeviceBuffer],
    ) -> LaunchStats {
        match fidelity {
            Fidelity::Functional => self.gpu.launch(kernel, grid),
            Fidelity::Timing => {
                let stats = self.gpu.launch_sampled(kernel, grid, sample_cap);
                for &buf in partial {
                    self.poison.add(buf);
                }
                stats
            }
        }
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
    fn timing_launch_poisons_exactly_the_named_buffers() {
        use crate::preprocess::{log_table_bytes, LogConvention, LogTransformKernel};
        for fidelity in [Fidelity::Functional, Fidelity::Timing] {
            let mut dev = small_device();
            let len = 8 * 4 * crate::preprocess::PREPROCESS_BLOCK_THREADS;
            let input = dev.alloc(len);
            dev.upload(input, &vec![3u8; len]);
            let table = dev.alloc(256);
            dev.poke(table, &log_table_bytes(LogConvention::Remapped));
            let output = dev.alloc(len);
            let bystander = dev.alloc(64);
            let kernel = LogTransformKernel { input, output, table, len };
            assert_eq!(kernel.grid().blocks, 8);
            dev.launch_at(fidelity, &kernel, kernel.grid(), 2, &[output]);
            assert_eq!(dev.poison.overlaps(output), fidelity == Fidelity::Timing, "{fidelity:?}");
            for buf in [input, table, bystander] {
                assert!(!dev.poison.overlaps(buf), "{fidelity:?} poisoned an unnamed buffer");
            }
        }
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
