//! Device catalog: Tesla-generation GPU specifications.

use serde::{Deserialize, Serialize};

/// Static description of a CUDA-class GPU, sufficient for the simulator's
/// functional and timing models.
///
/// The two built-in devices are the paper's test hardware:
/// [`DeviceSpec::gtx280`] (GeForce GTX 280, 30 SMs × 8 SPs = 240 cores) and
/// [`DeviceSpec::geforce_8800gt`] (14 SMs × 8 SPs = 112 cores). Custom
/// devices — e.g. the paper's hypothetical 32 KiB-shared-memory part — are
/// built with [`DeviceBuilder`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Marketing name, e.g. `"GeForce GTX 280"`.
    pub name: String,
    /// Number of streaming multiprocessors (SMs).
    pub sm_count: usize,
    /// Scalar processors per SM (8 on the Tesla generation).
    pub cores_per_sm: usize,
    /// Shader core clock in Hz.
    pub core_clock_hz: f64,
    /// Threads per warp (32).
    pub warp_size: usize,
    /// On-chip shared memory per SM, in bytes (16 KiB on Tesla).
    pub shared_mem_per_sm: usize,
    /// Shared memory consumed by kernel parameters and launch bookkeeping,
    /// unavailable to kernels. The paper notes this exact pressure when
    /// squeezing eight word-width exp-table replicas (16,288 bytes) into the
    /// 16 KiB SM: "fitting eight tables does not turn out to be easy as the
    /// shared memory is also used for other essential tasks, e.g., passing
    /// parameters to the GPU kernel".
    pub shared_mem_reserved: usize,
    /// Number of shared-memory banks (16, serving a half-warp per 2 cycles).
    pub shared_mem_banks: usize,
    /// Hardware limit on threads per block.
    pub max_threads_per_block: usize,
    /// Hardware limit on resident threads per SM.
    pub max_threads_per_sm: usize,
    /// Hardware limit on resident blocks per SM.
    pub max_blocks_per_sm: usize,
    /// Device (global) memory size in bytes.
    pub device_mem_bytes: usize,
    /// Peak device-memory bandwidth in bytes/second.
    pub mem_bandwidth: f64,
    /// Device-memory access latency in core cycles.
    pub mem_latency_cycles: u64,
    /// Texture cache capacity *per SM* in bytes (Tesla shares one unit per
    /// 3-SM cluster; the per-SM share is what a resident block observes).
    pub tex_cache_bytes: usize,
    /// Texture cache line size in bytes.
    pub tex_line_bytes: usize,
    /// Whether `atomicMin` on shared memory is available (compute ≥ 1.2;
    /// true for the GTX 280, false for the 8800 GT).
    pub has_shared_atomics: bool,
    /// Host↔device transfer bandwidth in bytes/second (PCIe).
    pub pcie_bandwidth: f64,
    /// Fixed per-transfer latency in seconds.
    pub pcie_latency_s: f64,
    /// Fixed kernel-launch overhead in seconds.
    pub launch_overhead_s: f64,
}

impl DeviceSpec {
    /// The NVIDIA GeForce GTX 280 of the paper's evaluation: 30 SMs,
    /// 240 cores at 1.458 GHz, ~141.7 GB/s of memory bandwidth (the paper
    /// rounds to "155"), 1 GiB of device memory, shared-memory atomics.
    pub fn gtx280() -> DeviceSpec {
        DeviceSpec {
            name: "GeForce GTX 280".to_string(),
            sm_count: 30,
            cores_per_sm: 8,
            core_clock_hz: 1.458e9,
            warp_size: 32,
            shared_mem_per_sm: 16 * 1024,
            shared_mem_reserved: 64,
            shared_mem_banks: 16,
            max_threads_per_block: 512,
            max_threads_per_sm: 1024,
            max_blocks_per_sm: 8,
            device_mem_bytes: 1024 * 1024 * 1024,
            mem_bandwidth: 141.7e9,
            mem_latency_cycles: 500,
            tex_cache_bytes: 8 * 1024,
            tex_line_bytes: 32,
            has_shared_atomics: true,
            pcie_bandwidth: 5.5e9,
            pcie_latency_s: 10e-6,
            launch_overhead_s: 8e-6,
        }
    }

    /// The NVIDIA GeForce 8800 GT of the authors' earlier *Nuclei* work:
    /// 14 SMs, 112 cores at 1.5 GHz, 57.6 GB/s, no shared-memory atomics.
    pub fn geforce_8800gt() -> DeviceSpec {
        DeviceSpec {
            name: "GeForce 8800 GT".to_string(),
            sm_count: 14,
            cores_per_sm: 8,
            core_clock_hz: 1.5e9,
            warp_size: 32,
            shared_mem_per_sm: 16 * 1024,
            shared_mem_reserved: 64,
            shared_mem_banks: 16,
            max_threads_per_block: 512,
            max_threads_per_sm: 768,
            max_blocks_per_sm: 8,
            device_mem_bytes: 512 * 1024 * 1024,
            mem_bandwidth: 57.6e9,
            mem_latency_cycles: 510,
            tex_cache_bytes: 8 * 1024,
            tex_line_bytes: 32,
            has_shared_atomics: false,
            pcie_bandwidth: 3.2e9,
            pcie_latency_s: 12e-6,
            launch_overhead_s: 10e-6,
        }
    }

    /// Cycles one warp instruction occupies an SM's issue pipeline:
    /// `warp_size / cores_per_sm` (4 on Tesla).
    pub(crate) fn cycles_per_warp_instruction(&self) -> u64 {
        (self.warp_size / self.cores_per_sm) as u64
    }

    /// Shared memory available to kernels after reserved bookkeeping.
    pub fn shared_mem_usable(&self) -> usize {
        self.shared_mem_per_sm - self.shared_mem_reserved
    }

    /// Starts building a custom device from this one.
    pub fn customize(self) -> DeviceBuilder {
        DeviceBuilder { spec: self }
    }
}

/// Builder for custom device specifications (e.g. the paper's hypothetical
/// future GPU with 32 KiB of shared memory, used to estimate a fully
/// conflict-free table-based encoder).
///
/// ```
/// use nc_gpu_sim::DeviceSpec;
/// let big_smem = DeviceSpec::gtx280()
///     .customize()
///     .name("GTX 280 (32 KiB shared)")
///     .shared_mem_per_sm(32 * 1024)
///     .build();
/// assert_eq!(big_smem.shared_mem_per_sm, 32 * 1024);
/// ```
#[derive(Clone, Debug)]
pub struct DeviceBuilder {
    spec: DeviceSpec,
}

impl DeviceBuilder {
    /// Sets the device name.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.spec.name = name.into();
        self
    }

    /// Sets shared memory per SM in bytes.
    pub fn shared_mem_per_sm(mut self, bytes: usize) -> Self {
        self.spec.shared_mem_per_sm = bytes;
        self
    }

    /// Finalizes the specification.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is internally inconsistent (zero SMs,
    /// warp size not a multiple of the core count, or reserved shared
    /// memory exceeding the SM's capacity).
    pub fn build(self) -> DeviceSpec {
        let s = &self.spec;
        assert!(s.sm_count > 0, "device must have at least one SM");
        assert!(
            s.warp_size.is_multiple_of(s.cores_per_sm),
            "warp size must be a multiple of cores per SM"
        );
        assert!(
            s.shared_mem_reserved < s.shared_mem_per_sm,
            "reserved shared memory exceeds capacity"
        );
        self.spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Peak scalar-instruction rate: `sm_count × cores_per_sm × clock`.
    fn peak_scalar_ops_per_s(d: &DeviceSpec) -> f64 {
        d.sm_count as f64 * d.cores_per_sm as f64 * d.core_clock_hz
    }

    #[test]
    fn gtx280_matches_paper_headline_numbers() {
        let d = DeviceSpec::gtx280();
        assert_eq!(d.sm_count * d.cores_per_sm, 240);
        assert_eq!(d.cycles_per_warp_instruction(), 4);
        // ~350 G scalar ops/s
        let peak = peak_scalar_ops_per_s(&d);
        assert!(peak > 3.4e11 && peak < 3.6e11);
    }

    #[test]
    fn eight_eight_hundred_gt_is_weaker_everywhere_that_matters() {
        let old = DeviceSpec::geforce_8800gt();
        let new = DeviceSpec::gtx280();
        assert!(peak_scalar_ops_per_s(&old) < peak_scalar_ops_per_s(&new) / 1.9);
        assert!(old.mem_bandwidth < new.mem_bandwidth / 2.0);
        assert!(!old.has_shared_atomics && new.has_shared_atomics);
    }

    #[test]
    fn builder_customizes() {
        let d =
            DeviceSpec::gtx280().customize().name("custom").shared_mem_per_sm(32 * 1024).build();
        assert_eq!(d.name, "custom");
        assert_eq!(d.shared_mem_usable(), 32 * 1024 - 64);
    }

    #[test]
    #[should_panic]
    fn builder_rejects_zero_sms() {
        let _ = DeviceSpec { sm_count: 0, ..DeviceSpec::gtx280() }.customize().build();
    }
}
