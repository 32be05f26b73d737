//! Pluggable coding backends for the streaming server.

use nc_cpu::{measure, Partitioning};
use nc_cpu_model::{CpuModel, EncodeStrategy};
use nc_gpu::api::EncodeScheme;
use nc_gpu::{DeviceBackend, GpuEncoder, HostDeviceBackend, TableVariant};
use nc_gpu_sim::DeviceSpec;
use nc_rlnc::CodingConfig;

/// Something that can generate coded blocks at a sustained rate.
///
/// The trait is object-safe so a server can hold heterogeneous backends.
pub trait CodingBackend {
    /// Human-readable backend name.
    fn name(&self) -> String;

    /// Sustained coded-output bandwidth in bytes/second for a
    /// configuration (measured or modeled once; servers cache it).
    fn encoding_rate(&mut self, config: CodingConfig) -> f64;
}

/// The simulated GPU encoder (any scheme).
pub struct GpuBackend {
    encoder: GpuEncoder,
}

impl GpuBackend {
    /// A GTX 280 running the paper's best scheme (Table-based-5).
    pub fn gtx280_best() -> GpuBackend {
        GpuBackend {
            encoder: GpuEncoder::new(DeviceSpec::gtx280(), EncodeScheme::Table(TableVariant::Tb5)),
        }
    }

    /// A GTX 280 running the loop-based scheme of Sec. 4.
    pub fn gtx280_loop_based() -> GpuBackend {
        GpuBackend { encoder: GpuEncoder::new(DeviceSpec::gtx280(), EncodeScheme::LoopBased) }
    }

    /// Any device/scheme combination on the cycle-model simulator.
    pub fn custom(spec: DeviceSpec, scheme: EncodeScheme) -> GpuBackend {
        GpuBackend { encoder: GpuEncoder::new(spec, scheme) }
    }

    /// A GTX 280-shaped grid executed on this host's worker pool: the same
    /// kernels, but `encoding_rate` reports measured wall-clock throughput
    /// instead of modeled GTX 280 time.
    pub fn host_measured(scheme: EncodeScheme) -> GpuBackend {
        GpuBackend::with_device_backend(
            Box::new(HostDeviceBackend::new(DeviceSpec::gtx280())),
            scheme,
        )
    }

    /// Any executor/scheme combination (sim or host workers).
    pub fn with_device_backend(dev: Box<dyn DeviceBackend>, scheme: EncodeScheme) -> GpuBackend {
        GpuBackend { encoder: GpuEncoder::with_backend(dev, scheme) }
    }
}

impl CodingBackend for GpuBackend {
    fn name(&self) -> String {
        format!(
            "{} ({:?}) [{}]",
            self.encoder.spec().name,
            self.encoder.scheme(),
            self.encoder.backend_name()
        )
    }

    fn encoding_rate(&mut self, config: CodingConfig) -> f64 {
        self.encoder.measure(config.blocks(), config.block_size(), config.blocks(), 7).rate
    }
}

/// The modeled 8-core Mac Pro.
pub struct CpuModelBackend {
    model: CpuModel,
    strategy: EncodeStrategy,
}

impl CpuModelBackend {
    /// The paper's Mac Pro with the streaming-friendly full-block scheme.
    pub fn mac_pro() -> CpuModelBackend {
        CpuModelBackend { model: CpuModel::mac_pro_8core(), strategy: EncodeStrategy::FullBlock }
    }
}

impl CodingBackend for CpuModelBackend {
    fn name(&self) -> String {
        "8-core Mac Pro (modeled, full-block)".to_string()
    }

    fn encoding_rate(&mut self, config: CodingConfig) -> f64 {
        self.model.encode_rate(config.blocks(), config.block_size(), self.strategy)
    }
}

/// Real measured encoding throughput of *this* host's CPU, on the active
/// GF(2^8) kernel rung — the companion to the modeled Mac Pro, letting
/// hybrid projections use live SIMD numbers instead of 2009 constants.
pub struct HostCpuBackend {
    threads: usize,
    /// Coded blocks measured per probe (kept modest so `encoding_rate`
    /// stays interactive; servers cache the result anyway).
    batch: usize,
}

impl HostCpuBackend {
    /// Default coded blocks per probe (further clamped per configuration).
    const DEFAULT_BATCH: usize = 64;

    /// This host with `threads` worker threads.
    pub fn detected(threads: usize) -> HostCpuBackend {
        HostCpuBackend::with_batch(threads, HostCpuBackend::DEFAULT_BATCH)
    }

    /// Full control: thread count and probe batch size.
    pub fn with_batch(threads: usize, batch: usize) -> HostCpuBackend {
        HostCpuBackend { threads: threads.max(1), batch: batch.max(1) }
    }
}

impl CodingBackend for HostCpuBackend {
    fn name(&self) -> String {
        let kernel = nc_gf256::simd::active_kernel().name();
        format!("host CPU ({kernel} kernel, {} threads, measured)", self.threads)
    }

    fn encoding_rate(&mut self, config: CodingConfig) -> f64 {
        // Probing more coded blocks than the generation holds would
        // overstate small-generation throughput (the coefficient matrix
        // stays cache-hot across repeats); clamp the batch to n.
        let batch = self.batch.clamp(1, config.blocks());
        measure::encode_throughput(
            config.blocks(),
            config.block_size(),
            batch,
            self.threads,
            Partitioning::FullBlock,
            0xC0DE,
        )
    }
}

/// GPU and CPU encoding in parallel — Sec. 5.4.1: "encoding can be employed
/// by GPU and CPU in parallel, achieving encoding rates in proximity to the
/// sum of the individual bandwidths".
///
/// The CPU side is any [`CodingBackend`]: the paper's modeled Mac Pro or a
/// live [`HostCpuBackend`] measurement.
pub struct HybridBackend {
    gpu: GpuBackend,
    cpu: Box<dyn CodingBackend>,
}

impl HybridBackend {
    /// GTX 280 (Table-based-5) plus the Mac Pro.
    pub fn gtx280_plus_mac_pro() -> HybridBackend {
        HybridBackend { gpu: GpuBackend::gtx280_best(), cpu: Box::new(CpuModelBackend::mac_pro()) }
    }

    /// GTX 280 (Table-based-5) plus this host's measured SIMD throughput.
    pub fn gtx280_plus_host(threads: usize) -> HybridBackend {
        HybridBackend {
            gpu: GpuBackend::gtx280_best(),
            cpu: Box::new(HostCpuBackend::detected(threads)),
        }
    }

    /// All-measured pairing: the GPU kernels on host workers plus this
    /// host's SIMD encoder — no modeled numbers anywhere.
    pub fn host_measured(threads: usize) -> HybridBackend {
        HybridBackend {
            gpu: GpuBackend::host_measured(EncodeScheme::Table(TableVariant::Tb5)),
            cpu: Box::new(HostCpuBackend::detected(threads)),
        }
    }

    /// Any GPU/CPU pairing.
    pub fn custom(gpu: GpuBackend, cpu: Box<dyn CodingBackend>) -> HybridBackend {
        HybridBackend { gpu, cpu }
    }

    /// The paper's price/performance argument: the GPU's share of the
    /// hybrid rate (≈ 4.3/5.3 at n = 128).
    pub fn gpu_share(&mut self, config: CodingConfig) -> f64 {
        let g = self.gpu.encoding_rate(config);
        let c = self.cpu.encoding_rate(config);
        g / (g + c)
    }
}

impl CodingBackend for HybridBackend {
    fn name(&self) -> String {
        format!("hybrid: {} + {}", self.gpu.name(), self.cpu.name())
    }

    fn encoding_rate(&mut self, config: CodingConfig) -> f64 {
        // The workload partitions trivially (disjoint coded blocks), so the
        // rates add; a small coordination loss keeps the claim honest.
        0.98 * (self.gpu.encoding_rate(config) + self.cpu.encoding_rate(config))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_config() -> CodingConfig {
        CodingConfig::new(128, 4096).unwrap()
    }

    #[test]
    fn host_cpu_backend_measures_positive_rate() {
        // A tiny config keeps this a smoke test, not a benchmark.
        let mut b = HostCpuBackend::with_batch(2, 4);
        let rate = b.encoding_rate(CodingConfig::new(8, 256).unwrap());
        assert!(rate.is_finite() && rate > 0.0);
        assert!(b.name().contains("host CPU"));
    }

    #[test]
    fn host_cpu_batch_is_clamped_to_the_generation() {
        // batch 64 against an n = 8 generation must probe only 8 blocks;
        // the rate stays finite and positive either way, and the clamped
        // probe cannot be slower to compute than the unclamped one was.
        let mut b = HostCpuBackend::with_batch(1, 64);
        let rate = b.encoding_rate(CodingConfig::new(8, 256).unwrap());
        assert!(rate.is_finite() && rate > 0.0);
    }

    #[test]
    fn hybrid_accepts_a_live_host_cpu_side() {
        let host = HostCpuBackend::with_batch(1, 4);
        let mut hybrid = HybridBackend::custom(GpuBackend::gtx280_best(), Box::new(host));
        let cfg = CodingConfig::new(8, 256).unwrap();
        let rate = hybrid.encoding_rate(cfg);
        assert!(rate.is_finite() && rate > 0.0);
        assert!(hybrid.name().contains("host CPU"));
    }

    #[test]
    fn host_measured_gpu_backend_reports_real_time() {
        let mut b = GpuBackend::host_measured(EncodeScheme::Table(TableVariant::Tb5));
        let rate = b.encoding_rate(CodingConfig::new(8, 256).unwrap());
        assert!(rate.is_finite() && rate > 0.0);
        assert!(b.name().contains("[host]"), "name should carry the executor: {}", b.name());
    }

    #[test]
    fn gpu_backend_reaches_table_based_rates() {
        let mut b = GpuBackend::gtx280_best();
        let mb = b.encoding_rate(paper_config()) / (1024.0 * 1024.0);
        assert!(mb > 260.0, "TB5 backend should exceed 260 MB/s, got {mb}");
    }

    #[test]
    fn hybrid_is_roughly_additive() {
        let mut gpu = GpuBackend::gtx280_best();
        let mut cpu = CpuModelBackend::mac_pro();
        let mut hybrid = HybridBackend::gtx280_plus_mac_pro();
        let cfg = paper_config();
        let sum = gpu.encoding_rate(cfg) + cpu.encoding_rate(cfg);
        let h = hybrid.encoding_rate(cfg);
        assert!(h > 0.9 * sum && h <= sum, "hybrid ≈ sum of parts");
    }

    #[test]
    fn gpu_advantage_is_around_4_3x() {
        let mut gpu = GpuBackend::gtx280_best();
        let mut cpu = CpuModelBackend::mac_pro();
        let cfg = paper_config();
        let ratio = gpu.encoding_rate(cfg) / cpu.encoding_rate(cfg);
        assert!((3.8..5.0).contains(&ratio), "paper: ≈4.3×, got {ratio}");
    }

    #[test]
    fn backend_names_are_informative() {
        assert!(GpuBackend::gtx280_best().name().contains("GTX 280"));
        assert!(CpuModelBackend::mac_pro().name().contains("Mac Pro"));
        assert!(HybridBackend::gtx280_plus_mac_pro().name().contains("hybrid"));
    }
}
