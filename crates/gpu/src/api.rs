//! Host-side pipelines: upload, preprocess, launch, verify.
//!
//! [`GpuEncoder`] drives the encode kernels (loop-based or any table-based
//! variant), [`GpuProgressiveDecoder`] the per-received-block single-segment
//! decoder, and [`GpuMultiDecoder`] the two-stage multi-segment decoder.
//!
//! Each pipeline offers a **functional** path (real data in, bit-exact
//! coded/decoded bytes out, verified in tests against `nc-rlnc`) and a
//! **measurement** path used by the figure harness, which bounds host-side
//! simulation cost by sampling uniform grids ([`nc_gpu_sim::Gpu::launch_sampled`])
//! and by executing a reduced number of coded blocks whose kernel time is
//! scaled linearly (encoding cost is exactly linear in the block count; the
//! scaling is tested against full runs at small sizes).

use nc_gpu_sim::{DeviceSpec, LaunchStats, PipelineStats, SanitizerConfig, SanitizerReport};
use nc_rlnc::{CodedBlock, CodingConfig, Segment};
use rand::{Rng, SeedableRng};

use crate::decode_multi::{InvertKernel, RecoverKernel};
use crate::decode_single::{DecodeOptions, DecodeStepKernel, NO_PIVOT};
use crate::device::Device;
use crate::encode_loop::LoopEncodeKernel;
use crate::encode_table::{TableEncodeKernel, TableVariant};
use crate::preprocess::{log_table_bytes, LogConvention, LogTransformKernel};

/// Execution fidelity of a pipeline run.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Fidelity {
    /// Execute every block of every launch; device results are bit-exact.
    Functional,
    /// Sample uniform grids and scale; device results must not be consumed.
    ///
    /// Pipelines enforce this by poisoning sampled output buffers on the
    /// simulator (the crate-private `device::Device::poison`): a download
    /// or peek of a poisoned range debug-asserts.
    Timing,
}

/// Typed failures surfaced by the host-side pipelines.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PipelineError {
    /// The device result buffer returned fewer bytes than the pipeline's
    /// result word requires — a device allocation or plumbing bug, caught
    /// instead of panicking mid-stream.
    ShortResultBuffer {
        /// Bytes the pipeline needed to read.
        expected: usize,
        /// Bytes the device actually returned.
        got: usize,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::ShortResultBuffer { expected, got } => {
                write!(f, "device result buffer too short: expected {expected} bytes, got {got}")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// Stage-2 multiplication scheme for multi-segment decoding.
///
/// The paper's decoding rates "get closer to the encoding counterpart" as k
/// grows — the counterpart being the *table-based* encoder — so the default
/// recovery multiplication uses the Table-based-5 kernel on log-domain
/// operands. The loop-based kernel remains available as an ablation.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum Stage2Scheme {
    /// Loop-based recovery multiplication.
    LoopBased,
    /// Table-based-5 recovery multiplication with log-domain preprocessing.
    TableBased,
}

/// Encoding scheme selector.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum EncodeScheme {
    /// Loop-based GF multiplication (Sec. 4).
    LoopBased,
    /// Table-based ladder variant (Sec. 5.1).
    Table(TableVariant),
    /// Loop-based with on-the-fly dummy inputs (the Sec. 4.4 probe).
    LoopBasedDummyInput,
}

/// Outcome of an encoding measurement.
#[derive(Clone, Debug)]
pub struct EncodeMeasurement {
    /// Coded-output bandwidth in bytes/second: `m·k` over kernel time plus
    /// amortized preprocessing (PCIe excluded — the segment is GPU-resident
    /// in the streaming scenario).
    pub rate: f64,
    /// Seconds in the encode kernel (scaled to the full `m`).
    pub kernel_s: f64,
    /// Seconds in log-domain preprocessing (source + coefficients).
    pub preprocess_s: f64,
    /// Per-phase breakdown including transfers.
    pub pipeline: PipelineStats,
    /// Launch statistics of the (possibly sampled) encode kernel.
    pub launch: LaunchStats,
}

/// Maximum output words executed functionally during a measurement; beyond
/// this the coded-block count is reduced and kernel time scaled linearly.
const MEASURE_TARGET_WORDS: usize = 16 * 1024;
/// Block-sample cap for sampled launches during measurements.
const MEASURE_SAMPLED_BLOCKS: usize = 32;

/// Host driver for the GPU encoders.
///
/// ```
/// use nc_gpu::{GpuEncoder, api::EncodeScheme, TableVariant};
/// use nc_gpu_sim::DeviceSpec;
/// use nc_rlnc::{CodingConfig, Segment};
///
/// let mut enc = GpuEncoder::new(DeviceSpec::gtx280(), EncodeScheme::Table(TableVariant::Tb5));
/// let config = CodingConfig::new(16, 256)?;
/// let segment = Segment::from_bytes(config, vec![7u8; config.segment_bytes()])?;
/// let coeffs: Vec<Vec<u8>> = (0..4).map(|j| (0..16).map(|i| (i + j + 1) as u8).collect()).collect();
/// let (blocks, _stats) = enc.encode_blocks(&segment, &coeffs);
/// assert_eq!(blocks.len(), 4);
/// # Ok::<(), nc_rlnc::Error>(())
/// ```
pub struct GpuEncoder {
    dev: Device,
    scheme: EncodeScheme,
}

impl GpuEncoder {
    /// Creates an encoder for a device and scheme on the cycle-model
    /// simulator.
    pub fn new(spec: DeviceSpec, scheme: EncodeScheme) -> GpuEncoder {
        GpuEncoder { dev: Device::new(spec), scheme }
    }

    /// Enables the kernel sanitizer (see `nc_gpu_sim::sanitizer`).
    /// Instrumented launches are checked from here on; sampled measurement
    /// launches are never sanitized, so [`GpuEncoder::measure`] stays
    /// sanitizer-free by construction.
    pub fn enable_sanitizer(&mut self, config: SanitizerConfig) {
        self.dev.enable_sanitizer(config);
    }

    /// The accumulated sanitizer report, if the sanitizer is enabled.
    pub fn sanitizer_report(&self) -> Option<&SanitizerReport> {
        self.dev.sanitizer_report()
    }

    /// Functionally encodes `coeff_rows.len()` coded blocks of `segment`,
    /// returning them with the full pipeline timing.
    ///
    /// # Panics
    ///
    /// Panics if `n`/`k` are not multiples of 4 or a coefficient row has
    /// the wrong length.
    pub fn encode_blocks(
        &mut self,
        segment: &Segment,
        coeff_rows: &[Vec<u8>],
    ) -> (Vec<CodedBlock>, PipelineStats) {
        let n = segment.config().blocks();
        let k = segment.config().block_size();
        let m = coeff_rows.len();
        assert!(m > 0, "no coefficient rows supplied");
        for row in coeff_rows {
            assert_eq!(row.len(), n, "coefficient row length mismatch");
        }
        let flat: Vec<u8> = coeff_rows.concat();
        let (out, _, pipeline) = self.run(segment.data(), &flat, n, k, m, Fidelity::Functional);
        let coded = out.expect("functional run returns data");
        let blocks = coeff_rows
            .iter()
            .enumerate()
            .map(|(j, row)| CodedBlock::new(row.clone(), coded[j * k..(j + 1) * k].to_vec()))
            .collect();
        (blocks, pipeline)
    }

    /// Measures the coded-output bandwidth for generating `m` blocks of a
    /// random `(n, k)` segment — the quantity every encode figure plots.
    pub fn measure(&mut self, n: usize, k: usize, m: usize, seed: u64) -> EncodeMeasurement {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data: Vec<u8> = (0..n * k).map(|_| rng.gen()).collect();
        // Fully dense coefficients, as in all the paper's benchmarks.
        let m_exec = m.min((MEASURE_TARGET_WORDS / (k / 4)).max(1));
        let flat: Vec<u8> = (0..m_exec * n).map(|_| rng.gen_range(1..=255)).collect();

        let (_, launch, mut pipeline) = self.run(&data, &flat, n, k, m_exec, Fidelity::Timing);
        let scale = m as f64 / m_exec as f64;
        let kernel_s = pipeline.share_of("encode") * pipeline.total_s * scale;
        let preprocess_s = pipeline.share_of("preprocess") * pipeline.total_s;
        let productive = kernel_s + preprocess_s;
        pipeline.record("scaled-total", productive);
        EncodeMeasurement {
            rate: (m * k) as f64 / productive,
            kernel_s,
            preprocess_s,
            pipeline,
            launch,
        }
    }

    /// Shared pipeline: upload → (preprocess) → encode.
    fn run(
        &mut self,
        segment_data: &[u8],
        coeff_flat: &[u8],
        n: usize,
        k: usize,
        m_exec: usize,
        fidelity: Fidelity,
    ) -> (Option<Vec<u8>>, LaunchStats, PipelineStats) {
        assert_eq!(segment_data.len(), n * k);
        assert_eq!(coeff_flat.len(), m_exec * n);
        let mut pipeline = PipelineStats::new();
        self.dev.reset();

        let source = self.dev.alloc(n * k);
        let coeffs = self.dev.alloc(m_exec * n);
        let output = self.dev.alloc(m_exec * k);
        let t = self.dev.upload(source, segment_data);
        pipeline.record("pcie: segment upload", t.seconds);
        let t = self.dev.upload(coeffs, coeff_flat);
        pipeline.record("pcie: coefficients upload", t.seconds);

        let launch = match self.scheme {
            EncodeScheme::LoopBased | EncodeScheme::LoopBasedDummyInput => {
                let kernel = LoopEncodeKernel {
                    source,
                    coeffs,
                    output,
                    n,
                    k,
                    m: m_exec,
                    dummy_input: matches!(self.scheme, EncodeScheme::LoopBasedDummyInput),
                    layout: Default::default(),
                };
                let stats = self.dev.launch_at(
                    fidelity,
                    &kernel,
                    kernel.grid(),
                    MEASURE_SAMPLED_BLOCKS,
                    &[output],
                );
                pipeline.record("encode kernel (loop-based)", stats.elapsed_s);
                stats
            }
            EncodeScheme::Table(variant) => {
                // Stage the multiplication tables.
                let table_bytes = variant.table_bytes();
                let tables = self.dev.alloc(table_bytes.len());
                self.dev.poke(tables, &table_bytes);

                let (src_buf, coeff_buf) = if variant.uses_log_domain() {
                    let conv = if variant.uses_remapped_sentinel() {
                        LogConvention::Remapped
                    } else {
                        LogConvention::Sentinel
                    };
                    let log_table = self.dev.alloc(256);
                    self.dev.poke(log_table, &log_table_bytes(conv));
                    let src_log = self.dev.alloc(n * k);
                    let coeff_log = self.dev.alloc(m_exec * n.next_multiple_of(4));
                    let kp = LogTransformKernel {
                        input: source,
                        output: src_log,
                        table: log_table,
                        len: n * k,
                    };
                    let s = self.dev.launch_at(
                        fidelity,
                        &kp,
                        kp.grid(),
                        MEASURE_SAMPLED_BLOCKS,
                        &[src_log],
                    );
                    if fidelity == Fidelity::Timing {
                        // The sampled launch transforms only a subset of
                        // the buffer; complete it host-side so the encode
                        // kernel's table lookups (and hence the measured
                        // bank conflicts) see real log-domain data.
                        let host_log: Vec<u8> =
                            segment_data.iter().map(|&b| conv.apply(b)).collect();
                        self.dev.poke(src_log, &host_log);
                    }
                    pipeline.record("preprocess: segment to log domain", s.elapsed_s);
                    let kc = LogTransformKernel {
                        input: coeffs,
                        output: coeff_log,
                        table: log_table,
                        len: m_exec * n,
                    };
                    // Coefficients are tiny; always run them in full so the
                    // encode kernel sees real log-domain values.
                    let s = self.dev.launch(&kc, kc.grid());
                    pipeline.record("preprocess: coefficients to log domain", s.elapsed_s);
                    (src_log, coeff_log)
                } else {
                    (source, coeffs)
                };

                let kernel = TableEncodeKernel {
                    variant,
                    source: src_buf,
                    coeffs: coeff_buf,
                    output,
                    tables,
                    n,
                    k,
                    m: m_exec,
                    sm_blocks: self.dev.spec().sm_count,
                    tb5_replicas: crate::encode_table::TB5_REPLICAS,
                };
                let stats = self.dev.launch(&kernel, kernel.grid());
                pipeline.record(format!("encode kernel ({variant:?})"), stats.elapsed_s);
                stats
            }
        };

        let out = match fidelity {
            Fidelity::Functional => {
                let (bytes, t) = self.dev.download(output);
                pipeline.record("pcie: coded blocks download", t.seconds);
                Some(bytes)
            }
            Fidelity::Timing => {
                // The (possibly sampled, always m-reduced) output holds
                // measurement artifacts; make any later read fail loudly.
                self.dev.poison(output);
                None
            }
        };
        (out, launch, pipeline)
    }
}

/// Host driver for the single-segment progressive decoder (Fig. 3).
pub struct GpuProgressiveDecoder {
    dev: Device,
    n: usize,
    k: usize,
    sm_blocks: usize,
    rows: nc_gpu_sim::DeviceBuffer,
    incoming: nc_gpu_sim::DeviceBuffer,
    result: nc_gpu_sim::DeviceBuffer,
    rank: usize,
    pivot_cols: Vec<u32>,
    options: DecodeOptions,
    fidelity: Fidelity,
    kernel_s: f64,
    pipeline: PipelineStats,
}

impl GpuProgressiveDecoder {
    /// Creates a decoder for one `(n, k)` generation.
    ///
    /// # Panics
    ///
    /// Panics if `n`/`k` are not multiples of 4 or a row exceeds the
    /// 512-thread block limit.
    pub fn new(
        spec: DeviceSpec,
        config: CodingConfig,
        options: DecodeOptions,
        fidelity: Fidelity,
    ) -> GpuProgressiveDecoder {
        let mut dev = Device::new(spec);
        let (n, k) = (config.blocks(), config.block_size());
        assert!(n % 4 == 0 && k % 4 == 0, "n and k must be multiples of 4");
        let sm_blocks = dev.spec().sm_count;
        let stride = n / 4 + DecodeStepKernel::partition_words(n, k, sm_blocks);
        let rows = dev.alloc(sm_blocks * n * stride * 4);
        let incoming = dev.alloc(n + k);
        let result = dev.alloc(4);
        GpuProgressiveDecoder {
            dev,
            n,
            k,
            sm_blocks,
            rows,
            incoming,
            result,
            rank: 0,
            pivot_cols: Vec::new(),
            options,
            fidelity,
            kernel_s: 0.0,
            pipeline: PipelineStats::new(),
        }
    }

    /// Whether `n` innovative blocks have been absorbed.
    pub fn is_complete(&self) -> bool {
        self.rank == self.n
    }

    /// Seconds spent in decode kernels so far (excluding PCIe).
    pub fn kernel_seconds(&self) -> f64 {
        self.kernel_s
    }

    /// Enables the kernel sanitizer for subsequent [`GpuProgressiveDecoder::push`]
    /// calls. Only meaningful at [`Fidelity::Functional`]; timing-fidelity
    /// pushes use sampled launches, which are never sanitized.
    pub fn enable_sanitizer(&mut self, config: SanitizerConfig) {
        self.dev.enable_sanitizer(config);
    }

    /// The accumulated sanitizer report, if the sanitizer is enabled.
    pub fn sanitizer_report(&self) -> Option<&SanitizerReport> {
        self.dev.sanitizer_report()
    }

    /// Absorbs one coded block; returns whether it was innovative.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::ShortResultBuffer`] if the device's result
    /// buffer cannot supply the 4-byte pivot word.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    pub fn push(&mut self, coefficients: &[u8], payload: &[u8]) -> Result<bool, PipelineError> {
        assert_eq!(coefficients.len(), self.n);
        assert_eq!(payload.len(), self.k);
        if self.is_complete() {
            return Ok(false);
        }
        let mut wire = Vec::with_capacity(self.n + self.k);
        wire.extend_from_slice(coefficients);
        wire.extend_from_slice(payload);
        let t = self.dev.upload(self.incoming, &wire);
        self.pipeline.record("pcie: coded block upload", t.seconds);

        let kernel = DecodeStepKernel {
            rows: self.rows,
            incoming: self.incoming,
            result: self.result,
            n: self.n,
            k: self.k,
            sm_blocks: self.sm_blocks,
            rank: self.rank,
            pivot_cols: self.pivot_cols.clone(),
            options: self.options,
        };
        let grid = kernel.grid(self.dev.spec());
        // A sampled step touches only a stripe of the row matrix; its
        // contents are no longer coherent decode state.
        let stats = self.dev.launch_at(self.fidelity, &kernel, grid, 4, &[self.rows]);
        self.kernel_s += stats.elapsed_s;
        self.pipeline.record(format!("decode step (rank {})", self.rank), stats.elapsed_s);

        // Block 0 always executes (also under sampling), so the result word
        // is authoritative in both fidelities.
        let bytes = self.dev.peek(self.result);
        let Some(word_bytes) = bytes.get(..4) else {
            return Err(PipelineError::ShortResultBuffer { expected: 4, got: bytes.len() });
        };
        let word = u32::from_le_bytes(word_bytes.try_into().expect("4-byte slice"));
        Ok(if word == NO_PIVOT {
            false
        } else {
            self.pivot_cols.push(word);
            self.rank += 1;
            true
        })
    }

    /// Recovers the decoded segment (functional fidelity only).
    ///
    /// Returns `None` until complete.
    ///
    /// # Panics
    ///
    /// Panics when called on a [`Fidelity::Timing`] decoder, whose device
    /// state is intentionally partial.
    pub fn recover(&self) -> Option<Vec<u8>> {
        assert_eq!(self.fidelity, Fidelity::Functional, "recover requires functional fidelity");
        if !self.is_complete() {
            return None;
        }
        let n = self.n;
        let kw = self.k / 4;
        let kbw = (self.k / 4).div_ceil(self.sm_blocks);
        let stride = n / 4 + kbw;
        let rows = self.dev.peek(self.rows);
        let mut out = vec![0u8; n * self.k];
        // Row r holds source block pivot_cols[r]; its data partition for
        // block s covers words [s·kbw, …).
        for (r, &p) in self.pivot_cols.iter().enumerate() {
            let dst = &mut out[p as usize * self.k..(p as usize + 1) * self.k];
            for s in 0..self.sm_blocks {
                let data_start = (s * kbw).min(kw);
                let words = kw.saturating_sub(data_start).min(kbw);
                if words == 0 {
                    break;
                }
                let src_off = ((s * n + r) * stride + n / 4) * 4;
                dst[data_start * 4..(data_start + words) * 4]
                    .copy_from_slice(&rows[src_off..src_off + words * 4]);
            }
        }
        Some(out)
    }
}

/// Outcome of a multi-segment decode.
#[derive(Clone, Debug)]
pub struct MultiDecodeOutcome {
    /// Recovered segments (functional fidelity only).
    pub recovered: Option<Vec<Vec<u8>>>,
    /// Decoded-output bandwidth in bytes/second (`segments·n·k` over the
    /// two kernel stages; PCIe excluded as in the paper's rates).
    pub rate: f64,
    /// Stage-1 share of the decoding task — the Fig. 9 annotations.
    pub stage1_share: f64,
}

/// Host driver for the two-stage multi-segment decoder (Sec. 5.2).
pub struct GpuMultiDecoder {
    dev: Device,
    stage2: Stage2Scheme,
}

impl GpuMultiDecoder {
    /// Creates a multi-segment decoder on a device with the default
    /// table-based stage 2.
    pub fn new(spec: DeviceSpec) -> GpuMultiDecoder {
        GpuMultiDecoder::with_stage2(spec, Stage2Scheme::TableBased)
    }

    /// Creates a multi-segment decoder with an explicit stage-2 scheme on
    /// the cycle-model simulator.
    pub(crate) fn with_stage2(spec: DeviceSpec, stage2: Stage2Scheme) -> GpuMultiDecoder {
        GpuMultiDecoder { dev: Device::new(spec), stage2 }
    }

    /// Functionally decodes `segments.len()` segments, each given as `n`
    /// coded blocks, and returns the recovered segments plus timing.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches or if any segment's blocks are linearly
    /// dependent (callers buffer innovative blocks only, as
    /// [`nc_rlnc::TwoStageDecoder`] does).
    pub fn decode(
        &mut self,
        config: CodingConfig,
        segments: &[Vec<CodedBlock>],
    ) -> MultiDecodeOutcome {
        let (n, k) = (config.blocks(), config.block_size());
        let s_count = segments.len();
        assert!(s_count > 0);
        let mut aug = vec![0u8; s_count * n * 2 * n];
        let mut coded = vec![0u8; s_count * n * k];
        for (s, blocks) in segments.iter().enumerate() {
            assert_eq!(blocks.len(), n, "segment {s} must supply exactly n blocks");
            for (r, b) in blocks.iter().enumerate() {
                b.check(config).expect("block shape");
                let off = s * n * 2 * n + r * 2 * n;
                aug[off..off + n].copy_from_slice(b.coefficients());
                aug[off + n + r] = 1;
                coded[s * n * k + r * k..s * n * k + (r + 1) * k].copy_from_slice(b.payload());
            }
        }
        self.run(n, k, s_count, &aug, &coded, Fidelity::Functional)
    }

    /// Measures multi-segment decoding bandwidth on synthetic full-rank
    /// input — the Fig. 9 quantity. Coefficients are dense random (the
    /// iteration counts of loop-based multiplication depend only on their
    /// distribution, which matches the functional path).
    pub fn measure(
        &mut self,
        config: CodingConfig,
        segment_count: usize,
        seed: u64,
    ) -> MultiDecodeOutcome {
        let (n, k) = (config.blocks(), config.block_size());
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut aug = vec![0u8; segment_count * n * 2 * n];
        for s in 0..segment_count {
            for r in 0..n {
                let off = s * n * 2 * n + r * 2 * n;
                for c in 0..n {
                    aug[off + c] = rng.gen_range(1..=255);
                }
                aug[off + n + r] = 1;
            }
        }
        let coded: Vec<u8> = (0..segment_count * n * k).map(|_| rng.gen()).collect();
        self.run(n, k, segment_count, &aug, &coded, Fidelity::Timing)
    }

    fn run(
        &mut self,
        n: usize,
        k: usize,
        s_count: usize,
        aug_host: &[u8],
        coded_host: &[u8],
        fidelity: Fidelity,
    ) -> MultiDecodeOutcome {
        assert!(n.is_multiple_of(4) && k.is_multiple_of(4), "n and k must be multiples of 4");
        self.dev.reset();
        let aug = self.dev.alloc(s_count * n * 2 * n);
        let coded = self.dev.alloc(s_count * n * k);
        // The recovery output is a single-segment staging buffer: at
        // (n=512, k=32 KB, 30 segments) the coded matrix alone is 503 MB,
        // so a full-size output next to it would not fit the GTX 280's
        // 1 GiB. Each segment is recovered and downloaded in turn, exactly
        // as a memory-constrained deployment would stream results out.
        let out = self.dev.alloc(n * k);
        self.dev.upload(aug, aug_host);
        self.dev.upload(coded, coded_host);

        // ---- Stage 1: invert every C_s on the device.
        let invert = InvertKernel { aug, n, segments: s_count };
        // A sampled launch inverts only a sample of segments; the
        // augmented matrix then holds measurement garbage.
        let s1 = self.dev.launch_at(fidelity, &invert, invert.grid(), 2, &[aug]);

        // ---- Stage 1.5: gather the inverses into a dense matrix buffer
        // (device-side reshuffle; zero PCIe).
        let inv = self.dev.alloc(s_count * n * n);
        match fidelity {
            Fidelity::Functional => {
                let (aug_out, _) = self.dev.download(aug);
                let mut inv_host = vec![0u8; s_count * n * n];
                for s in 0..s_count {
                    for r in 0..n {
                        let off = s * n * 2 * n + r * 2 * n;
                        inv_host[s * n * n + r * n..s * n * n + (r + 1) * n]
                            .copy_from_slice(&aug_out[off + n..off + 2 * n]);
                    }
                }
                self.dev.poke(inv, &inv_host);
            }
            Fidelity::Timing => {
                // Synthetic dense inverse: statistically identical loop
                // iteration counts; stage-1 output is partial under
                // sampling.
                let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0FFEE);
                let inv_host: Vec<u8> =
                    (0..s_count * n * n).map(|_| rng.gen_range(1..=255)).collect();
                self.dev.poke(inv, &inv_host);
            }
        }

        // ---- Stage 2: b = C⁻¹ · x, the embarrassingly parallel recovery,
        // one segment at a time through the staging buffer.
        let mut recovered_host: Vec<Vec<u8>> = Vec::new();
        let stage2_s = match self.stage2 {
            Stage2Scheme::LoopBased => {
                let mut mul_s = 0.0;
                match fidelity {
                    Fidelity::Functional => {
                        for seg in 0..s_count {
                            let recover = RecoverKernel {
                                inv: inv.sub(seg * n * n, n * n),
                                coded: coded.sub(seg * n * k, n * k),
                                out,
                                n,
                                k,
                                segments: 1,
                            };
                            let st = self.dev.launch(&recover, recover.grid());
                            mul_s += st.elapsed_s;
                            recovered_host.push(self.dev.download(out).0);
                        }
                    }
                    Fidelity::Timing => {
                        let recover = RecoverKernel { inv, coded, out, n, k, segments: 1 };
                        let st = self.dev.launch_at(
                            Fidelity::Timing,
                            &recover,
                            recover.grid(),
                            MEASURE_SAMPLED_BLOCKS,
                            &[out],
                        );
                        mul_s = st.elapsed_s * s_count as f64;
                    }
                }
                mul_s
            }
            Stage2Scheme::TableBased => {
                // Preprocess C⁻¹ and x into the remapped log domain, then run
                // the Table-based-5 encoder per segment with C⁻¹ as the
                // coefficient matrix — decoding at encoding speed.
                let variant = TableVariant::Tb5;
                let tables = self.dev.alloc(variant.table_bytes().len());
                self.dev.poke(tables, &variant.table_bytes());
                let log_table = self.dev.alloc(256);
                self.dev.poke(log_table, &log_table_bytes(LogConvention::Remapped));

                // The log-domain transforms run IN PLACE: at (n=512,
                // k=32 KB, 30 segments) the coded matrix alone is 503 MB,
                // and the GTX 280's 1 GiB cannot hold a second copy next to
                // the recovery output.
                let coded_log = coded;
                let inv_log = inv;
                let kx = LogTransformKernel {
                    input: coded,
                    output: coded_log,
                    table: log_table,
                    len: s_count * n * k,
                };
                let sx = self.dev.launch_at(
                    fidelity,
                    &kx,
                    kx.grid(),
                    MEASURE_SAMPLED_BLOCKS,
                    &[coded_log],
                );
                if fidelity == Fidelity::Timing {
                    // Complete the transform host-side (see GpuEncoder):
                    // the stage-2 table kernel must observe real
                    // log-domain data for honest conflict measurement.
                    let host_log: Vec<u8> =
                        coded_host.iter().map(|&b| nc_gf256::logdomain::to_rlog(b) as u8).collect();
                    self.dev.poke(coded_log, &host_log);
                }
                let ki = LogTransformKernel {
                    input: inv,
                    output: inv_log,
                    table: log_table,
                    len: s_count * n * n,
                };
                let si = self.dev.launch(&ki, ki.grid());

                let mut mul_s = 0.0;
                match fidelity {
                    Fidelity::Functional => {
                        for seg in 0..s_count {
                            let kernel = TableEncodeKernel {
                                variant,
                                source: coded_log.sub(seg * n * k, n * k),
                                coeffs: inv_log.sub(seg * n * n, n * n),
                                output: out,
                                tables,
                                n,
                                k,
                                m: n,
                                sm_blocks: self.dev.spec().sm_count,
                                tb5_replicas: crate::encode_table::TB5_REPLICAS,
                            };
                            mul_s += self.dev.launch(&kernel, kernel.grid()).elapsed_s;
                            recovered_host.push(self.dev.download(out).0);
                        }
                    }
                    Fidelity::Timing => {
                        // One segment with a reduced row count, scaled: the
                        // multiplication cost is exactly linear in rows and
                        // segments (tested against full runs at small sizes).
                        let m_exec = n.min((MEASURE_TARGET_WORDS / (k / 4)).max(1));
                        let kernel = TableEncodeKernel {
                            variant,
                            source: coded_log.sub(0, n * k),
                            coeffs: inv_log.sub(0, n * n),
                            output: out,
                            tables,
                            n,
                            k,
                            m: m_exec,
                            sm_blocks: self.dev.spec().sm_count,
                            tb5_replicas: crate::encode_table::TB5_REPLICAS,
                        };
                        let t = self.dev.launch(&kernel, kernel.grid()).elapsed_s;
                        mul_s = t * (n as f64 / m_exec as f64) * s_count as f64;
                    }
                }
                sx.elapsed_s + si.elapsed_s + mul_s
            }
        };

        let recovered = match fidelity {
            Fidelity::Functional => Some(recovered_host),
            Fidelity::Timing => {
                // The staging buffer saw sampled/reduced launches only.
                self.dev.poison(out);
                None
            }
        };

        let stage1_s = s1.elapsed_s;
        let total = stage1_s + stage2_s;
        MultiDecodeOutcome {
            recovered,
            rate: (s_count * n * k) as f64 / total,
            stage1_share: stage1_s / total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_rlnc::{Decoder, Encoder};

    fn random_session(n: usize, k: usize, seed: u64) -> (Vec<u8>, Encoder, rand::rngs::StdRng) {
        let config = CodingConfig::new(n, k).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data: Vec<u8> = (0..config.segment_bytes()).map(|_| rng.gen()).collect();
        let enc = Encoder::new(Segment::from_bytes(config, data.clone()).unwrap());
        (data, enc, rng)
    }

    #[test]
    fn gpu_progressive_decoder_matches_reference() {
        let (data, enc, mut rng) = random_session(16, 128, 77);
        let config = CodingConfig::new(16, 128).unwrap();
        let mut gpu_dec = GpuProgressiveDecoder::new(
            DeviceSpec::gtx280(),
            config,
            DecodeOptions::default(),
            Fidelity::Functional,
        );
        let mut cpu_dec = Decoder::new(config);
        while !gpu_dec.is_complete() {
            let b = enc.encode(&mut rng);
            let gpu_innovative = gpu_dec.push(b.coefficients(), b.payload()).unwrap();
            let cpu_innovative = cpu_dec.push(b).unwrap();
            assert_eq!(gpu_innovative, cpu_innovative, "innovation disagreement");
        }
        assert_eq!(gpu_dec.recover().unwrap(), data);
        assert!(gpu_dec.kernel_seconds() > 0.0);
    }

    #[test]
    fn gpu_progressive_decoder_discards_dependent_blocks() {
        let (_, enc, mut rng) = random_session(8, 64, 78);
        let config = CodingConfig::new(8, 64).unwrap();
        let mut dec = GpuProgressiveDecoder::new(
            DeviceSpec::gtx280(),
            config,
            DecodeOptions::default(),
            Fidelity::Functional,
        );
        let b = enc.encode(&mut rng);
        assert!(dec.push(b.coefficients(), b.payload()).unwrap());
        assert!(!dec.push(b.coefficients(), b.payload()).unwrap());
        assert_eq!(dec.rank, 1);
    }

    #[test]
    fn decode_options_preserve_functionality() {
        for options in [
            DecodeOptions { use_atomic_min: true, cache_coefficients: false },
            DecodeOptions { use_atomic_min: false, cache_coefficients: true },
            DecodeOptions { use_atomic_min: true, cache_coefficients: true },
        ] {
            let (data, enc, mut rng) = random_session(8, 64, 79);
            let config = CodingConfig::new(8, 64).unwrap();
            let mut dec = GpuProgressiveDecoder::new(
                DeviceSpec::gtx280(),
                config,
                options,
                Fidelity::Functional,
            );
            while !dec.is_complete() {
                let b = enc.encode(&mut rng);
                dec.push(b.coefficients(), b.payload()).unwrap();
            }
            assert_eq!(dec.recover().unwrap(), data, "{options:?}");
        }
    }

    #[test]
    fn gpu_multi_decoder_recovers_segments() {
        let config = CodingConfig::new(8, 64).unwrap();
        let mut datas = Vec::new();
        let mut inputs = Vec::new();
        for s in 0..4 {
            let (data, enc, mut rng) = random_session(8, 64, 100 + s);
            // Gather exactly n innovative blocks.
            let mut ts = nc_rlnc::TwoStageDecoder::new(config);
            while !ts.is_full() {
                ts.push(enc.encode(&mut rng)).unwrap();
            }
            datas.push(data);
            inputs.push(ts.blocks().to_vec());
        }
        let mut dec = GpuMultiDecoder::new(DeviceSpec::gtx280());
        dec.dev.enable_sanitizer(SanitizerConfig::correctness_only());
        let outcome = dec.decode(config, &inputs);
        let recovered = outcome.recovered.unwrap();
        assert_eq!(recovered.len(), 4);
        for (got, want) in recovered.iter().zip(&datas) {
            assert_eq!(got, want);
        }
        assert!(outcome.stage1_share > 0.0 && outcome.stage1_share < 1.0);
        let report = dec.dev.sanitizer_report().unwrap();
        assert!(report.is_clean(), "multi-decoder not sanitizer-clean:\n{}", report.render());
    }

    #[test]
    fn encoder_functional_matches_reference_for_all_schemes() {
        let (data, enc, mut rng) = random_session(8, 64, 200);
        let config = CodingConfig::new(8, 64).unwrap();
        let segment = Segment::from_bytes(config, data).unwrap();
        let coeffs: Vec<Vec<u8>> =
            (0..5).map(|_| (0..8).map(|_| rng.gen_range(1..=255)).collect()).collect();
        let mut schemes = vec![EncodeScheme::LoopBased];
        schemes.extend(TableVariant::ALL.map(EncodeScheme::Table));
        for scheme in schemes {
            let mut gpu_enc = GpuEncoder::new(DeviceSpec::gtx280(), scheme);
            let (blocks, _) = gpu_enc.encode_blocks(&segment, &coeffs);
            for (j, b) in blocks.iter().enumerate() {
                let want = enc.encode_with_coefficients(coeffs[j].clone()).unwrap();
                assert_eq!(b.payload(), want.payload(), "{scheme:?} block {j}");
            }
        }
    }

    #[test]
    fn measurement_scales_consistently_with_full_runs() {
        // The m-reduction + sampling machinery must agree with a full run
        // at sizes where both are feasible.
        // Both runs must saturate the 30-SM grid, otherwise throughput
        // legitimately scales with the block count.
        let mut enc = GpuEncoder::new(DeviceSpec::gtx280(), EncodeScheme::LoopBased);
        let full = enc.measure(16, 1024, 60, 1);
        let mut enc2 = GpuEncoder::new(DeviceSpec::gtx280(), EncodeScheme::LoopBased);
        let scaled = enc2.measure(16, 1024, 240, 1);
        let ratio = scaled.rate / full.rate;
        assert!(
            (0.8..1.25).contains(&ratio),
            "m-scaling should not change throughput materially: {ratio}"
        );
    }
}
