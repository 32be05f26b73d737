//! Loop-based parallel encoding — the paper's Sec. 4.2.1 / Fig. 2.
//!
//! One thread produces one 4-byte word of one coded block by walking all
//! `n` source blocks with loop-based GF multiplication. Thread blocks of
//! 256 threads each generate 1 KiB of coded data. The partitioning gives:
//!
//! * **coefficient broadcast** — all threads of a warp work on the same
//!   coded block (whenever `k/4 ≥ 32`), so the coefficient word load is a
//!   single broadcast transaction;
//! * **coalesced source/coded streams** — lane `l` touches word `w + l`,
//!   so each half-warp's loads fall in one 64-byte segment.

use nc_gf256::wide::{loop_mul_cost, mul_word32};
use nc_gpu_sim::{DeviceBuffer, GridConfig, Kernel, LaunchCtx};

use crate::costs;

/// Device-memory layout of the source-blocks matrix — the coalescing
/// ablation. The paper's Fig. 2 partitioning depends on row-major storage
/// so that a warp's lane `l` reads word `w + l` of one block (one 64-byte
/// transaction per half-warp); a column-major layout strides lane accesses
/// by `n` words and decomposes every load into 16 transactions.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum SourceLayout {
    /// Blocks stored contiguously (`source[i][w]` at `i·k + 4w`) — the
    /// paper's layout.
    #[default]
    RowMajor,
    /// Word-interleaved storage (`source[i][w]` at `(w·n + i)·4`) — the
    /// anti-coalescing ablation.
    ColumnMajor,
}

impl SourceLayout {
    /// Byte address of word `w` of source block `i`.
    #[inline]
    pub fn addr(self, buf: DeviceBuffer, n: usize, k: usize, i: usize, w: usize) -> u64 {
        match self {
            SourceLayout::RowMajor => buf.addr(i * k + w * 4),
            SourceLayout::ColumnMajor => {
                let _ = k;
                buf.addr((w * n + i) * 4)
            }
        }
    }

    /// Transposes a row-major `n × k` source into this layout (host-side
    /// preparation for uploads).
    pub fn arrange(self, data: &[u8], n: usize, k: usize) -> Vec<u8> {
        assert_eq!(data.len(), n * k);
        match self {
            SourceLayout::RowMajor => data.to_vec(),
            SourceLayout::ColumnMajor => {
                let mut out = vec![0u8; n * k];
                for i in 0..n {
                    for w in 0..k / 4 {
                        out[(w * n + i) * 4..(w * n + i) * 4 + 4]
                            .copy_from_slice(&data[i * k + w * 4..i * k + w * 4 + 4]);
                    }
                }
                out
            }
        }
    }
}

/// Threads per block for the Fig. 2 partitioning.
pub const ENCODE_BLOCK_THREADS: usize = 256;

/// The loop-based encoding kernel.
///
/// Layout: `source` is `n` rows × `k` bytes; `coeffs` is `m` rows × `n`
/// bytes; `output` is `m` rows × `k` bytes; all row-major.
///
/// `dummy_input` reproduces the paper's Sec. 4.4 benchmark that generates
/// source words and coefficients on the fly instead of reading device
/// memory, quantifying how completely the partitioning hides memory access
/// (the paper measures a 0.5% difference).
#[derive(Debug, Clone, Copy)]
pub struct LoopEncodeKernel {
    /// Source blocks matrix (`n × k`).
    pub source: DeviceBuffer,
    /// Coefficient matrix (`m × n`).
    pub coeffs: DeviceBuffer,
    /// Coded output matrix (`m × k`).
    pub output: DeviceBuffer,
    /// Blocks per generation.
    pub n: usize,
    /// Block size in bytes (multiple of 4).
    pub k: usize,
    /// Coded blocks to generate.
    pub m: usize,
    /// Skip memory for inputs, synthesizing them in registers (Sec. 4.4).
    pub dummy_input: bool,
    /// Source-matrix layout (coalescing ablation; see [`SourceLayout`]).
    pub layout: SourceLayout,
}

impl LoopEncodeKernel {
    /// The launch geometry for this kernel: one thread per output word.
    pub fn grid(&self) -> GridConfig {
        let words = self.m * self.k / 4;
        GridConfig {
            blocks: words.div_ceil(ENCODE_BLOCK_THREADS),
            threads_per_block: ENCODE_BLOCK_THREADS,
            shared_bytes: 0,
        }
    }

    fn check(&self) {
        assert!(self.k.is_multiple_of(4), "block size must be a multiple of 4 bytes");
        assert!(self.n.is_multiple_of(4), "generation size must be a multiple of 4");
        assert!(self.m > 0 && self.n > 0 && self.k > 0);
    }
}

/// Synthesizes a deterministic "input" word for the dummy benchmark.
#[inline]
fn dummy_word(seed: u64) -> u32 {
    (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as u32 | 1
}

impl Kernel for LoopEncodeKernel {
    fn run_block(&self, ctx: &mut dyn LaunchCtx) {
        self.check();
        let kw = self.k / 4; // words per coded block
        let total_words = self.m * kw;
        let bt = ctx.block_threads();

        let mut lane_j = [0usize; 32];
        let mut lane_w = [0usize; 32];
        let mut src_addrs = [0u64; 32];
        let mut src_vals = [0u32; 32];
        let mut acc = [0u32; 32];
        let mut out_addrs = [0u64; 32];

        for warp in 0..ctx.warps() {
            ctx.at_warp(warp);
            let base = ctx.block_idx() * bt + warp * ctx.spec().warp_size;
            let lanes = ctx.lanes_in_warp(warp).min(total_words.saturating_sub(base));
            if lanes == 0 {
                continue;
            }
            for lane in 0..lanes {
                let id = base + lane;
                lane_j[lane] = id / kw;
                lane_w[lane] = id % kw;
                acc[lane] = 0;
            }

            // Cached coefficient words, one per distinct coded block touched
            // by this warp (usually exactly one thanks to the partitioning).
            let mut coeff_words = [0u32; 32];

            for i in 0..self.n {
                // Every fourth source index, (re)load the coefficient word
                // for each distinct coded block via memory broadcast.
                if i % 4 == 0 {
                    let mut prev_j = usize::MAX;
                    for lane in 0..lanes {
                        let j = lane_j[lane];
                        if j != prev_j {
                            prev_j = j;
                            let w = if self.dummy_input {
                                ctx.alu(1);
                                dummy_word((j * self.n + i) as u64)
                            } else {
                                ctx.ld_global_u32_broadcast(self.coeffs.addr(j * self.n + i))
                            };
                            coeff_words[lane] = w;
                        } else {
                            coeff_words[lane] = coeff_words[lane - 1];
                        }
                    }
                }
                // The coefficient-byte extract is folded into the
                // multiply's predicated setup (hand-optimized PTX).

                // Load one source word per lane (coalesced).
                if self.dummy_input {
                    // Same issue-slot count as the load it replaces; the
                    // saving is purely the memory traffic.
                    ctx.alu(1);
                    for lane in 0..lanes {
                        src_vals[lane] = dummy_word((i * kw + lane_w[lane]) as u64);
                    }
                } else {
                    for lane in 0..lanes {
                        src_addrs[lane] =
                            self.layout.addr(self.source, self.n, self.k, i, lane_w[lane]);
                    }
                    ctx.ld_global_u32(&src_addrs[..lanes], &mut src_vals[..lanes]);
                }

                // SIMT loop-based multiply-accumulate: the warp executes as
                // many iterations as its slowest lane's coefficient needs.
                let mut max_iters = 0u32;
                for lane in 0..lanes {
                    let c = (coeff_words[lane] >> ((i % 4) * 8)) as u8;
                    let (iters, _) = loop_mul_cost(c);
                    max_iters = max_iters.max(iters);
                    acc[lane] ^= mul_word32(c, src_vals[lane]);
                }
                ctx.alu(costs::loop_mul_charge(max_iters));
            }

            // Store the coded words (coalesced).
            for lane in 0..lanes {
                out_addrs[lane] = self.output.addr(lane_j[lane] * self.k + lane_w[lane] * 4);
            }
            ctx.alu(1); // output address computation
            ctx.st_global_u32(&out_addrs[..lanes], &acc[..lanes]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_gpu_sim::{DeviceSpec, Gpu};
    use nc_rlnc::{CodingConfig, Encoder, Segment};
    use rand::{Rng, SeedableRng};

    /// Runs the kernel and checks every coded block against the CPU
    /// reference encoder.
    fn roundtrip(n: usize, k: usize, m: usize, seed: u64) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let config = CodingConfig::new(n, k).unwrap();
        let data: Vec<u8> = (0..config.segment_bytes()).map(|_| rng.gen()).collect();
        let coeff_rows: Vec<Vec<u8>> =
            (0..m).map(|_| (0..n).map(|_| rng.gen_range(1..=255)).collect()).collect();

        let mut gpu = Gpu::new(DeviceSpec::gtx280());
        let source = gpu.alloc(n * k);
        let coeffs = gpu.alloc(m * n);
        let output = gpu.alloc(m * k);
        gpu.upload(source, &data);
        let flat: Vec<u8> = coeff_rows.concat();
        gpu.upload(coeffs, &flat);

        let kernel = LoopEncodeKernel {
            source,
            coeffs,
            output,
            n,
            k,
            m,
            dummy_input: false,
            layout: SourceLayout::RowMajor,
        };
        let stats = gpu.launch(&kernel, kernel.grid());
        assert!(stats.elapsed_s > 0.0);

        let encoder = Encoder::new(Segment::from_bytes(config, data).unwrap());
        let (coded, _) = gpu.download(output);
        for (j, row) in coeff_rows.iter().enumerate() {
            let want = encoder.encode_with_coefficients(row.clone()).unwrap();
            assert_eq!(
                &coded[j * k..(j + 1) * k],
                want.payload(),
                "coded block {j} mismatch at n={n} k={k}"
            );
        }
    }

    #[test]
    fn matches_cpu_reference_small() {
        roundtrip(8, 64, 5, 1);
    }

    #[test]
    fn matches_cpu_reference_with_sub_warp_blocks() {
        // k/4 = 8 < 32: warps straddle coded-block boundaries, exercising
        // the multi-j coefficient grouping.
        roundtrip(4, 32, 9, 2);
    }

    #[test]
    fn matches_cpu_reference_medium() {
        roundtrip(16, 256, 16, 3);
    }

    #[test]
    fn encode_is_compute_bound_like_the_paper() {
        let mut gpu = Gpu::new(DeviceSpec::gtx280());
        let (n, k, m) = (128, 1024, 8);
        let source = gpu.alloc(n * k);
        let coeffs = gpu.alloc(m * n);
        let output = gpu.alloc(m * k);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let data: Vec<u8> = (0..n * k).map(|_| rng.gen()).collect();
        gpu.upload(source, &data);
        let cs: Vec<u8> = (0..m * n).map(|_| rng.gen_range(1..=255)).collect();
        gpu.upload(coeffs, &cs);
        let kernel = LoopEncodeKernel {
            source,
            coeffs,
            output,
            n,
            k,
            m,
            dummy_input: false,
            layout: SourceLayout::RowMajor,
        };
        let stats = gpu.launch_sampled(&kernel, kernel.grid(), 8);
        assert!(stats.is_compute_bound(), "loop encoding must be compute-bound");
        // Memory demand far below the bandwidth limit (paper: 20.9 GB/s of
        // 141.7 GB/s).
        assert!(stats.memory_cycles * 3 < stats.compute_cycles);
    }

    #[test]
    fn dummy_input_changes_throughput_marginally() {
        // Sec. 4.4: generating inputs on the fly instead of loading them
        // improves performance by only ~0.5% — memory access is hidden.
        let run = |dummy: bool| {
            let mut gpu = Gpu::new(DeviceSpec::gtx280());
            let (n, k, m) = (128, 1024, 8);
            let source = gpu.alloc(n * k);
            let coeffs = gpu.alloc(m * n);
            let output = gpu.alloc(m * k);
            if !dummy {
                let mut rng = rand::rngs::StdRng::seed_from_u64(7);
                let data: Vec<u8> = (0..n * k).map(|_| rng.gen()).collect();
                gpu.upload(source, &data);
                let cs: Vec<u8> = (0..m * n).map(|_| rng.gen_range(1..=255)).collect();
                gpu.upload(coeffs, &cs);
            }
            let kernel = LoopEncodeKernel {
                source,
                coeffs,
                output,
                n,
                k,
                m,
                dummy_input: dummy,
                layout: SourceLayout::RowMajor,
            };
            gpu.launch_sampled(&kernel, kernel.grid(), 8).elapsed_s
        };
        let with_mem = run(false);
        let without_mem = run(true);
        assert!(without_mem <= with_mem);
        let gain = (with_mem - without_mem) / with_mem;
        assert!(gain < 0.05, "memory should be almost perfectly hidden, gain {gain}");
    }
}
