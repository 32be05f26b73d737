//! Parallel multi-segment decoding — the paper's Sec. 5.2.
//!
//! When coded blocks from many segments are available (Avalanche-style bulk
//! distribution, or a VoD peer buffering several segments), the decoding
//! parallelism grows linearly with the segment count. Each SM decodes whole
//! segments by itself, which removes the duplicated coefficient processing
//! of the single-segment scheme — but the original one-thread-per-column
//! assignment no longer fits in a block, so decoding splits into:
//!
//! * **Stage 1** ([`InvertKernel`]): Gauss-Jordan elimination on the
//!   aggregate `[C | I]` to produce `C⁻¹`, one (or two) segments per SM.
//!   The GPU is under-utilized here — small matrix, serial row operations —
//!   exactly as the paper says; running two inversions per SM
//!   (the "6-seg" configuration) raises utilization by up to 1.4×.
//! * **Stage 2** ([`RecoverKernel`]): `b = C⁻¹ · x`, a matrix
//!   multiplication with the same embarrassing parallelism as encoding.

use nc_gf256::scalar;
use nc_gf256::wide::{loop_mul_cost, mul_word32};
use nc_gpu_sim::{DeviceBuffer, GridConfig, Kernel, LaunchCtx};

use crate::costs;

/// Stage 1: per-segment Gauss-Jordan inversion of the coefficient matrix on
/// the augmented `[C | I]`.
///
/// Layout: `aug` holds `segments` consecutive `n × 2n` byte matrices; the
/// left half starts as `C_s`, the right half as the identity. After the
/// launch the right half of each is `C_s⁻¹`.
#[derive(Debug, Clone, Copy)]
pub struct InvertKernel {
    /// The augmented matrices (`segments × n × 2n` bytes).
    pub aug: DeviceBuffer,
    /// Generation size (multiple of 4).
    pub n: usize,
    /// Number of segments (= thread blocks).
    pub segments: usize,
}

impl InvertKernel {
    /// Launch geometry: one block per segment, one thread per word of one
    /// row of `[C | I]`. The pivot row is re-read from device memory by
    /// every elimination (the paper reserves shared-memory caching tricks
    /// for the single-segment decoder, Sec. 5.4.3) — with only a couple of
    /// resident warps this keeps stage 1 latency-bound, exactly the
    /// under-utilization Sec. 5.2 describes.
    pub fn grid(&self) -> GridConfig {
        let threads = (2 * self.n / 4).min(512);
        GridConfig {
            blocks: self.segments,
            threads_per_block: threads,
            shared_bytes: 128, // pivot-search scratch
        }
    }
}

impl Kernel for InvertKernel {
    fn run_block(&self, ctx: &mut dyn LaunchCtx) {
        assert!(self.n.is_multiple_of(4));
        let s = ctx.block_idx();
        let ws = ctx.spec().warp_size;
        let n = self.n;
        let row_words = 2 * n / 4;
        let base_addr = |row: usize, word: usize| -> u64 {
            self.aug.addr(s * n * 2 * n + row * 2 * n + word * 4)
        };

        let mut addrs = [0u64; 32];
        let mut saddrs = [0u64; 32];
        let mut vals = [0u32; 32];

        // Helper to load/store one full row with warp-granular ops.
        for col in 0..n {
            // ---- Pivot search down column `col`: scattered byte loads
            // with a 2n stride — uncoalesced, the serial heart of stage 1.
            let mut pivot_row = None;
            for chunk in (col..n).step_by(ws) {
                let lanes = (n - chunk).min(ws);
                for lane in 0..lanes {
                    addrs[lane] = self.aug.addr(s * n * 2 * n + (chunk + lane) * 2 * n + col);
                }
                let mut bytes = [0u8; 32];
                ctx.ld_global_u8(&addrs[..lanes], &mut bytes[..lanes]);
                ctx.alu(costs::PIVOT_SCAN_ALU_PER_WORD);
                if pivot_row.is_none() {
                    pivot_row = bytes[..lanes].iter().position(|&b| b != 0).map(|off| chunk + off);
                }
                if pivot_row.is_some() {
                    break;
                }
            }
            ctx.sync();
            let Some(pr) = pivot_row else {
                // Singular coefficient matrix: the host rejects dependent
                // blocks before scheduling, so this only happens on corrupt
                // input; mark by leaving the matrix unreduced.
                continue;
            };

            // ---- Swap pivot row into place (row `col`) if needed.
            if pr != col {
                for base in (0..row_words).step_by(ws) {
                    let lanes = (row_words - base).min(ws);
                    for lane in 0..lanes {
                        addrs[lane] = base_addr(pr, base + lane);
                        saddrs[lane] = base_addr(col, base + lane);
                    }
                    let mut a = [0u32; 32];
                    let mut b = [0u32; 32];
                    ctx.ld_global_u32(&addrs[..lanes], &mut a[..lanes]);
                    ctx.ld_global_u32(&saddrs[..lanes], &mut b[..lanes]);
                    ctx.st_global_u32(&addrs[..lanes], &b[..lanes]);
                    ctx.st_global_u32(&saddrs[..lanes], &a[..lanes]);
                }
                ctx.sync();
            }

            // ---- Normalize the pivot row in place.
            let lead = {
                let w = ctx.peek_global_u32(base_addr(col, col / 4));
                (w >> ((col % 4) * 8)) as u8
            };
            ctx.alu(costs::PIVOT_INVERSE);
            let inv = scalar::inv(lead);
            if inv != 1 {
                for base in (0..row_words).step_by(ws) {
                    let lanes = (row_words - base).min(ws);
                    for lane in 0..lanes {
                        addrs[lane] = base_addr(col, base + lane);
                    }
                    ctx.ld_global_u32(&addrs[..lanes], &mut vals[..lanes]);
                    for v in vals[..lanes].iter_mut() {
                        *v = mul_word32(inv, *v);
                    }
                    let (iters, _) = loop_mul_cost(inv);
                    ctx.alu(costs::loop_mul_charge(iters));
                    ctx.st_global_u32(&addrs[..lanes], &vals[..lanes]);
                }
            }
            ctx.sync();

            // ---- Eliminate `col` from every other row (Jordan step).
            for row in 0..n {
                if row == col {
                    continue;
                }
                let factor = {
                    let w = ctx.peek_global_u32(base_addr(row, col / 4));
                    (w >> ((col % 4) * 8)) as u8
                };
                ctx.alu(costs::DECODE_ROW_SETUP);
                if factor == 0 {
                    continue;
                }
                for base in (0..row_words).step_by(ws) {
                    let lanes = (row_words - base).min(ws);
                    for lane in 0..lanes {
                        addrs[lane] = base_addr(row, base + lane);
                        saddrs[lane] = base_addr(col, base + lane);
                    }
                    ctx.ld_global_u32(&addrs[..lanes], &mut vals[..lanes]);
                    let mut pivot_vals = [0u32; 32];
                    ctx.ld_global_u32(&saddrs[..lanes], &mut pivot_vals[..lanes]);
                    for lane in 0..lanes {
                        vals[lane] ^= mul_word32(factor, pivot_vals[lane]);
                    }
                    let (iters, _) = loop_mul_cost(factor);
                    ctx.alu(costs::loop_mul_charge(iters));
                    ctx.st_global_u32(&addrs[..lanes], &vals[..lanes]);
                }
            }
            ctx.sync();
        }
    }
}

/// Stage 2: `b_s = C_s⁻¹ · x_s` for every segment — the encode-shaped
/// recovery multiplication.
///
/// Layout: `inv` holds `segments × n × n` coefficient bytes (each segment's
/// `C⁻¹`), `coded` holds `segments × n × k` coded payloads, `out` receives
/// `segments × n × k` recovered source bytes.
#[derive(Debug, Clone, Copy)]
pub struct RecoverKernel {
    /// Inverted coefficient matrices.
    pub inv: DeviceBuffer,
    /// Coded payload matrices.
    pub coded: DeviceBuffer,
    /// Recovered output.
    pub out: DeviceBuffer,
    /// Generation size (multiple of 4).
    pub n: usize,
    /// Block size in bytes (multiple of 4).
    pub k: usize,
    /// Segment count.
    pub segments: usize,
}

/// Threads per block for the recovery multiplication.
pub const RECOVER_BLOCK_THREADS: usize = 256;

impl RecoverKernel {
    /// Launch geometry: one thread per output word across all segments.
    pub fn grid(&self) -> GridConfig {
        let words = self.segments * self.n * self.k / 4;
        GridConfig {
            blocks: words.div_ceil(RECOVER_BLOCK_THREADS),
            threads_per_block: RECOVER_BLOCK_THREADS,
            shared_bytes: 0,
        }
    }
}

impl Kernel for RecoverKernel {
    fn run_block(&self, ctx: &mut dyn LaunchCtx) {
        assert!(self.n.is_multiple_of(4) && self.k.is_multiple_of(4));
        let kw = self.k / 4;
        let words_per_seg = self.n * kw;
        let total = self.segments * words_per_seg;
        let bt = ctx.block_threads();
        let ws = ctx.spec().warp_size;

        let mut lane_seg = [0usize; 32];
        let mut lane_row = [0usize; 32];
        let mut lane_w = [0usize; 32];
        let mut addrs = [0u64; 32];
        let mut vals = [0u32; 32];
        let mut acc = [0u32; 32];
        let mut coeff_words = [0u32; 32];

        for warp in 0..ctx.warps() {
            ctx.at_warp(warp);
            let base = ctx.block_idx() * bt + warp * ws;
            let lanes = ctx.lanes_in_warp(warp).min(total.saturating_sub(base));
            if lanes == 0 {
                continue;
            }
            for lane in 0..lanes {
                let id = base + lane;
                lane_seg[lane] = id / words_per_seg;
                lane_row[lane] = (id % words_per_seg) / kw;
                lane_w[lane] = id % kw;
                acc[lane] = 0;
            }

            for i in 0..self.n {
                if i % 4 == 0 {
                    let mut prev = (usize::MAX, usize::MAX);
                    for lane in 0..lanes {
                        let key = (lane_seg[lane], lane_row[lane]);
                        if key != prev {
                            prev = key;
                            coeff_words[lane] = ctx.ld_global_u32_broadcast(
                                self.inv.addr((key.0 * self.n + key.1) * self.n + i),
                            );
                        } else {
                            coeff_words[lane] = coeff_words[lane - 1];
                        }
                    }
                }
                ctx.alu(costs::COEFF_EXTRACT);

                for lane in 0..lanes {
                    addrs[lane] =
                        self.coded.addr((lane_seg[lane] * self.n + i) * self.k + lane_w[lane] * 4);
                }
                ctx.ld_global_u32(&addrs[..lanes], &mut vals[..lanes]);

                let mut max_iters = 0u32;
                for lane in 0..lanes {
                    let c = (coeff_words[lane] >> ((i % 4) * 8)) as u8;
                    let (iters, _) = loop_mul_cost(c);
                    max_iters = max_iters.max(iters);
                    acc[lane] ^= mul_word32(c, vals[lane]);
                }
                ctx.alu(costs::loop_mul_charge(max_iters));
            }

            for lane in 0..lanes {
                addrs[lane] = self
                    .out
                    .addr((lane_seg[lane] * self.n + lane_row[lane]) * self.k + lane_w[lane] * 4);
            }
            ctx.alu(1);
            ctx.st_global_u32(&addrs[..lanes], &acc[..lanes]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_gpu_sim::{DeviceSpec, Gpu};
    use nc_rlnc::GfMatrix;
    use rand::{Rng, SeedableRng};

    #[test]
    fn invert_kernel_matches_host_inversion() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let n = 16usize;
        let segments = 3usize;
        let mut gpu = Gpu::new(DeviceSpec::gtx280());
        let aug = gpu.alloc(segments * n * 2 * n);

        let mut mats = Vec::new();
        let mut host = vec![0u8; segments * n * 2 * n];
        for s in 0..segments {
            let m = loop {
                let cand = GfMatrix::random_dense(n, &mut rng);
                if cand.rank() == n {
                    break cand;
                }
            };
            for r in 0..n {
                let off = s * n * 2 * n + r * 2 * n;
                host[off..off + n].copy_from_slice(m.row(r));
                host[off + n + r] = 1;
            }
            mats.push(m);
        }
        gpu.upload(aug, &host);
        let kernel = InvertKernel { aug, n, segments };
        gpu.launch(&kernel, kernel.grid());
        let (out, _) = gpu.download(aug);
        for (s, m) in mats.iter().enumerate() {
            let want = m.invert().unwrap();
            for r in 0..n {
                let off = s * n * 2 * n + r * 2 * n;
                assert_eq!(&out[off + n..off + 2 * n], want.row(r), "segment {s} row {r}");
                // Left half must be the identity.
                for c in 0..n {
                    assert_eq!(out[off + c], u8::from(c == r), "identity check");
                }
            }
        }
    }

    #[test]
    fn recover_kernel_matches_host_matmul() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let (n, k, segments) = (8usize, 64usize, 2usize);
        let mut gpu = Gpu::new(DeviceSpec::gtx280());
        let inv = gpu.alloc(segments * n * n);
        let coded = gpu.alloc(segments * n * k);
        let out = gpu.alloc(segments * n * k);

        let hinv: Vec<u8> = (0..segments * n * n).map(|_| rng.gen()).collect();
        let hcoded: Vec<u8> = (0..segments * n * k).map(|_| rng.gen()).collect();
        gpu.upload(inv, &hinv);
        gpu.upload(coded, &hcoded);
        let kernel = RecoverKernel { inv, coded, out, n, k, segments };
        gpu.launch(&kernel, kernel.grid());
        let (got, _) = gpu.download(out);

        for s in 0..segments {
            let a = GfMatrix::from_flat(n, n, hinv[s * n * n..(s + 1) * n * n].to_vec()).unwrap();
            let x = GfMatrix::from_flat(n, k, hcoded[s * n * k..(s + 1) * n * k].to_vec()).unwrap();
            let want = a.mul(&x).unwrap();
            assert_eq!(&got[s * n * k..(s + 1) * n * k], want.as_flat(), "segment {s}");
        }
    }

    #[test]
    fn stage_one_starves_the_gpu_at_small_n() {
        // The stage-1 inversion runs a handful of warps per SM — its
        // exposed-latency share should dominate its execution.
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let n = 32usize;
        let mut gpu = Gpu::new(DeviceSpec::gtx280());
        let aug = gpu.alloc(30 * n * 2 * n);
        let mut host = vec![0u8; 30 * n * 2 * n];
        for s in 0..30 {
            for r in 0..n {
                let off = s * n * 2 * n + r * 2 * n;
                for c in 0..n {
                    host[off + c] = rng.gen_range(1..=255);
                }
                host[off + n + r] = 1;
            }
        }
        gpu.upload(aug, &host);
        let kernel = InvertKernel { aug, n, segments: 30 };
        let stats = gpu.launch(&kernel, kernel.grid());
        assert!(stats.resident_warps_per_sm < 24, "stage 1 must be occupancy-starved");
    }
}
