//! Single-segment progressive Gauss-Jordan decoding — the paper's
//! Sec. 4.2.2 / Fig. 3.
//!
//! Gauss-Jordan elimination parallelizes only *within* the processing of
//! one received coded block, and CUDA offers no global synchronization, so
//! the paper partitions the aggregate `[C | x]` by thread block: the data
//! part of every row is split across the 30 SMs, while each block keeps a
//! **private copy of the coefficient part** so the pivot search can use the
//! per-block `__syncthreads()`. One kernel launch processes one received
//! coded block; each thread owns one 4-byte column. This leaves the GPU
//! starved — `(n + k/30)/4` threads per SM is a handful of warps — which is
//! exactly the paper's explanation for why single-segment GPU decoding
//! loses to the CPU at small block sizes.
//!
//! Two refinements from Sec. 5.4 are selectable via [`DecodeOptions`]:
//! the `atomicMin` pivot search (~0.6%) and the aggressive shared-memory
//! caching of the private coefficient matrix (0.5%–3.4%, most at small k).

use nc_gf256::scalar;
use nc_gf256::wide::{loop_mul_cost, mul_word32};
use nc_gpu_sim::{BlockCtx, DeviceBuffer, GridConfig, Kernel};

use crate::costs;

/// Sentinel stored in the result word when the incoming block reduced to
/// all-zero coefficients (linearly dependent).
pub(crate) const NO_PIVOT: u32 = u32::MAX;

/// Shared-memory bytes reserved for the pivot-search scratch, kept disjoint
/// from the coefficient cache so scratch writes cannot corrupt cached rows.
pub(crate) const PIVOT_SCRATCH_BYTES: usize = 128;

/// Tuning switches for the progressive decoder (Sec. 5.4).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct DecodeOptions {
    /// Use `atomicMin` on shared memory for the pivot search instead of a
    /// log-step reduction tree. Requires device support (GTX 280: yes,
    /// 8800 GT: no).
    pub use_atomic_min: bool,
    /// Cache each block's private coefficient matrix in shared memory.
    /// Only possible when `n × n` bytes fit alongside the rest (n ≤ 128 on
    /// 16 KiB parts), as the paper notes.
    pub cache_coefficients: bool,
}

/// One decoding step: absorb one received coded block into the per-SM
/// `[C | x]` state. Launched once per received block.
#[derive(Debug, Clone)]
pub(crate) struct DecodeStepKernel {
    /// Per-SM row storage: `sm_blocks × n` rows of
    /// `DecodeStepKernel::row_stride_words` words each (private
    /// coefficient copy first, data partition second).
    pub(crate) rows: DeviceBuffer,
    /// The incoming coded block: `n` coefficient bytes then `k` payload.
    pub(crate) incoming: DeviceBuffer,
    /// One result word: the pivot column claimed, or [`NO_PIVOT`].
    pub(crate) result: DeviceBuffer,
    /// Generation size (multiple of 4).
    pub(crate) n: usize,
    /// Block size in bytes (multiple of 4).
    pub(crate) k: usize,
    /// Number of thread blocks = SMs (Fig. 3: one block per SM).
    pub(crate) sm_blocks: usize,
    /// Rows already absorbed (the rank before this step).
    pub(crate) rank: usize,
    /// Pivot columns of the absorbed rows, in row order.
    pub(crate) pivot_cols: Vec<u32>,
    /// Sec. 5.4 switches.
    pub(crate) options: DecodeOptions,
}

impl DecodeStepKernel {
    /// Data words in each block's partition (independent of `n`; the
    /// coefficient part is fully replicated per block).
    pub(crate) fn partition_words(_n: usize, k: usize, sm_blocks: usize) -> usize {
        (k / 4).div_ceil(sm_blocks)
    }

    /// Words per stored row (private coefficient copy + data partition).
    pub(crate) fn row_stride_words(&self) -> usize {
        self.n / 4 + Self::partition_words(self.n, self.k, self.sm_blocks)
    }

    /// Launch geometry: one thread per word of `[C_s | x_s]`, one block
    /// per SM; the coefficient cache claims as much shared memory as the
    /// device can give after the pivot scratch (at n = 128 the full matrix
    /// is 16,384 B against the 16 KiB SM minus launch bookkeeping, so the
    /// last rows stay uncached — the squeeze the paper describes as "a
    /// number of creative techniques"). The [`PIVOT_SCRATCH_BYTES`] scratch
    /// region sits *after* the cache; giving it its own bytes keeps the
    /// pivot-search stores from clobbering row 0's cached coefficients.
    ///
    /// # Panics
    ///
    /// Panics if a row does not fit the 512-thread block limit (the paper's
    /// scheme shares this constraint; it is what motivates Sec. 5.2).
    pub(crate) fn grid(&self, spec: &nc_gpu_sim::DeviceSpec) -> GridConfig {
        let threads = self.row_stride_words();
        assert!(threads <= 512, "row of {threads} words exceeds one thread block");
        let shared = if self.options.cache_coefficients {
            let usable = spec.shared_mem_usable() - PIVOT_SCRATCH_BYTES;
            let rows_that_fit = (usable / self.n).min(self.n);
            rows_that_fit * self.n + PIVOT_SCRATCH_BYTES
        } else {
            PIVOT_SCRATCH_BYTES // pivot-search scratch only
        };
        GridConfig { blocks: self.sm_blocks, threads_per_block: threads, shared_bytes: shared }
    }

    /// Charges one warp-wide loop-based multiply by a single factor byte.
    fn charge_mul_warp(ctx: &mut BlockCtx<'_>, factor: u8) {
        let (iters, _) = loop_mul_cost(factor);
        ctx.alu(costs::loop_mul_charge(iters));
    }
}

impl Kernel for DecodeStepKernel {
    fn run_block(&self, ctx: &mut BlockCtx<'_>) {
        assert!(self.n.is_multiple_of(4) && self.k.is_multiple_of(4));
        assert_eq!(self.pivot_cols.len(), self.rank, "pivot list out of sync");
        let s = ctx.block_idx();
        let ws = ctx.spec().warp_size;
        let n = self.n;
        let kw = self.k / 4;
        let kbw = Self::partition_words(n, self.k, self.sm_blocks);
        let data_start = (s * kbw).min(kw);
        let data_words = kw.saturating_sub(data_start).min(kbw);
        let coeff_words = n / 4;
        let row_words = coeff_words + data_words;
        let stride = self.row_stride_words();
        let cache = self.options.cache_coefficients;
        // Rows whose private coefficient copy fits the shared-memory cache
        // (all of them for small n; a few short at exactly n = 128). The
        // pivot scratch lives after the cache region.
        let shared_len = ctx.shared_slice().len();
        let cached_rows =
            if cache { (shared_len.saturating_sub(PIVOT_SCRATCH_BYTES) / n).min(n) } else { 0 };
        let scratch_base = shared_len - PIVOT_SCRATCH_BYTES;

        let row_addr =
            |row: usize, word: usize| self.rows.addr(((s * n + row) * stride + word) * 4);
        let coeff_byte = |w: &[u32], col: usize| -> u8 { (w[col / 4] >> ((col % 4) * 8)) as u8 };

        let mut addrs = [0u64; 32];
        let mut saddrs = [0u64; 32];
        let mut vals = [0u32; 32];

        // ---- Phase 0 (cache variant): stage the absorbed rows' private
        // coefficient copies into shared memory.
        if cache {
            for e in 0..self.rank.min(cached_rows) {
                for base in (0..coeff_words).step_by(ws) {
                    ctx.at_warp(base / ws);
                    let lanes = (coeff_words - base).min(ws);
                    for lane in 0..lanes {
                        addrs[lane] = row_addr(e, base + lane);
                        saddrs[lane] = ((e * coeff_words + base + lane) * 4) as u64;
                    }
                    ctx.ld_global_u32(&addrs[..lanes], &mut vals[..lanes]);
                    ctx.alu(1);
                    ctx.st_shared_u32(&saddrs[..lanes], &vals[..lanes]);
                }
            }
            ctx.sync();
        }

        // ---- Load the incoming row into registers (one word per thread).
        let mut working = vec![0u32; row_words];
        for base in (0..row_words).step_by(ws) {
            ctx.at_warp(base / ws);
            let lanes = (row_words - base).min(ws);
            for lane in 0..lanes {
                let t = base + lane;
                addrs[lane] = if t < coeff_words {
                    self.incoming.addr(t * 4)
                } else {
                    self.incoming.addr(n + (data_start + (t - coeff_words)) * 4)
                };
            }
            ctx.alu(1);
            ctx.ld_global_u32(&addrs[..lanes], &mut vals[..lanes]);
            working[base..base + lanes].copy_from_slice(&vals[..lanes]);
        }

        // ---- Phase 1: reduce against every absorbed row. RREF keeps the
        // factors independent, so the eliminations run back to back.
        for e in 0..self.rank {
            ctx.alu(costs::DECODE_ROW_SETUP);
            let factor = coeff_byte(&working, self.pivot_cols[e] as usize);
            if factor == 0 {
                continue;
            }
            for base in (0..row_words).step_by(ws) {
                ctx.at_warp(base / ws);
                let lanes = (row_words - base).min(ws);
                let all_coeff = base + lanes <= coeff_words;
                for lane in 0..lanes {
                    addrs[lane] = row_addr(e, base + lane);
                    saddrs[lane] = ((e * coeff_words + base + lane) * 4) as u64;
                }
                if cache && all_coeff && e < cached_rows {
                    // Charge the shared cache; values mirror global.
                    let mut scratch = [0u32; 32];
                    ctx.ld_shared_u32(&saddrs[..lanes], &mut scratch[..lanes]);
                    for lane in 0..lanes {
                        vals[lane] = ctx.peek_global_u32(addrs[lane]);
                    }
                } else {
                    ctx.ld_global_u32(&addrs[..lanes], &mut vals[..lanes]);
                }
                for lane in 0..lanes {
                    working[base + lane] ^= mul_word32(factor, vals[lane]);
                }
                Self::charge_mul_warp(ctx, factor);
            }
        }
        ctx.sync();

        // ---- Phase 2: pivot search over the private coefficient copy.
        let pivot = (0..n).find(|&col| coeff_byte(&working, col) != 0);
        let scan_warps = coeff_words.div_ceil(ws).max(1) as u64;
        ctx.alu(scan_warps * costs::PIVOT_SCAN_ALU_PER_WORD);
        if self.options.use_atomic_min && ctx.spec().has_shared_atomics {
            // Every coefficient-owning warp reports its leading non-zero
            // through one shared-memory atomicMin (Sec. 5.4.2). The scratch
            // word is initialized by thread 0, then a barrier orders that
            // plain store against the other warps' atomics.
            let proposals: Vec<u32> = (0..ws.min(coeff_words))
                .map(|t| match pivot {
                    Some(p) if p / 4 == t => p as u32,
                    _ => NO_PIVOT,
                })
                .collect();
            ctx.at_warp(0);
            ctx.st_shared_u32(&[scratch_base as u64], &[NO_PIVOT]);
            ctx.sync();
            ctx.atomic_min_shared_u32(scratch_base as u32, &proposals);
            ctx.sync();
        } else {
            // Log-step min-reduction tree through shared memory.
            ctx.at_warp(0);
            let mut width = coeff_words.max(1);
            while width > 1 {
                let half = width.div_ceil(2);
                let lanes = (width - half).min(ws).max(1);
                for lane in 0..lanes {
                    saddrs[lane] = (scratch_base + lane * 4) as u64;
                }
                ctx.alu(2);
                ctx.st_shared_u32(&saddrs[..lanes], &vec![0u32; lanes]);
                ctx.sync();
                width = half;
            }
        }

        let Some(pivot_col) = pivot else {
            // Linearly dependent: the Gauss-Jordan process already produced
            // the all-zero row; discard. Block 0 reports.
            if s == 0 {
                ctx.alu(1);
                ctx.st_global_u32(&[self.result.addr(0)], &[NO_PIVOT]);
            }
            return;
        };

        // ---- Phase 3: normalize so the leading coefficient becomes 1.
        let lead = coeff_byte(&working, pivot_col);
        ctx.alu(costs::PIVOT_INVERSE);
        ctx.sync();
        let inv = scalar::inv(lead);
        if inv != 1 {
            for base in (0..row_words).step_by(ws) {
                let lanes = (row_words - base).min(ws);
                for lane in 0..lanes {
                    working[base + lane] = mul_word32(inv, working[base + lane]);
                }
                Self::charge_mul_warp(ctx, inv);
            }
        }

        // ---- Phase 4: Jordan step — eliminate the new pivot column from
        // every absorbed row.
        for e in 0..self.rank {
            let factor_word = if cache && e < cached_rows {
                // Every thread needs this factor, and the elimination below
                // overwrites the very word it lives in: broadcast-read it
                // warp by warp, then barrier so no warp's write-through can
                // overtake a lagging warp's read (cross-warp WAR hazard).
                let saddr = ((e * coeff_words + pivot_col / 4) * 4) as u32;
                ctx.ld_shared_u32_broadcast(saddr)
            } else {
                let mut w = [0u32];
                ctx.ld_global_u32(&[row_addr(e, pivot_col / 4)], &mut w);
                w[0]
            };
            ctx.sync();
            ctx.alu(costs::DECODE_ROW_SETUP);
            let factor = (factor_word >> ((pivot_col % 4) * 8)) as u8;
            if factor == 0 {
                continue;
            }
            for base in (0..row_words).step_by(ws) {
                ctx.at_warp(base / ws);
                let lanes = (row_words - base).min(ws);
                let all_coeff = base + lanes <= coeff_words;
                for lane in 0..lanes {
                    addrs[lane] = row_addr(e, base + lane);
                    saddrs[lane] = ((e * coeff_words + base + lane) * 4) as u64;
                }
                if cache && all_coeff && e < cached_rows {
                    let mut scratch = [0u32; 32];
                    ctx.ld_shared_u32(&saddrs[..lanes], &mut scratch[..lanes]);
                    for lane in 0..lanes {
                        vals[lane] = ctx.peek_global_u32(addrs[lane]);
                    }
                } else {
                    ctx.ld_global_u32(&addrs[..lanes], &mut vals[..lanes]);
                }
                for lane in 0..lanes {
                    vals[lane] ^= mul_word32(factor, working[base + lane]);
                }
                Self::charge_mul_warp(ctx, factor);
                // Write-through: shared mirror for coefficient words plus
                // the authoritative global copy (cross-launch persistence).
                if cache && all_coeff && e < cached_rows {
                    ctx.st_shared_u32(&saddrs[..lanes], &vals[..lanes]);
                }
                ctx.st_global_u32(&addrs[..lanes], &vals[..lanes]);
            }
        }

        // ---- Phase 5: store the reduced row as row `rank`.
        for base in (0..row_words).step_by(ws) {
            ctx.at_warp(base / ws);
            let lanes = (row_words - base).min(ws);
            for lane in 0..lanes {
                addrs[lane] = row_addr(self.rank, base + lane);
            }
            ctx.alu(1);
            ctx.st_global_u32(&addrs[..lanes], &working[base..base + lanes]);
        }
        if s == 0 {
            ctx.alu(1);
            ctx.st_global_u32(&[self.result.addr(0)], &[pivot_col as u32]);
        }
    }
}

#[cfg(test)]
mod tests {
    // End-to-end decoder tests live in `crate::api`, which owns the host
    // orchestration; here we only sanity-check the geometry helpers.
    use super::*;
    use nc_gpu_sim::DeviceBuffer;

    fn kernel(n: usize, k: usize) -> DecodeStepKernel {
        // Buffers are placeholders; geometry functions never dereference.
        let dummy = {
            let mut mem = nc_gpu_sim::Gpu::new(nc_gpu_sim::DeviceSpec::gtx280());
            mem.alloc(16)
        };
        DecodeStepKernel {
            rows: dummy,
            incoming: dummy,
            result: dummy,
            n,
            k,
            sm_blocks: 30,
            rank: 0,
            pivot_cols: Vec::new(),
            options: DecodeOptions::default(),
        }
    }

    #[test]
    fn partition_matches_paper_shape() {
        // (n + k/30)/4 threads per block: at n=128, k=4096 the paper's
        // Sec. 5.2 quotes 1056 threads for a *whole* row, i.e. our
        // per-block count times the 30-way split plus rounding.
        let k = kernel(128, 4096);
        let g = k.grid(&nc_gpu_sim::DeviceSpec::gtx280());
        assert_eq!(g.blocks, 30);
        assert_eq!(g.threads_per_block, 128 / 4 + (4096usize / 4).div_ceil(30));
    }

    #[test]
    fn tiny_blocks_leave_sms_idle() {
        let k = kernel(128, 128);
        // 32 data words over 30 SMs: two words for the first 16 blocks,
        // nothing for the rest — the starvation the paper describes.
        assert_eq!(DecodeStepKernel::partition_words(128, 128, 30), 2);
        assert!(k.grid(&nc_gpu_sim::DeviceSpec::gtx280()).threads_per_block < 64);
    }

    #[test]
    #[should_panic]
    fn oversized_rows_are_rejected() {
        let _ = kernel(1024, 65536).grid(&nc_gpu_sim::DeviceSpec::gtx280());
    }

    #[test]
    fn row_stride_covers_coefficients_and_partition() {
        let k = kernel(128, 4096);
        let _: DeviceBuffer = k.rows;
        assert_eq!(k.row_stride_words(), 32 + 35);
    }
}
