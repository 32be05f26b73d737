//! Log-domain preprocessing kernels — the paper's Sec. 5.1.1.
//!
//! "As soon as a new video segment becomes available and transferred to the
//! graphics memory, it will be transformed to the GF logarithmic domain by
//! transforming every byte of its content. Similarly, as soon as a new
//! coefficient matrix ... it too will be transformed to the log domain."
//!
//! The transformation is a byte-wise map through the log table (either the
//! `0xFF`-sentinel [`nc_gf256::tables::LOG`] for Table-based-1/2 or the
//! remapped `nc_gf256::tables::RLOG` for Table-based-3/4/5). The kernel
//! loads the 256-byte table into shared memory once per block, then streams
//! the buffer through it word by word.

use nc_gf256::logdomain::{to_log, to_rlog};
use nc_gpu_sim::{BlockCtx, DeviceBuffer, GridConfig, Kernel};

use crate::costs;

/// Which log-domain convention to transform into.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum LogConvention {
    /// `0xFF` sentinel (the paper's Fig. 5; Table-based-1/2).
    Sentinel,
    /// Remapped `0x00` sentinel (Table-based-3/4/5).
    Remapped,
}

impl LogConvention {
    /// Transforms a single byte.
    #[inline]
    pub(crate) fn apply(self, b: u8) -> u8 {
        match self {
            LogConvention::Sentinel => to_log(b),
            LogConvention::Remapped => to_rlog(b) as u8,
        }
    }
}

/// Threads per block for preprocessing.
pub(crate) const PREPROCESS_BLOCK_THREADS: usize = 256;

/// Transforms `input` (any byte buffer: a segment or a coefficient matrix)
/// into the log domain at `output`.
///
/// `table` must hold the 256-byte log table for the chosen convention (the
/// host uploads it once; see [`crate::api`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct LogTransformKernel {
    /// Input bytes (normal domain).
    pub(crate) input: DeviceBuffer,
    /// Output bytes (log domain), same length as `input`.
    pub(crate) output: DeviceBuffer,
    /// 256-byte log table in device memory.
    pub(crate) table: DeviceBuffer,
    /// Bytes to transform (must be a multiple of 4).
    pub(crate) len: usize,
}

impl LogTransformKernel {
    /// Launch geometry: one thread per 4-byte word, 256-thread blocks, and
    /// 256 bytes of shared memory for the table.
    pub(crate) fn grid(&self) -> GridConfig {
        GridConfig {
            blocks: (self.len / 4).div_ceil(PREPROCESS_BLOCK_THREADS),
            threads_per_block: PREPROCESS_BLOCK_THREADS,
            shared_bytes: 256,
        }
    }
}

impl Kernel for LogTransformKernel {
    fn run_block(&self, ctx: &mut BlockCtx<'_>) {
        assert!(self.len.is_multiple_of(4), "preprocess length must be a multiple of 4");
        let words = self.len / 4;
        let bt = ctx.block_threads();
        let ws = ctx.spec().warp_size;

        // Phase 1: cooperative table load — 64 words of table over the
        // first 64 threads, coalesced from global, linear into shared.
        let table_words = 64usize;
        let mut g_addrs = [0u64; 32];
        let mut s_addrs = [0u64; 32];
        let mut vals = [0u32; 32];
        for warp in 0..ctx.warps() {
            ctx.at_warp(warp);
            let base = warp * ws;
            if base >= table_words {
                break;
            }
            let lanes = (table_words - base).min(ws);
            for lane in 0..lanes {
                g_addrs[lane] = self.table.addr((base + lane) * 4);
                s_addrs[lane] = ((base + lane) * 4) as u64;
            }
            ctx.ld_global_u32(&g_addrs[..lanes], &mut vals[..lanes]);
            ctx.alu(costs::TABLE_LOAD_ALU_PER_WORD);
            ctx.st_shared_u32(&s_addrs[..lanes], &vals[..lanes]);
        }
        ctx.sync();

        // Phase 2: stream the buffer through the table.
        let mut in_vals = [0u32; 32];
        let mut lut_addrs = [0u64; 32];
        let mut lut_out = [0u8; 32];
        for warp in 0..ctx.warps() {
            ctx.at_warp(warp);
            let base = ctx.block_idx() * bt + warp * ws;
            let lanes = ctx.lanes_in_warp(warp).min(words.saturating_sub(base));
            if lanes == 0 {
                continue;
            }
            for lane in 0..lanes {
                g_addrs[lane] = self.input.addr((base + lane) * 4);
            }
            ctx.ld_global_u32(&g_addrs[..lanes], &mut in_vals[..lanes]);
            let mut out_words = [0u32; 32];
            for byte in 0..4 {
                for lane in 0..lanes {
                    let b = (in_vals[lane] >> (byte * 8)) as u8;
                    lut_addrs[lane] = b as u64; // shared-table index
                }
                ctx.ld_shared_u8(&lut_addrs[..lanes], &mut lut_out[..lanes]);
                for lane in 0..lanes {
                    // Functional result must match the modeled table; we
                    // read the actual shared bytes loaded in phase 1.
                    out_words[lane] |= (lut_out[lane] as u32) << (byte * 8);
                }
            }
            ctx.alu(costs::PREPROCESS_ALU_PER_WORD);
            for lane in 0..lanes {
                lut_addrs[lane] = self.output.addr((base + lane) * 4);
            }
            ctx.st_global_u32(&lut_addrs[..lanes], &out_words[..lanes]);
        }
    }
}

/// Builds the 256-byte log table for a convention (host side, uploaded once).
pub fn log_table_bytes(convention: LogConvention) -> Vec<u8> {
    (0..=255u8).map(|b| convention.apply(b)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_gpu_sim::{DeviceSpec, Gpu};
    use rand::{Rng, SeedableRng};

    fn run(convention: LogConvention, len: usize, seed: u64) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        let mut gpu = Gpu::new(DeviceSpec::gtx280());
        let input = gpu.alloc(len);
        let output = gpu.alloc(len);
        let table = gpu.alloc(256);
        gpu.upload(input, &data);
        gpu.upload(table, &log_table_bytes(convention));
        let kernel = LogTransformKernel { input, output, table, len };
        gpu.launch(&kernel, kernel.grid());
        let (got, _) = gpu.download(output);
        let want: Vec<u8> = data.iter().map(|&b| convention.apply(b)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn sentinel_transform_matches_host() {
        run(LogConvention::Sentinel, 4096, 1);
    }

    #[test]
    fn remapped_transform_matches_host() {
        run(LogConvention::Remapped, 4096, 2);
    }

    #[test]
    fn partial_last_block_is_handled() {
        run(LogConvention::Remapped, 256 * 4 + 64, 3);
    }

    #[test]
    fn table_bytes_cover_all_inputs() {
        let t = log_table_bytes(LogConvention::Remapped);
        assert_eq!(t.len(), 256);
        assert_eq!(t[0], 0, "zero maps to the 0x00 sentinel");
        assert_eq!(t[1], 1, "log(1)=0 remaps to 1");
    }
}
