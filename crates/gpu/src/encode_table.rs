//! Table-based parallel encoding — the paper's Sec. 5.1, the Fig. 7 ladder.
//!
//! Six variants trace the optimization path:
//!
//! | Variant | Change | Paper result (n=128) |
//! |---|---|---|
//! | `Tb0` | log/exp tables in **global** memory | ~16 MB/s ("very poor") |
//! | `Tb1` | tables in **shared memory** + operands preprocessed into the **log domain** (Sec. 5.1.1) | 172 MB/s (+30% over loop-based) |
//! | `Tb2` | the four per-byte coefficient zero tests folded into **one per word** | 193 MB/s (+12%) |
//! | `Tb3` | **remapped log table** (zero → 0x00) so zero tests ride on predicated register loads | 208 MB/s |
//! | `Tb4` | exp table moved to **texture memory** | 239 MB/s (+15%) |
//! | `Tb5` | **eight word-width exp replicas** in shared memory, interleaved to spread banks | 294 MB/s (+23%) |
//!
//! Following Sec. 5.1.2, a single thread block runs per SM so the table is
//! loaded into shared memory only once per kernel invocation ("unlike CPU
//! caches, CUDA's shared memory is not persistent across GPU kernel
//! calls"); each block walks a contiguous share of the output words.

use nc_gf256::tables::{EXP, REXP};
use nc_gpu_sim::{DeviceBuffer, GridConfig, Kernel, LaunchCtx};

use crate::costs;

/// The optimization ladder of Fig. 7.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum TableVariant {
    /// Table-based-0: log/exp tables in global memory.
    Tb0,
    /// Table-based-1: shared-memory exp table + log-domain operands.
    Tb1,
    /// Table-based-2: folded per-word coefficient zero test.
    Tb2,
    /// Table-based-3: remapped `0x00` sentinel, predicated zero tests.
    Tb3,
    /// Table-based-4: exp table in texture memory.
    Tb4,
    /// Table-based-5: eight word-width exp replicas in shared memory.
    Tb5,
}

impl TableVariant {
    /// All variants in ladder order.
    pub const ALL: [TableVariant; 6] = [
        TableVariant::Tb0,
        TableVariant::Tb1,
        TableVariant::Tb2,
        TableVariant::Tb3,
        TableVariant::Tb4,
        TableVariant::Tb5,
    ];

    /// Whether operands must be preprocessed with the remapped (`0x00`)
    /// sentinel rather than the original `0xFF` sentinel.
    pub fn uses_remapped_sentinel(self) -> bool {
        matches!(self, TableVariant::Tb3 | TableVariant::Tb4 | TableVariant::Tb5)
    }

    /// Whether operands are preprocessed into the log domain at all
    /// (everything except the baseline Tb0).
    pub fn uses_log_domain(self) -> bool {
        !matches!(self, TableVariant::Tb0)
    }

    /// Dynamic shared memory required per block (for the default replica
    /// count; see [`TableVariant::shared_bytes_with`] for ablations).
    pub fn shared_bytes(self) -> usize {
        self.shared_bytes_with(TB5_REPLICAS)
    }

    /// Dynamic shared memory for an explicit Tb5 replica count.
    pub fn shared_bytes_with(self, replicas: usize) -> usize {
        match self {
            TableVariant::Tb0 | TableVariant::Tb4 => 0,
            TableVariant::Tb1 | TableVariant::Tb2 | TableVariant::Tb3 => TABLE_BYTES,
            TableVariant::Tb5 => TB5_ENTRIES * replicas * 4,
        }
    }

    /// The device-memory table bytes this variant expects in
    /// [`TableEncodeKernel::tables`] (uploaded once by the host).
    pub fn table_bytes(self) -> Vec<u8> {
        match self {
            // Tb0: LOG at offset 0 (256 B), EXP at offset 256 (512 B).
            TableVariant::Tb0 => {
                let mut t = Vec::with_capacity(256 + 512);
                t.extend_from_slice(&nc_gf256::tables::LOG);
                t.extend_from_slice(&EXP);
                t
            }
            // Tb1/Tb2: the plain double-length EXP table.
            TableVariant::Tb1 | TableVariant::Tb2 => EXP.to_vec(),
            // Tb3/Tb4/Tb5: the shifted remapped-exp table RS[i] = REXP[i+2],
            // so the lookup index is rlog(x) + rlog(y) - 2 ∈ [0, 508].
            TableVariant::Tb3 | TableVariant::Tb4 | TableVariant::Tb5 => {
                (0..TABLE_BYTES).map(|i| REXP[(i + 2).min(512)]).collect()
            }
        }
    }
}

/// Byte-table length for the shared/texture exp tables.
pub const TABLE_BYTES: usize = 512;
/// Word-width entries per replica for Table-based-5 (covers index 0..=508).
pub const TB5_ENTRIES: usize = 509;
/// Replica count for Table-based-5.
pub const TB5_REPLICAS: usize = 8;
/// Threads per block for table-based encoding.
pub const TABLE_BLOCK_THREADS: usize = 256;

/// The table-based encoding kernel.
///
/// For `Tb1`+ the `source` and `coeffs` buffers must already be in the log
/// domain matching [`TableVariant::uses_remapped_sentinel`]; for `Tb0` they
/// are in the normal domain (that is the point of Tb0 — no preprocessing).
#[derive(Debug, Clone, Copy)]
pub struct TableEncodeKernel {
    /// Ladder variant.
    pub variant: TableVariant,
    /// Source blocks matrix (`n × k`), domain per variant.
    pub source: DeviceBuffer,
    /// Coefficient matrix (`m × n`), domain per variant.
    pub coeffs: DeviceBuffer,
    /// Coded output matrix (`m × k`), always normal domain.
    pub output: DeviceBuffer,
    /// Table bytes in device memory (see [`TableVariant::table_bytes`]).
    pub tables: DeviceBuffer,
    /// Blocks per generation (multiple of 4).
    pub n: usize,
    /// Block size in bytes (multiple of 4).
    pub k: usize,
    /// Coded blocks to generate.
    pub m: usize,
    /// Grid size — one block per SM, per Sec. 5.1.2.
    pub sm_blocks: usize,
    /// Exp-table replica count for `Tb5` (1, 2, 4 or 8; the paper ships 8,
    /// lower counts are the bank-conflict ablation). Ignored elsewhere.
    pub tb5_replicas: usize,
}

impl TableEncodeKernel {
    /// Launch geometry: `sm_blocks` blocks of 256 threads.
    ///
    /// # Panics
    ///
    /// Panics for a `Tb5` replica count that is not a power of two in
    /// `1..=8` (the interleaving scheme requires it).
    pub fn grid(&self) -> GridConfig {
        if self.variant == TableVariant::Tb5 {
            assert!(
                matches!(self.tb5_replicas, 1 | 2 | 4 | 8),
                "replica count must be 1, 2, 4 or 8"
            );
        }
        GridConfig {
            blocks: self.sm_blocks,
            threads_per_block: TABLE_BLOCK_THREADS,
            shared_bytes: self.variant.shared_bytes_with(self.tb5_replicas),
        }
    }
}

/// Looks up a product in the shared byte table given two sentinel-domain
/// operands; returns `None` for an inactive (zero-product) lane.
#[inline]
fn lookup_index(variant: TableVariant, lc: u8, ls: u8) -> Option<u64> {
    if variant.uses_remapped_sentinel() {
        if lc == 0 || ls == 0 {
            None
        } else {
            Some(lc as u64 + ls as u64 - 2)
        }
    } else {
        if lc == 0xFF || ls == 0xFF {
            None
        } else {
            Some(lc as u64 + ls as u64)
        }
    }
}

impl Kernel for TableEncodeKernel {
    fn run_block(&self, ctx: &mut dyn LaunchCtx) {
        assert!(
            self.k.is_multiple_of(4) && self.n.is_multiple_of(4),
            "n and k must be multiples of 4"
        );
        let ws = ctx.spec().warp_size;
        let variant = self.variant;

        // ---- Phase 1: stage the table into shared memory --------------
        match variant {
            TableVariant::Tb1 | TableVariant::Tb2 | TableVariant::Tb3 => {
                // 512-byte table = 128 words loaded cooperatively.
                let mut g = [0u64; 32];
                let mut s = [0u64; 32];
                let mut v = [0u32; 32];
                for chunk_base in (0..TABLE_BYTES / 4).step_by(ws) {
                    ctx.at_warp((chunk_base / ws) % ctx.warps());
                    let lanes = (TABLE_BYTES / 4 - chunk_base).min(ws);
                    for lane in 0..lanes {
                        g[lane] = self.tables.addr((chunk_base + lane) * 4);
                        s[lane] = ((chunk_base + lane) * 4) as u64;
                    }
                    ctx.ld_global_u32(&g[..lanes], &mut v[..lanes]);
                    ctx.alu(costs::TABLE_LOAD_ALU_PER_WORD);
                    ctx.st_shared_u32(&s[..lanes], &v[..lanes]);
                }
                ctx.sync();
            }
            TableVariant::Tb5 => {
                // Expand the byte table into eight interleaved word-width
                // replicas: replica r of entry e lives at word e*8 + r, so
                // lanes using different replicas land in different banks.
                let mut g = [0u64; 32];
                let mut s = [0u64; 32];
                let mut v = [0u32; 32];
                let mut bytes4 = [0u32; 32];
                let replicas = self.tb5_replicas;
                for chunk_base in (0..TB5_ENTRIES.div_ceil(4)).step_by(ws) {
                    ctx.at_warp((chunk_base / ws) % ctx.warps());
                    let lanes = (TB5_ENTRIES.div_ceil(4) - chunk_base).min(ws);
                    for lane in 0..lanes {
                        g[lane] = self.tables.addr(((chunk_base + lane) * 4).min(TABLE_BYTES - 4));
                    }
                    ctx.ld_global_u32(&g[..lanes], &mut bytes4[..lanes]);
                    ctx.alu(costs::TABLE_LOAD_ALU_PER_WORD);
                    // Each lane spreads its 4 bytes × replicas word stores,
                    // issued warp-wide replica by replica.
                    for byte in 0..4 {
                        for r in 0..replicas {
                            let mut count = 0usize;
                            for lane in 0..lanes {
                                let entry = (chunk_base + lane) * 4 + byte;
                                if entry >= TB5_ENTRIES {
                                    continue;
                                }
                                s[count] = ((entry * replicas + r) * 4) as u64;
                                v[count] = (bytes4[lane] >> (byte * 8)) & 0xFF;
                                count += 1;
                            }
                            if count > 0 {
                                ctx.alu(1);
                                ctx.st_shared_u32(&s[..count], &v[..count]);
                            }
                        }
                    }
                }
                ctx.sync();
            }
            TableVariant::Tb0 | TableVariant::Tb4 => {}
        }

        // ---- Phase 2: encode this block's share of the output words ----
        let kw = self.k / 4;
        let total_words = self.m * kw;
        let wpb = total_words.div_ceil(self.sm_blocks);
        let start = (self.block_index_words(ctx)).min(total_words);
        let end = (start + wpb).min(total_words);

        let mut lane_j = [0usize; 32];
        let mut lane_w = [0usize; 32];
        let mut addrs = [0u64; 32];
        let mut src_words = [0u32; 32];
        let mut acc = [0u32; 32];
        let mut coeff_words = [0u32; 32];
        let mut lut_addrs = [0u64; 32];
        let mut lut_vals_u8 = [0u8; 32];
        let mut lut_vals_u32 = [0u32; 32];
        let mut lut_lane = [0usize; 32];

        let mut chunk = start;
        while chunk < end {
            for warp in 0..ctx.warps() {
                ctx.at_warp(warp);
                let base = chunk + warp * ws;
                if base >= end {
                    break;
                }
                let lanes = ws.min(end - base);
                for lane in 0..lanes {
                    let id = base + lane;
                    lane_j[lane] = id / kw;
                    lane_w[lane] = id % kw;
                    acc[lane] = 0;
                }

                for i in 0..self.n {
                    // Coefficient word broadcast, one per distinct coded
                    // block in the warp, refreshed every 4 indices.
                    if i % 4 == 0 {
                        let mut prev_j = usize::MAX;
                        for lane in 0..lanes {
                            let j = lane_j[lane];
                            if j != prev_j {
                                prev_j = j;
                                coeff_words[lane] =
                                    ctx.ld_global_u32_broadcast(self.coeffs.addr(j * self.n + i));
                            } else {
                                coeff_words[lane] = coeff_words[lane - 1];
                            }
                        }
                        if variant == TableVariant::Tb0 {
                            // Tb0 must take each coefficient byte through
                            // the global log table (no preprocessing).
                            ctx.alu(1);
                        }
                    }
                    ctx.alu(costs::COEFF_EXTRACT);

                    // Source word load (log domain except Tb0).
                    for lane in 0..lanes {
                        addrs[lane] = self.source.addr(i * self.k + lane_w[lane] * 4);
                    }
                    ctx.ld_global_u32(&addrs[..lanes], &mut src_words[..lanes]);

                    match variant {
                        TableVariant::Tb2 => ctx.alu(costs::TB2_ALU_PER_WORD),
                        TableVariant::Tb3 | TableVariant::Tb4 => ctx.alu(costs::TB3_ALU_PER_WORD),
                        TableVariant::Tb5 => ctx.alu(costs::TB5_ALU_PER_WORD),
                        _ => {}
                    }

                    match variant {
                        TableVariant::Tb0 => {
                            self.tb0_byte_mults(ctx, i, lanes, &coeff_words, &src_words, &mut acc);
                        }
                        _ => {
                            // Per byte position: gather the lanes whose
                            // product is non-zero (predicated-off lanes do
                            // not access memory) and look them up.
                            for byte in 0..4 {
                                let mut count = 0usize;
                                for lane in 0..lanes {
                                    let lc = (coeff_words[lane] >> ((i % 4) * 8)) as u8;
                                    let ls = (src_words[lane] >> (byte * 8)) as u8;
                                    if let Some(idx) = lookup_index(variant, lc, ls) {
                                        lut_lane[count] = lane;
                                        lut_addrs[count] = match variant {
                                            TableVariant::Tb5 => {
                                                // Replica = lane % replicas;
                                                // word-width entries.
                                                ((idx as usize * self.tb5_replicas
                                                    + (lane % self.tb5_replicas))
                                                    * 4)
                                                    as u64
                                            }
                                            TableVariant::Tb4 => self.tables.addr(idx as usize),
                                            _ => idx,
                                        };
                                        count += 1;
                                    }
                                }
                                let (per_byte_alu, product_of) = match variant {
                                    TableVariant::Tb1 => {
                                        ctx.ld_shared_u8(
                                            &lut_addrs[..count],
                                            &mut lut_vals_u8[..count],
                                        );
                                        (costs::TB1_ALU_PER_BYTE, false)
                                    }
                                    TableVariant::Tb2 => {
                                        ctx.ld_shared_u8(
                                            &lut_addrs[..count],
                                            &mut lut_vals_u8[..count],
                                        );
                                        (costs::TB2_ALU_PER_BYTE, false)
                                    }
                                    TableVariant::Tb3 => {
                                        ctx.ld_shared_u8(
                                            &lut_addrs[..count],
                                            &mut lut_vals_u8[..count],
                                        );
                                        (costs::TB3_ALU_PER_BYTE, false)
                                    }
                                    TableVariant::Tb4 => {
                                        ctx.tex_fetch_u8(
                                            &lut_addrs[..count],
                                            &mut lut_vals_u8[..count],
                                        );
                                        (costs::TB4_ALU_PER_BYTE, false)
                                    }
                                    TableVariant::Tb5 => {
                                        ctx.ld_shared_u32(
                                            &lut_addrs[..count],
                                            &mut lut_vals_u32[..count],
                                        );
                                        (costs::TB5_ALU_PER_BYTE, true)
                                    }
                                    TableVariant::Tb0 => unreachable!(),
                                };
                                ctx.alu(per_byte_alu);
                                for c in 0..count {
                                    let product = if product_of {
                                        lut_vals_u32[c] as u8
                                    } else {
                                        lut_vals_u8[c]
                                    };
                                    acc[lut_lane[c]] ^= (product as u32) << (byte * 8);
                                }
                            }
                        }
                    }
                }

                for lane in 0..lanes {
                    addrs[lane] = self.output.addr(lane_j[lane] * self.k + lane_w[lane] * 4);
                }
                ctx.alu(1);
                ctx.st_global_u32(&addrs[..lanes], &acc[..lanes]);
            }
            chunk += ctx.block_threads();
        }
    }
}

impl TableEncodeKernel {
    fn block_index_words(&self, ctx: &dyn LaunchCtx) -> usize {
        let kw = self.k / 4;
        let total_words = self.m * kw;
        let wpb = total_words.div_ceil(self.sm_blocks);
        ctx.block_idx() * wpb
    }

    /// Table-based-0: every lookup goes to global memory. Operands are in
    /// the normal domain; zero products short-circuit per Fig. 1's test.
    fn tb0_byte_mults(
        &self,
        ctx: &mut dyn LaunchCtx,
        i: usize,
        lanes: usize,
        coeff_words: &[u32; 32],
        src_words: &[u32; 32],
        acc: &mut [u32; 32],
    ) {
        let mut lut_addrs = [0u64; 32];
        let mut lut_lane = [0usize; 32];
        let mut log_vals = [0u8; 32];
        let mut exp_vals = [0u8; 32];

        // log of the (warp-uniform) coefficient byte: one broadcast load.
        for byte in 0..4 {
            let mut count = 0usize;
            for lane in 0..lanes {
                let c = (coeff_words[lane] >> ((i % 4) * 8)) as u8;
                let s = (src_words[lane] >> (byte * 8)) as u8;
                if c != 0 && s != 0 {
                    lut_lane[count] = lane;
                    // Scattered global load of log[s].
                    lut_addrs[count] = self.tables.addr(s as usize);
                    count += 1;
                }
            }
            if count == 0 {
                ctx.alu(costs::TB0_ALU_PER_BYTE);
                continue;
            }
            ctx.ld_global_u8(&lut_addrs[..count], &mut log_vals[..count]);
            // exp[log[c] + log[s]] — another scattered global load. The
            // coefficient log was loaded once per warp (same address for
            // all lanes, coalescing handles it).
            for c_idx in 0..count {
                let lane = lut_lane[c_idx];
                let c = (coeff_words[lane] >> ((i % 4) * 8)) as u8;
                let log_c = nc_gf256::tables::LOG[c as usize];
                lut_addrs[c_idx] =
                    self.tables.addr(256 + log_c as usize + log_vals[c_idx] as usize);
            }
            ctx.ld_global_u8(&lut_addrs[..count], &mut exp_vals[..count]);
            ctx.alu(costs::TB0_ALU_PER_BYTE);
            for c_idx in 0..count {
                acc[lut_lane[c_idx]] ^= (exp_vals[c_idx] as u32) << (byte * 8);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::{log_table_bytes, LogConvention};
    use nc_gpu_sim::{DeviceSpec, Gpu};
    use nc_rlnc::{CodingConfig, Encoder, Segment};
    use rand::{Rng, SeedableRng};

    /// Host-side preprocessing into the variant's operand domain.
    fn preprocess(variant: TableVariant, bytes: &[u8]) -> Vec<u8> {
        if !variant.uses_log_domain() {
            return bytes.to_vec();
        }
        let conv = if variant.uses_remapped_sentinel() {
            LogConvention::Remapped
        } else {
            LogConvention::Sentinel
        };
        let table = log_table_bytes(conv);
        bytes.iter().map(|&b| table[b as usize]).collect()
    }

    fn roundtrip(variant: TableVariant, n: usize, k: usize, m: usize, seed: u64) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let config = CodingConfig::new(n, k).unwrap();
        // Random data *including zero bytes* to exercise the sentinels.
        let data: Vec<u8> = (0..config.segment_bytes()).map(|_| rng.gen()).collect();
        let coeff_rows: Vec<Vec<u8>> =
            (0..m).map(|_| (0..n).map(|_| rng.gen_range(1..=255)).collect()).collect();

        let mut gpu = Gpu::new(DeviceSpec::gtx280());
        let sm_blocks = gpu.spec().sm_count;
        let source = gpu.alloc(n * k);
        let coeffs = gpu.alloc(m * n);
        let output = gpu.alloc(m * k);
        let table_bytes = variant.table_bytes();
        let tables = gpu.alloc(table_bytes.len());
        gpu.upload(source, &preprocess(variant, &data));
        gpu.upload(coeffs, &preprocess(variant, &coeff_rows.concat()));
        gpu.upload(tables, &table_bytes);

        let kernel = TableEncodeKernel {
            variant,
            source,
            coeffs,
            output,
            tables,
            n,
            k,
            m,
            sm_blocks,
            tb5_replicas: TB5_REPLICAS,
        };
        gpu.launch(&kernel, kernel.grid());

        let encoder = Encoder::new(Segment::from_bytes(config, data).unwrap());
        let (coded, _) = gpu.download(output);
        for (j, row) in coeff_rows.iter().enumerate() {
            let want = encoder.encode_with_coefficients(row.clone()).unwrap();
            assert_eq!(
                &coded[j * k..(j + 1) * k],
                want.payload(),
                "{variant:?}: coded block {j} mismatch"
            );
        }
    }

    #[test]
    fn tb0_matches_cpu_reference() {
        roundtrip(TableVariant::Tb0, 8, 64, 4, 10);
    }

    #[test]
    fn tb1_matches_cpu_reference() {
        roundtrip(TableVariant::Tb1, 8, 64, 4, 11);
    }

    #[test]
    fn tb2_matches_cpu_reference() {
        roundtrip(TableVariant::Tb2, 12, 128, 6, 12);
    }

    #[test]
    fn tb3_matches_cpu_reference() {
        roundtrip(TableVariant::Tb3, 8, 64, 4, 13);
    }

    #[test]
    fn tb4_matches_cpu_reference() {
        roundtrip(TableVariant::Tb4, 8, 64, 4, 14);
    }

    #[test]
    fn tb5_matches_cpu_reference() {
        roundtrip(TableVariant::Tb5, 8, 64, 4, 15);
    }

    #[test]
    fn all_variants_agree_on_larger_config() {
        for (idx, variant) in TableVariant::ALL.into_iter().enumerate() {
            roundtrip(variant, 16, 256, 8, 20 + idx as u64);
        }
    }

    #[test]
    fn tb5_fits_in_shared_memory() {
        let spec = DeviceSpec::gtx280();
        let need = TableVariant::Tb5.shared_bytes();
        assert!(need <= spec.shared_mem_usable(), "{need} must fit");
        // ... but only barely, as the paper stresses.
        assert!(need > spec.shared_mem_usable() - 64);
    }
}
