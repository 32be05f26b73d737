//! Analytic throughput model of the paper's CPU baseline: the 8-core
//! 2.8 GHz Xeon Mac Pro running the authors' SSE2-accelerated, 8-threaded
//! network coding.
//!
//! The real hardware is unavailable, so the Mac Pro curves of Figs. 4(b),
//! 9 and 10 are reproduced from a small mechanistic model: per-byte
//! multiply-accumulate cost on 16-byte SIMD lanes, per-block threading
//! overheads (which separate the two Fig. 10 partitionings), per-received-
//! block synchronization in progressive decoding, and an aggregate-L2
//! working-set test that produces the multi-segment decoding collapse the
//! paper reports ("the Mac Pro's decoding bandwidth starts dropping at
//! block sizes of 8 KB for n = 512, at 16 KB for n = 256, and at 32 KB for
//! n = 128" — these thresholds fall out of `8 · n · (n + k)` crossing the
//! 24 MB of combined L2).
//!
//! Calibration anchors (DESIGN.md §7): full-block encode plateau
//! 67.2 MB/s at n = 128 (the paper's "GTX 280 ≈ 4.3× the CPU" against
//! 294 MB/s with ~4.4× ⇒ ~67 MB/s, matching Fig. 10's flat top),
//! single-segment decode plateau ~57 MB/s (Fig. 4(b) label), multi-segment
//! plateau ~1.3× that (Sec. 5.2's quoted gain).

use serde::{Deserialize, Serialize};

/// The modeled machine.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CpuModel {
    /// Core count participating in coding (one thread per core).
    pub(crate) cores: usize,
    /// Core clock in Hz.
    pub(crate) clock_hz: f64,
    /// Aggregate last-level cache in bytes (4 × 6 MB on the dual
    /// Harpertown Mac Pro).
    pub(crate) l2_bytes: usize,
    /// Effective streaming memory bandwidth in bytes/second (dual 1.6 GHz
    /// FSB, practically ~10 GB/s).
    pub(crate) mem_bandwidth: f64,
    /// Cycles per byte of SIMD loop-based multiply-accumulate (amortized
    /// over 16-byte lanes, including loads/stores).
    pub(crate) cycles_per_byte_mult: f64,
    /// Cycles per byte in decoding row operations (slightly above encode:
    /// read-modify-write rows instead of streaming accumulation).
    pub(crate) cycles_per_byte_decode: f64,
    /// Ditto for the sync-free multi-segment decode path.
    pub(crate) cycles_per_byte_decode_ms: f64,
    /// Per-coded-block barrier/fork cost of the partitioned-block encode
    /// scheme, in cycles.
    pub(crate) partitioned_block_overhead: f64,
    /// Per-received-block synchronization cost of progressive decoding, in
    /// cycles.
    pub(crate) decode_block_overhead: f64,
    /// Throughput multiplier of the table-based encode relative to
    /// loop-based SIMD — the paper measures "up to 43%" of bandwidth lost.
    pub(crate) table_penalty: f64,
}

/// Encode partitioning strategies of Fig. 10.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum EncodeStrategy {
    /// Each coded block's bytes split across all threads (original scheme).
    PartitionedBlock,
    /// Each thread encodes whole coded blocks (Sec. 5.3).
    FullBlock,
}

impl CpuModel {
    /// The paper's 8-core Mac Pro (dual quad-core Xeon 2.8 GHz).
    pub fn mac_pro_8core() -> CpuModel {
        CpuModel {
            cores: 8,
            clock_hz: 2.8e9,
            l2_bytes: 24 * 1024 * 1024,
            mem_bandwidth: 10.0e9,
            cycles_per_byte_mult: 2.48,
            cycles_per_byte_decode: 2.86,
            cycles_per_byte_decode_ms: 2.29,
            partitioned_block_overhead: 12_000.0,
            decode_block_overhead: 30_000.0,
            table_penalty: 0.57,
        }
    }

    /// Loop-based SIMD encoding bandwidth in bytes/second for one `(n, k)`
    /// generation under a partitioning strategy (Fig. 10's two curves and
    /// the CPU baselines elsewhere).
    pub fn encode_rate(&self, n: usize, k: usize, strategy: EncodeStrategy) -> f64 {
        let per_block_work = n as f64 * k as f64 * self.cycles_per_byte_mult;
        let per_block_cycles = match strategy {
            EncodeStrategy::FullBlock => {
                // Long sequential runs keep the prefetcher streaming; the
                // only non-work term is negligible loop setup.
                per_block_work / self.cores as f64 + 200.0
            }
            EncodeStrategy::PartitionedBlock => {
                // Every block forks k/threads-sized slices to all cores and
                // joins them — the barrier cost dominates at small k.
                per_block_work / self.cores as f64 + self.partitioned_block_overhead
            }
        };
        k as f64 * self.clock_hz / per_block_cycles
    }

    /// Table-based (log/exp) encoding bandwidth — the CPU *loses* from the
    /// GPU's favorite scheme (Sec. 5.1.3: "its bandwidth drops up to 43%
    /// from the loop-based SIMD accelerated solution").
    pub(crate) fn encode_rate_table(&self, n: usize, k: usize) -> f64 {
        self.encode_rate(n, k, EncodeStrategy::FullBlock) * self.table_penalty
    }

    /// Progressive single-segment decoding bandwidth in bytes/second
    /// (Fig. 4(b)'s Mac Pro curves): blocks decode serially; row operations
    /// parallelize across cores with one barrier set per received block.
    pub fn decode_rate_single(&self, n: usize, k: usize) -> f64 {
        let nf = n as f64;
        let row_bytes = nf + k as f64;
        let work = nf * nf * row_bytes * self.cycles_per_byte_decode / self.cores as f64;
        let sync = nf * self.decode_block_overhead;
        (nf * k as f64) * self.clock_hz / (work + sync)
    }

    /// Multi-segment decoding bandwidth in bytes/second (Fig. 9's Mac Pro
    /// curves): one segment per core, no synchronization — but the working
    /// set of all concurrent segments must share the L2, and beyond it the
    /// row operations stream from DRAM.
    pub fn decode_rate_multi(&self, n: usize, k: usize, segments: usize) -> f64 {
        let nf = n as f64;
        let row_bytes = nf + k as f64;
        let compute = k as f64 * self.clock_hz * self.cores as f64
            / (nf * row_bytes)
            / self.cycles_per_byte_decode_ms;
        let working_set = self.multi_segment_working_set(n, k, segments);
        if working_set <= self.l2_bytes as f64 {
            compute
        } else {
            // Each decoded byte drags ~2·n·(1 + n/k) bytes of row traffic
            // through DRAM once the aggregate matrix no longer fits.
            let traffic_per_byte = 2.0 * nf * row_bytes / k as f64;
            compute.min(self.mem_bandwidth / traffic_per_byte)
        }
    }

    /// The aggregate working set of a multi-segment decode, in bytes.
    fn multi_segment_working_set(&self, n: usize, k: usize, segments: usize) -> f64 {
        segments.min(self.cores) as f64 * n as f64 * (n as f64 + k as f64)
    }
}

impl Default for CpuModel {
    fn default() -> Self {
        CpuModel::mac_pro_8core()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grids::to_mb;

    fn model() -> CpuModel {
        CpuModel::mac_pro_8core()
    }

    #[test]
    fn full_block_plateau_matches_fig10() {
        // 67.2 / 33.6 / 16.8 MB/s at n = 128 / 256 / 512.
        for (n, want) in [(128usize, 67.2), (256, 33.6), (512, 16.8)] {
            let got = to_mb(model().encode_rate(n, 32768, EncodeStrategy::FullBlock));
            assert!((got - want).abs() / want < 0.05, "n={n}: {got} vs {want}");
        }
    }

    #[test]
    fn full_block_is_nearly_flat_across_k() {
        let m = model();
        let small = m.encode_rate(128, 128, EncodeStrategy::FullBlock);
        let large = m.encode_rate(128, 32768, EncodeStrategy::FullBlock);
        assert!(small / large > 0.95, "FB must be flat: {small} vs {large}");
    }

    #[test]
    fn partitioned_block_loses_at_small_k_and_converges() {
        let m = model();
        let fb_small = m.encode_rate(128, 128, EncodeStrategy::FullBlock);
        let pb_small = m.encode_rate(128, 128, EncodeStrategy::PartitionedBlock);
        assert!(pb_small < fb_small * 0.55, "PB must lose badly at 128 B");
        let fb_big = m.encode_rate(128, 32768, EncodeStrategy::FullBlock);
        let pb_big = m.encode_rate(128, 32768, EncodeStrategy::PartitionedBlock);
        assert!(pb_big / fb_big > 0.9, "the schemes converge at large k");
    }

    #[test]
    fn table_based_encoding_is_slower_on_cpu() {
        let m = model();
        let loop_rate = m.encode_rate(128, 4096, EncodeStrategy::FullBlock);
        let table_rate = m.encode_rate_table(128, 4096);
        let drop = 1.0 - table_rate / loop_rate;
        assert!((drop - 0.43).abs() < 0.02, "paper: drops up to 43%, got {drop}");
    }

    #[test]
    fn single_decode_plateau_matches_fig4b() {
        let got = to_mb(model().decode_rate_single(128, 32768));
        assert!((got - 57.0).abs() < 4.0, "plateau ≈ 57 MB/s, got {got}");
    }

    #[test]
    fn single_decode_collapses_at_tiny_blocks() {
        let m = model();
        assert!(
            m.decode_rate_single(128, 128) < m.decode_rate_single(128, 32768) / 3.0,
            "per-block sync must dominate at 128 B"
        );
    }

    #[test]
    fn multi_segment_gain_matches_sec52() {
        // "the Mac Pro only gains by a factor of 1.3" at (128, 16384).
        let m = model();
        let gain = m.decode_rate_multi(128, 16384, 8) / m.decode_rate_single(128, 16384);
        assert!((gain - 1.3).abs() < 0.15, "multi-segment gain ≈ 1.3, got {gain}");
    }

    #[test]
    fn cache_collapse_thresholds_match_the_paper() {
        let m = model();
        // "dropping at 8 KB for n=512, 16 KB for n=256, 32 KB for n=128".
        for (n, first_dropped_k) in [(512usize, 8192usize), (256, 16384), (128, 32768)] {
            let ws_before = m.multi_segment_working_set(n, first_dropped_k / 2, 8);
            let ws_at = m.multi_segment_working_set(n, first_dropped_k, 8);
            assert!(ws_before <= m.l2_bytes as f64, "n={n}: fits below threshold");
            assert!(ws_at > m.l2_bytes as f64, "n={n}: spills at threshold");
            let below = m.decode_rate_multi(n, first_dropped_k / 2, 8);
            let at = m.decode_rate_multi(n, first_dropped_k, 8);
            assert!(at < below, "n={n}: the drop must appear at {first_dropped_k}");
        }
    }

    #[test]
    fn rates_scale_inversely_with_n() {
        let m = model();
        let r128 = m.encode_rate(128, 4096, EncodeStrategy::FullBlock);
        let r256 = m.encode_rate(256, 4096, EncodeStrategy::FullBlock);
        assert!((r128 / r256 - 2.0).abs() < 0.05);
    }

    #[test]
    fn gtx280_advantage_is_4_3x() {
        // Sec. 5.4.1: GTX 280 encoding ≈ 4.3× this machine (294 vs ~68).
        let cpu = to_mb(model().encode_rate(128, 4096, EncodeStrategy::FullBlock));
        let ratio = 294.0 / cpu;
        assert!((ratio - 4.3).abs() < 0.25, "expected ≈4.3×, got {ratio}");
    }
}
