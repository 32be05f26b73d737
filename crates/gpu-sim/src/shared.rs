//! Per-SM shared memory with bank-conflict accounting.
//!
//! Tesla shared memory is organized as 16 banks of 4-byte words; a
//! half-warp's 16 accesses are serviced in parallel **unless** two lanes
//! touch *different words in the same bank*, in which case the accesses
//! serialize (the paper: "one access per bank in every two cycles", and
//! "around 3 conflicts happen within each 16 parallel requests" for the
//! shared-memory exp table). Same-word accesses broadcast without conflict.
//!
//! The conflict degree here is *measured from the actual addresses the
//! kernels generate*, which is what lets the Table-based-4 → Table-based-5
//! improvement (eight exp-table replicas) emerge from the data rather than
//! from a hard-coded constant.

use crate::stats::ExecCounters;

/// Shared memory of one thread block, plus its bank geometry.
#[derive(Debug)]
pub struct SharedMem {
    data: Vec<u8>,
    banks: usize,
}

/// Cycles one conflict-free half-warp shared access costs.
pub const SMEM_CYCLES_PER_HALF_WARP: u64 = 2;

impl SharedMem {
    /// Allocates `bytes` of zeroed shared memory with `banks` banks.
    pub fn new(bytes: usize, banks: usize) -> SharedMem {
        SharedMem { data: vec![0; bytes], banks }
    }

    /// The capacity in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the block requested zero shared bytes.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw view (host-side initialization in tests).
    ///
    /// Reads through this slice bypass the instrumented
    /// [`crate::LaunchCtx::ld_shared_u32`] family, so they are invisible to
    /// the sanitizer's racecheck and uninitialized-read tracking (and to
    /// the cost model). Kernel code must use the instrumented operations;
    /// raw views are for test assertions only.
    pub fn as_slice(&self) -> &[u8] {
        &self.data
    }

    /// Raw mutable view.
    ///
    /// The same caveat as [`SharedMem::as_slice`] applies, and writes made
    /// here are not recorded as initializing shared memory, so a
    /// sanitized kernel that later reads those bytes will report an
    /// uninitialized-shared-read error.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        &mut self.data
    }

    #[inline]
    pub(crate) fn read_u8(&self, addr: u32) -> u8 {
        self.data[addr as usize]
    }

    #[inline]
    pub(crate) fn write_u8(&mut self, addr: u32, v: u8) {
        self.data[addr as usize] = v;
    }

    #[inline]
    pub(crate) fn read_u32(&self, addr: u32) -> u32 {
        let a = addr as usize;
        u32::from_le_bytes(self.data[a..a + 4].try_into().expect("4-byte read"))
    }

    #[inline]
    pub(crate) fn write_u32(&mut self, addr: u32, v: u32) {
        let a = addr as usize;
        self.data[a..a + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Computes the serialization cost of one warp-level access with the
    /// given lane byte-addresses: for each half-warp, the maximum number of
    /// *distinct words* mapping to a single bank (same-word lanes
    /// broadcast). Returns total cycles for the access.
    pub(crate) fn access_cycles(&self, addrs: &[u64], half_warp: usize) -> u64 {
        debug_assert!(half_warp <= 16 && self.banks <= 16, "Tesla geometry expected");
        let mut cycles = 0u64;
        for half in addrs.chunks(half_warp) {
            // Allocation-free conflict scan: distinct words per bank, with
            // same-word lanes broadcasting. Hot path — runs once per shared
            // access of every simulated warp.
            let mut seen_words = [u64::MAX; 16];
            let mut seen_count = 0usize;
            let mut bank_loads = [0u8; 16];
            for &a in half {
                let word = a / 4;
                if seen_words[..seen_count].contains(&word) {
                    continue;
                }
                seen_words[seen_count] = word;
                seen_count += 1;
                bank_loads[(word % self.banks as u64) as usize] += 1;
            }
            let degree = bank_loads.iter().copied().max().unwrap_or(0).max(1) as u64;
            cycles += degree * SMEM_CYCLES_PER_HALF_WARP;
        }
        cycles
    }

    /// Charges one warp-level shared access to the counters, measuring bank
    /// conflicts from the actual addresses. Returns the extra serialization
    /// cycles beyond the conflict-free baseline (sanitizer evidence).
    pub(crate) fn charge(
        &self,
        counters: &mut ExecCounters,
        addrs: &[u64],
        half_warp: usize,
    ) -> u64 {
        let cycles = self.access_cycles(addrs, half_warp);
        let baseline = addrs.chunks(half_warp).count() as u64 * SMEM_CYCLES_PER_HALF_WARP;
        let extra = cycles.saturating_sub(baseline);
        counters.smem_ops += 1;
        counters.smem_conflict_cycles += extra;
        extra
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smem() -> SharedMem {
        SharedMem::new(16 * 1024, 16)
    }

    #[test]
    fn conflict_free_access_costs_baseline() {
        // 16 consecutive words → 16 distinct banks.
        let addrs: Vec<u64> = (0..16).map(|i| i * 4).collect();
        assert_eq!(smem().access_cycles(&addrs, 16), SMEM_CYCLES_PER_HALF_WARP);
    }

    #[test]
    fn same_word_broadcast_is_free() {
        let addrs = [100u64; 16];
        assert_eq!(smem().access_cycles(&addrs, 16), SMEM_CYCLES_PER_HALF_WARP);
    }

    #[test]
    fn stride_16_words_is_fully_serialized() {
        // All 16 lanes map to bank 0 with distinct words: degree 16.
        let addrs: Vec<u64> = (0..16).map(|i| i * 16 * 4).collect();
        assert_eq!(smem().access_cycles(&addrs, 16), 16 * SMEM_CYCLES_PER_HALF_WARP);
    }

    #[test]
    fn two_way_conflict_doubles_cost() {
        // Lanes 0..8 on banks 0..8 (words 0..8), lanes 8..16 on the same
        // banks but different words (16..24): degree 2.
        let addrs: Vec<u64> = (0..8u64).map(|i| i * 4).chain((16..24u64).map(|i| i * 4)).collect();
        assert_eq!(smem().access_cycles(&addrs, 16), 2 * SMEM_CYCLES_PER_HALF_WARP);
    }

    #[test]
    fn full_warp_is_two_half_warps() {
        let addrs: Vec<u64> = (0..32).map(|i| i * 4).collect();
        assert_eq!(smem().access_cycles(&addrs, 16), 2 * SMEM_CYCLES_PER_HALF_WARP);
    }

    #[test]
    fn byte_lanes_within_one_word_do_not_conflict() {
        // Four byte-addresses inside the same 4-byte word are one bank, one
        // word: broadcast.
        let addrs: Vec<u64> = vec![40, 41, 42, 43];
        assert_eq!(smem().access_cycles(&addrs, 16), SMEM_CYCLES_PER_HALF_WARP);
    }

    #[test]
    fn charge_records_conflict_cycles_only_above_baseline() {
        let s = smem();
        let mut c = crate::stats::ExecCounters::default();
        let conflict_free: Vec<u64> = (0..16).map(|i| i * 4).collect();
        s.charge(&mut c, &conflict_free, 16);
        assert_eq!(c.smem_conflict_cycles, 0);
        let serialized: Vec<u64> = (0..16).map(|i| i * 64).collect();
        s.charge(&mut c, &serialized, 16);
        assert_eq!(c.smem_conflict_cycles, 15 * SMEM_CYCLES_PER_HALF_WARP);
        assert_eq!(c.smem_ops, 2);
    }

    #[test]
    fn read_write_roundtrip() {
        let mut s = smem();
        s.write_u32(64, 0xDEADBEEF);
        assert_eq!(s.read_u32(64), 0xDEADBEEF);
        s.write_u8(3, 42);
        assert_eq!(s.read_u8(3), 42);
    }
}
