//! Device (global) memory: allocation, access, and coalescing rules.
//!
//! Coalescing follows the Tesla (compute 1.2/1.3) specification the paper's
//! kernels are tuned for: the addresses touched by each **half-warp** are
//! grouped into naturally aligned segments (32 bytes for 1-byte accesses,
//! 64 bytes for 4-byte accesses), and one transaction is issued per distinct
//! segment. A half-warp reading 16 consecutive words therefore costs one
//! 64-byte transaction; a half-warp scattering into a table costs up to 16.

use crate::stats::ExecCounters;

/// A contiguous allocation in device memory: a typed handle, not a pointer.
///
/// Buffers are produced by [`crate::Gpu::alloc`] and passed to kernels by
/// value; all addressing inside kernels is done in byte offsets relative to
/// device memory via [`DeviceBuffer::addr`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct DeviceBuffer {
    pub(crate) offset: u64,
    pub(crate) len: u64,
}

impl DeviceBuffer {
    /// The buffer's absolute byte offset in its device address space.
    #[inline]
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// The buffer's length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the buffer is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A sub-buffer view: `len` bytes starting `offset` bytes in.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the buffer.
    pub fn sub(&self, offset: usize, len: usize) -> DeviceBuffer {
        assert!(
            (offset + len) as u64 <= self.len,
            "sub-buffer {offset}+{len} exceeds {}",
            self.len
        );
        DeviceBuffer { offset: self.offset + offset as u64, len: len as u64 }
    }

    /// Absolute device address of byte `index` within the buffer.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len` (an out-of-bounds kernel access).
    #[inline]
    pub fn addr(&self, index: usize) -> u64 {
        assert!(
            (index as u64) < self.len,
            "device buffer access out of bounds: {index} >= {}",
            self.len
        );
        self.offset + index as u64
    }
}

/// Segment size for coalescing byte-granularity accesses.
const SEG_BYTES_U8: u64 = 32;
/// Segment size for coalescing word-granularity accesses.
const SEG_BYTES_U32: u64 = 64;

/// Counts the coalesced transactions for the addresses of one warp access,
/// splitting the lanes into half-warps of 16 and charging one transaction
/// per distinct aligned segment per half-warp. Returns
/// `(transactions, bytes)`.
pub(crate) fn coalesce(addrs: &[u64], access_bytes: u64, half_warp: usize) -> (u64, u64) {
    let seg = if access_bytes >= 4 { SEG_BYTES_U32 } else { SEG_BYTES_U8 };
    let mut transactions = 0u64;
    for half in addrs.chunks(half_warp) {
        // Collect distinct segment indices. Half-warps are at most 16 lanes,
        // so a tiny on-stack scan beats a hash set.
        let mut segments: [u64; 16] = [u64::MAX; 16];
        let mut count = 0usize;
        for &a in half {
            let s = a / seg;
            if !segments[..count].contains(&s) {
                segments[count] = s;
                count += 1;
            }
        }
        transactions += count as u64;
    }
    (transactions, transactions * seg)
}

/// The device's global memory plus a bump allocator.
#[derive(Debug)]
pub(crate) struct GlobalMemory {
    data: Vec<u8>,
    cursor: u64,
    /// `(offset, len)` of every live allocation, in allocation order (the
    /// bump allocator never reorders). The sanitizer's memcheck seeds its
    /// extent map from this.
    allocs: Vec<(u64, u64)>,
}

impl GlobalMemory {
    /// Creates `capacity` bytes of zeroed device memory.
    pub(crate) fn new(capacity: usize) -> GlobalMemory {
        GlobalMemory { data: vec![0; capacity], cursor: 0, allocs: Vec::new() }
    }

    /// Allocates `len` bytes, 256-byte aligned (CUDA's allocation
    /// granularity, which also keeps buffers segment-aligned for
    /// coalescing).
    ///
    /// # Panics
    ///
    /// Panics when device memory is exhausted.
    pub(crate) fn alloc(&mut self, len: usize) -> DeviceBuffer {
        let aligned = self.cursor.next_multiple_of(256);
        assert!(
            aligned + len as u64 <= self.data.len() as u64,
            "device out of memory: need {len} bytes at {aligned}, capacity {}",
            self.data.len()
        );
        self.cursor = aligned + len as u64;
        self.allocs.push((aligned, len as u64));
        DeviceBuffer { offset: aligned, len: len as u64 }
    }

    /// Frees everything (a whole-device reset; the simulator does not track
    /// individual frees, mirroring the arena usage of the paper's server).
    pub(crate) fn reset(&mut self) {
        self.cursor = 0;
        self.data.fill(0);
        self.allocs.clear();
    }

    /// The live allocations as `(offset, len)` pairs, sorted by offset.
    pub(crate) fn extents(&self) -> &[(u64, u64)] {
        &self.allocs
    }

    /// Host-side view of a buffer (no transfer cost — use
    /// [`crate::Gpu::download`] for modeled transfers).
    pub(crate) fn slice(&self, buf: DeviceBuffer) -> &[u8] {
        &self.data[buf.offset as usize..(buf.offset + buf.len) as usize]
    }

    /// Host-side mutable view of a buffer.
    pub(crate) fn slice_mut(&mut self, buf: DeviceBuffer) -> &mut [u8] {
        &mut self.data[buf.offset as usize..(buf.offset + buf.len) as usize]
    }

    #[inline]
    pub(crate) fn read_u8(&self, addr: u64) -> u8 {
        self.data[addr as usize]
    }

    #[inline]
    pub(crate) fn read_u32(&self, addr: u64) -> u32 {
        let a = addr as usize;
        u32::from_le_bytes(self.data[a..a + 4].try_into().expect("4-byte read"))
    }

    #[inline]
    pub(crate) fn write_u32(&mut self, addr: u64, v: u32) {
        let a = addr as usize;
        self.data[a..a + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Charges one warp-level global access to the counters and returns the
    /// coalesced transaction count (sanitizer evidence).
    pub(crate) fn charge(
        counters: &mut ExecCounters,
        addrs: &[u64],
        access_bytes: u64,
        half_warp: usize,
    ) -> u64 {
        let (tx, bytes) = coalesce(addrs, access_bytes, half_warp);
        counters.gmem_ops += 1;
        counters.gmem_transactions += tx;
        counters.gmem_bytes += bytes;
        tx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consecutive_words_coalesce_to_one_transaction_per_half_warp() {
        // 32 lanes reading consecutive 4-byte words from a 64B-aligned base:
        // each half-warp covers exactly one 64-byte segment.
        let addrs: Vec<u64> = (0..32).map(|i| 4096 + i * 4).collect();
        let (tx, bytes) = coalesce(&addrs, 4, 16);
        assert_eq!(tx, 2);
        assert_eq!(bytes, 128);
    }

    #[test]
    fn scattered_words_do_not_coalesce() {
        // Each lane hits a different 64-byte segment.
        let addrs: Vec<u64> = (0..32).map(|i| i * 256).collect();
        let (tx, _) = coalesce(&addrs, 4, 16);
        assert_eq!(tx, 32);
    }

    #[test]
    fn broadcast_is_one_transaction() {
        let addrs = [777u64; 32];
        let (tx, _) = coalesce(&addrs, 4, 16);
        assert_eq!(tx, 2); // one per half-warp
    }

    #[test]
    fn misaligned_run_spans_two_segments() {
        // 16 consecutive words starting 32 bytes into a segment straddle two
        // 64-byte segments.
        let addrs: Vec<u64> = (0..16).map(|i| 32 + i * 4).collect();
        let (tx, _) = coalesce(&addrs, 4, 16);
        assert_eq!(tx, 2);
    }

    #[test]
    fn byte_accesses_use_32_byte_segments() {
        let addrs: Vec<u64> = (0..16).collect();
        let (tx, bytes) = coalesce(&addrs, 1, 16);
        assert_eq!(tx, 1);
        assert_eq!(bytes, 32);
    }

    #[test]
    fn allocation_is_aligned_and_bounded() {
        let mut mem = GlobalMemory::new(4096);
        let a = mem.alloc(100);
        let b = mem.alloc(100);
        assert_eq!(a.offset % 256, 0);
        assert_eq!(b.offset % 256, 0);
        assert!(b.offset >= a.offset + 100);
        assert_eq!(a.len(), 100);
    }

    #[test]
    #[should_panic]
    fn oom_panics() {
        let mut mem = GlobalMemory::new(1024);
        let _ = mem.alloc(2048);
    }

    #[test]
    #[should_panic]
    fn buffer_bounds_are_checked() {
        let mut mem = GlobalMemory::new(1024);
        let buf = mem.alloc(16);
        let _ = buf.addr(16);
    }

    #[test]
    fn reset_reclaims_everything() {
        let mut mem = GlobalMemory::new(1024);
        let buf = mem.alloc(512);
        mem.slice_mut(buf)[0] = 7;
        mem.reset();
        assert_eq!(mem.cursor, 0);
        let buf2 = mem.alloc(512);
        assert_eq!(mem.slice(buf2)[0], 0);
    }
}
