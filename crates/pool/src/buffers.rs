//! Capacity-aware recycling of byte buffers.
//!
//! The coding hot paths move `Vec<u8>`s around constantly: every coded
//! block carries a coefficient vector and a payload, every received
//! datagram used to be `to_vec()`-ed off the socket buffer. [`BytesPool`]
//! keeps those allocations alive between uses: takers get a `Vec` with
//! recycled capacity when one fits, and a dropped [`PooledBuf`] hands its
//! allocation straight back. Shelves are bucketed by power-of-two
//! capacity class, each bucket behind its own lock, so the take/recycle
//! fast path is an O(1) pop and concurrent workers recycling
//! different-sized buffers never contend. [`BlockArena`] is the coded-block
//! specialization: a process-wide pair of shelves (coefficients,
//! payloads) so the vectors an [`Encoder`] mints come back from the
//! [`Decoder`] that consumes them.
//!
//! [`Encoder`]: https://docs.rs/nc-rlnc
//! [`Decoder`]: https://docs.rs/nc-rlnc

// Shim-layer imports (std re-exports normally, model-checker types under
// `--cfg nc_check`) so the shelf locking and retained-count protocol are
// explorable by nc-check.
use nc_check::sync::atomic::{AtomicUsize, Ordering};
use nc_check::sync::{Arc, Mutex, OnceLock};

use crate::metrics::metrics;

/// How many recycled vectors one pool keeps before dropping extras. High
/// enough for a full decode wave's blocks, low enough to bound retained
/// memory at a few MB of typical payloads.
const DEFAULT_MAX_RETAINED: usize = 256;

/// Number of capacity classes: bucket `b` shelves vectors whose capacity
/// `c` satisfies `2^b <= c < 2^(b+1)`.
const BUCKETS: usize = usize::BITS as usize;

/// How many classes above the requested one a take probes before giving
/// up. Bounds both the worst-case work per miss and how oversized a
/// handed-out buffer can be (at most ~2^`BUCKET_PROBES`× the request).
const BUCKET_PROBES: usize = 3;

/// The capacity class a vector of capacity `c >= 1` shelves into.
fn class_of(c: usize) -> usize {
    c.ilog2() as usize
}

struct Shelf {
    /// Size-class buckets, each with its own lock, so concurrent takers
    /// and recyclers of different sizes never contend and a take is a
    /// handful of O(1) pops instead of a linear scan of every shelved
    /// vector under one pool-wide mutex.
    buckets: Vec<Mutex<Vec<Vec<u8>>>>,
    /// Total shelved count across buckets; bounds retention without
    /// taking any bucket lock. Incremented *before* a recycle's push and
    /// decremented *after* a take's pop, so it can never underflow.
    retained: AtomicUsize,
    max_retained: usize,
}

/// A shelf of recycled byte buffers.
///
/// Cloning a `BytesPool` is cheap (an `Arc` bump) and clones share the
/// shelf. Buffers come out either as plain `Vec<u8>`s the caller recycles
/// explicitly ([`BytesPool::take_vec`] / [`BytesPool::recycle`]) or as
/// [`PooledBuf`] guards that recycle themselves on drop.
///
/// ```
/// let pool = nc_pool::BytesPool::new(8);
/// let buf = pool.take_copy(b"datagram");
/// assert_eq!(buf, b"datagram");
/// drop(buf); // allocation returns to the shelf
/// assert_eq!(pool.retained(), 1);
/// ```
#[derive(Clone)]
pub struct BytesPool {
    shelf: Arc<Shelf>,
}

impl std::fmt::Debug for BytesPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BytesPool").field("retained", &self.retained()).finish_non_exhaustive()
    }
}

impl BytesPool {
    /// A new pool retaining at most `max_retained` recycled vectors.
    pub fn new(max_retained: usize) -> BytesPool {
        BytesPool {
            shelf: Arc::new(Shelf {
                buckets: (0..BUCKETS).map(|_| Mutex::new(Vec::new())).collect(),
                retained: AtomicUsize::new(0),
                max_retained,
            }),
        }
    }

    /// The process-wide pool used by the transport receive path.
    pub fn global() -> &'static BytesPool {
        static GLOBAL: OnceLock<BytesPool> = OnceLock::new();
        GLOBAL.get_or_init(|| BytesPool::new(DEFAULT_MAX_RETAINED))
    }

    /// Number of vectors currently shelved.
    pub fn retained(&self) -> usize {
        self.shelf.retained.load(Ordering::Acquire)
    }

    /// A zeroed vector of exactly `len` bytes, reusing shelved capacity
    /// when a large-enough allocation is available.
    pub fn take_vec(&self, len: usize) -> Vec<u8> {
        let mut v = self.grab(len).unwrap_or_else(|| Vec::with_capacity(len));
        v.clear();
        v.resize(len, 0);
        v
    }

    /// An *empty* vector with at least `cap` capacity, reusing shelved
    /// allocations when available (no zeroing pass — the caller appends).
    /// The serialization hot paths build datagrams into these; the
    /// transport drivers recycle the allocation after the socket send.
    pub fn take_capacity(&self, cap: usize) -> Vec<u8> {
        let mut v = self.grab(cap).unwrap_or_else(|| Vec::with_capacity(cap));
        v.clear();
        v
    }

    /// A plain vector holding a copy of `src` (no zeroing pass — the copy
    /// overwrites), reusing shelved capacity when available. The caller
    /// recycles it explicitly, or lets downstream consumers do so.
    pub fn take_vec_copy(&self, src: &[u8]) -> Vec<u8> {
        let mut v = self.grab(src.len()).unwrap_or_else(|| Vec::with_capacity(src.len()));
        v.clear();
        v.extend_from_slice(src);
        v
    }

    /// A [`PooledBuf`] holding a copy of `src` (no zeroing pass — the
    /// copy overwrites). The buffer returns to this pool on drop.
    pub fn take_copy(&self, src: &[u8]) -> PooledBuf {
        let mut v = self.grab(src.len()).unwrap_or_else(|| Vec::with_capacity(src.len()));
        v.clear();
        v.extend_from_slice(src);
        PooledBuf { vec: Some(v), pool: self.clone() }
    }

    /// Wraps an already-filled vector so it recycles into this pool on
    /// drop (used when ownership of the bytes arrives from elsewhere,
    /// e.g. an in-process channel).
    pub fn wrap(&self, vec: Vec<u8>) -> PooledBuf {
        PooledBuf { vec: Some(vec), pool: self.clone() }
    }

    /// Returns a vector's allocation to the shelf (dropped instead when
    /// the shelf is full or the allocation is empty).
    pub fn recycle(&self, vec: Vec<u8>) {
        let capacity = vec.capacity();
        if capacity == 0 {
            return;
        }
        // Claim a retention slot before pushing so the count bounds the
        // shelf without holding any bucket lock; losing the claim means
        // the shelf is full and the allocation simply drops.
        let claimed = self
            .shelf
            .retained
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < self.shelf.max_retained).then_some(n + 1)
            })
            .is_ok();
        if claimed {
            metrics().bytes_recycled.add(capacity as u64);
            let mut bucket =
                self.shelf.buckets[class_of(capacity)].lock().expect("pool shelf lock");
            bucket.push(vec);
        }
    }

    /// Pops a shelved vector with at least `min_capacity`, if any,
    /// recording the hit or miss.
    fn grab(&self, min_capacity: usize) -> Option<Vec<u8>> {
        let class = class_of(min_capacity.max(1));
        // The requested size's own class can hold capacities on either
        // side of `min_capacity`, so scan it newest-first (the most
        // recently recycled allocation is the most likely to still be
        // warm in cache) with a capacity check...
        {
            let mut bucket = self.shelf.buckets[class].lock().expect("pool shelf lock");
            if let Some(i) = bucket.iter().rposition(|v| v.capacity() >= min_capacity) {
                let v = bucket.swap_remove(i);
                drop(bucket);
                self.shelf.retained.fetch_sub(1, Ordering::AcqRel);
                metrics().buffer_hits.inc();
                return Some(v);
            }
        }
        // ...while every higher class guarantees a fit, so a plain pop
        // suffices there. The probe window keeps a miss O(1) and stops
        // tiny requests from consuming huge allocations.
        for c in (class + 1)..(class + 1 + BUCKET_PROBES).min(BUCKETS) {
            let popped = self.shelf.buckets[c].lock().expect("pool shelf lock").pop();
            if let Some(v) = popped {
                debug_assert!(v.capacity() >= min_capacity);
                self.shelf.retained.fetch_sub(1, Ordering::AcqRel);
                metrics().buffer_hits.inc();
                return Some(v);
            }
        }
        metrics().buffer_misses.inc();
        None
    }
}

/// An owned byte buffer that returns its allocation to its [`BytesPool`]
/// when dropped. Dereferences to `[u8]`, so existing `&[u8]` consumers
/// (wire parsers, session handlers) take it unchanged.
pub struct PooledBuf {
    /// `None` only after `into_vec` moved the storage out.
    vec: Option<Vec<u8>>,
    pool: BytesPool,
}

impl PooledBuf {
    /// Extracts the underlying vector, opting out of recycling.
    pub fn into_vec(mut self) -> Vec<u8> {
        self.vec.take().expect("buffer present until into_vec")
    }

    fn bytes(&self) -> &[u8] {
        self.vec.as_deref().expect("buffer present until into_vec")
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        if let Some(v) = self.vec.take() {
            self.pool.recycle(v);
        }
    }
}

impl std::ops::Deref for PooledBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.bytes()
    }
}

impl std::ops::DerefMut for PooledBuf {
    fn deref_mut(&mut self) -> &mut [u8] {
        self.vec.as_deref_mut().expect("buffer present until into_vec")
    }
}

impl AsRef<[u8]> for PooledBuf {
    fn as_ref(&self) -> &[u8] {
        self.bytes()
    }
}

impl std::fmt::Debug for PooledBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self.bytes(), f)
    }
}

impl PartialEq for PooledBuf {
    fn eq(&self, other: &PooledBuf) -> bool {
        self.bytes() == other.bytes()
    }
}

impl Eq for PooledBuf {}

impl PartialEq<[u8]> for PooledBuf {
    fn eq(&self, other: &[u8]) -> bool {
        self.bytes() == other
    }
}

impl PartialEq<&[u8]> for PooledBuf {
    fn eq(&self, other: &&[u8]) -> bool {
        self.bytes() == *other
    }
}

impl PartialEq<Vec<u8>> for PooledBuf {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.bytes() == other.as_slice()
    }
}

impl<const N: usize> PartialEq<[u8; N]> for PooledBuf {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.bytes() == other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for PooledBuf {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.bytes() == *other
    }
}

/// Process-wide recycling for coded-block storage: one shelf for
/// coefficient vectors (short — `n` bytes), one for payloads (`k` bytes),
/// so the two populations don't evict each other.
///
/// Encoders take zeroed buffers from the arena; a decoder hands a block's
/// coefficient vector back as soon as it is folded into its elimination
/// rows, and the payloads it holds once the segment is decoded (or the
/// decoder is dropped).
pub struct BlockArena {
    coeffs: BytesPool,
    payloads: BytesPool,
}

impl std::fmt::Debug for BlockArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockArena")
            .field("coeffs", &self.coeffs)
            .field("payloads", &self.payloads)
            .finish()
    }
}

impl BlockArena {
    /// An arena with its own (non-global) shelves.
    pub fn new(max_retained: usize) -> BlockArena {
        BlockArena { coeffs: BytesPool::new(max_retained), payloads: BytesPool::new(max_retained) }
    }

    /// The process-wide arena the encoder/decoder hot paths share.
    pub fn global() -> &'static BlockArena {
        static GLOBAL: OnceLock<BlockArena> = OnceLock::new();
        GLOBAL.get_or_init(|| BlockArena::new(DEFAULT_MAX_RETAINED))
    }

    /// A zeroed coefficient vector of length `n`.
    pub fn take_coeffs(&self, n: usize) -> Vec<u8> {
        self.coeffs.take_vec(n)
    }

    /// A zeroed payload vector of length `k`.
    pub fn take_payload(&self, k: usize) -> Vec<u8> {
        self.payloads.take_vec(k)
    }

    /// A coefficient vector holding a copy of `src`.
    pub fn copy_coeffs(&self, src: &[u8]) -> Vec<u8> {
        self.coeffs.take_vec_copy(src)
    }

    /// A payload vector holding a copy of `src`.
    pub fn copy_payload(&self, src: &[u8]) -> Vec<u8> {
        self.payloads.take_vec_copy(src)
    }

    /// Recycles a coefficient vector whose bytes have been consumed.
    pub fn recycle_coeffs(&self, coeffs: Vec<u8>) {
        self.coeffs.recycle(coeffs);
    }

    /// Recycles a payload vector whose bytes have been consumed.
    pub fn recycle_payload(&self, payload: Vec<u8>) {
        self.payloads.recycle(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_copy_roundtrips_and_recycles() {
        let pool = BytesPool::new(4);
        let buf = pool.take_copy(b"hello");
        assert_eq!(buf, b"hello");
        assert_eq!(buf.len(), 5);
        drop(buf);
        assert_eq!(pool.retained(), 1);
        // The next take of a smaller-or-equal size reuses the shelf.
        let buf2 = pool.take_copy(b"hi");
        assert_eq!(pool.retained(), 0);
        assert_eq!(buf2, b"hi");
    }

    #[test]
    fn take_vec_is_zeroed_even_after_recycling_dirty_bytes() {
        let pool = BytesPool::new(4);
        pool.recycle(vec![0xFFu8; 64]);
        let v = pool.take_vec(32);
        assert_eq!(v.len(), 32);
        assert!(v.iter().all(|&b| b == 0), "recycled buffer must be zeroed");
    }

    #[test]
    fn retention_is_bounded() {
        let pool = BytesPool::new(2);
        for _ in 0..10 {
            pool.recycle(vec![1u8; 8]);
        }
        assert_eq!(pool.retained(), 2);
    }

    #[test]
    fn same_class_non_power_of_two_sizes_are_reused() {
        // A uniform stream of oddly-sized payloads (the common coding
        // workload) must hit: capacity 1100 shelves into the 1024-class
        // bucket, and a take of 1100 has to find it there rather than
        // only probing classes whose floor is >= 1100.
        let pool = BytesPool::new(8);
        pool.recycle(Vec::with_capacity(1100));
        let v = pool.take_vec(1100);
        assert!(v.capacity() >= 1100);
        assert_eq!(pool.retained(), 0, "the shelved allocation was reused");
    }

    #[test]
    fn in_class_entries_below_the_request_are_not_handed_out() {
        // Capacity 1025 and request 2000 share the 1024-class bucket,
        // but the shelved vec is too small and must be skipped.
        let pool = BytesPool::new(8);
        pool.recycle(Vec::with_capacity(1025));
        let v = pool.take_vec(2000);
        assert_eq!(v.len(), 2000);
        assert_eq!(pool.retained(), 1, "the undersized vec stays shelved");
    }

    #[test]
    fn takes_do_not_consume_wildly_oversized_allocations() {
        // A 1 MiB buffer is outside the probe window of a 16-byte take:
        // handing it out would pin huge capacity on a tiny use.
        let pool = BytesPool::new(8);
        pool.recycle(Vec::with_capacity(1 << 20));
        let v = pool.take_vec(16);
        assert!(v.capacity() < (1 << 20));
        assert_eq!(pool.retained(), 1);
    }

    #[test]
    fn undersized_shelf_entries_are_skipped() {
        let pool = BytesPool::new(4);
        pool.recycle(vec![0u8; 4]);
        let v = pool.take_vec(1024); // too big for the shelved 4-byte vec
        assert_eq!(v.len(), 1024);
        assert_eq!(pool.retained(), 1, "the small vec stays shelved");
    }

    #[test]
    fn into_vec_opts_out_of_recycling() {
        let pool = BytesPool::new(4);
        let buf = pool.take_copy(b"keep");
        let v = buf.into_vec();
        assert_eq!(v, b"keep");
        assert_eq!(pool.retained(), 0);
    }

    #[test]
    fn pooled_buf_equality_shapes() {
        let pool = BytesPool::new(4);
        let a = pool.take_copy(b"abc");
        let b = pool.take_copy(b"abc");
        assert_eq!(a, b);
        assert_eq!(a, *b"abc");
        assert_eq!(a, b"abc");
        assert_eq!(a, vec![b'a', b'b', b'c']);
        assert_eq!(a, b"abc"[..]);
        assert!(a != b"abd");
    }

    #[test]
    fn arena_keeps_coeffs_and_payloads_apart() {
        let arena = BlockArena::new(4);
        arena.recycle_coeffs(vec![1u8; 8]);
        arena.recycle_payload(vec![2u8; 64]);
        let c = arena.take_coeffs(8);
        let p = arena.take_payload(64);
        assert!(c.iter().all(|&b| b == 0));
        assert!(p.iter().all(|&b| b == 0));
        assert_eq!(c.capacity(), 8);
        assert_eq!(p.capacity(), 64);
    }
}
