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
//! different-sized buffers never contend. A bucket's occupancy is
//! readable without its lock, so a miss locks only buckets that hold
//! something.
//!
//! The process-wide pool ([`BytesPool::global`]) also keeps a small
//! *magazine* per thread in front of its shelf: a take looks there first
//! and a recycle lands there first, so a thread that takes and recycles
//! datagram-sized buffers (a shard loop, a client, an FFT call) touches
//! no lock and no shared count until its magazine runs empty or full. A
//! magazine holds at most 64 buffers in each class up to 64 KiB and
//! empties into the shelf when its thread exits.
//!
//! [`BlockArena`] is the coded-block specialization: a process-wide pair
//! of shelves (coefficients, payloads) so the vectors an [`Encoder`]
//! mints come back from the [`Decoder`] that consumes them.
//!
//! [`Encoder`]: https://docs.rs/nc-rlnc
//! [`Decoder`]: https://docs.rs/nc-rlnc

use std::cell::RefCell;

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

/// Classes a thread magazine keeps: every class up to the 64 KiB one,
/// which covers any datagram. Larger buffers (the FFT's multi-MiB
/// arenas) go to the shelf.
const MAGAZINE_CLASSES: usize = 17;

/// Buffers a thread magazine keeps per class; a recycle past this goes to
/// the shelf. Bounds what one thread holds back from the others at 64
/// buffers a class.
const MAGAZINE_SLOTS: usize = 64;

/// The capacity class a vector of capacity `c >= 1` shelves into.
fn class_of(c: usize) -> usize {
    c.ilog2() as usize
}

/// The classes a take of `min_capacity` probes, below `limit`. The
/// request's own class can hold capacities on either side of it, so it
/// is scanned newest-first (the most recently recycled allocation is the
/// most likely to still be warm in cache) with a capacity check; in
/// every higher class any entry fits. The window keeps a miss O(1) and
/// stops tiny requests from consuming huge allocations.
fn probe_window(min_capacity: usize, limit: usize) -> std::ops::Range<usize> {
    let class = class_of(min_capacity.max(1));
    class..(class + 1 + BUCKET_PROBES).min(limit)
}

/// Removes the newest entry of `vecs` with at least `min_capacity`.
fn take_fitting(vecs: &mut Vec<Vec<u8>>, min_capacity: usize) -> Option<Vec<u8>> {
    let i = vecs.iter().rposition(|v| v.capacity() >= min_capacity)?;
    Some(vecs.swap_remove(i))
}

/// One capacity class of a shelf.
struct Bucket {
    vecs: Mutex<Vec<Vec<u8>>>,
    /// `vecs.len()`, stored under the lock at every push and pop, so a
    /// take can pass over an empty bucket without locking it. A stale
    /// read only turns a hit into a miss or costs one empty lock, which a
    /// take racing a recycle could meet anyway.
    len: AtomicUsize,
}

struct Shelf {
    /// Size-class buckets, each with its own lock, so concurrent takers
    /// and recyclers of different sizes never contend and a take is a
    /// handful of O(1) pops instead of a linear scan of every shelved
    /// vector under one pool-wide mutex.
    buckets: Vec<Bucket>,
    /// Total shelved count across buckets; bounds retention without
    /// taking any bucket lock. Incremented *before* a recycle's push and
    /// decremented *after* a take's pop, so it can never underflow.
    retained: AtomicUsize,
    max_retained: usize,
    /// Whether takes and recycles go through the calling thread's
    /// magazine first (the global pool only).
    magazines: bool,
}

impl Shelf {
    /// Pops a shelved vector with at least `min_capacity`, if any.
    fn take(&self, min_capacity: usize) -> Option<Vec<u8>> {
        let popped =
            self.buckets[probe_window(min_capacity, BUCKETS)].iter().find_map(|bucket| {
                if bucket.len.load(Ordering::Acquire) == 0 {
                    return None;
                }
                let mut vecs = bucket.vecs.lock().expect("pool shelf lock");
                let v = take_fitting(&mut vecs, min_capacity)?;
                bucket.len.store(vecs.len(), Ordering::Release);
                Some(v)
            })?;
        self.retained.fetch_sub(1, Ordering::AcqRel);
        Some(popped)
    }

    /// Shelves `vec` (capacity >= 1); dropped instead when the shelf is
    /// full. Returns whether it was kept.
    fn put(&self, vec: Vec<u8>) -> bool {
        // Claim a retention slot before pushing so the count bounds the
        // shelf without holding any bucket lock; losing the claim means
        // the shelf is full and the allocation simply drops.
        let claimed = self
            .retained
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < self.max_retained).then_some(n + 1)
            })
            .is_ok();
        if claimed {
            let bucket = &self.buckets[class_of(vec.capacity())];
            let mut vecs = bucket.vecs.lock().expect("pool shelf lock");
            vecs.push(vec);
            bucket.len.store(vecs.len(), Ordering::Release);
        }
        claimed
    }
}

/// One thread's buffers in front of the global pool's shelf, per class
/// up to [`MAGAZINE_CLASSES`], at most [`MAGAZINE_SLOTS`] each.
struct Magazine {
    classes: [Vec<Vec<u8>>; MAGAZINE_CLASSES],
}

impl Magazine {
    const fn new() -> Magazine {
        Magazine { classes: [const { Vec::new() }; MAGAZINE_CLASSES] }
    }

    /// A held vector with at least `min_capacity`, probing the same
    /// classes a shelf take does.
    fn take(&mut self, min_capacity: usize) -> Option<Vec<u8>> {
        let window = probe_window(min_capacity, MAGAZINE_CLASSES);
        // A request above the magazine's classes finds nothing: `get_mut`
        // rejects a window that starts past the last class.
        self.classes.get_mut(window)?.iter_mut().find_map(|vecs| take_fitting(vecs, min_capacity))
    }

    /// Moves `vec` (capacity >= 1) in if its class has room; otherwise
    /// leaves it where it is.
    fn put(&mut self, vec: &mut Option<Vec<u8>>) {
        let Some(class) = vec.as_ref().and_then(|v| self.classes.get_mut(class_of(v.capacity())))
        else {
            return;
        };
        if class.len() == MAGAZINE_SLOTS {
            return;
        }
        if class.capacity() == 0 {
            // All the slots at once: the class's list never grows on a
            // later recycle, so a warm datapath stays allocation-free.
            class.reserve_exact(MAGAZINE_SLOTS);
        }
        class.extend(vec.take());
    }
}

impl Drop for Magazine {
    /// A thread's exit hands what it held to the shared shelf, where the
    /// threads that outlive it can take it.
    fn drop(&mut self) {
        let shelf = &BytesPool::global().shelf;
        for vec in self.classes.iter_mut().flat_map(std::mem::take) {
            shelf.put(vec);
        }
    }
}

thread_local! {
    /// The calling thread's magazine for [`BytesPool::global`]. Const
    /// storage: a thread's first touch allocates nothing.
    static MAGAZINE: RefCell<Magazine> = const { RefCell::new(Magazine::new()) };
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
        BytesPool::with_shelf(max_retained, false)
    }

    fn with_shelf(max_retained: usize, magazines: bool) -> BytesPool {
        let buckets = (0..BUCKETS)
            .map(|_| Bucket { vecs: Mutex::new(Vec::new()), len: AtomicUsize::new(0) })
            .collect();
        BytesPool {
            shelf: Arc::new(Shelf {
                buckets,
                retained: AtomicUsize::new(0),
                max_retained,
                magazines,
            }),
        }
    }

    /// The process-wide pool the datagram, FFT and receive paths share.
    ///
    /// Unlike a [`BytesPool::new`] pool, it keeps a magazine per thread in
    /// front of its shelf: up to 64 buffers in each capacity class up to
    /// 64 KiB. A take looks there before the shelf and a recycle lands
    /// there while it has room, so a thread that recycles what it takes
    /// touches no lock. A thread's magazine empties into the shelf when
    /// the thread exits.
    pub fn global() -> &'static BytesPool {
        static GLOBAL: OnceLock<BytesPool> = OnceLock::new();
        GLOBAL.get_or_init(|| BytesPool::with_shelf(DEFAULT_MAX_RETAINED, true))
    }

    /// Number of vectors currently on the shared shelf (not counting
    /// what threads' magazines hold).
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

    /// Returns a vector's allocation to the pool (dropped instead when
    /// the shelf is full or the allocation is empty). The global pool
    /// puts it in the calling thread's magazine while that has room.
    pub fn recycle(&self, vec: Vec<u8>) {
        let capacity = vec.capacity();
        if capacity == 0 {
            return;
        }
        let mut vec = Some(vec);
        if self.shelf.magazines {
            // `try_with`: during thread teardown the magazine may be gone
            // already, and the buffer goes to the shelf.
            let _ = MAGAZINE.try_with(|m| m.borrow_mut().put(&mut vec));
        }
        let kept = vec.is_none_or(|vec| self.shelf.put(vec));
        if kept {
            metrics().bytes_recycled.add(capacity as u64);
        }
    }

    /// Takes a recycled vector with at least `min_capacity`, if any,
    /// recording the hit or miss.
    fn grab(&self, min_capacity: usize) -> Option<Vec<u8>> {
        let held = if self.shelf.magazines {
            MAGAZINE.try_with(|m| m.borrow_mut().take(min_capacity)).ok().flatten()
        } else {
            None
        };
        let found = held.or_else(|| self.shelf.take(min_capacity));
        match found {
            Some(_) => metrics().buffer_hits.inc(),
            None => metrics().buffer_misses.inc(),
        }
        found
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
    pub(crate) fn new(max_retained: usize) -> BlockArena {
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

    /// The global pool, held by one test at a time: these tests read its
    /// shared shelf count, and the test threads run side by side.
    fn global_pool() -> (std::sync::MutexGuard<'static, ()>, &'static BytesPool) {
        static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let guard = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        (guard, BytesPool::global())
    }

    #[test]
    fn a_recycle_then_take_on_one_thread_skips_the_shelf() {
        let (_serial, pool) = global_pool();
        let before = pool.retained();
        let v = Vec::with_capacity(3000);
        let at = v.as_ptr();
        pool.recycle(v);
        assert_eq!(pool.retained(), before, "the buffer went to this thread's magazine");
        let v = pool.take_vec(3000);
        assert_eq!(v.as_ptr(), at, "the take got it back");
        assert_eq!(pool.retained(), before, "the shelf was not touched");
    }

    #[test]
    fn a_magazine_class_holds_at_most_its_slots() {
        let (_serial, pool) = global_pool();
        let before = pool.retained();
        std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    for _ in 0..MAGAZINE_SLOTS + 3 {
                        pool.recycle(Vec::with_capacity(5000));
                    }
                    assert_eq!(pool.retained(), before + 3, "the class's overflow is shelved");
                    MAGAZINE.with(|m| {
                        let class = &mut m.borrow_mut().classes[class_of(5000)];
                        assert_eq!(class.len(), MAGAZINE_SLOTS);
                        // Freed here rather than shelved at exit.
                        class.clear();
                    });
                })
                .join()
                .expect("recycling thread");
        });
        // A large buffer is never kept back by a magazine.
        pool.recycle(Vec::with_capacity(1 << 17));
        assert_eq!(pool.retained(), before + 4, "a 128 KiB buffer goes to the shelf");
        for _ in 0..3 {
            assert!(pool.take_vec(5000).capacity() >= 5000);
        }
        assert!(pool.take_vec(1 << 17).capacity() >= 1 << 17);
        assert_eq!(pool.retained(), before);
    }

    #[test]
    fn a_threads_magazine_reaches_the_shelf_when_it_exits() {
        let (_serial, pool) = global_pool();
        let before = pool.retained();
        let held: Vec<usize> = std::thread::scope(|scope| {
            // An explicit join waits for the thread's thread-local
            // destructors; the scope's own wait ends when the closure
            // returns.
            scope
                .spawn(|| {
                    let held: Vec<usize> = (0..5)
                        .map(|_| {
                            let v = Vec::<u8>::with_capacity(7000);
                            let at = v.as_ptr() as usize;
                            pool.recycle(v);
                            at
                        })
                        .collect();
                    assert_eq!(pool.retained(), before, "held in the thread's magazine");
                    held
                })
                .join()
                .expect("recycling thread")
        });
        assert_eq!(pool.retained(), before + 5, "the exit shelved all five");
        let taken: Vec<Vec<u8>> = (0..5).map(|_| pool.take_vec(7000)).collect();
        assert_eq!(pool.retained(), before);
        let mut taken: Vec<usize> = taken.iter().map(|v| v.as_ptr() as usize).collect();
        let mut held = held;
        taken.sort_unstable();
        held.sort_unstable();
        assert_eq!(taken, held, "this thread took the exited thread's buffers off the shelf");
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
