//! What an announce alone costs an FFT16 receiver, before any frame.
//!
//! An announce is one checksummed but unauthenticated datagram. The
//! largest shape both validators pass — 2^14 blocks of 2 bytes, 2^20
//! segments — would cost 2 × 2^14 × 2^20 shard slots of 24 bytes (768 GiB)
//! if the receiver sized every segment's slots up front. A byte-counting
//! `#[global_allocator]` (counting only on the test's own thread, only
//! while armed) shows that `make_receiver` at that shape takes at most 64
//! bytes per announced segment. While armed it also refuses any allocation
//! past a budget, so a receiver that sizes its slots up front aborts here
//! instead of exhausting the host's memory.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use nc_fft::Fft16Codec;
use nc_rlnc::codec::ErasureCodec;
use nc_rlnc::CodingConfig;

struct ByteCountingAllocator;

/// Armed allocations that would take `BYTES` past this are refused.
const BUDGET: usize = 256 << 20;

thread_local! {
    /// Const-initialized and without a destructor, so reading it from
    /// inside the allocator cannot itself allocate.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    /// Bytes this thread asked for while armed.
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

/// Counts an allocation of `size` bytes if armed; whether it may proceed.
fn admit(size: usize) -> bool {
    if !ARMED.try_with(Cell::get).unwrap_or(false) {
        return true;
    }
    BYTES
        .try_with(|bytes| {
            bytes.set(bytes.get() + size);
            bytes.get() <= BUDGET
        })
        .unwrap_or(true)
}

// SAFETY: every method either returns null, which `GlobalAlloc` allows for
// a failed allocation, or forwards its arguments unchanged to `System`,
// which upholds the contract; the counting touches no allocator state.
unsafe impl GlobalAlloc for ByteCountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if !admit(layout.size()) {
            return std::ptr::null_mut();
        }
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if !admit(layout.size()) {
            return std::ptr::null_mut();
        }
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if !admit(new_size) {
            return std::ptr::null_mut();
        }
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout` (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: ByteCountingAllocator = ByteCountingAllocator;

/// Bytes this thread asked the allocator for while `work` ran.
fn bytes_during(work: impl FnOnce()) -> usize {
    let before = BYTES.with(Cell::get);
    ARMED.with(|armed| armed.set(true));
    work();
    ARMED.with(|armed| armed.set(false));
    BYTES.with(Cell::get) - before
}

#[test]
fn the_largest_announce_costs_at_most_64_bytes_a_segment() {
    assert_eq!(
        bytes_during(|| drop(std::hint::black_box(vec![1u8; 64]))),
        64,
        "the counter counts"
    );

    const SEGMENTS: usize = 1 << 20;
    let config = CodingConfig::new(1 << 14, 2).expect("valid");
    // The length those segments imply (32 GiB), as a sender announces it.
    let original_len = SEGMENTS * config.segment_bytes();
    let mut receiver = None;
    let bytes = bytes_during(|| {
        receiver = Some(Fft16Codec.make_receiver(config, SEGMENTS, original_len));
    });
    let receiver = receiver.expect("ran").expect("the FFT16 validator passes this shape");
    assert!(bytes <= 64 * SEGMENTS, "the announce took {bytes} bytes for {SEGMENTS} segments");
    assert_eq!(receiver.segments_complete(), 0);
}
