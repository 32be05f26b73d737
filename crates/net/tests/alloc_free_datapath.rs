//! The per-datagram paths allocate nothing once warm.
//!
//! A counting `#[global_allocator]` (counting only on the test's own
//! thread, only while armed) wraps the system allocator. After a warm-up
//! that fills the buffer pool and lets every segment's decoder state reach
//! its final size, 1000 `poll → Transmit → recycle` cycles of a
//! [`SenderSession`] and 1000 non-completing `handle_bytes` calls of a
//! [`ReceiverSession`] must not reach the allocator once: each datagram is
//! encoded in place into one pooled buffer, and parsed borrowed and copied
//! once into the decoder's own output buffer.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use nc_net::receiver::{ReceiverConfig, ReceiverEvent, ReceiverSession};
use nc_net::session::{SenderConfig, SenderEvent, SenderSession};
use nc_net::wire::{Datagram, Payload, SegmentBitmap};
use nc_pool::BytesPool;
use nc_rlnc::stream::StreamEncoder;
use nc_rlnc::CodingConfig;

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Const-initialized and without a destructor, so reading it from
    /// inside the allocator cannot itself allocate.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn note_allocation() {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches no allocator
// state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
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
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations made by this thread while `work` runs.
fn allocations_during(work: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    ARMED.with(|armed| armed.set(true));
    work();
    ARMED.with(|armed| armed.set(false));
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

const SESSION: u64 = 7;
const CYCLES: usize = 1000;
const BLOCKS: usize = 16;
const SEGMENTS: usize = 128;

/// 128 segments of 16 x 64 B, served with the flow window out of the way
/// and the announce already acknowledged, so `poll` has nothing to do but
/// emit data frames.
fn sender(now: Instant) -> SenderSession {
    let coding = CodingConfig::new(BLOCKS, 64).expect("valid");
    let data: Vec<u8> =
        (0..SEGMENTS * coding.segment_bytes()).map(|i| (i * 31 + 7) as u8).collect();
    let encoder = Arc::new(StreamEncoder::new(coding, &data).expect("non-empty"));
    let config = SenderConfig { window_frames: 1 << 40, ..SenderConfig::default() };
    let mut session = SenderSession::new(encoder, SESSION, config, 1, now).expect("frame fits");
    let ack = Payload::Ack { received: 0, innovative: 0, completed: SegmentBitmap::new(SEGMENTS) };
    session.handle_datagram(&Datagram::new(SESSION, ack), now);
    session
}

fn next_data(session: &mut SenderSession, now: Instant) -> Vec<u8> {
    match session.poll(now) {
        SenderEvent::Transmit(bytes) => bytes,
        other => panic!("expected a data datagram, got {other:?}"),
    }
}

#[test]
fn warm_send_and_receive_paths_do_not_allocate() {
    let now = Instant::now();
    assert_eq!(
        allocations_during(|| drop(std::hint::black_box(vec![1u8; 64]))),
        1,
        "the counter counts"
    );

    // Send: poll, "transmit", recycle. The warm-up's recycle is what the
    // measured cycles' buffers come back from.
    let mut tx = sender(now);
    for _ in 0..8 {
        BytesPool::global().recycle(next_data(&mut tx, now));
    }
    let sent = allocations_during(|| {
        for _ in 0..CYCLES {
            BytesPool::global().recycle(next_data(&mut tx, now));
        }
    });
    assert_eq!(sent, 0, "{CYCLES} poll -> Transmit -> recycle cycles allocated {sent} times");

    // Receive: announce, then one frame per segment as warm-up (each
    // segment's elimination rows and its slice of the output buffer come
    // into being with its first frame), then frames that leave every
    // segment short of rank n.
    let mut tx = sender(now);
    let mut rx = ReceiverSession::new(SESSION, ReceiverConfig::default(), now);
    let ReceiverEvent::Transmit(request) = rx.poll(now) else { panic!("expected the request") };
    BytesPool::global().recycle(request);
    let announce = Datagram::new(SESSION, Payload::Announce(tx.meta())).encode().expect("small");
    rx.handle_bytes(&announce, now);
    // The sender round-robins segments, so its first SEGMENTS frames touch
    // each once, and CYCLES more add at most ceil(CYCLES / SEGMENTS) = 8 to
    // any one: rank <= 9 < 16, nothing completes.
    assert!(1 + CYCLES.div_ceil(SEGMENTS) < BLOCKS);
    for _ in 0..SEGMENTS {
        rx.handle_bytes(&next_data(&mut tx, now), now);
    }
    let frames: Vec<Vec<u8>> = (0..CYCLES).map(|_| next_data(&mut tx, now)).collect();
    let received = allocations_during(|| {
        for frame in &frames {
            rx.handle_bytes(frame, now);
        }
    });
    assert_eq!(
        received, 0,
        "{CYCLES} non-completing handle_bytes calls allocated {received} times"
    );
    let report = rx.report();
    assert_eq!(report.received, (SEGMENTS + CYCLES) as u64, "every frame was absorbed");
    assert_eq!(report.malformed + report.corrupt + report.alien, 0);
    assert!(!rx.is_complete());
}
