//! The per-datagram paths allocate nothing once warm.
//!
//! A counting `#[global_allocator]` (counting only on the test's own
//! thread, only while armed) wraps the system allocator. After a warm-up
//! that fills the buffer pool and lets every segment's decoder state reach
//! its final size, 1000 `poll → Transmit → recycle` cycles of a
//! [`SenderSession`] in its systematic range (source blocks copied), 1000
//! more past it (coefficients drawn and a dot product gathered on the
//! stack), and ~1000 non-completing `handle_bytes` calls of a
//! [`ReceiverSession`] must not reach the allocator once: each datagram is
//! encoded in place into one pooled buffer, and parsed borrowed and copied
//! once into the decoder's own output buffer — coded frames into a free
//! slot, and a late unit frame into its source's slot after moving the
//! coded payload that borrowed it. Below them, 1000 loopback
//! datagrams through a [`UdpChannel`] pair's `send_batch` + `recv_batch`
//! must not either: buffers come from and return to the pool, receive
//! slots are borrowed, and the batch scratch lives on the stack.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nc_net::channel::{Channel, UdpChannel};
use nc_net::receiver::{ReceiverConfig, ReceiverEvent, ReceiverSession};
use nc_net::session::{SenderConfig, SenderEvent, SenderSession};
use nc_net::wire::{Datagram, Payload, SegmentBitmap, HEADER_BYTES};
use nc_pool::BytesPool;
use nc_rlnc::codec::StreamCodecSender;
use nc_rlnc::stream::StreamEncoder;
use nc_rlnc::CodingConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

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

/// 128 segments of 16 x 64 B.
fn encoder() -> Arc<StreamEncoder> {
    let coding = CodingConfig::new(BLOCKS, 64).expect("valid");
    let data: Vec<u8> =
        (0..SEGMENTS * coding.segment_bytes()).map(|i| (i * 31 + 7) as u8).collect();
    Arc::new(StreamEncoder::new(coding, &data).expect("non-empty"))
}

/// The stream of [`encoder`], served with the flow window out of the way
/// and the announce already acknowledged, so `poll` has nothing to do but
/// emit data frames. The 50 % loss prior doubles each segment's budget to
/// 2n frames: n systematic, then n coded.
fn sender(now: Instant) -> SenderSession {
    let encoder = encoder();
    let config =
        SenderConfig { window_frames: 1 << 40, initial_loss: 0.5, ..SenderConfig::default() };
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

/// Whether a data datagram's coefficients are a unit vector, i.e. it is a
/// systematic frame (a source block verbatim) rather than a coded one.
fn is_systematic(datagram: &[u8]) -> bool {
    let start = HEADER_BYTES + 8;
    let coefficients = &datagram[start..start + BLOCKS];
    coefficients.iter().filter(|&&c| c != 0).count() == 1 && coefficients.contains(&1)
}

/// `cycles` warm `poll → Transmit → recycle` cycles; returns how many of
/// the datagrams were systematic.
fn send_cycles(session: &mut SenderSession, now: Instant, cycles: usize) -> usize {
    let mut systematic = 0;
    for _ in 0..cycles {
        let bytes = next_data(session, now);
        systematic += usize::from(is_systematic(&bytes));
        BytesPool::global().recycle(bytes);
    }
    systematic
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
    // measured cycles' buffers come back from. The sender round-robins
    // segments, so the first SEGMENTS * BLOCKS frames are every segment's
    // systematic range (source blocks copied in place) and the next
    // SEGMENTS * BLOCKS are coded (a draw and a dot product per frame).
    const WARM: usize = 8;
    const { assert!(WARM + CYCLES <= SEGMENTS * BLOCKS) };
    let mut tx = sender(now);
    assert_eq!(send_cycles(&mut tx, now, WARM), WARM);
    let mut systematic = 0;
    let sent = allocations_during(|| systematic = send_cycles(&mut tx, now, CYCLES));
    assert_eq!(systematic, CYCLES, "frames below seq n are source blocks");
    assert_eq!(sent, 0, "{CYCLES} systematic send cycles allocated {sent} times");
    let rest = SEGMENTS * BLOCKS - WARM - CYCLES;
    assert_eq!(send_cycles(&mut tx, now, rest), rest);
    assert_eq!(send_cycles(&mut tx, now, WARM), 0);
    let sent = allocations_during(|| systematic = send_cycles(&mut tx, now, CYCLES));
    assert_eq!(systematic, 0, "frames from seq n on are coded");
    assert_eq!(sent, 0, "{CYCLES} coded send cycles allocated {sent} times");

    // Receive: announce, then one frame per segment as warm-up (each
    // segment's elimination rows, slot map and slice of the output buffer
    // come into being with its first frame, source block 0), then frames
    // that leave every segment short of rank n: per segment, coded frames
    // (seq >= n) that take free slots 1, 2, ..., then the late unit frame
    // for slot 1, which moves the coded payload there to a free slot.
    let mut tx = sender(now);
    let mut rx = ReceiverSession::new(SESSION, ReceiverConfig::default(), now);
    let ReceiverEvent::Transmit(request) = rx.poll(now) else { panic!("expected the request") };
    BytesPool::global().recycle(request);
    let announce = Datagram::new(SESSION, Payload::Announce(tx.meta())).encode().expect("small");
    rx.handle_bytes(&announce, now);
    for _ in 0..SEGMENTS {
        rx.handle_bytes(&next_data(&mut tx, now), now);
    }
    const CODED: u64 = 7;
    assert!(1 + CODED as usize + 1 < BLOCKS, "nothing completes");
    let encoder = encoder();
    let mut rng = StdRng::seed_from_u64(3);
    let seqs = (BLOCKS as u64..BLOCKS as u64 + CODED).chain([1]);
    let frames: Vec<Vec<u8>> = seqs
        .flat_map(|seq| (0..SEGMENTS).map(move |segment| (segment, seq)))
        .map(|(segment, seq)| {
            let frame = encoder.frame_wire(segment, seq, &mut rng);
            Datagram::new(SESSION, Payload::Data(frame)).encode().expect("fits")
        })
        .collect();
    let received = allocations_during(|| {
        for frame in &frames {
            rx.handle_bytes(frame, now);
        }
    });
    assert_eq!(
        received,
        0,
        "{} non-completing handle_bytes calls allocated {received} times",
        frames.len()
    );
    let report = rx.report();
    assert_eq!(report.received, (SEGMENTS + frames.len()) as u64, "every frame was absorbed");
    assert_eq!(report.innovative, report.received, "every frame was innovative");
    assert_eq!(report.malformed + report.corrupt + report.alien, 0);
    assert!(!rx.is_complete());
}

/// Sends `bursts` bursts of `burst` copies of `template` from `a` to `b`
/// and receives them all; returns how many arrived.
fn udp_round_trips(
    a: &mut UdpChannel,
    b: &mut UdpChannel,
    batch: &mut Vec<Vec<u8>>,
    template: &[u8],
    bursts: usize,
    burst: usize,
) -> usize {
    let mut arrived = 0;
    for _ in 0..bursts {
        batch.extend((0..burst).map(|_| BytesPool::global().take_vec_copy(template)));
        a.send_batch(batch).expect("send");
        let mut got = 0;
        while got < burst {
            let n = b
                .recv_batch(Duration::from_secs(5), &mut |bytes| {
                    assert_eq!(bytes, template);
                    got += 1;
                })
                .expect("recv");
            assert!(n > 0, "loopback datagram lost");
        }
        arrived += got;
    }
    arrived
}

#[test]
fn warm_udp_channel_batches_do_not_allocate() {
    let sa = std::net::UdpSocket::bind("127.0.0.1:0").expect("bind");
    let sb = std::net::UdpSocket::bind("127.0.0.1:0").expect("bind");
    sa.connect(sb.local_addr().expect("addr")).expect("connect");
    sb.connect(sa.local_addr().expect("addr")).expect("connect");
    let (mut a, mut b) = (UdpChannel::from_socket(sa), UdpChannel::from_socket(sb));
    let template = vec![0x5au8; 1024 + 40];
    const BURST: usize = 10;
    let mut batch = Vec::with_capacity(BURST);
    // Warm-up: the receive slots, the send stage and the pool's shelf.
    assert_eq!(udp_round_trips(&mut a, &mut b, &mut batch, &template, 4, BURST), 4 * BURST);
    let mut arrived = 0;
    let allocated = allocations_during(|| {
        arrived = udp_round_trips(&mut a, &mut b, &mut batch, &template, CYCLES / BURST, BURST);
    });
    assert_eq!(arrived, CYCLES);
    assert_eq!(allocated, 0, "{CYCLES} warm UDP datagrams allocated {allocated} times");
}
