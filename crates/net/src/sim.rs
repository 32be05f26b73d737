//! Virtual-time test support: an integer-microsecond event queue, and
//! [`drive`], which runs [`Step`]s on it as their shells would. Two steps
//! can be joined by a [`Link`], so a server and a client answer each
//! other with no socket.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::hash::Hash;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use nc_rlnc::codec::StreamCodecSender;
use nc_rlnc::stream::StreamEncoder;
use nc_rlnc::CodingConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::step::{Session, Step};
use crate::wire::{session_of, Datagram, Payload, StreamMeta};

/// Virtual time in microseconds. Integers keep every run bit-reproducible,
/// as floats in a priority queue would not.
pub(crate) type Micros = u64;

/// A deterministic min-queue of events, ordered by time and then by
/// insertion.
pub(crate) struct EventQueue<E> {
    heap: BinaryHeap<Queued<E>>,
    seq: u64,
    now: Micros,
}

/// One scheduled event, ordered by `(at, seq)` alone and reversed, so the
/// max-heap pops the earliest.
struct Queued<E> {
    at: Micros,
    seq: u64,
    event: E,
}

impl<E> Ord for Queued<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl<E> PartialOrd for Queued<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> PartialEq for Queued<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl<E> Eq for Queued<E> {}

impl<E> EventQueue<E> {
    pub(crate) fn new() -> EventQueue<E> {
        EventQueue { heap: BinaryHeap::new(), seq: 0, now: 0 }
    }

    /// Schedules `event` at `at`.
    ///
    /// # Panics
    ///
    /// When `at` is in the past.
    pub(crate) fn schedule(&mut self, at: Micros, event: E) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.heap.push(Queued { at, seq: self.seq, event });
        self.seq += 1;
    }

    /// Pops the earliest event, advancing the clock to its time.
    pub(crate) fn pop(&mut self) -> Option<(Micros, E)> {
        let Queued { at, event, .. } = self.heap.pop()?;
        self.now = at;
        Some((at, event))
    }
}

/// How a shell keys its sessions by what arrives.
pub(crate) trait Key: Copy + Eq + Hash + Ord {
    /// The key of a datagram from `from`; `None` drops it.
    fn of(from: SocketAddr, bytes: &[u8]) -> Option<Self>;
}

/// The client's: its socket is connected, so the session id alone.
impl Key for u64 {
    fn of(_: SocketAddr, bytes: &[u8]) -> Option<u64> {
        session_of(bytes)
    }
}

/// The server's: the peer, and the session it asked for.
impl Key for (SocketAddr, u64) {
    fn of(from: SocketAddr, bytes: &[u8]) -> Option<Self> {
        Some((from, session_of(bytes)?))
    }
}

/// What [`drive`] runs: a step behind its shell.
pub(crate) trait Run {
    /// Hands a datagram from `from` to its session.
    fn deliver(&mut self, from: SocketAddr, bytes: &[u8], now: Instant);
    /// Runs the step at `now`, handing `send` each datagram it sent;
    /// returns when it next needs to run with no new datagram.
    fn run(&mut self, now: Instant, send: &mut dyn FnMut(Vec<u8>)) -> Option<Instant>;
}

/// A [`Step`] wired as its shell wires it: a datagram for a key with no
/// session gets the one `open` makes of it, if any, and `watch` sees every
/// step run, its instant and what it sent.
pub(crate) struct Node<'a, K, S, O, W>
where
    O: FnMut(&[u8], Instant) -> Option<S>,
    W: FnMut(&Step<K, S>, Instant, &[(K, Vec<u8>)]),
{
    pub(crate) step: &'a mut Step<K, S>,
    pub(crate) open: O,
    pub(crate) watch: W,
}

impl<K: Key, S: Session, O, W> Run for Node<'_, K, S, O, W>
where
    O: FnMut(&[u8], Instant) -> Option<S>,
    W: FnMut(&Step<K, S>, Instant, &[(K, Vec<u8>)]),
{
    fn deliver(&mut self, from: SocketAddr, bytes: &[u8], now: Instant) {
        if let Some(key) = K::of(from, bytes) {
            self.step.deliver(key, bytes, now, || (self.open)(bytes, now));
        }
    }

    fn run(&mut self, now: Instant, send: &mut dyn FnMut(Vec<u8>)) -> Option<Instant> {
        let mut sent = Vec::new();
        let mut emit = |key, bytes| {
            sent.push((key, bytes));
            Ok(())
        };
        let due = self.step.step(now, &mut emit, &mut |_, _, _| {}).unwrap();
        (self.watch)(self.step, now, &sent);
        sent.into_iter().for_each(|(_, bytes)| send(bytes));
        due
    }
}

/// The wire between the two nodes of a run: each datagram one sends
/// reaches the other `delay` later, unless `coin` drops it (a `loss`
/// share of them).
pub(crate) struct Link {
    pub(crate) delay: Duration,
    pub(crate) loss: f64,
    pub(crate) coin: StdRng,
}

/// Node `node`'s address in a run: where the datagrams it sends come from.
pub(crate) fn addr(node: usize) -> SocketAddr {
    SocketAddr::from(([10, 255, 0, node as u8], 4000))
}

/// Runs `nodes` in virtual time from `base`, as shells that wake exactly
/// when asked would, until the next event falls after `end`. `arrivals`
/// reach node 0 at their instants, from their addresses. A node's step
/// runs at `base`, once after every instant something reached it, and at
/// every due it returns. With a `link`, what each of the two nodes sends
/// crosses it to the other; otherwise it leaves the run. Returns the time
/// of the last event run, since `base`.
pub(crate) fn drive(
    nodes: &mut [&mut dyn Run],
    base: Instant,
    arrivals: impl IntoIterator<Item = (Instant, SocketAddr, Vec<u8>)>,
    mut link: Option<Link>,
    end: Instant,
) -> Duration {
    assert!(link.is_none() || nodes.len() == 2, "a link joins two nodes");
    let micros = |at: Instant| (at - base).as_nanos().div_ceil(1_000) as Micros;
    // A datagram reaching node `.0` from `.1`, or (`None`) its step due.
    let mut queue = EventQueue::new();
    for (at, from, bytes) in arrivals {
        queue.schedule(micros(at), (0, Some((from, bytes))));
    }
    // When each step is due: a `None` event at any other time is stale.
    let mut due = vec![Some(0); nodes.len()];
    (0..nodes.len()).for_each(|node| queue.schedule(0, (node, None)));
    let mut last = 0;
    while let Some((now, (node, event))) = queue.pop() {
        let at = base + Duration::from_micros(now);
        if at > end {
            break;
        }
        last = now;
        match event {
            Some((from, bytes)) => {
                nodes[node].deliver(from, &bytes, at);
                nc_pool::BytesPool::global().recycle(bytes);
                if due[node] != Some(now) {
                    due[node] = Some(now);
                    queue.schedule(now, (node, None));
                }
            }
            None if due[node] == Some(now) => {
                let mut send =
                    |bytes| match link.as_mut().map(|l| (l.delay, l.coin.gen_bool(l.loss))) {
                        Some((delay, false)) => {
                            let at = now + delay.as_micros() as Micros;
                            queue.schedule(at, (1 - node, Some((addr(node), bytes))));
                        }
                        _ => nc_pool::BytesPool::global().recycle(bytes),
                    };
                due[node] = nodes[node].run(at, &mut send).map(|next| micros(next).max(now));
                if let Some(next) = due[node] {
                    queue.schedule(next, (node, None));
                }
            }
            None => {}
        }
    }
    Duration::from_micros(last)
}

/// A dense 16 x 64 B stream of `segments` segments: its announce and
/// its systematic frames, segments interleaved round-robin as a sender
/// sends them, each under any session id. The receiving side's step
/// tests feed it.
pub(crate) struct Stream {
    meta: StreamMeta,
    pub(crate) frames: Vec<Vec<u8>>,
}

impl Stream {
    pub(crate) fn new(segments: usize) -> Stream {
        let coding = CodingConfig::new(16, 64).unwrap();
        let data: Vec<u8> = (0..segments * 16 * 64).map(|i| (i % 251) as u8).collect();
        let encoder = StreamEncoder::new(coding, &data).unwrap();
        let meta = StreamMeta {
            blocks: 16,
            block_size: 64,
            total_segments: segments as u32,
            original_len: data.len() as u64,
            codec: encoder.codec(),
        };
        let mut rng = StdRng::seed_from_u64(1);
        let frames = (0..16u64)
            .flat_map(|seq| (0..segments).map(move |segment| (segment, seq)))
            .map(|(segment, seq)| encoder.frame_wire(segment, seq, &mut rng))
            .collect();
        Stream { meta, frames }
    }

    pub(crate) fn announce(&self, session: u64) -> Vec<u8> {
        Datagram::new(session, Payload::Announce(self.meta)).encode().unwrap()
    }

    pub(crate) fn data(&self, session: u64, frame: usize) -> Vec<u8> {
        Datagram::new(session, Payload::Data(self.frames[frame].clone())).encode().unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, "c");
        q.schedule(10, "a");
        q.schedule(20, "b");
        let popped: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(popped, [(10, "a"), (20, "b"), (30, "c")]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        (1..=3).for_each(|event| q.schedule(5, event));
        let popped: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(popped, [(5, 1), (5, 2), (5, 3)]);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(100, ());
        assert_eq!(q.now, 0);
        q.pop();
        assert_eq!(q.now, 100);
        q.schedule(150, ());
        assert_eq!(q.pop().unwrap().0, 150);
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(10, ());
        q.pop();
        q.schedule(5, ());
    }
}
