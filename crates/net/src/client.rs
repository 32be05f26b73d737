//! The receiving role's shell: one [`Client`] runs any number of
//! [`ReceiverSession`]s over one [`Channel`] from one thread, on the same
//! due-session `Step` the server's shards run their senders on.
//!
//! In deployment the channel is a [`UdpChannel`](crate::UdpChannel)
//! connected to the server, so every session shares one socket and one
//! `recvmmsg` per wake; in tests it is a memory pair. Each datagram goes
//! to its session by the header's session id; one naming no open session
//! is dropped uncounted.

use std::io;
use std::time::Instant;

use crate::channel::Channel;
use crate::receiver::{ReceiverConfig, ReceiverSession};
use crate::step::{Session, Step};
use crate::wire::session_of;

/// Many receiver sessions over one channel (see the module docs, and the
/// crate-level example).
pub struct Client<C> {
    channel: C,
    config: ReceiverConfig,
    step: Step<u64, ReceiverSession>,
}

impl<C: Channel> Client<C> {
    /// A client over `channel`; every session it opens uses `config`.
    pub fn new(channel: C, config: ReceiverConfig) -> Client<C> {
        Client { channel, config, step: Step::new() }
    }

    /// Opens a session for stream `session`, whose first poll sends the
    /// request. A stream already open is left as it is.
    pub fn request(&mut self, session: u64) {
        if !self.step.slots.contains_key(&session) {
            let receiver = ReceiverSession::new(session, self.config.clone(), Instant::now());
            self.step.insert(session, receiver);
        }
    }

    /// Runs every open session until it ends (complete, idle or past its
    /// deadline) and returns them in the order they ended.
    ///
    /// # Errors
    ///
    /// Propagates channel I/O errors (datagram loss is not an error).
    pub fn run(&mut self) -> io::Result<Vec<ReceiverSession>> {
        // lint: allow(vec-capacity) — one result list per run, grown once per session.
        let mut ended = Vec::new();
        pump(&mut self.channel, &mut self.step, &mut |session| ended.push(session))?;
        Ok(ended)
    }
}

/// The client's I/O shell around `step`, until its last session ends:
/// step, send what the sessions sent in one [`Channel::send_batch`], wait
/// for a receive batch or the next due, and hand each datagram to its
/// session. The sessions a batch touched are polled right after it, so
/// an announce is ACKed in the wake that delivers it.
pub(crate) fn pump<C: Channel, S: Session>(
    channel: &mut C,
    step: &mut Step<u64, S>,
    ended: &mut impl FnMut(S),
) -> io::Result<()> {
    // lint: allow(vec-capacity) — one staging vector per run, drained by every flush.
    let mut out = Vec::new();
    loop {
        let mut stage = |_, bytes| {
            out.push(bytes);
            Ok(())
        };
        let due = step.step(Instant::now(), &mut stage, &mut |_, session, _| ended(session))?;
        channel.send_batch(&mut out)?;
        let Some(due) = due else { return Ok(()) };
        let timeout = due.saturating_duration_since(Instant::now());
        channel.recv_batch(timeout, &mut |bytes| {
            if let Some(id) = session_of(bytes) {
                step.deliver(id, bytes, Instant::now(), || None);
            }
        })?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{addr, drive, Node, Stream};
    use crate::wire::{DatagramRef, Payload};
    use std::time::Duration;

    fn is_ack(bytes: &[u8]) -> Option<u64> {
        match DatagramRef::parse(bytes).ok()?.payload {
            Payload::Ack { received, .. } => Some(received),
            _ => None,
        }
    }

    #[test]
    fn paced_receivers_are_polled_only_when_due_or_touched() {
        // 4096 receivers on one client, each announced within the first
        // 10 ms and then sent a data frame every 10 ms (a 100 KB/s peer):
        // a step polls the sessions a datagram touched or whose ACK or
        // idle timer came due, never all of them.
        const PEERS: u64 = 4096;
        const FRAMES: usize = 30;
        let stream = Stream::new(4);
        let t0 = Instant::now();
        let mut step = Step::new();
        for id in 0..PEERS {
            step.insert(id, ReceiverSession::new(id, ReceiverConfig::default(), t0));
        }
        let mut arrivals: Vec<(Instant, u64, Vec<u8>)> = Vec::new();
        for id in 0..PEERS {
            let announced = t0 + Duration::from_micros(150 * (id % 64));
            arrivals.push((announced, id, stream.announce(id)));
            let frames = (0..FRAMES).map(|k| {
                (announced + Duration::from_millis(10) * (k as u32 + 1), id, stream.data(id, k))
            });
            arrivals.extend(frames);
        }
        arrivals.sort_by_key(|&(at, id, _)| (at, id));
        let delivered = arrivals.len() as u64;
        let (mut steps, mut polls, mut acks) = (0u64, 0u64, 0u64);
        let mut node = Node {
            step: &mut step,
            open: |_, _| None,
            watch: |step, _, sent| {
                let (stats, emitted) = (step.stats(), sent.len() as u64);
                acks += sent.iter().filter(|(_, bytes)| is_ack(bytes).is_some()).count() as u64;
                assert!(stats.turns <= stats.due + stats.arrived, "{stats:?}");
                // Every poll either sent a datagram or ended a turn.
                assert!(stats.polls <= emitted + stats.turns as u64, "{stats:?}");
                assert!(step.index.heap.len() <= 2 * step.index.armed + 1);
                steps += 1;
                polls += stats.polls;
            },
        };
        let arrivals = arrivals.into_iter().map(|(at, _, bytes)| (at, addr(1), bytes));
        drive(&mut [&mut node], t0, arrivals, None, t0 + Duration::from_millis(320));
        assert_eq!(step.sessions(), PEERS as usize, "every session still receiving");
        println!(
            "{PEERS} paced receivers, 320 ms: {steps} steps, {:.1} polls per step, \
             {:.3} polls per datagram ({delivered} delivered, {acks} ACKs sent)",
            polls as f64 / steps as f64,
            polls as f64 / delivered as f64,
        );
        assert!(polls <= 2 * delivered, "{polls} polls for {delivered} datagrams");
        assert!(acks <= delivered / 4, "{acks} ACKs for {delivered} datagrams");
    }

    #[test]
    fn an_announce_is_acked_in_the_step_after_its_batch() {
        // The announce and 1000 data frames arrive in one batch: the step
        // that follows ACKs them all, so the sender stops re-announcing
        // after one round trip.
        let stream = Stream::new(64);
        let t0 = Instant::now();
        let mut step = Step::new();
        step.insert(9, ReceiverSession::new(9, ReceiverConfig::default(), t0));
        let mut first = |_, bytes: Vec<u8>| {
            nc_pool::BytesPool::global().recycle(bytes);
            Ok(())
        };
        step.step(t0, &mut first, &mut |_, _, _| {}).unwrap(); // the request
        step.deliver(9, &stream.announce(9), t0, || None);
        for frame in 0..1000 {
            step.deliver(9, &stream.data(9, frame), t0, || None);
        }
        let mut acked = Vec::new();
        let mut emit = |_, bytes: Vec<u8>| {
            acked.extend(is_ack(&bytes));
            Ok(())
        };
        step.step(t0, &mut emit, &mut |_, _, _| {}).unwrap();
        assert_eq!(acked, [1000], "one ACK covering the whole batch");
    }
}
