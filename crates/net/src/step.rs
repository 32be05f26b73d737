//! The one scheduler both roles run on: a [`Step`] holds sans-I/O
//! sessions (the server's [`SenderSession`](crate::session::SenderSession)s,
//! the client's [`ReceiverSession`](crate::receiver::ReceiverSession)s)
//! and polls only the ones that are due. It owns no socket; the server's
//! shard loop and the [`Client`](crate::client::Client) are the two I/O
//! shells around it.

use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};
use std::hash::Hash;
use std::io;
use std::time::{Duration, Instant};

/// Most datagrams one session sends in one turn of a step: the fairness
/// bound across concurrent sessions. A session that reaches it yields, and
/// runs again right after every other ready session had its turn.
pub const BURST_PER_STEP: u32 = 32;

/// What a session's driver should do next.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// Put these bytes on the wire.
    Transmit(Vec<u8>),
    /// Nothing to send yet; wait (and poll the channel) this long.
    Wait(Duration),
    /// The session is over; collect its report.
    Finished,
}

/// A sans-I/O session a [`Step`] schedules.
pub(crate) trait Session {
    /// Folds in one datagram's wire bytes. Total over arbitrary bytes.
    fn handle(&mut self, bytes: &[u8], now: Instant);
    /// Advances the state machine.
    fn poll(&mut self, now: Instant) -> Event;
}

/// A session lent to a step, which then hands back only the borrow.
impl<S: Session> Session for &mut S {
    fn handle(&mut self, bytes: &[u8], now: Instant) {
        (**self).handle(bytes, now);
    }

    fn poll(&mut self, now: Instant) -> Event {
        (**self).poll(now)
    }
}

/// One owned session and its place in the step's schedule.
pub(crate) struct Slot<S> {
    pub(crate) session: S,
    /// When the session next needs the CPU, as its last `Wait` quoted it:
    /// the [`DueIndex`] entry for this key that is live. `None` once that
    /// entry has come due.
    pub(crate) due: Option<Instant>,
    /// Most datagrams it sent in one turn.
    max_burst: u64,
    /// Already on the step's ready list.
    queued: bool,
}

/// Which slots are due when: a min-heap of `(due, key)` with lazy
/// deletion. An entry is live only while it equals its slot's armed
/// `due`; re-arming a slot earlier, or reaping it, leaves the old entry
/// stale. Stale entries are skipped when they reach the top and swept
/// out whenever they outnumber the live ones, so the heap stays within
/// twice the armed slots.
pub(crate) struct DueIndex<K> {
    pub(crate) heap: BinaryHeap<Reverse<(Instant, K)>>,
    /// Slots with an armed due: the live entries.
    pub(crate) armed: usize,
}

impl<K: Copy + Eq + Hash + Ord> DueIndex<K> {
    /// Arms `due` (the slot's) at `at`, unless it is already armed no
    /// later: an earlier poll than needed only returns `Wait` again.
    pub(crate) fn arm(&mut self, key: K, due: &mut Option<Instant>, at: Instant) {
        match *due {
            Some(armed) if armed <= at => return,
            Some(_) => {}
            None => self.armed += 1,
        }
        *due = Some(at);
        self.heap.push(Reverse((at, key)));
    }

    /// Forgets a reaped slot's armed due; its entry goes stale.
    fn disarm(&mut self, due: Option<Instant>) {
        if due.is_some() {
            self.armed -= 1;
        }
    }

    /// Takes the earliest live entry due at or before `now`, disarming
    /// its slot.
    pub(crate) fn pop_due<S>(
        &mut self,
        now: Instant,
        slots: &mut HashMap<K, Slot<S>>,
    ) -> Option<K> {
        while let Some(&Reverse((due, key))) = self.heap.peek() {
            if due > now {
                return None;
            }
            self.heap.pop();
            if let Some(slot) = slots.get_mut(&key).filter(|slot| slot.due == Some(due)) {
                slot.due = None;
                self.armed -= 1;
                return Some(key);
            }
        }
        None
    }

    /// The earliest live due, dropping the stale entries above it.
    pub(crate) fn next_due<S>(&mut self, slots: &HashMap<K, Slot<S>>) -> Option<Instant> {
        while let Some(&Reverse((due, key))) = self.heap.peek() {
            if slots.get(&key).is_some_and(|slot| slot.due == Some(due)) {
                return Some(due);
            }
            self.heap.pop();
        }
        None
    }

    /// Sweeps the stale entries out once they outnumber the live ones.
    pub(crate) fn compact<S>(&mut self, slots: &HashMap<K, Slot<S>>) {
        if self.heap.len() > 2 * self.armed {
            self.heap
                .retain(|Reverse((due, key))| slots.get(key).is_some_and(|s| s.due == Some(*due)));
        }
    }
}

/// What one [`Step::step`] did. The server's shell adds the polls to
/// `net.shard_polls` and `net.shard_idle_polls`; the step tests read the
/// rest.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) struct StepStats {
    /// Sessions whose armed due had come.
    pub(crate) due: usize,
    /// Sessions a delivered datagram touched (or that were inserted)
    /// since the previous step.
    pub(crate) arrived: usize,
    /// Sessions polled: each got one turn.
    pub(crate) turns: usize,
    /// `Session::poll` calls.
    pub(crate) polls: u64,
    /// Turns whose first poll returned `Wait`: the session sent nothing.
    pub(crate) idle_polls: u64,
}

/// How one session's turn ended.
enum Turn {
    Wait(Duration),
    /// Used up [`BURST_PER_STEP`]: due again at once, after the others.
    Yield,
    Finished,
}

/// Sessions keyed by `K`, without I/O: datagrams go in through
/// [`deliver`](Step::deliver), time advances through
/// [`step`](Step::step), and everything the sessions send leaves through
/// the sinks `step` is given. A wake-up costs O(due + arrived) polls, not
/// O(sessions): a session is polled when a datagram touched it, when the
/// `Wait` it last quoted has run out, or right after a turn that used up
/// its burst — at no other time.
///
/// Ready order is FIFO: last step's yields, then the sessions touched
/// since in arrival order, then the due sessions in due order.
pub(crate) struct Step<K, S> {
    pub(crate) slots: HashMap<K, Slot<S>>,
    pub(crate) index: DueIndex<K>,
    /// The next step's ready list, each key on it at most once (`queued`).
    ready: Vec<K>,
    /// The list being run; swapped with `ready` so both keep capacity.
    running: Vec<K>,
    /// Sessions queued since the last step.
    arrived: usize,
    stats: StepStats,
}

impl<K: Copy + Eq + Hash + Ord, S: Session> Step<K, S> {
    pub(crate) fn new() -> Step<K, S> {
        Step {
            slots: HashMap::new(),
            index: DueIndex { heap: BinaryHeap::new(), armed: 0 },
            // lint: allow(vec-capacity) — made once per shell; swapped, never reallocated per wake once grown.
            ready: Vec::new(),
            // lint: allow(vec-capacity) — as `ready`.
            running: Vec::new(),
            arrived: 0,
            stats: StepStats::default(),
        }
    }

    /// Live sessions.
    pub(crate) fn sessions(&self) -> usize {
        self.slots.len()
    }

    /// What the latest `step` did.
    pub(crate) fn stats(&self) -> StepStats {
        self.stats
    }

    /// Hands one datagram's bytes to the session under `key` and queues
    /// it for the next step. A key with no session gets the one `open`
    /// makes of the bytes, if any; otherwise the datagram is dropped.
    pub(crate) fn deliver(
        &mut self,
        key: K,
        bytes: &[u8],
        now: Instant,
        open: impl FnOnce() -> Option<S>,
    ) {
        let slot = match self.slots.entry(key) {
            Entry::Occupied(entry) => entry.into_mut(),
            Entry::Vacant(entry) => {
                let Some(session) = open() else { return };
                entry.insert(Slot { session, due: None, max_burst: 0, queued: false })
            }
        };
        slot.session.handle(bytes, now);
        if !slot.queued {
            slot.queued = true;
            self.ready.push(key);
            self.arrived += 1;
        }
    }

    /// Adds a session under a key that has none, queued for the next step.
    pub(crate) fn insert(&mut self, key: K, session: S) {
        self.slots.insert(key, Slot { session, due: None, max_burst: 0, queued: true });
        self.ready.push(key);
        self.arrived += 1;
    }

    /// Gives every ready session one turn at `now`: polls it until it
    /// quotes a wait, finishes, or has sent [`BURST_PER_STEP`] datagrams.
    /// Each datagram goes to `emit`; each finished session goes to
    /// `finished` with the most datagrams it sent in one turn. Returns
    /// when the step next needs to run with no new datagram (`now` after
    /// a yield), or `None` with no session armed.
    ///
    /// # Errors
    ///
    /// The first error `emit` returns; the step stops there.
    pub(crate) fn step(
        &mut self,
        now: Instant,
        emit: &mut impl FnMut(K, Vec<u8>) -> io::Result<()>,
        finished: &mut impl FnMut(K, S, u64),
    ) -> io::Result<Option<Instant>> {
        std::mem::swap(&mut self.ready, &mut self.running);
        let arrived = std::mem::take(&mut self.arrived);
        let mut stats = StepStats { arrived, ..StepStats::default() };
        while let Some(key) = self.index.pop_due(now, &mut self.slots) {
            stats.due += 1;
            let slot = self.slots.get_mut(&key).expect("a live entry has a slot");
            if !std::mem::replace(&mut slot.queued, true) {
                self.running.push(key);
            }
        }
        let mut result = Ok(());
        for &key in &self.running {
            let Some(slot) = self.slots.get_mut(&key) else { continue };
            slot.queued = false;
            stats.turns += 1;
            let mut burst = 0u64;
            let turn = loop {
                stats.polls += 1;
                match slot.session.poll(now) {
                    Event::Transmit(bytes) => {
                        if let Err(err) = emit(key, bytes) {
                            result = Err(err);
                            break Turn::Yield;
                        }
                        burst += 1;
                        if burst >= u64::from(BURST_PER_STEP) {
                            break Turn::Yield;
                        }
                    }
                    Event::Wait(wait) => break Turn::Wait(wait),
                    Event::Finished => break Turn::Finished,
                }
            };
            slot.max_burst = slot.max_burst.max(burst);
            match turn {
                Turn::Wait(wait) => {
                    stats.idle_polls += u64::from(burst == 0);
                    self.index.arm(key, &mut slot.due, now + wait);
                }
                Turn::Yield => {
                    slot.queued = true;
                    self.ready.push(key);
                }
                Turn::Finished => {
                    let slot = self.slots.remove(&key).expect("polled above");
                    self.index.disarm(slot.due);
                    finished(key, slot.session, slot.max_burst);
                }
            }
            if result.is_err() {
                break;
            }
        }
        self.running.clear();
        self.index.compact(&self.slots);
        self.stats = stats;
        result?;
        Ok(if self.ready.is_empty() { self.index.next_due(&self.slots) } else { Some(now) })
    }
}
