//! A minimal discrete-event engine with an integer-microsecond clock
//! (floats in a priority queue invite non-determinism; microseconds keep
//! every run bit-reproducible).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulation time in microseconds.
pub(crate) type Micros = u64;

/// The event queue: a deterministic min-heap keyed on `(time, seq)`.
#[derive(Debug)]
pub(crate) struct EventQueue<E> {
    heap: BinaryHeap<Reverse<(Micros, u64)>>,
    payloads: std::collections::HashMap<(Micros, u64), E>,
    seq: u64,
    now: Micros,
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub(crate) fn new() -> EventQueue<E> {
        EventQueue {
            heap: BinaryHeap::new(),
            payloads: std::collections::HashMap::new(),
            seq: 0,
            now: 0,
        }
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics when scheduling into the past.
    pub(crate) fn schedule(&mut self, at: Micros, event: E) {
        assert!(at >= self.now, "cannot schedule into the past");
        let key = (at, self.seq);
        self.seq += 1;
        self.heap.push(Reverse(key));
        self.payloads.insert(key, event);
    }

    /// Schedules `event` `delay` microseconds from now.
    pub(crate) fn schedule_in(&mut self, delay: Micros, event: E) {
        let at = self.now + delay;
        self.schedule(at, event);
    }

    /// Pops the earliest event, advancing the clock to its time.
    pub(crate) fn pop(&mut self) -> Option<(Micros, E)> {
        let Reverse(key) = self.heap.pop()?;
        self.now = key.0;
        let event = self.payloads.remove(&key).expect("payload for queued key");
        Some((key.0, event))
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
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
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(5, 1);
        q.schedule(5, 2);
        q.schedule(5, 3);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(100, ());
        assert_eq!(q.now, 0);
        q.pop();
        assert_eq!(q.now, 100);
        q.schedule_in(50, ());
        assert_eq!(q.pop().unwrap().0, 150);
    }

    #[test]
    #[should_panic]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(10, ());
        q.pop();
        q.schedule(5, ());
    }
}
