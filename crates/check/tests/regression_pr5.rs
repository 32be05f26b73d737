//! Negative test: the checker must *catch* the pending-count race that
//! PR 5 originally shipped and a later fix reordered away.
//!
//! The bug: `push_task` enqueued the task first and incremented `pending`
//! second, while a pop decremented unconditionally. A spinning worker
//! could pop the task in the window between the enqueue and the
//! increment, driving the counter below zero — an overflow panic under
//! the deque lock in debug builds, which poisoned the queue and hung the
//! scope forever. The fix counts *before* enqueueing (and makes the
//! decrement saturating), so a pop can never outrun its push's increment.
//!
//! The models here are miniature versions of exactly that protocol — a
//! queue mutex plus an advisory `pending` counter — small enough that the
//! buggy interleaving is a few steps deep, faithful enough that the same
//! reordering in any queue with an advisory count is the same bug.

#![cfg(nc_check)]

use std::collections::VecDeque;

use nc_check::sync::atomic::{AtomicUsize, Ordering};
use nc_check::sync::{Arc, Mutex};
use nc_check::thread;
use nc_check::{replay, Check, FailureKind};

struct MiniQueue {
    tasks: Mutex<VecDeque<u8>>,
    pending: AtomicUsize,
}

impl MiniQueue {
    fn new() -> Arc<MiniQueue> {
        Arc::new(MiniQueue { tasks: Mutex::new(VecDeque::new()), pending: AtomicUsize::new(0) })
    }

    /// PR 5's original ordering: enqueue first, count second.
    fn push_buggy(&self, task: u8) {
        self.tasks.lock().unwrap().push_back(task);
        self.pending.fetch_add(1, Ordering::Release);
    }

    /// The shipped fix: count *before* the task becomes visible.
    fn push_fixed(&self, task: u8) {
        self.pending.fetch_add(1, Ordering::Release);
        self.tasks.lock().unwrap().push_back(task);
    }

    /// Pop with the strict decrement the buggy build effectively had:
    /// claiming a task asserts the counter covers it. Underflow here is
    /// the debug-build overflow panic that hung real scopes.
    fn pop_strict(&self) -> Option<u8> {
        let task = self.tasks.lock().unwrap().pop_front();
        if task.is_some() {
            let prev = self.pending.fetch_sub(1, Ordering::AcqRel);
            assert!(prev > 0, "pending underflow: pop outran its push's increment");
        }
        task
    }
}

/// One pusher thread, one popping "worker": the checker must find the
/// pop-between-enqueue-and-increment window, report the panic, and hand
/// back a trace that `replay` reproduces.
#[test]
fn count_after_enqueue_race_is_caught_with_replayable_trace() {
    let model = || {
        let q = MiniQueue::new();
        let q2 = Arc::clone(&q);
        let pusher = thread::spawn(move || q2.push_buggy(7));
        // The spinning worker: claim the task if it is already visible.
        let _ = q.pop_strict();
        pusher.join().unwrap();
        let _ = q.pop_strict();
    };

    let failure = Check::new()
        .preemptions(2)
        .explore(model)
        .expect_err("the count-after-enqueue ordering must be caught");
    match &failure.kind {
        FailureKind::Panic { message } => {
            assert!(
                message.contains("pending underflow"),
                "unexpected panic out of the model: {message}"
            );
        }
        other => panic!("expected the underflow panic, got {other:?}"),
    }

    // The reported trace is a complete reproducer: replaying it (and
    // nothing else — no search) hits the same panic.
    let replayed = replay(&failure.trace, model).expect("replaying the trace must fail again");
    assert!(matches!(&replayed.kind, FailureKind::Panic { message }
        if message.contains("pending underflow")));
}

/// The same protocol with the shipped ordering passes full bounded
/// exploration: no schedule can make the strict pop underflow, because
/// the increment happens before the task is visible in the queue.
#[test]
fn count_before_enqueue_ordering_passes() {
    let report = Check::new().preemptions(2).run(|| {
        let q = MiniQueue::new();
        let q2 = Arc::clone(&q);
        let pusher = thread::spawn(move || q2.push_fixed(7));
        let first = q.pop_strict();
        pusher.join().unwrap();
        let second = q.pop_strict();
        assert!(
            first.is_some() || second.is_some(),
            "the pushed task must be claimed by one of the pops"
        );
    });
    assert!(report.completed, "exploration must exhaust the schedule space");
}
