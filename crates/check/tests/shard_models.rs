//! Checked models of `nc-net`'s sharded-server concurrency protocol
//! (`crates/net/src/shard.rs`).
//!
//! The sharded server keeps **per-shard session maps** (only the owner
//! shard touches a session) and exactly two cross-shard structures:
//!
//! * a per-shard **mailbox** (mutexed queue) that non-owner shards push
//!   misrouted datagrams into, and
//! * a **finish ledger** (mutexed vector + stop flag) every shard records
//!   reaped transfers into.
//!
//! These models mirror those two structures with `nc_check::sync` shims
//! and verify the invariants the real code leans on:
//!
//! 1. every datagram is handled by **exactly one** shard — its owner —
//!    no matter which shard the (modeled) kernel delivered it to;
//! 2. concurrent reap/record cannot lose a transfer, and once the stop
//!    flag is observable every expected transfer is already recorded.
//!
//! Ownership here is `session % shards`: the model checks the dispatch
//! *protocol*, not the FNV spread of `nc_net::shard::shard_owner` (that
//! function's determinism and range have unit tests next to it).

#![cfg(nc_check)]

use nc_check::sync::atomic::{AtomicBool, Ordering};
use nc_check::sync::{Arc, Mutex};
use nc_check::thread;
use nc_check::Check;
use std::collections::VecDeque;

/// A datagram in the model: (session id, payload tag).
type Datagram = (u64, u8);

/// The cross-shard hand-off queue, exactly as in `shard.rs`.
struct Mailbox {
    queue: Mutex<VecDeque<Datagram>>,
}

impl Mailbox {
    fn new() -> Mailbox {
        Mailbox { queue: Mutex::new(VecDeque::new()) }
    }

    fn push(&self, datagram: Datagram) {
        self.queue.lock().unwrap().push_back(datagram);
    }

    fn pop(&self) -> Option<Datagram> {
        self.queue.lock().unwrap().pop_front()
    }
}

fn owner(session: u64, shards: usize) -> usize {
    (session % shards as u64) as usize
}

/// One shard's receive pass: route every delivered datagram — handle the
/// owned ones, forward the rest — then note routing is done.
fn route(
    me: usize,
    shards: usize,
    delivered: &[Datagram],
    mailboxes: &[Mailbox],
    handled: &Mutex<Vec<(usize, Datagram)>>,
) {
    for &datagram in delivered {
        let owner = owner(datagram.0, shards);
        if owner == me {
            handled.lock().unwrap().push((me, datagram));
        } else {
            mailboxes[owner].push(datagram);
        }
    }
}

/// One shard's mailbox drain: everything in the mailbox is owned by
/// construction.
fn drain(me: usize, mailboxes: &[Mailbox], handled: &Mutex<Vec<(usize, Datagram)>>) {
    while let Some(datagram) = mailboxes[me].pop() {
        handled.lock().unwrap().push((me, datagram));
    }
}

/// Two shards, four datagrams, delivered by a "kernel" that ignores
/// ownership entirely (each shard receives one owned and one misrouted
/// datagram). In every interleaving of the mailbox locks, each datagram
/// is handled exactly once, and always by its owner.
#[test]
fn every_datagram_is_handled_exactly_once_by_its_owner() {
    Check::new().preemptions(2).run(|| {
        let shards = 2;
        let mailboxes: Arc<Vec<Mailbox>> = Arc::new((0..shards).map(|_| Mailbox::new()).collect());
        let handled: Arc<Mutex<Vec<(usize, Datagram)>>> = Arc::new(Mutex::new(Vec::new()));

        // Sessions 0,2 are owned by shard 0; 1,3 by shard 1. The kernel
        // hands each shard one of each.
        let to_shard0: Vec<Datagram> = vec![(0, b'a'), (1, b'b')];
        let to_shard1: Vec<Datagram> = vec![(2, b'c'), (3, b'd')];

        let m1 = Arc::clone(&mailboxes);
        let h1 = Arc::clone(&handled);
        let peer = thread::spawn(move || {
            route(1, 2, &to_shard1, &m1, &h1);
        });
        route(0, 2, &to_shard0, &mailboxes, &handled);
        peer.join().unwrap();

        // Both shards have routed; drains cannot miss a late push.
        drain(0, &mailboxes, &handled);
        drain(1, &mailboxes, &handled);

        let mut seen = handled.lock().unwrap().clone();
        seen.sort();
        assert_eq!(seen.len(), 4, "no datagram lost or duplicated: {seen:?}");
        for (shard, datagram) in seen {
            assert_eq!(shard, owner(datagram.0, shards), "handled by its owner: {datagram:?}");
        }
    });
}

/// The finish ledger from `shard.rs`: record-once under one lock, stop
/// flag flipped inside the same critical section that makes the count.
struct FinishLedger {
    transfers: Mutex<Vec<u64>>,
    expected: usize,
    stop: AtomicBool,
}

impl FinishLedger {
    fn new(expected: usize) -> FinishLedger {
        FinishLedger { transfers: Mutex::new(Vec::new()), expected, stop: AtomicBool::new(false) }
    }

    fn record(&self, transfer: u64) {
        let mut transfers = self.transfers.lock().unwrap();
        transfers.push(transfer);
        if transfers.len() >= self.expected {
            self.stop.store(true, Ordering::Release);
        }
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }
}

/// Two shards concurrently reap one session each (remove from their own
/// map, then record). No interleaving loses a transfer, stops early, or
/// lets an observer see `stopped()` before every transfer is recorded.
#[test]
fn concurrent_reaps_cannot_lose_a_transfer_or_stop_early() {
    Check::new().preemptions(2).run(|| {
        let ledger = Arc::new(FinishLedger::new(2));

        // Per-shard session maps: single-owner by design, so each shard
        // mutates only its own (no lock needed — that's the point).
        let l1 = Arc::clone(&ledger);
        let peer = thread::spawn(move || {
            let mut my_sessions = vec![101u64];
            let session = my_sessions.pop().unwrap();
            assert!(!l1.stopped() || !l1.transfers.lock().unwrap().is_empty());
            l1.record(session);
        });

        let mut my_sessions = vec![100u64];
        let session = my_sessions.pop().unwrap();
        // If the stop flag is already visible, the other reap must be
        // fully recorded (flag is set under the ledger lock).
        if ledger.stopped() {
            assert!(ledger.transfers.lock().unwrap().len() >= 2, "stop before records visible");
        }
        ledger.record(session);
        peer.join().unwrap();

        let transfers = ledger.transfers.lock().unwrap();
        assert_eq!(transfers.len(), 2, "a reap was lost: {transfers:?}");
        assert!(ledger.stopped(), "target reached but stop not set");
    });
}

/// An observer that sees `stopped() == true` must find the full set of
/// transfers — the real serve loop exits on this flag and then takes the
/// vector, so a stale flag/vector pair would drop completed transfers.
#[test]
fn stop_flag_implies_all_transfers_visible() {
    Check::new().preemptions(2).run(|| {
        let ledger = Arc::new(FinishLedger::new(1));

        let l1 = Arc::clone(&ledger);
        let recorder = thread::spawn(move || {
            l1.record(7);
        });

        if ledger.stopped() {
            let transfers = ledger.transfers.lock().unwrap();
            assert_eq!(transfers.as_slice(), &[7], "stop visible before its transfer");
        }
        recorder.join().unwrap();
        assert!(ledger.stopped());
        assert_eq!(ledger.transfers.lock().unwrap().as_slice(), &[7]);
    });
}
