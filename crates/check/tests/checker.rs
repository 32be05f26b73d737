//! Self-tests for the model checker engine: known-racy toy protocols must
//! be caught (with replayable traces), known-correct ones must pass.
//!
//! These only exist under `RUSTFLAGS="--cfg nc_check"`; in a normal build
//! this file compiles to nothing.
#![cfg(nc_check)]

use nc_check::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use nc_check::sync::{Arc, Mutex};
use nc_check::{check, replay, Check, FailureKind};

/// Two threads bumping a counter with an atomic RMW can never lose an
/// update: exploration passes and actually enumerates multiple schedules.
#[test]
fn atomic_increments_pass() {
    let report = check(|| {
        let n = Arc::new(AtomicUsize::new(0));
        let spawned: Vec<_> = (0..2)
            .map(|_| {
                let n = Arc::clone(&n);
                nc_check::thread::spawn(move || {
                    n.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        for handle in spawned {
            handle.join().unwrap();
        }
        assert_eq!(n.load(Ordering::SeqCst), 2);
    });
    assert!(report.completed, "tiny model must be fully explored");
    assert!(report.executions > 1, "two racing threads must produce more than one schedule");
}

/// The classic lost update — `load` then `store` instead of one RMW —
/// must be caught as a panicking interleaving, and the reported trace
/// must replay to the same failure.
#[test]
fn lost_update_is_caught_and_replays() {
    let model = || {
        let n = Arc::new(AtomicUsize::new(0));
        let spawned: Vec<_> = (0..2)
            .map(|_| {
                let n = Arc::clone(&n);
                nc_check::thread::spawn(move || {
                    let v = n.load(Ordering::SeqCst);
                    n.store(v + 1, Ordering::SeqCst);
                })
            })
            .collect();
        for handle in spawned {
            handle.join().unwrap();
        }
        assert_eq!(n.load(Ordering::SeqCst), 2, "lost update");
    };
    let failure =
        Check::new().explore(model).expect_err("the non-atomic increment race must be found");
    assert!(
        matches!(failure.kind, FailureKind::Panic { ref message } if message.contains("lost update")),
        "unexpected failure: {failure}"
    );
    assert!(!failure.trace.is_empty());

    let replayed =
        replay(&failure.trace, model).expect("the recorded trace must reproduce the failure");
    assert!(
        matches!(replayed.kind, FailureKind::Panic { ref message } if message.contains("lost update")),
        "replay diverged: {replayed}"
    );
}

/// A spin loop waiting on another thread's store must terminate under the
/// checker: cycle pruning forces the token off the spinner once the state
/// hash recurs, so the search cannot get stuck polling.
#[test]
fn spin_loop_terminates_via_cycle_pruning() {
    let report = check(|| {
        let ready = Arc::new(AtomicBool::new(false));
        let setter = {
            let ready = Arc::clone(&ready);
            nc_check::thread::spawn(move || ready.store(true, Ordering::SeqCst))
        };
        while !ready.load(Ordering::SeqCst) {
            // Model spin: each iteration is a scheduling point.
        }
        setter.join().unwrap();
    });
    assert!(report.completed);
}

/// Mutexes serialize: a read-modify-write under one lock never loses
/// updates no matter the schedule.
#[test]
fn mutex_counter_passes() {
    check(|| {
        let n = Arc::new(Mutex::new(0usize));
        let spawned: Vec<_> = (0..2)
            .map(|_| {
                let n = Arc::clone(&n);
                nc_check::thread::spawn(move || {
                    *n.lock().unwrap() += 1;
                })
            })
            .collect();
        for handle in spawned {
            handle.join().unwrap();
        }
        assert_eq!(*n.lock().unwrap(), 2);
    });
}

/// A genuine deadlock — two locks taken in opposite orders — is found.
#[test]
fn lock_order_inversion_is_caught() {
    let failure = Check::new()
        .explore(|| {
            let a = Arc::new(Mutex::new(()));
            let b = Arc::new(Mutex::new(()));
            let t = {
                let a = Arc::clone(&a);
                let b = Arc::clone(&b);
                nc_check::thread::spawn(move || {
                    let _ga = a.lock().unwrap();
                    let _gb = b.lock().unwrap();
                })
            };
            let _gb = b.lock().unwrap();
            let _ga = a.lock().unwrap();
            drop(_ga);
            drop(_gb);
            t.join().unwrap();
        })
        .expect_err("opposite lock order must deadlock under some schedule");
    assert!(matches!(failure.kind, FailureKind::Deadlock), "got: {failure}");
}
