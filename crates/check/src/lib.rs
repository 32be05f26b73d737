//! nc-check — deterministic concurrency model checking for the network
//! coding hot paths.
//!
//! Every state this codebase shares across threads — `BytesPool` bucket
//! shelves, the FFT tables' one-time cells, the shard server's
//! mailboxes and finish ledger — is lock-free or lock-split by design,
//! so "it passed the stress test" is not evidence of correctness: the
//! racy interleaving may need a preemption the OS scheduler grants once
//! per million runs (a work-stealing executor the workspace once held
//! shipped a pending-count underflow that only review caught). This
//! crate makes those interleavings enumerable.
//!
//! # The shim layer
//!
//! Production code imports its concurrency primitives from here instead
//! of `std`:
//!
//! ```ignore
//! use nc_check::sync::atomic::{AtomicUsize, Ordering};
//! use nc_check::sync::{Arc, Mutex};
//! use nc_check::thread;
//! ```
//!
//! In a normal build ([`sync`] and [`thread`]) are *transparent
//! re-exports* of `std` — same types, zero cost, nothing to gate out of
//! release binaries. Compiled with `RUSTFLAGS="--cfg nc_check"`, the same
//! imports resolve to shim types that route every load, store, RMW, lock,
//! spawn and join through a deterministic scheduler.
//!
//! # The checker
//!
//! Under `cfg(nc_check)`, `check` / `Check` run a model closure under
//! depth-first exploration of its schedule tree:
//!
//! ```ignore
//! nc_check::check(|| {
//!     let pool = BytesPool::new(1);
//!     let taker = pool.clone();
//!     let t = nc_check::thread::spawn(move || drop(taker.take_vec(16)));
//!     pool.recycle(Vec::with_capacity(64));
//!     t.join().unwrap();
//! });
//! ```
//!
//! Exploration is bounded by a **preemption budget** (default 2 voluntary
//! preemptions per execution — forced switches at blocking points are
//! free) and deduplicated by a **state hash** over thread statuses,
//! atomic values, and lock holders. Failures — panics, deadlocks (a lock
//! cycle, or a join on a stuck thread), livelocks, leaked threads — abort
//! the run and are reported with a **replayable trace**: a comma-separated
//! decision list like `t0,t1,t1,t2,t0` that `replay` feeds back through
//! the scheduler to reproduce the exact interleaving.
//!
//! # What is *not* modeled
//!
//! Atomics execute sequentially consistent under the checker: nc-check
//! explores scheduling nondeterminism, not weak-memory reordering (that
//! is Miri/TSan territory — see the CI lanes). `fetch_update` is one
//! atomic step. `OnceLock` initialization races are not explored.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod sync;
pub mod thread;

#[cfg(nc_check)]
mod explore;
#[cfg(nc_check)]
mod sched;

#[cfg(nc_check)]
pub use explore::{check, replay, Check, Failure, Report};
#[cfg(nc_check)]
pub use sched::FailureKind;

/// `true` when this build routes the shims through the model checker
/// (`RUSTFLAGS="--cfg nc_check"`), `false` in normal builds. Lets shared
/// test helpers branch without duplicating the cfg.
pub const ENABLED: bool = cfg!(nc_check);
