//! nc-check — deterministic concurrency model checking for the network
//! coding hot paths.
//!
//! PR 5's work-stealing executor shipped with a pending-count underflow
//! race that only review caught. Every hot path in this codebase — pool
//! scopes, `BytesPool` bucket shelves, `StreamEncoder`'s atomic cursor,
//! session window counters — is lock-free or condvar-parked by design, so
//! "it passed the stress test" is not evidence of correctness: the racy
//! interleaving may need a preemption the OS scheduler grants once per
//! million runs. This crate makes those interleavings enumerable.
//!
//! # The shim layer
//!
//! Production code imports its concurrency primitives from here instead
//! of `std`:
//!
//! ```ignore
//! use nc_check::sync::atomic::{AtomicUsize, Ordering};
//! use nc_check::sync::{Arc, Condvar, Mutex};
//! use nc_check::thread;
//! ```
//!
//! In a normal build ([`sync`] and [`thread`]) are *transparent
//! re-exports* of `std` — same types, zero cost, nothing to gate out of
//! release binaries. Compiled with `RUSTFLAGS="--cfg nc_check"`, the same
//! imports resolve to shim types that route every load, store, RMW, lock,
//! park, and spawn through a deterministic scheduler.
//!
//! # The checker
//!
//! Under `cfg(nc_check)`, `check` / `Check` run a model closure under
//! depth-first exploration of its schedule tree:
//!
//! ```ignore
//! nc_check::check(|| {
//!     let pool = Pool::new(1);
//!     pool.scope(|s| s.spawn(|| {}));
//! });
//! ```
//!
//! Exploration is bounded by a **preemption budget** (default 2 voluntary
//! preemptions per execution — forced switches at blocking points are
//! free) and deduplicated by a **state hash** over thread statuses,
//! atomic values, and lock holders. Failures — panics, deadlocks (which
//! is how lost condvar wakeups surface, since `wait_timeout` is modeled
//! as an untimed wait), livelocks, leaked threads — abort the run and are
//! reported with a **replayable trace**: a comma-separated decision list
//! like `t0,t1,t1,w2,t0` that `replay` feeds back through the scheduler
//! to reproduce the exact interleaving.
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
