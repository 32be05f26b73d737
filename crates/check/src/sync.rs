//! Drop-in `std::sync` surface for the concurrency hot paths.
//!
//! In normal builds everything here is a transparent re-export of
//! `std::sync` — zero cost, identical types, so production code that says
//! `use nc_check::sync::{Mutex, Condvar}` compiles to exactly what it did
//! before. Under `RUSTFLAGS="--cfg nc_check"` the same names resolve to
//! shim types that route every operation through the deterministic
//! scheduler of the `sched` module, letting the explorer enumerate
//! interleavings.
//!
//! Shimmed: `Mutex`/`MutexGuard`, `Condvar`/`WaitTimeoutResult`, and the
//! `atomic` module (`AtomicBool`, `AtomicUsize`, `AtomicU64`). Passed
//! through unmodified in both modes: `Arc`, `Weak`, `OnceLock`,
//! `LockResult`, `PoisonError` (an `OnceLock`'s one-time initialization
//! race is not explored; every model we check initializes its globals
//! before spawning).

#[cfg(not(nc_check))]
pub use std::sync::{
    Arc, Condvar, LockResult, Mutex, MutexGuard, OnceLock, PoisonError, WaitTimeoutResult, Weak,
};

/// Atomic types routed through the checker under `cfg(nc_check)`.
#[cfg(not(nc_check))]
pub mod atomic {
    pub use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
}

#[cfg(nc_check)]
pub use checked::{atomic, Condvar, Mutex, MutexGuard, WaitTimeoutResult};
#[cfg(nc_check)]
pub use std::sync::{Arc, LockResult, OnceLock, PoisonError, Weak};

#[cfg(nc_check)]
mod checked {
    use crate::sched::{ctx, Inner, ObjKind};
    use std::ops::{Deref, DerefMut};
    use std::sync::atomic::AtomicU64 as RawU64;
    use std::sync::{Arc, LockResult, PoisonError};
    use std::time::Duration;

    /// Per-object registration word: `epoch << 24 | object id`, rewritten
    /// lazily each execution so shimmed `static`s work across runs.
    pub(crate) struct Registration(pub(crate) RawU64);

    impl Registration {
        pub(crate) const fn new() -> Registration {
            Registration(RawU64::new(0))
        }
    }

    /// When the real `wait_timeout` backstop fires on passthrough
    /// (post-abort) threads we cap the sleep so released threads whose
    /// notify raced the abort still make progress quickly.
    const PASSTHROUGH_WAIT_CAP: Duration = Duration::from_millis(5);

    // ---------------------------------------------------------------- Mutex

    /// Checked mutex: model acquisition order is decided by the
    /// scheduler; the embedded real mutex still protects the data (and is
    /// always uncontended while the model owns scheduling).
    pub struct Mutex<T: ?Sized> {
        reg: Registration,
        inner: std::sync::Mutex<T>,
    }

    /// Guard for the checked [`Mutex`]; model-releases on drop.
    pub struct MutexGuard<'a, T: ?Sized + 'a> {
        lock: &'a Mutex<T>,
        /// `Some` while this guard is model-tracked: scheduler handle,
        /// model thread id, mutex object id.
        link: Option<(Arc<Inner>, usize, usize)>,
        real: Option<std::sync::MutexGuard<'a, T>>,
    }

    impl<T> Mutex<T> {
        /// Creates a new checked mutex.
        pub const fn new(value: T) -> Mutex<T> {
            Mutex { reg: Registration::new(), inner: std::sync::Mutex::new(value) }
        }
    }

    impl<T: ?Sized> Mutex<T> {
        /// Acquires the mutex. Under the checker this is a scheduling
        /// point: the thread blocks (via eligibility) until no other
        /// model thread holds the lock.
        pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
            if let Some((cx, me)) = ctx() {
                if !cx.is_aborted() {
                    let oid = cx.register(&self.reg.0, ObjKind::Mutex, 0);
                    if cx.mutex_lock(me, oid, "Mutex::lock") {
                        return wrap(self.inner.lock(), |real| MutexGuard {
                            lock: self,
                            link: Some((cx, me, oid)),
                            real: Some(real),
                        });
                    }
                }
                // Model refused (aborted execution): released threads may
                // hold these real mutexes in a genuinely deadlocked
                // shape, so a plain blocking lock could wedge the test
                // process. Bounded acquire; the panic releases this
                // thread's own locks and lets its peers cascade free.
                return wrap(self.deadline_lock(), |real| MutexGuard {
                    lock: self,
                    link: None,
                    real: Some(real),
                });
            }
            wrap(self.inner.lock(), |real| MutexGuard { lock: self, link: None, real: Some(real) })
        }

        fn deadline_lock(&self) -> LockResult<std::sync::MutexGuard<'_, T>> {
            let deadline = std::time::Instant::now() + Duration::from_secs(2);
            loop {
                match self.inner.try_lock() {
                    Ok(real) => return Ok(real),
                    Err(std::sync::TryLockError::Poisoned(p)) => return Err(p),
                    Err(std::sync::TryLockError::WouldBlock) => {
                        assert!(
                            std::time::Instant::now() < deadline,
                            "nc-check: mutex still wedged 2s after the model aborted \
                             (real deadlock among released threads)"
                        );
                        std::thread::yield_now();
                    }
                }
            }
        }
    }

    impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            self.inner.fmt(f)
        }
    }

    /// Maps a real lock result (possibly poisoned) into the shim guard,
    /// preserving poison: a panicking model thread poisons the real inner
    /// mutex exactly as production code's would.
    fn wrap<'a, T: ?Sized>(
        res: LockResult<std::sync::MutexGuard<'a, T>>,
        build: impl FnOnce(std::sync::MutexGuard<'a, T>) -> MutexGuard<'a, T>,
    ) -> LockResult<MutexGuard<'a, T>> {
        match res {
            Ok(real) => Ok(build(real)),
            Err(poisoned) => Err(PoisonError::new(build(poisoned.into_inner()))),
        }
    }

    impl<'a, T: ?Sized> Deref for MutexGuard<'a, T> {
        type Target = T;
        fn deref(&self) -> &T {
            self.real.as_ref().expect("guard accessed mid-wait")
        }
    }

    impl<'a, T: ?Sized> DerefMut for MutexGuard<'a, T> {
        fn deref_mut(&mut self) -> &mut T {
            self.real.as_mut().expect("guard accessed mid-wait")
        }
    }

    impl<'a, T: ?Sized> Drop for MutexGuard<'a, T> {
        fn drop(&mut self) {
            drop(self.real.take());
            if let Some((cx, me, oid)) = self.link.take() {
                cx.mutex_unlock(me, oid);
            }
        }
    }

    impl<'a, T: ?Sized + std::fmt::Debug> std::fmt::Debug for MutexGuard<'a, T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            (**self).fmt(f)
        }
    }

    // -------------------------------------------------------------- Condvar

    /// Result of a checked `wait_timeout`: under the model the timeout
    /// never fires (waits are untimed so lost wakeups become deadlocks);
    /// on passthrough it reports the real outcome.
    #[derive(Copy, Clone, Debug)]
    pub struct WaitTimeoutResult(pub(crate) bool);

    impl WaitTimeoutResult {
        /// Whether the wait ended by timeout rather than notification.
        pub fn timed_out(&self) -> bool {
            self.0
        }
    }

    /// Checked condition variable. Under the model, waiters park inside
    /// the scheduler and wakeups are explicit `notify` decisions — a
    /// notify with no waiter is a no-op, so lost-wakeup bugs surface as
    /// deadlocks instead of being papered over by timeout backstops.
    pub struct Condvar {
        reg: Registration,
        inner: std::sync::Condvar,
    }

    impl Condvar {
        /// Creates a new checked condvar.
        pub const fn new() -> Condvar {
            Condvar { reg: Registration::new(), inner: std::sync::Condvar::new() }
        }

        /// Blocks until notified. Spurious wakeups are possible on the
        /// passthrough path (and after an abort), so callers must loop on
        /// their predicate — exactly the `std` contract.
        pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
            self.wait_impl(guard, None).map(|(g, _)| g).map_err(|p| {
                let (g, _) = p.into_inner();
                PoisonError::new(g)
            })
        }

        /// Blocks until notified or (passthrough only) the timeout
        /// elapses. Under the model this is an *untimed* wait: the
        /// checker proves the notify protocol complete without leaning
        /// on the production code's timeout backstops.
        pub fn wait_timeout<'a, T>(
            &self,
            guard: MutexGuard<'a, T>,
            dur: Duration,
        ) -> LockResult<(MutexGuard<'a, T>, WaitTimeoutResult)> {
            self.wait_impl(guard, Some(dur))
        }

        fn wait_impl<'a, T>(
            &self,
            mut guard: MutexGuard<'a, T>,
            dur: Option<Duration>,
        ) -> LockResult<(MutexGuard<'a, T>, WaitTimeoutResult)> {
            if let Some((cx, me, moid)) = guard.link.clone() {
                if !cx.is_aborted() {
                    let cvid = cx.register(&self.reg.0, ObjKind::Condvar, 0);
                    if cx.cv_wait_start(me, cvid, moid, "Condvar::wait") {
                        // Model-released; now drop the real guard and park.
                        drop(guard.real.take());
                        let woken = cx.cv_wait_block(me, moid);
                        // Model-granted wakeups find the real mutex free;
                        // the deadline only matters on abort paths.
                        let res = guard.lock.deadline_lock();
                        let poisoned = res.is_err();
                        guard.real = Some(res.unwrap_or_else(PoisonError::into_inner));
                        if !woken {
                            // Aborted mid-wait: surfaces as a spurious
                            // wakeup, which the caller's predicate loop
                            // must tolerate anyway.
                            guard.link = None;
                        }
                        let out = (guard, WaitTimeoutResult(false));
                        return if poisoned { Err(PoisonError::new(out)) } else { Ok(out) };
                    }
                    // Model refused (aborted/finished): fall through to a
                    // real wait, but untrack the guard first.
                    guard.link = None;
                }
            }
            // Passthrough. A thread released from an aborted model must
            // never hang on a notify that raced the abort, so its waits
            // are capped; code running with no checker context at all
            // (test setup, helper threads) gets real `std` semantics.
            let released = ctx().is_some();
            let real = guard.real.take().expect("guard accessed mid-wait");
            if !released {
                if let Some(dur) = dur {
                    let res = self.inner.wait_timeout(real, dur);
                    let poisoned = res.is_err();
                    let (real, timeout) = match res {
                        Ok(pair) => pair,
                        Err(p) => p.into_inner(),
                    };
                    guard.real = Some(real);
                    let out = (guard, WaitTimeoutResult(timeout.timed_out()));
                    return if poisoned { Err(PoisonError::new(out)) } else { Ok(out) };
                }
                let res = self.inner.wait(real);
                let poisoned = res.is_err();
                guard.real = Some(res.unwrap_or_else(PoisonError::into_inner));
                let out = (guard, WaitTimeoutResult(false));
                return if poisoned { Err(PoisonError::new(out)) } else { Ok(out) };
            }
            let capped = dur.map_or(PASSTHROUGH_WAIT_CAP, |d| d.min(PASSTHROUGH_WAIT_CAP));
            let res = self.inner.wait_timeout(real, capped);
            let poisoned = res.is_err();
            let (real, timeout) = match res {
                Ok(pair) => pair,
                Err(p) => p.into_inner(),
            };
            guard.real = Some(real);
            let out = (guard, WaitTimeoutResult(dur.is_some() && timeout.timed_out()));
            if poisoned {
                Err(PoisonError::new(out))
            } else {
                Ok(out)
            }
        }

        /// Wakes one waiter (a recorded scheduling decision: the checker
        /// branches over *which* waiter when several are parked).
        pub fn notify_one(&self) {
            if let Some((cx, me)) = ctx() {
                if !cx.is_aborted() {
                    let cvid = cx.register(&self.reg.0, ObjKind::Condvar, 0);
                    if cx.cv_notify(me, cvid, false, "Condvar::notify_one") {
                        return;
                    }
                }
            }
            self.inner.notify_one();
        }

        /// Wakes every waiter.
        pub fn notify_all(&self) {
            if let Some((cx, me)) = ctx() {
                if !cx.is_aborted() {
                    let cvid = cx.register(&self.reg.0, ObjKind::Condvar, 0);
                    if cx.cv_notify(me, cvid, true, "Condvar::notify_all") {
                        return;
                    }
                }
            }
            self.inner.notify_all();
        }
    }

    impl std::fmt::Debug for Condvar {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("Condvar").finish_non_exhaustive()
        }
    }

    // -------------------------------------------------------------- Atomics

    /// Checked atomic types: every load/store/RMW is a scheduling point,
    /// executed with sequentially-consistent semantics while holding the
    /// run token (the checker explores interleavings, not weak memory —
    /// the `Ordering` argument is accepted and ignored).
    pub mod atomic {
        pub use std::sync::atomic::Ordering;

        use super::Registration;
        use crate::sched::{ctx, ObjKind, OpKind};

        macro_rules! checked_atomic_int {
            ($name:ident, $raw:path, $prim:ty) => {
                /// Checked integer atomic (see module docs).
                pub struct $name {
                    reg: Registration,
                    inner: $raw,
                }

                impl $name {
                    /// Creates a new checked atomic.
                    pub const fn new(v: $prim) -> $name {
                        $name { reg: Registration::new(), inner: <$raw>::new(v) }
                    }

                    fn route<R>(
                        &self,
                        kind: OpKind,
                        desc: &'static str,
                        f: impl FnOnce(&$raw) -> R,
                        val: impl Fn(&R, &$raw) -> u64,
                    ) -> R {
                        let mut slot = Some(f);
                        if let Some((cx, me)) = ctx() {
                            if !cx.is_aborted() {
                                let oid = cx.register(
                                    &self.reg.0,
                                    ObjKind::Atomic,
                                    self.inner.load(Ordering::SeqCst) as u64,
                                );
                                let out = cx.atomic_op(me, oid, kind, desc, || {
                                    let g = slot.take().expect("atomic op closure reused");
                                    let r = g(&self.inner);
                                    let v = val(&r, &self.inner);
                                    (r, v)
                                });
                                if let Some(r) = out {
                                    return r;
                                }
                            }
                        }
                        let g = slot.take().expect("atomic op closure consumed on abort");
                        g(&self.inner)
                    }

                    /// Atomic load (scheduling point under the checker).
                    pub fn load(&self, _order: Ordering) -> $prim {
                        self.route(
                            OpKind::Load,
                            concat!(stringify!($name), "::load"),
                            |a| a.load(Ordering::SeqCst),
                            |r, _| *r as u64,
                        )
                    }

                    /// Atomic store (scheduling point under the checker).
                    pub fn store(&self, v: $prim, _order: Ordering) {
                        self.route(
                            OpKind::Store,
                            concat!(stringify!($name), "::store"),
                            |a| a.store(v, Ordering::SeqCst),
                            |_, a| a.load(Ordering::SeqCst) as u64,
                        )
                    }

                    /// Atomic add, returning the previous value.
                    pub fn fetch_add(&self, v: $prim, _order: Ordering) -> $prim {
                        self.route(
                            OpKind::Rmw,
                            concat!(stringify!($name), "::fetch_add"),
                            |a| a.fetch_add(v, Ordering::SeqCst),
                            |r, _| r.wrapping_add(v) as u64,
                        )
                    }

                    /// Atomic subtract, returning the previous value.
                    pub fn fetch_sub(&self, v: $prim, _order: Ordering) -> $prim {
                        self.route(
                            OpKind::Rmw,
                            concat!(stringify!($name), "::fetch_sub"),
                            |a| a.fetch_sub(v, Ordering::SeqCst),
                            |r, _| r.wrapping_sub(v) as u64,
                        )
                    }

                    /// Atomic swap, returning the previous value.
                    pub fn swap(&self, v: $prim, _order: Ordering) -> $prim {
                        self.route(
                            OpKind::Rmw,
                            concat!(stringify!($name), "::swap"),
                            |a| a.swap(v, Ordering::SeqCst),
                            |_, _| v as u64,
                        )
                    }

                    /// Atomic compare-exchange (one model step).
                    pub fn compare_exchange(
                        &self,
                        current: $prim,
                        new: $prim,
                        _success: Ordering,
                        _failure: Ordering,
                    ) -> Result<$prim, $prim> {
                        self.route(
                            OpKind::Rmw,
                            concat!(stringify!($name), "::compare_exchange"),
                            |a| {
                                a.compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst)
                            },
                            |_, a| a.load(Ordering::SeqCst) as u64,
                        )
                    }

                    /// Atomic read-modify-write closure, modeled as one
                    /// indivisible step (matches the uncontended-retry
                    /// semantics the hot paths rely on).
                    pub fn fetch_update(
                        &self,
                        _set: Ordering,
                        _fetch: Ordering,
                        f: impl FnMut($prim) -> Option<$prim>,
                    ) -> Result<$prim, $prim> {
                        self.route(
                            OpKind::Rmw,
                            concat!(stringify!($name), "::fetch_update"),
                            move |a| a.fetch_update(Ordering::SeqCst, Ordering::SeqCst, f),
                            |_, a| a.load(Ordering::SeqCst) as u64,
                        )
                    }
                }

                impl std::fmt::Debug for $name {
                    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                        self.inner.fmt(f)
                    }
                }
            };
        }

        checked_atomic_int!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);
        checked_atomic_int!(AtomicU64, std::sync::atomic::AtomicU64, u64);
        checked_atomic_int!(AtomicU32, std::sync::atomic::AtomicU32, u32);

        /// Checked boolean atomic (see module docs).
        pub struct AtomicBool {
            reg: Registration,
            inner: std::sync::atomic::AtomicBool,
        }

        impl AtomicBool {
            /// Creates a new checked atomic.
            pub const fn new(v: bool) -> AtomicBool {
                AtomicBool {
                    reg: Registration::new(),
                    inner: std::sync::atomic::AtomicBool::new(v),
                }
            }

            fn route<R>(
                &self,
                kind: OpKind,
                desc: &'static str,
                f: impl FnOnce(&std::sync::atomic::AtomicBool) -> R,
            ) -> R {
                let mut slot = Some(f);
                if let Some((cx, me)) = ctx() {
                    if !cx.is_aborted() {
                        let oid = cx.register(
                            &self.reg.0,
                            ObjKind::Atomic,
                            self.inner.load(Ordering::SeqCst) as u64,
                        );
                        let out = cx.atomic_op(me, oid, kind, desc, || {
                            let g = slot.take().expect("atomic op closure reused");
                            let r = g(&self.inner);
                            (r, self.inner.load(Ordering::SeqCst) as u64)
                        });
                        if let Some(r) = out {
                            return r;
                        }
                    }
                }
                let g = slot.take().expect("atomic op closure consumed on abort");
                g(&self.inner)
            }

            /// Atomic load (scheduling point under the checker).
            pub fn load(&self, _order: Ordering) -> bool {
                self.route(OpKind::Load, "AtomicBool::load", |a| a.load(Ordering::SeqCst))
            }

            /// Atomic store (scheduling point under the checker).
            pub fn store(&self, v: bool, _order: Ordering) {
                self.route(OpKind::Store, "AtomicBool::store", |a| a.store(v, Ordering::SeqCst))
            }

            /// Atomic swap, returning the previous value.
            pub fn swap(&self, v: bool, _order: Ordering) -> bool {
                self.route(OpKind::Rmw, "AtomicBool::swap", |a| a.swap(v, Ordering::SeqCst))
            }
        }

        impl std::fmt::Debug for AtomicBool {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                self.inner.fmt(f)
            }
        }
    }
}
