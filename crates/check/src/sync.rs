//! Drop-in `std::sync` surface for the concurrency hot paths.
//!
//! In normal builds everything here is a transparent re-export of
//! `std::sync` — zero cost, identical types, so production code that says
//! `use nc_check::sync::{Arc, Mutex}` compiles to exactly what it did
//! before. Under `RUSTFLAGS="--cfg nc_check"` the same names resolve to
//! shim types that route every operation through the deterministic
//! scheduler of the `sched` module, letting the explorer enumerate
//! interleavings.
//!
//! Shimmed: `Mutex`/`MutexGuard` and the `atomic` module (`AtomicBool`,
//! `AtomicUsize`, `AtomicU64`). Passed through unmodified in both modes:
//! `Arc`, `Weak`, `OnceLock`, `LockResult`, `PoisonError` (an
//! `OnceLock`'s one-time initialization race is not explored; every
//! model we check initializes its globals before spawning).

#[cfg(not(nc_check))]
pub use std::sync::{Arc, LockResult, Mutex, MutexGuard, OnceLock, PoisonError, Weak};

/// Atomic types routed through the checker under `cfg(nc_check)`.
#[cfg(not(nc_check))]
pub mod atomic {
    pub use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
}

#[cfg(nc_check)]
pub use checked::{atomic, Mutex, MutexGuard};
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
                    link: None,
                    real: Some(real),
                });
            }
            wrap(self.inner.lock(), |real| MutexGuard { link: None, real: Some(real) })
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
            self.real.as_ref().expect("guard is held")
        }
    }

    impl<'a, T: ?Sized> DerefMut for MutexGuard<'a, T> {
        fn deref_mut(&mut self) -> &mut T {
            self.real.as_mut().expect("guard is held")
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
