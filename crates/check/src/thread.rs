//! Drop-in `std::thread` surface for the concurrency hot paths.
//!
//! Normal builds re-export `std::thread` wholesale. Under
//! `cfg(nc_check)`, `spawn`/`Builder::spawn` register the new thread with
//! the scheduler (spawning is itself a scheduling decision), run the body
//! on a *real* OS thread that only executes while holding the run token,
//! and `JoinHandle::join` becomes a model join (eligible once the target
//! finished) followed by the real join, so panic payloads propagate
//! exactly as in production.

#[cfg(not(nc_check))]
pub use std::thread::*;

#[cfg(nc_check)]
pub use checked::{spawn, Builder, JoinHandle};

#[cfg(nc_check)]
mod checked {
    use crate::sched::{ctx, payload_msg, set_ctx, Inner};
    use std::io;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    /// Checked thread builder mirroring `std::thread::Builder`.
    #[derive(Debug)]
    pub struct Builder {
        inner: std::thread::Builder,
    }

    /// Checked join handle: joins through the scheduler first, then for
    /// real.
    pub struct JoinHandle<T> {
        /// `Some` when the spawn was model-tracked: scheduler + model tid.
        link: Option<(Arc<Inner>, usize)>,
        real: std::thread::JoinHandle<T>,
    }

    impl Builder {
        /// Creates a builder with default settings.
        pub fn new() -> Builder {
            Builder { inner: std::thread::Builder::new() }
        }

        /// Names the thread (passed through to the OS thread).
        pub fn name(self, name: String) -> Builder {
            Builder { inner: self.inner.name(name) }
        }

        /// Spawns a thread. If the caller is a model thread, the spawn is
        /// a recorded scheduling decision and the child becomes a model
        /// thread; otherwise this is plain `std::thread::Builder::spawn`.
        pub fn spawn<F, T>(self, f: F) -> io::Result<JoinHandle<T>>
        where
            F: FnOnce() -> T + Send + 'static,
            T: Send + 'static,
        {
            if let Some((cx, me)) = ctx() {
                if !cx.is_aborted() {
                    if let Some(tid) = cx.spawn_thread(me) {
                        let child_cx = Arc::clone(&cx);
                        let real = self.inner.spawn(move || {
                            // Ensure the host learns of the real exit even
                            // if the body panics; runs after thread_finish
                            // because drop guards unwind last.
                            struct ExitGuard(Arc<Inner>);
                            impl Drop for ExitGuard {
                                fn drop(&mut self) {
                                    set_ctx(None);
                                    self.0.exit_real();
                                }
                            }
                            set_ctx(Some((Arc::clone(&child_cx), tid)));
                            let _exit = ExitGuard(Arc::clone(&child_cx));
                            child_cx.thread_start(tid);
                            let result = catch_unwind(AssertUnwindSafe(f));
                            let panic_msg = result.as_ref().err().map(|e| payload_msg(e));
                            child_cx.thread_finish(tid, panic_msg);
                            match result {
                                Ok(v) => v,
                                // Preserve real join semantics: the panic
                                // still reaches `JoinHandle::join` as Err.
                                Err(payload) => resume_unwind(payload),
                            }
                        })?;
                        return Ok(JoinHandle { link: Some((cx, tid)), real });
                    }
                }
            }
            let real = self.inner.spawn(f)?;
            Ok(JoinHandle { link: None, real })
        }
    }

    /// Spawns a thread with default settings (see [`Builder::spawn`]).
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        Builder::new().spawn(f).expect("failed to spawn thread")
    }

    impl<T> JoinHandle<T> {
        /// Waits for the thread to finish, returning its result (or the
        /// panic payload, exactly like `std`).
        pub fn join(self) -> std::thread::Result<T> {
            if let Some((cx, tid)) = self.link {
                if let Some((cur, me)) = ctx() {
                    if Arc::ptr_eq(&cx, &cur) && !cx.is_aborted() {
                        // Blocks (via eligibility) until `tid` finished.
                        let _ = cx.join(me, tid);
                    }
                }
            }
            self.real.join()
        }

        /// Whether the thread has finished (passes through).
        pub fn is_finished(&self) -> bool {
            self.real.is_finished()
        }
    }

    impl<T> std::fmt::Debug for JoinHandle<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("JoinHandle").finish_non_exhaustive()
        }
    }
}
