//! The persistent work-stealing worker pool.
//!
//! One OS thread per requested core, spawned once and parked between
//! bursts. Each worker owns a deque it pushes and pops LIFO (hot cache
//! for recursive fan-out); tasks submitted from outside the pool land on
//! a global FIFO injector; an idle worker drains its own deque, then the
//! injector, then steals FIFO (the *oldest* task — the one whose cache is
//! coldest anyway) from a sibling. The only public way to run work is
//! [`Pool::scope`], which blocks until every task spawned inside it has
//! completed, so tasks may freely borrow from the caller's stack.
//!
//! Panic discipline: a panicking task poisons its own scope only. The
//! worker that ran it survives; the first panic payload is stashed and
//! [`std::panic::resume_unwind`]-ed on the scope's caller after all of
//! the scope's tasks have joined — mirroring the contract the per-wave
//! `crossbeam::scope` call sites had.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

// Concurrency primitives come from nc-check's shim layer: a transparent
// re-export of `std` in normal builds, the deterministic model checker's
// instrumented types under `RUSTFLAGS="--cfg nc_check"` (see
// crates/check). Keeping every atomic/lock/park on the shims is what lets
// CI exhaustively explore this executor's schedules.
use nc_check::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use nc_check::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use nc_check::thread;

use crate::metrics::metrics;

/// Locks a pool mutex, recovering from poisoning instead of panicking.
///
/// The soundness of [`Scope::spawn`]'s lifetime erasure rests on
/// [`Pool::scope`] never unwinding before all of its tasks have joined.
/// A panic on a lock would violate exactly that, so the wait paths must
/// keep functioning even if some thread ever poisoned a mutex. That is
/// safe here because every pool mutex guards plain queue structure
/// (`VecDeque`s of self-contained tasks, a registry map, a panic slot)
/// whose invariants cannot be broken mid-critical-section: tasks run
/// outside the locks, behind their own `catch_unwind`.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A lifetime-erased unit of work. Every task is self-contained: it
/// catches its own panic and performs its own scope bookkeeping, so the
/// executing thread (worker or helping caller) runs it blindly.
type Task = Box<dyn FnOnce() + Send + 'static>;

// Worker identity of the current thread, if it is a pool worker:
// `(pool id, worker index)`. Lets `Scope::spawn` push to the local
// deque and lets a helping caller drain its own deque first.
thread_local! {
    static WORKER: std::cell::Cell<Option<(usize, usize)>> =
        const { std::cell::Cell::new(None) };
}

/// Fresh identity per pool so worker-locality checks cannot cross pools.
static POOL_IDS: AtomicUsize = AtomicUsize::new(0);

struct Shared {
    id: usize,
    /// Global FIFO for tasks submitted from non-worker threads.
    injector: Mutex<VecDeque<Task>>,
    /// Per-worker deques: the owner pops LIFO, thieves steal FIFO.
    locals: Vec<Mutex<VecDeque<Task>>>,
    /// Per-worker *pinned* queues: only the owning worker ever pops.
    /// Thieves and helping callers never touch these, which is what makes
    /// [`Scope::spawn_pinned`]'s placement guarantee hold.
    pinned: Vec<Mutex<VecDeque<Task>>>,
    /// Queued-but-unclaimed *stealable* tasks — the shared half of the
    /// park/unpark condition. Pinned tasks are counted separately (per
    /// worker) so an idle sibling does not wake for work it cannot take.
    pending: AtomicUsize,
    /// Queued-but-unclaimed pinned tasks, per worker.
    pinned_pending: Vec<AtomicUsize>,
    /// Parking lot shared by idle workers and scope waiters.
    sleep: Mutex<()>,
    wake: Condvar,
    shutdown: AtomicBool,
}

impl Shared {
    /// Pops one task: own deque (LIFO), then injector (FIFO), then steal
    /// (FIFO) from siblings. `me` is the caller's worker index, if any.
    ///
    /// Each pop binds the deque result to a local first so the
    /// `MutexGuard` is dropped before `note_pop` runs — bookkeeping never
    /// executes under a queue lock.
    fn find_task(&self, me: Option<usize>) -> Option<Task> {
        if let Some(i) = me {
            // Pinned work first (FIFO): only this worker can run it, so
            // letting it age behind stealable tasks would serialize the
            // very placement `spawn_pinned` promises.
            let task = lock(&self.pinned[i]).pop_front();
            if let Some(task) = task {
                self.pinned_pending[i].fetch_sub(1, Ordering::AcqRel);
                return Some(task);
            }
            let task = lock(&self.locals[i]).pop_back();
            if let Some(task) = task {
                self.note_pop();
                return Some(task);
            }
        }
        let task = lock(&self.injector).pop_front();
        if let Some(task) = task {
            self.note_pop();
            return Some(task);
        }
        let n = self.locals.len();
        // Start at a rotating offset so thieves don't all hammer worker 0.
        let start = self.pending.load(Ordering::Acquire);
        for k in 0..n {
            let j = (start + k) % n;
            if Some(j) == me {
                continue;
            }
            let task = lock(&self.locals[j]).pop_front();
            if let Some(task) = task {
                metrics().steals.inc();
                self.note_pop();
                return Some(task);
            }
        }
        None
    }

    /// Records one claimed task. Saturating: `push_task` counts a task
    /// *before* enqueueing it, so a pop can never outrun its push's
    /// increment — but the counter is advisory (`find_task` never trusts
    /// it), so it must also never underflow or panic.
    fn note_pop(&self) {
        let prev = self
            .pending
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |p| Some(p.saturating_sub(1)))
            .unwrap_or(0);
        metrics().queue_depth.set(prev.saturating_sub(1) as f64);
    }

    /// Wakes at least one parked thread. Bracketing the notify with the
    /// sleep mutex closes the race against a thread that has checked the
    /// park condition but not yet entered `wait`.
    fn notify(&self, all: bool) {
        drop(lock(&self.sleep));
        if all {
            self.wake.notify_all();
        } else {
            self.wake.notify_one();
        }
    }
}

/// A persistent pool of worker threads with per-worker LIFO deques, a
/// global injector, and FIFO stealing.
///
/// Construct one directly with [`Pool::new`], or share a process-wide
/// instance per thread count with [`Pool::shared`] /
/// [`Pool::global`] — the call sites that used to spawn a thread wave per
/// batch all go through [`Pool::shared`], so repeated batches reuse the
/// same parked threads.
///
/// ```
/// let pool = nc_pool::Pool::new(4);
/// let mut totals = vec![0u64; 8];
/// pool.scope(|scope| {
///     for (i, t) in totals.iter_mut().enumerate() {
///         scope.spawn(move || *t = (i as u64) * 2);
///     }
/// });
/// assert_eq!(totals[7], 14);
/// ```
pub struct Pool {
    shared: Arc<Shared>,
    workers: Vec<thread::JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool").field("threads", &self.threads).finish_non_exhaustive()
    }
}

impl Pool {
    /// Spawns a pool of `threads` parked worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Pool {
        assert!(threads > 0, "at least one worker thread required");
        let shared = Arc::new(Shared {
            id: POOL_IDS.fetch_add(1, Ordering::Relaxed),
            injector: Mutex::new(VecDeque::new()),
            locals: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            pinned: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: AtomicUsize::new(0),
            pinned_pending: (0..threads).map(|_| AtomicUsize::new(0)).collect(),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("nc-pool-{i}"))
                    .spawn(move || worker_main(shared, i))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        Pool { shared, workers, threads }
    }

    /// The process-wide pool for a given thread count, created on first
    /// use and kept alive (threads parked) for the rest of the process.
    /// This is what keeps the `threads` knob of the CPU coders meaningful
    /// while the workers themselves stay persistent.
    ///
    /// The registry is bounded: shared pools are never dropped (their
    /// parked workers live for the rest of the process), so after
    /// `MAX_SHARED_POOLS` (8) distinct thread counts have been
    /// materialised, further counts reuse the cached pool with the
    /// nearest size (preferring a larger one) instead of accumulating
    /// parked OS threads without bound. Callers that want an exactly
    /// sized, reclaimable pool construct one with [`Pool::new`].
    pub fn shared(threads: usize) -> Arc<Pool> {
        static REGISTRY: OnceLock<Registry> = OnceLock::new();
        REGISTRY.get_or_init(|| Registry::new(MAX_SHARED_POOLS)).get(threads)
    }

    /// The process-wide pool sized to the host's available parallelism.
    pub fn global() -> Arc<Pool> {
        let threads = thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        Pool::shared(threads)
    }

    /// Number of worker threads.
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `op` with a [`Scope`] that can spawn borrowing tasks, and
    /// returns only after **every** spawned task has completed — also on
    /// the panic paths, which is what makes the borrows sound.
    ///
    /// While waiting, the calling thread helps execute pool tasks (its
    /// own scope's or anyone else's), so scopes nest without deadlock
    /// even when every worker is itself blocked in an inner scope.
    ///
    /// Helping is the rayon-style latency tradeoff: because queued tasks
    /// carry no scope identity, a waiter can pick up an *unrelated* task
    /// and be blocked behind it even after its own scope's last task
    /// finishes, and deeply nested helping grows the caller's stack one
    /// frame per re-entry. Fine-grained scopes (per-row operations) that
    /// must not wait behind coarse work should therefore run on their own
    /// [`Pool::new`] instance rather than a [`Pool::shared`] pool that
    /// also serves whole-segment tasks.
    ///
    /// # Panics
    ///
    /// If a spawned task panics, the scope is poisoned: remaining tasks
    /// still run to completion, and the *first* panic payload is resumed
    /// on the caller. A panic in `op` itself takes precedence.
    pub fn scope<'scope, OP, R>(&'scope self, op: OP) -> R
    where
        OP: FnOnce(&Scope<'scope>) -> R,
    {
        let scope = Scope {
            pool: self,
            state: Arc::new(ScopeState {
                outstanding: AtomicUsize::new(0),
                panic: Mutex::new(None),
            }),
            _marker: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| op(&scope)));
        self.wait_scope(&scope.state);
        match result {
            Err(payload) => resume_unwind(payload),
            Ok(value) => {
                if let Some(payload) = lock(&scope.state.panic).take() {
                    resume_unwind(payload);
                }
                value
            }
        }
    }

    /// Blocks until `state.outstanding == 0`, executing queued tasks
    /// while waiting instead of spinning or sleeping.
    ///
    /// **Wait predicate** (scope-caller park site): sleep while
    /// `outstanding != 0 && pending == 0` — "my scope has unfinished
    /// tasks and there is nothing queued I could help with". Both halves
    /// are re-checked under the sleep mutex before parking, closing the
    /// race against a task that completes (or is pushed) between the
    /// outer check and the wait; the completing side brackets its notify
    /// with the same mutex (see [`Shared::notify`]).
    ///
    /// Spurious wakeups are harmless: the surrounding `while` re-evaluates
    /// `outstanding` and simply parks again. Poisoning is absorbed by both
    /// [`lock`] and the `unwrap_or_else` on the wait result — a panicked
    /// task must never convert into a caller deadlock (see [`lock`]'s
    /// soundness note). The 1 ms timeout is a backstop only, *not* part of
    /// correctness: nc-check models this wait as untimed, and the checked
    /// models in `crates/check/tests/executor_models.rs` verify no
    /// schedule loses the completion wakeup.
    fn wait_scope(&self, state: &ScopeState) {
        let me = current_worker(self.shared.id);
        while state.outstanding.load(Ordering::Acquire) != 0 {
            if let Some(task) = self.shared.find_task(me) {
                metrics().tasks_executed.inc();
                task();
                continue;
            }
            let guard = lock(&self.shared.sleep);
            if state.outstanding.load(Ordering::Acquire) != 0
                && self.shared.pending.load(Ordering::Acquire) == 0
            {
                // Timeout is a backstop only; task completion notifies.
                let _ = self
                    .shared
                    .wake
                    .wait_timeout(guard, Duration::from_millis(1))
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    fn push_task(&self, task: Task) {
        // Count the task *before* it becomes visible in a queue. A
        // spinning worker can pop the instant the deque lock is
        // released, and in the reverse order that pop's `note_pop`
        // would observe a pending count of zero. Over-counting in the
        // window between the increment and the push is harmless:
        // `find_task` never trusts `pending`, it only gates parking.
        let depth = self.shared.pending.fetch_add(1, Ordering::Release) + 1;
        metrics().queue_depth.set(depth as f64);
        match current_worker(self.shared.id) {
            Some(i) => lock(&self.shared.locals[i]).push_back(task),
            None => lock(&self.shared.injector).push_back(task),
        }
        self.shared.notify(false);
    }

    /// Enqueues a task only worker `index` may run. The pinned count is
    /// incremented before the enqueue for the same pop-cannot-outrun-push
    /// reason as [`Pool::push_task`]; the notify is a broadcast because
    /// `notify_one` could wake a sibling that cannot take pinned work.
    fn push_pinned(&self, index: usize, task: Task) {
        metrics().pinned_tasks.inc();
        self.shared.pinned_pending[index].fetch_add(1, Ordering::Release);
        lock(&self.shared.pinned[index]).push_back(task);
        self.shared.notify(true);
    }
}

/// Most distinct thread counts [`Pool::shared`] materialises before it
/// starts reusing nearest-sized pools. Real call sites use a handful of
/// counts (the coders' `threads` knob plus `available_parallelism`); the
/// cap only guards against pathological callers leaking a parked worker
/// set per distinct count.
const MAX_SHARED_POOLS: usize = 8;

/// The bounded pool cache behind [`Pool::shared`]. Kept as a struct (not
/// a bare static) so the capping policy is testable on a private
/// instance without disturbing the process-wide registry.
struct Registry {
    cap: usize,
    pools: Mutex<HashMap<usize, Arc<Pool>>>,
}

impl Registry {
    fn new(cap: usize) -> Registry {
        assert!(cap > 0, "registry must hold at least one pool");
        Registry { cap, pools: Mutex::new(HashMap::new()) }
    }

    fn get(&self, threads: usize) -> Arc<Pool> {
        let mut pools = lock(&self.pools);
        if let Some(pool) = pools.get(&threads) {
            return Arc::clone(pool);
        }
        if pools.len() >= self.cap {
            // Full: reuse the nearest cached size, preferring a pool
            // with at least the requested parallelism. Scopes complete
            // correctly on any pool size — callers pick their own chunk
            // counts — so only throughput, not correctness, is at stake.
            let best = pools
                .values()
                .min_by_key(|p| (p.threads < threads, p.threads.abs_diff(threads)))
                .expect("registry at cap is non-empty");
            return Arc::clone(best);
        }
        Arc::clone(pools.entry(threads).or_insert_with(|| Arc::new(Pool::new(threads))))
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.notify(true);
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn current_worker(pool_id: usize) -> Option<usize> {
    WORKER.with(|w| match w.get() {
        Some((id, index)) if id == pool_id => Some(index),
        _ => None,
    })
}

/// The worker loop: drain tasks, then park.
///
/// **Wait predicate** (worker park site): sleep while `pending == 0 &&
/// pinned_pending[me] == 0 && !shutdown` — "no stealable work anywhere,
/// nothing pinned to me, and the pool is alive". Both
/// halves are re-checked under the sleep mutex before parking, closing
/// the race against a `push_task` (which increments `pending` *before*
/// enqueueing, then notifies under the same mutex) and against `Drop`
/// (which stores `shutdown` and broadcast-notifies).
///
/// Spurious wakeups are harmless: the loop re-runs `find_task` and parks
/// again if nothing is there. Poisoning is absorbed by [`lock`] and the
/// `unwrap_or_else` on the wait result. The 50 ms timeout bounds the
/// idle-time histogram buckets and lets a worker notice shutdown even if
/// a wakeup were lost — but correctness does not lean on it: nc-check
/// models the wait as untimed, and `executor_models.rs` explores both the
/// push-vs-park and shutdown-vs-park races.
fn worker_main(shared: Arc<Shared>, index: usize) {
    WORKER.with(|w| w.set(Some((shared.id, index))));
    loop {
        if let Some(task) = shared.find_task(Some(index)) {
            metrics().tasks_executed.inc();
            task();
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let parked = Instant::now();
        {
            let guard = lock(&shared.sleep);
            if shared.pending.load(Ordering::Acquire) == 0
                && shared.pinned_pending[index].load(Ordering::Acquire) == 0
                && !shared.shutdown.load(Ordering::Acquire)
            {
                // The timeout bounds idle-time histogram buckets and lets
                // a worker notice shutdown even under a lost wakeup.
                let _ = shared
                    .wake
                    .wait_timeout(guard, Duration::from_millis(50))
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        metrics().worker_idle_ns.record(parked.elapsed().as_nanos() as u64);
    }
}

struct ScopeState {
    /// Spawned-but-unfinished task count of this scope.
    outstanding: AtomicUsize,
    /// First panic payload raised by a task of this scope.
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

/// Spawn handle passed to the closure of [`Pool::scope`]. Tasks may
/// borrow anything that outlives the scope call.
pub struct Scope<'scope> {
    pool: &'scope Pool,
    state: Arc<ScopeState>,
    /// Makes `'scope` invariant, as `std::thread::scope` does, so the
    /// borrow checker cannot shrink it below the data the tasks capture.
    _marker: PhantomData<&'scope mut &'scope ()>,
}

impl std::fmt::Debug for Scope<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scope")
            .field("outstanding", &self.state.outstanding.load(Ordering::Acquire))
            .finish_non_exhaustive()
    }
}

impl<'scope> Scope<'scope> {
    /// Spawns `f` onto the pool. From a worker thread the task goes to
    /// that worker's own deque (LIFO — it will likely run it next, hot in
    /// cache); from any other thread it goes to the global injector.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        let task = self.make_task(f);
        self.pool.push_task(task);
    }

    /// Spawns `f` pinned to worker `worker % pool.threads()`: it runs on
    /// that worker's thread and no other. Stealing never moves it and a
    /// helping scope caller never executes it.
    ///
    /// This exists for shard-per-worker servers: each shard owns its
    /// socket and session map without synchronization *because* the pool
    /// guarantees the shard loop and that worker are one-to-one. Pinned
    /// tasks on the same worker run FIFO, ahead of stealable work queued
    /// on that worker's deque.
    ///
    /// The modulo means the placement request is always satisfiable; the
    /// caller learns the effective worker from the return value.
    pub fn spawn_pinned<F>(&self, worker: usize, f: F) -> usize
    where
        F: FnOnce() + Send + 'scope,
    {
        let index = worker % self.pool.threads;
        let task = self.make_task(f);
        self.pool.push_pinned(index, task);
        index
    }

    /// Wraps `f` with the scope bookkeeping (panic capture, outstanding
    /// count, completion wakeup) and erases its lifetime.
    fn make_task<F>(&self, f: F) -> Task
    where
        F: FnOnce() + Send + 'scope,
    {
        self.state.outstanding.fetch_add(1, Ordering::AcqRel);
        let state = Arc::clone(&self.state);
        let shared = Arc::clone(&self.pool.shared);
        let task: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                let mut slot = lock(&state.panic);
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            if state.outstanding.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last task of the scope: wake the (possibly parked)
                // scope caller. notify_all because workers share the
                // condvar; they re-park immediately.
                shared.notify(true);
            }
        });
        // SAFETY: `Pool::scope` does not return until `outstanding == 0`
        // on every path (including caller/task panics), so the closure —
        // and every `'scope` borrow inside it — is dropped before the
        // data it borrows can be. The two trait objects differ only in
        // the lifetime bound, which has no layout effect.
        unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Task>(task) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn scope_runs_borrowing_tasks() {
        let pool = Pool::new(4);
        let mut data = vec![0u64; 100];
        pool.scope(|scope| {
            for (i, slot) in data.iter_mut().enumerate() {
                scope.spawn(move || *slot = i as u64 + 1);
            }
        });
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as u64 + 1));
    }

    #[test]
    fn scope_returns_closure_value() {
        let pool = Pool::new(2);
        let value = pool.scope(|_| 42u32);
        assert_eq!(value, 42);
    }

    #[test]
    fn shared_pools_are_cached_per_thread_count() {
        let a = Pool::shared(3);
        let b = Pool::shared(3);
        let c = Pool::shared(5);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(a.threads(), 3);
        assert_eq!(c.threads(), 5);
    }

    #[test]
    fn many_sequential_scopes_reuse_the_same_workers() {
        // The perf point of the crate: no thread churn across waves.
        let pool = Pool::new(4);
        let total = AtomicU64::new(0);
        for _ in 0..200 {
            pool.scope(|scope| {
                for _ in 0..8 {
                    scope.spawn(|| {
                        total.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 1600);
    }

    #[test]
    fn racing_external_pushers_never_underflow_pending() {
        // Regression: push_task used to enqueue before incrementing
        // `pending`, so a spinning worker's pop could drive the counter
        // below zero — a panic under the deque lock in debug builds,
        // which hung the scope forever. Hammer the push/pop window with
        // many single-task scopes from several non-worker threads; under
        // the old ordering this reliably tripped overflow checks.
        let pool = Arc::new(Pool::new(4));
        let total = Arc::new(AtomicU64::new(0));
        let pushers: Vec<_> = (0..4)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let total = Arc::clone(&total);
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        pool.scope(|scope| {
                            let total = &total;
                            scope.spawn(move || {
                                total.fetch_add(1, Ordering::Relaxed);
                            });
                        });
                    }
                })
            })
            .collect();
        for handle in pushers {
            handle.join().expect("pusher thread must not see a poisoned pool");
        }
        assert_eq!(total.load(Ordering::Relaxed), 2000);
        assert_eq!(pool.shared.pending.load(Ordering::Acquire), 0);
    }

    #[test]
    fn registry_reuses_nearest_pool_once_full() {
        let registry = Registry::new(3);
        let one = registry.get(1);
        let two = registry.get(2);
        let eight = registry.get(8);
        assert_eq!(lock(&registry.pools).len(), 3);

        // At cap: an uncached count maps to the nearest cached size,
        // preferring a pool with at least the requested parallelism.
        assert!(Arc::ptr_eq(&registry.get(6), &eight));
        assert!(Arc::ptr_eq(&registry.get(64), &eight));
        assert_eq!(lock(&registry.pools).len(), 3, "no new pools past the cap");

        // Cached counts still resolve exactly, and reused pools work.
        assert!(Arc::ptr_eq(&registry.get(1), &one));
        assert!(Arc::ptr_eq(&registry.get(2), &two));
        let hits = AtomicU64::new(0);
        registry.get(5).scope(|scope| {
            for _ in 0..16 {
                scope.spawn(|| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn pinned_tasks_run_on_the_requested_worker() {
        let pool = Pool::new(3);
        // Worker threads are named "nc-pool-{index}", which is the only
        // externally observable identity — assert placement through it.
        let mut names = vec![String::new(); 9];
        pool.scope(|scope| {
            for (i, slot) in names.iter_mut().enumerate() {
                let effective = scope.spawn_pinned(i, move || {
                    *slot = std::thread::current().name().unwrap_or("").to_string();
                });
                assert_eq!(effective, i % 3);
            }
        });
        for (i, name) in names.iter().enumerate() {
            assert_eq!(name, &format!("nc-pool-{}", i % 3), "task {i} ran on wrong worker");
        }
    }

    #[test]
    fn pinned_tasks_on_one_worker_run_fifo() {
        let pool = Pool::new(2);
        let order = Mutex::new(Vec::new());
        pool.scope(|scope| {
            for i in 0..32 {
                let order = &order;
                scope.spawn_pinned(1, move || {
                    lock(order).push(i);
                });
            }
        });
        let order = lock(&order).clone();
        assert_eq!(order, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn pinned_and_stealable_tasks_coexist() {
        let pool = Pool::new(4);
        let pinned_hits = AtomicU64::new(0);
        let free_hits = AtomicU64::new(0);
        pool.scope(|scope| {
            for i in 0..64 {
                scope.spawn_pinned(i, || {
                    pinned_hits.fetch_add(1, Ordering::Relaxed);
                });
                scope.spawn(|| {
                    free_hits.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(pinned_hits.load(Ordering::Relaxed), 64);
        assert_eq!(free_hits.load(Ordering::Relaxed), 64);
        for counter in &pool.shared.pinned_pending {
            assert_eq!(counter.load(Ordering::Acquire), 0);
        }
    }

    #[test]
    fn dropping_a_pool_joins_its_workers() {
        let pool = Pool::new(2);
        let hits = AtomicU64::new(0);
        pool.scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        drop(pool);
        assert_eq!(hits.load(Ordering::Relaxed), 4);
    }
}
