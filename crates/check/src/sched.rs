//! The deterministic scheduler behind the `nc_check` shims.
//!
//! One *execution* runs the model function once with every shimmed
//! operation (atomic load/store/RMW, mutex lock, spawn/join) routed
//! through a single-token scheduler: exactly one model
//! thread runs between two yield points, so an execution is fully
//! described by the sequence of scheduling *decisions* taken at those
//! points. The explorer ([`crate::explore`]) re-runs the model, replaying
//! a decision prefix and branching on the first unexplored alternative —
//! a depth-first search over interleavings with:
//!
//! - **preemption bounding**: switching away from a runnable thread
//!   consumes one unit of a per-execution budget (forced switches — the
//!   current thread blocked — are free), which keeps the search tractable
//!   while covering every small-preemption-count interleaving first (the
//!   overwhelmingly most likely bug shapes);
//! - **state-hash deduplication**: a 64-bit FNV hash of the visible state
//!   (per-thread status + pending op, atomic value deltas, lock holders)
//!   collapses schedule branches that reach an already-explored state at
//!   the same remaining budget;
//! - **cycle (fairness) pruning**: if the state hash recurs along the
//!   current path, the spinning thread is forced off the token, so
//!   polling loops (a find-work spin) terminate under the checker
//!   without a timeout.
//!
//! Failure modes detected: a model-thread panic (assertion failures
//! propagate exactly as in production, including through a scoped
//! join), a *deadlock* (no eligible thread while some are
//! blocked on a lock or a join), a *livelock* (per-execution step cap),
//! and leaked threads at model exit.
//!
//! On any failure the whole scheduler *aborts*: every shimmed operation
//! degrades to its raw `std` implementation, threads waiting for the token
//! are released, and the execution runs to completion on real
//! concurrency so no OS thread is left wedged. The decision path up
//! to the failure is the replayable trace reported to the user.
//!
//! Modeling limits (documented, deliberate): atomics execute with
//! sequentially-consistent semantics — the checker explores scheduling
//! nondeterminism, not weak-memory reordering; `fetch_update` is modeled
//! as one atomic step.

use std::cell::RefCell;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Monotone epoch counter: one per execution, used to re-register shimmed
/// objects (including `static`s that outlive an execution) lazily.
static EPOCHS: AtomicU64 = AtomicU64::new(1);

/// Best-effort stringification of a panic payload for failure reports.
pub(crate) fn payload_msg(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Bits of an object id inside a packed registration word.
const ID_BITS: u64 = 24;
const ID_MASK: u64 = (1 << ID_BITS) - 1;

/// One scheduling decision: the thread granted the run token, written
/// `t<id>` in a trace.
pub(crate) type Dec = usize;

/// Formats a decision path as a replayable trace string.
pub(crate) fn format_trace(path: &[Dec]) -> String {
    let parts: Vec<String> = path.iter().map(|t| format!("t{t}")).collect();
    parts.join(",")
}

/// Parses a trace string back into a decision plan.
pub(crate) fn parse_trace(trace: &str) -> Option<Vec<Dec>> {
    if trace.is_empty() {
        return Some(Vec::new());
    }
    trace.split(',').map(|d| d.strip_prefix('t')?.parse().ok()).collect()
}

/// The operation a thread is about to perform (its model "program
/// counter" for state hashing, eligibility, and trace logs).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) enum OpKind {
    Load,
    Store,
    Rmw,
    Lock,
    Spawn,
    Join,
    Start,
}

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) enum ObjKind {
    Atomic,
    Mutex,
}

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Status {
    /// Running or parked at a yield point waiting for the token.
    Active,
    Finished,
}

struct ThreadEntry {
    status: Status,
    /// The op this thread will perform when next granted the token.
    pending: (OpKind, usize),
    /// Human-readable op label for replay logs.
    desc: &'static str,
}

struct ObjEntry {
    kind: ObjKind,
    /// Value at registration; hashes use the delta so objects that
    /// persist across executions (statics) hash identically every run.
    base: u64,
    value: u64,
    held_by: Option<usize>,
}

/// Why an execution failed.
#[derive(Clone, Debug)]
pub enum FailureKind {
    /// No thread can run but not all have finished: every live thread
    /// waits for a lock or a join that can never be granted (a lock cycle,
    /// or a join on a thread that is itself stuck).
    Deadlock,
    /// The per-execution step cap was exceeded.
    Livelock {
        /// Steps executed when the cap tripped.
        steps: usize,
    },
    /// A model thread panicked (assertion failure or a panic in the
    /// code under test).
    Panic {
        /// The stringified panic payload.
        message: String,
    },
    /// The model function returned while spawned threads were still live.
    LeakedThreads {
        /// How many threads had not finished.
        count: usize,
    },
    /// A replayed trace made a decision that is illegal in the state the
    /// model actually reached (stale trace or nondeterministic model).
    BadTrace {
        /// Explanation of the mismatch.
        detail: String,
    },
}

#[derive(Clone, Debug)]
pub(crate) struct FailureRec {
    pub(crate) kind: FailureKind,
}

pub(crate) struct Settings {
    pub(crate) preemptions: usize,
    pub(crate) max_steps: usize,
    pub(crate) log: bool,
}

struct State {
    threads: Vec<ThreadEntry>,
    objects: Vec<ObjEntry>,
    current: usize,
    /// Decision prefix to replay before exploring.
    plan: Vec<Dec>,
    /// Decisions actually taken this execution.
    path: Vec<Dec>,
    /// Choice points discovered beyond the plan: `(position, alternatives)`.
    branches: Vec<(usize, Vec<Dec>)>,
    /// Remaining voluntary preemptions.
    budget: usize,
    steps: usize,
    /// State hashes seen along this path (cycle/fairness pruning).
    path_states: HashSet<u64>,
    /// Cross-execution `(state hash, remaining budget)` dedup set.
    visited: HashSet<(u64, u64)>,
    fresh_states: usize,
    pruned: usize,
    failure: Option<FailureRec>,
    /// All threads finished; late shim ops pass through.
    done: bool,
    /// Real spawned OS threads that have not yet exited.
    live: usize,
    log: Option<Vec<String>>,
}

pub(crate) struct Inner {
    epoch: u64,
    aborted: AtomicBool,
    state: Mutex<State>,
    cv: Condvar,
    settings: Settings,
}

thread_local! {
    static CTX: RefCell<Option<(Arc<Inner>, usize)>> = const { RefCell::new(None) };
}

/// The scheduler (and model-thread id) attached to the current OS thread,
/// if it is part of a running model execution. `None` too once the
/// thread's locals are being torn down: a shimmed lock taken from another
/// thread-local's destructor (a buffer magazine emptying into its shelf)
/// runs unmodelled, like any access outside an execution.
pub(crate) fn ctx() -> Option<(Arc<Inner>, usize)> {
    CTX.try_with(|c| c.borrow().clone()).ok().flatten()
}

pub(crate) fn set_ctx(v: Option<(Arc<Inner>, usize)>) {
    CTX.with(|c| *c.borrow_mut() = v);
}

/// Outcome of one execution, handed back to the explorer.
pub(crate) struct ExecResult {
    pub(crate) path: Vec<Dec>,
    pub(crate) branches: Vec<(usize, Vec<Dec>)>,
    pub(crate) failure: Option<FailureRec>,
    pub(crate) fresh_states: usize,
    pub(crate) pruned: usize,
    pub(crate) visited: HashSet<(u64, u64)>,
    pub(crate) log: Vec<String>,
}

impl Inner {
    pub(crate) fn new(settings: Settings, plan: Vec<Dec>, visited: HashSet<(u64, u64)>) -> Inner {
        let budget = settings.preemptions;
        let log = settings.log.then(Vec::new);
        Inner {
            epoch: EPOCHS.fetch_add(1, Ordering::Relaxed),
            aborted: AtomicBool::new(false),
            state: Mutex::new(State {
                threads: vec![ThreadEntry {
                    status: Status::Active,
                    pending: (OpKind::Start, 0),
                    desc: "model::start",
                }],
                objects: Vec::new(),
                current: 0,
                plan,
                path: Vec::new(),
                branches: Vec::new(),
                budget,
                steps: 0,
                path_states: HashSet::new(),
                visited,
                fresh_states: 0,
                pruned: 0,
                failure: None,
                done: false,
                live: 0,
                log,
            }),
            cv: Condvar::new(),
            settings,
        }
    }

    /// The scheduler's own mutex must keep working even if a model thread
    /// panicked while a shim held it briefly; scheduler state is only
    /// mutated in small self-consistent sections.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::Acquire)
    }

    /// Lazily registers a shimmed object for this execution. `cell` is
    /// the object's packed `epoch << ID_BITS | id` registration word.
    pub(crate) fn register(&self, cell: &AtomicU64, kind: ObjKind, base: u64) -> usize {
        let packed = cell.load(Ordering::Relaxed);
        if packed >> ID_BITS == self.epoch {
            return (packed & ID_MASK) as usize;
        }
        let mut st = self.lock();
        // Re-check under the lock: another model thread cannot race us
        // (one token), but a passthrough thread from an aborted run could.
        let packed = cell.load(Ordering::Relaxed);
        if packed >> ID_BITS == self.epoch {
            return (packed & ID_MASK) as usize;
        }
        let id = st.objects.len();
        assert!((id as u64) < ID_MASK, "model registered too many objects");
        st.objects.push(ObjEntry { kind, base, value: base, held_by: None });
        cell.store((self.epoch << ID_BITS) | id as u64, Ordering::Relaxed);
        id
    }

    fn eligible(st: &State, tid: usize) -> bool {
        let t = &st.threads[tid];
        match t.status {
            Status::Finished => false,
            Status::Active => match t.pending {
                (OpKind::Lock, oid) => st.objects[oid].held_by.is_none(),
                (OpKind::Join, target) => {
                    matches!(st.threads[target].status, Status::Finished)
                }
                _ => true,
            },
        }
    }

    /// 64-bit FNV-1a over the model-visible state: thread statuses and
    /// pending ops, atomic value deltas, and lock holders.
    fn state_hash(st: &State) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut fold = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(PRIME);
        };
        for t in &st.threads {
            fold(t.status as u64);
            fold(t.pending.0 as u64);
            fold(t.pending.1 as u64);
        }
        for o in &st.objects {
            match o.kind {
                ObjKind::Atomic => fold(o.value.wrapping_sub(o.base)),
                ObjKind::Mutex => fold(o.held_by.map_or(u64::MAX, |t| t as u64)),
            }
        }
        h
    }

    fn fail(&self, st: &mut State, kind: FailureKind) {
        if st.failure.is_none() {
            st.failure = Some(FailureRec { kind });
        }
        st.done = true;
        self.aborted.store(true, Ordering::Release);
        self.cv.notify_all();
    }

    fn log_line(&self, st: &mut State, line: String) {
        if let Some(log) = st.log.as_mut() {
            log.push(line);
        }
    }

    /// Picks the next token holder. `cur` is the yielding thread. Returns
    /// `false` when the execution failed (deadlock / bad trace).
    fn schedule(&self, st: &mut State, cur: usize) -> bool {
        let elig: Vec<usize> = (0..st.threads.len()).filter(|&t| Self::eligible(st, t)).collect();
        if elig.is_empty() {
            if st.threads.iter().all(|t| matches!(t.status, Status::Finished)) {
                st.done = true;
                self.cv.notify_all();
                return true;
            }
            self.fail(st, FailureKind::Deadlock);
            return false;
        }
        let pos = st.path.len();
        let h = Self::state_hash(st);
        let cycling = !st.path_states.insert(h);
        let cur_elig = elig.contains(&cur);
        let next = if pos < st.plan.len() {
            let d = st.plan[pos];
            if !elig.contains(&d) {
                self.fail(
                    st,
                    FailureKind::BadTrace {
                        detail: format!("decision {pos} = t{d} but eligible threads are {elig:?}"),
                    },
                );
                return false;
            }
            d
        } else {
            let mut alts: Vec<usize> = if cycling && cur_elig && elig.len() > 1 {
                // Fairness: the state recurred, so granting `cur` again
                // cannot make progress — force the token elsewhere.
                elig.iter().copied().filter(|&t| t != cur).collect()
            } else if cur_elig {
                let mut v = vec![cur];
                if st.budget > 0 {
                    v.extend(elig.iter().copied().filter(|&t| t != cur));
                }
                v
            } else {
                elig.clone()
            };
            if alts.len() > 1 {
                let budget = st.budget as u64;
                if st.visited.insert((h, budget)) {
                    st.fresh_states += 1;
                    st.branches.push((pos, alts.clone()));
                } else {
                    st.pruned += 1;
                    alts.truncate(1);
                }
            }
            alts[0]
        };
        let forced = !cur_elig || (cycling && elig.len() > 1);
        if next != cur && cur_elig && !forced {
            st.budget = st.budget.saturating_sub(1);
        }
        st.path.push(next);
        st.current = next;
        if st.log.is_some() {
            let t = &st.threads[next];
            let line = format!(
                "step {:>4}: t{next} {} (op {:?} on obj {})",
                st.steps, t.desc, t.pending.0, t.pending.1
            );
            self.log_line(st, line);
        }
        self.cv.notify_all();
        true
    }

    /// Parks the calling thread at a yield point for `op`, picks the next
    /// token holder, and returns once this thread is granted the token
    /// (its op then executes atomically from the model's point of view).
    /// Returns `false` when the op must fall through to raw `std`
    /// behavior (aborted or finished execution).
    pub(crate) fn yield_op(&self, me: usize, op: (OpKind, usize), desc: &'static str) -> bool {
        if self.is_aborted() {
            return false;
        }
        let mut st = self.lock();
        if st.done || st.failure.is_some() {
            return false;
        }
        st.steps += 1;
        if st.steps > self.settings.max_steps {
            let steps = st.steps;
            self.fail(&mut st, FailureKind::Livelock { steps });
            return false;
        }
        st.threads[me].pending = op;
        st.threads[me].desc = desc;
        if !self.schedule(&mut st, me) {
            return false;
        }
        while st.current != me {
            if self.is_aborted() || st.done {
                return false;
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        !self.is_aborted()
    }

    /// Runs one atomic shim op: yields, then executes `f` (the real
    /// `std::sync::atomic` operation) while holding the token, recording
    /// the post-op value for state hashing. `None` means passthrough.
    pub(crate) fn atomic_op<R>(
        &self,
        me: usize,
        oid: usize,
        kind: OpKind,
        desc: &'static str,
        f: impl FnOnce() -> (R, u64),
    ) -> Option<R> {
        if !self.yield_op(me, (kind, oid), desc) {
            return None;
        }
        let (r, value) = f();
        let mut st = self.lock();
        if let Some(o) = st.objects.get_mut(oid) {
            o.value = value;
        }
        Some(r)
    }

    /// Model-acquires a mutex (blocks via eligibility until free).
    /// Returns `false` for passthrough.
    pub(crate) fn mutex_lock(&self, me: usize, oid: usize, desc: &'static str) -> bool {
        if !self.yield_op(me, (OpKind::Lock, oid), desc) {
            return false;
        }
        let mut st = self.lock();
        debug_assert!(st.objects[oid].held_by.is_none(), "granted a lock op on a held mutex");
        st.objects[oid].held_by = Some(me);
        true
    }

    /// Model-releases a mutex. Not a scheduling point: the next acquire
    /// attempt is where the interleaving branches.
    pub(crate) fn mutex_unlock(&self, me: usize, oid: usize) {
        if self.is_aborted() {
            return;
        }
        let mut st = self.lock();
        if st.done {
            return;
        }
        if st.objects.get(oid).is_some_and(|o| o.held_by == Some(me)) {
            st.objects[oid].held_by = None;
        }
    }

    /// Registers a new model thread (called by the spawner while holding
    /// the token). Returns its id, or `None` for passthrough.
    pub(crate) fn spawn_thread(&self, me: usize) -> Option<usize> {
        if !self.yield_op(me, (OpKind::Spawn, 0), "thread::spawn") {
            return None;
        }
        let mut st = self.lock();
        let tid = st.threads.len();
        st.threads.push(ThreadEntry {
            status: Status::Active,
            pending: (OpKind::Start, 0),
            desc: "thread::start",
        });
        st.live += 1;
        Some(tid)
    }

    /// First act of a spawned model thread: wait to be granted the token.
    pub(crate) fn thread_start(&self, me: usize) {
        let mut st = self.lock();
        while st.current != me {
            if self.is_aborted() || st.done {
                return;
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Marks a model thread finished, recording its panic (if any) as the
    /// execution failure, and hands the token onward.
    pub(crate) fn thread_finish(&self, me: usize, panic_msg: Option<String>) {
        let mut st = self.lock();
        st.threads[me].status = Status::Finished;
        if let Some(message) = panic_msg {
            self.fail(&mut st, FailureKind::Panic { message });
            return;
        }
        if !st.done && st.failure.is_none() {
            let _ = self.schedule(&mut st, me);
        }
        self.cv.notify_all();
    }

    /// Called as the very last act of a spawned OS thread (also on panic
    /// paths, via a drop guard) so the host can wait for real exits.
    pub(crate) fn exit_real(&self) {
        let mut st = self.lock();
        st.live = st.live.saturating_sub(1);
        self.cv.notify_all();
    }

    /// Model-joins `target` (blocks via eligibility until it finished).
    pub(crate) fn join(&self, me: usize, target: usize) -> bool {
        self.yield_op(me, (OpKind::Join, target), "thread::join")
    }

    /// Host-side epilogue: records the main thread's outcome, detects
    /// leaked threads, waits for every real OS thread to exit, and
    /// extracts the execution result.
    pub(crate) fn finish_main(&self, panicked: Option<String>) -> ExecResult {
        {
            let mut st = self.lock();
            let leaked = st
                .threads
                .iter()
                .enumerate()
                .filter(|(i, t)| *i != 0 && !matches!(t.status, Status::Finished))
                .count();
            st.threads[0].status = Status::Finished;
            if let Some(message) = panicked {
                self.fail(&mut st, FailureKind::Panic { message });
            } else if leaked > 0 {
                self.fail(&mut st, FailureKind::LeakedThreads { count: leaked });
            } else if !st.done && st.failure.is_none() {
                let _ = self.schedule(&mut st, 0);
            }
            self.cv.notify_all();
        }
        let mut st = self.lock();
        while st.live > 0 {
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        ExecResult {
            path: std::mem::take(&mut st.path),
            branches: std::mem::take(&mut st.branches),
            failure: st.failure.clone(),
            fresh_states: st.fresh_states,
            pruned: st.pruned,
            visited: std::mem::take(&mut st.visited),
            log: st.log.take().unwrap_or_default(),
        }
    }
}
