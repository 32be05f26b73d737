//! The DFS exploration driver: runs a model function under every
//! schedule the bounds admit, reports the first failing interleaving as a
//! replayable trace.

use crate::sched::{
    ctx, format_trace, parse_trace, payload_msg, set_ctx, Dec, ExecResult, FailureKind, Inner,
    Settings,
};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A failing interleaving, with everything needed to reproduce it.
#[derive(Debug)]
pub struct Failure {
    /// What went wrong.
    pub kind: FailureKind,
    /// The decision sequence that reproduces the failure; feed it to
    /// [`replay`].
    pub trace: String,
    /// Step-by-step schedule log of the failing execution.
    pub(crate) log: Vec<String>,
    /// How many executions ran before this one failed.
    pub(crate) executions: usize,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let what = match &self.kind {
            FailureKind::Deadlock => {
                "deadlock: no thread can run (a lock cycle formed, or a join waits \
                 on a stuck thread)"
                    .to_string()
            }
            FailureKind::Livelock { steps } => {
                format!("livelock: step cap exceeded after {steps} steps")
            }
            FailureKind::Panic { message } => format!("model thread panicked: {message}"),
            FailureKind::LeakedThreads { count } => {
                format!("{count} spawned thread(s) still live at model exit")
            }
            FailureKind::BadTrace { detail } => format!("trace does not replay: {detail}"),
        };
        writeln!(f, "nc-check: {what}")?;
        writeln!(f, "  after {} execution(s)", self.executions)?;
        writeln!(f, "  trace: {}", self.trace)?;
        writeln!(f, "  replay with: nc_check::replay(\"{}\", model)", self.trace)?;
        if !self.log.is_empty() {
            writeln!(f, "  failing schedule:")?;
            for line in &self.log {
                writeln!(f, "    {line}")?;
            }
        }
        Ok(())
    }
}

/// Exploration statistics from a completed (all-schedules-pass) check.
#[derive(Debug, Clone)]
pub struct Report {
    /// Executions run.
    pub executions: usize,
    /// Distinct `(state, budget)` pairs that opened a branch.
    pub(crate) distinct_states: usize,
    /// Branch points collapsed by state-hash deduplication.
    pub(crate) pruned: usize,
    /// Longest decision path seen.
    pub(crate) max_depth: usize,
    /// False when a bound (executions / time) stopped the search before
    /// the schedule tree was exhausted.
    pub completed: bool,
}

/// One frame of the DFS over schedule decisions.
struct Frame {
    /// Decision prefix up to (not including) the branch position.
    plan: Vec<Dec>,
    /// All alternatives at this position; `alts[0]` was taken when the
    /// branch was discovered.
    alts: Vec<Dec>,
    /// Next alternative to try.
    next: usize,
}

/// Configurable bounded exploration.
#[derive(Debug, Clone)]
pub struct Check {
    /// Voluntary preemption bound per execution (forced switches are
    /// free). 2 catches almost every real scheduling bug; raise it for
    /// deeper sweeps.
    pub(crate) preemptions: usize,
    /// Per-execution step cap (livelock detector).
    pub(crate) max_steps: usize,
    /// Total executions before giving up (incomplete, not failing).
    pub(crate) max_executions: usize,
    /// Wall-clock budget for the whole search.
    pub(crate) time_budget: Duration,
}

impl Default for Check {
    fn default() -> Check {
        Check {
            preemptions: 2,
            max_steps: 20_000,
            max_executions: 50_000,
            time_budget: Duration::from_secs(60),
        }
    }
}

fn run_one<F: Fn()>(
    f: &F,
    plan: Vec<Dec>,
    preemptions: usize,
    max_steps: usize,
    log: bool,
    visited: HashSet<(u64, u64)>,
) -> ExecResult {
    assert!(ctx().is_none(), "nc-check executions cannot nest");
    let inner = Arc::new(Inner::new(Settings { preemptions, max_steps, log }, plan, visited));
    set_ctx(Some((Arc::clone(&inner), 0)));
    let result = catch_unwind(AssertUnwindSafe(f));
    set_ctx(None);
    let panic_msg = result.err().map(|e| payload_msg(&*e));
    inner.finish_main(panic_msg)
}

impl Check {
    /// Creates a checker with default bounds.
    pub fn new() -> Check {
        Check::default()
    }

    /// Sets the voluntary preemption bound.
    pub fn preemptions(mut self, n: usize) -> Check {
        self.preemptions = n;
        self
    }

    /// Explores `model` under every admissible schedule. `Ok(report)` if
    /// all executions pass, `Err(failure)` with a replayable trace on the
    /// first failing interleaving.
    pub fn explore<F: Fn()>(&self, model: F) -> Result<Report, Failure> {
        let started = Instant::now();
        let mut visited: HashSet<(u64, u64)> = HashSet::new();
        let mut stack: Vec<Frame> = Vec::new();
        let mut report =
            Report { executions: 0, distinct_states: 0, pruned: 0, max_depth: 0, completed: true };
        let mut plan: Vec<Dec> = Vec::new();
        loop {
            let res = run_one(
                &model,
                plan.clone(),
                self.preemptions,
                self.max_steps,
                false,
                std::mem::take(&mut visited),
            );
            report.executions += 1;
            report.distinct_states += res.fresh_states;
            report.pruned += res.pruned;
            report.max_depth = report.max_depth.max(res.path.len());
            visited = res.visited;
            if let Some(fail) = res.failure {
                return Err(self.report_failure(&model, res.path, fail.kind, report.executions));
            }
            // Every branch point discovered past the replay prefix opens
            // a DFS frame; positions ascend, so pushing in order keeps
            // the deepest frame on top.
            for (pos, alts) in res.branches {
                stack.push(Frame { plan: res.path[..pos].to_vec(), alts, next: 1 });
            }
            // Advance to the next untried alternative, deepest first.
            loop {
                match stack.last_mut() {
                    None => return Ok(report),
                    Some(top) if top.next >= top.alts.len() => {
                        stack.pop();
                    }
                    Some(top) => {
                        plan = top.plan.clone();
                        plan.push(top.alts[top.next]);
                        top.next += 1;
                        break;
                    }
                }
            }
            if report.executions >= self.max_executions || started.elapsed() > self.time_budget {
                report.completed = false;
                return Ok(report);
            }
        }
    }

    /// Like [`Check::explore`] but panics with the full failure report —
    /// the form tests use.
    pub fn run<F: Fn()>(&self, model: F) -> Report {
        match self.explore(model) {
            Ok(report) => report,
            Err(failure) => panic!("{failure}"),
        }
    }

    /// Re-runs the failing path with schedule logging to produce the
    /// human-readable report.
    fn report_failure<F: Fn()>(
        &self,
        model: &F,
        path: Vec<Dec>,
        kind: FailureKind,
        executions: usize,
    ) -> Failure {
        let trace = format_trace(&path);
        let logged = run_one(model, path, self.preemptions, self.max_steps, true, HashSet::new());
        Failure { kind, trace, log: logged.log, executions }
    }
}

/// Explores `model` with default bounds, panicking on any failing
/// interleaving (convenience wrapper over [`Check::run`]).
pub fn check<F: Fn()>(model: F) -> Report {
    Check::default().run(model)
}

/// Replays a single recorded trace against `model`. Returns the failure
/// it reproduces, or `None` if the execution passes (stale trace, or the
/// failure was since fixed).
pub fn replay<F: Fn()>(trace: &str, model: F) -> Option<Failure> {
    let plan = parse_trace(trace).unwrap_or_else(|| panic!("malformed nc-check trace: {trace}"));
    let check = Check::default();
    let res = run_one(&model, plan, check.preemptions, check.max_steps, true, HashSet::new());
    res.failure.map(|fail| Failure {
        kind: fail.kind,
        trace: format_trace(&res.path),
        log: res.log,
        executions: 1,
    })
}
