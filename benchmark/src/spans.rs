//! In-memory spans around the harness's calls into each layer.
//!
//! A traced run wraps every call it makes into a crate in
//! [`Tracer::begin`] / [`Tracer::end`]. Spans nest through a per-tracer
//! stack, so each knows its parent and a layer's *self time* is its span
//! minus the part its children cover. Spans stay in memory and are
//! written once, when the run ends. Per-call spans on a datagram path
//! number in the hundreds of thousands, so only the first
//! [`SPAN_BUDGET`] of the run's main thread, and as many of its helper
//! threads together, are stored individually; every span, stored or not,
//! is folded into the per-name totals the file also carries.
//!
//! An untraced run uses a disabled tracer: `begin`/`end` return at once.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Individually stored spans: this many of the main thread, this many of
/// all helper threads together.
pub const SPAN_BUDGET: usize = 40_000;

// A statistic-free id source shared by the tracers of every thread;
// Relaxed because the value publishes no other data.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub rep: usize,
}

/// Per-name aggregate over every span, stored or not.
#[derive(Clone, Copy, Debug, Default)]
pub struct Total {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Frame {
    id: u64,
    name: &'static str,
    start: Instant,
    child_ns: u64,
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[must_use]
pub struct Open(bool);

/// Span recorder for one thread of one run.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    rep: usize,
    stack: Vec<Frame>,
    spans: Vec<Span>,
    /// Spans this tracer may still store itself / hand to its forks.
    own_left: usize,
    helper_left: usize,
    dropped: u64,
    totals: BTreeMap<&'static str, Total>,
}

impl Tracer {
    /// A tracer that records nothing (untraced runs).
    pub fn disabled() -> Tracer {
        Tracer::new(false, Instant::now())
    }

    /// A recording tracer whose span times count from `epoch`.
    pub fn enabled(epoch: Instant) -> Tracer {
        Tracer::new(true, epoch)
    }

    fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            rep: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            own_left: SPAN_BUDGET,
            helper_left: SPAN_BUDGET,
            dropped: 0,
            totals: BTreeMap::new(),
        }
    }

    /// A tracer for a helper thread of the same run: same switch, same
    /// epoch. Fold it back with [`Tracer::absorb`] after the join.
    pub fn fork(&self) -> Tracer {
        let mut t = Tracer::new(self.enabled, self.epoch);
        t.rep = self.rep;
        t.own_left = self.helper_left;
        t.helper_left = 0;
        t
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Tags subsequent spans with repetition `rep`.
    pub fn set_rep(&mut self, rep: usize) {
        self.rep = rep;
    }

    #[inline]
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(false);
        }
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        self.stack.push(Frame { id, name, start: Instant::now(), child_ns: 0 });
        Open(true)
    }

    #[inline]
    pub fn end(&mut self, open: Open) {
        if !open.0 {
            return;
        }
        let end = Instant::now();
        let frame = self.stack.pop().expect("end() pairs with begin()");
        let dur = end.duration_since(frame.start).as_nanos() as u64;
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.id
            }
            None => 0,
        };
        let total = self.totals.entry(frame.name).or_default();
        total.count += 1;
        total.total_ns += dur;
        total.self_ns += dur.saturating_sub(frame.child_ns);
        if self.own_left > 0 {
            self.own_left -= 1;
            let start_ns = frame.start.duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                id: frame.id,
                parent,
                name: frame.name,
                start_ns,
                end_ns: start_ns + dur,
                rep: self.rep,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Folds a joined helper thread's spans and totals into this tracer.
    pub fn absorb(&mut self, other: Tracer) {
        self.helper_left = self.helper_left.saturating_sub(other.spans.len());
        self.spans.extend(other.spans);
        self.dropped += other.dropped;
        for (name, t) in other.totals {
            let mine = self.totals.entry(name).or_default();
            mine.count += t.count;
            mine.total_ns += t.total_ns;
            mine.self_ns += t.self_ns;
        }
    }

    pub fn totals(&self) -> &BTreeMap<&'static str, Total> {
        &self.totals
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// The span file: stored spans, per-name totals with self time, and
    /// how many spans were folded into the totals only.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n\"workload\": \"{workload}\",\n\"dropped_spans\": {},\n\"totals\": [\n",
            self.dropped
        );
        for (i, (name, t)) in self.totals.iter().enumerate() {
            let sep = if i + 1 == self.totals.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"name\": \"{name}\", \"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}{sep}",
                t.count, t.total_ns, t.self_ns
            );
        }
        out.push_str("],\n\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"workload\": \"{workload}\", \"rep\": {}}}{sep}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, s.rep
            );
        }
        out.push_str("]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut tr = Tracer::enabled(Instant::now());
        let outer = tr.begin("outer");
        let inner = tr.begin("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        tr.end(inner);
        tr.end(outer);
        let (o, i) = (tr.totals()["outer"], tr.totals()["inner"]);
        assert_eq!(o.self_ns, o.total_ns - i.total_ns);
        assert_eq!(i.self_ns, i.total_ns);
        assert_eq!(tr.span_count(), 2);
        let json = tr.to_json("w");
        let parsed = crate::json::parse(&json).expect("span file is JSON");
        let spans = parsed.get("spans").and_then(|s| s.as_array()).expect("spans");
        assert_eq!(
            spans[0].get("parent").and_then(|p| p.as_f64()),
            spans[1].get("id").and_then(|p| p.as_f64())
        );
    }

    #[test]
    fn forks_share_one_budget() {
        let mut main = Tracer::enabled(Instant::now());
        let per_fork = SPAN_BUDGET / 2 + 1;
        for _ in 0..3 {
            let mut helper = main.fork();
            for _ in 0..per_fork {
                let s = helper.begin("call");
                helper.end(s);
            }
            main.absorb(helper);
        }
        assert_eq!(main.span_count(), SPAN_BUDGET, "the third fork stores nothing");
        assert_eq!(main.totals()["call"].count as usize, 3 * per_fork, "totals see every span");
        let s = main.begin("own");
        main.end(s);
        assert_eq!(main.span_count(), SPAN_BUDGET + 1, "the main thread has its own budget");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::disabled();
        let s = tr.begin("x");
        tr.end(s);
        assert_eq!(tr.span_count(), 0);
        assert!(tr.totals().is_empty());
    }
}
