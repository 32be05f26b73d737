//! The metric primitives: counters, gauges, fixed-bucket histograms, and
//! monotonic span timers.
//!
//! Every recording method first checks the process-wide kill switch
//! ([`crate::enabled`]) — with `NC_TELEMETRY=off` each call is one relaxed
//! atomic load and a predictable branch. All state is relaxed atomics:
//! telemetry tolerates torn *cross-metric* views (a snapshot may see a
//! counter that a concurrent histogram update hasn't reached yet) in
//! exchange for zero locking on the hot path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::snapshot::HistogramSnapshot;

/// A monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub(crate) const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The current count.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-writer-wins floating-point level (loss estimate, occupancy, …).
///
/// Stored as `f64` bits in one atomic; non-finite values are ignored on
/// `set` so a snapshot always serializes cleanly to JSON.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge at `0.0`.
    pub(crate) const fn new() -> Gauge {
        Gauge(AtomicU64::new(0))
    }

    /// Sets the level. Non-finite values (`NaN`, `±inf`) are dropped.
    #[inline]
    pub fn set(&self, value: f64) {
        if crate::enabled() && value.is_finite() {
            self.0.store(value.to_bits(), Ordering::Relaxed);
        }
    }

    /// The current level.
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Number of buckets in a [`Histogram`]: one per bit length of a `u64`
/// value (bucket 0 holds the value 0, bucket `i` holds `[2^(i-1), 2^i)`).
pub(crate) const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-bucket (power-of-two) histogram of `u64` samples.
///
/// Log₂ bucketing trades per-bucket resolution for a constant, allocation
/// free layout that covers the full `u64` range — the right shape for
/// latency-style distributions spanning nanoseconds to seconds. Quantiles
/// (p50/p95/p99) are estimated at snapshot time from the bucket counts,
/// clamped by the exact recorded min/max.
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

#[inline]
fn bucket_of(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Histogram {
        // `[const { ... }; N]` keeps the atomics non-Copy.
        Histogram {
            counts: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        if !crate::enabled() {
            return;
        }
        self.counts[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a duration as whole nanoseconds (saturating at `u64::MAX`).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Starts a span timer that records its elapsed nanoseconds into this
    /// histogram when dropped. When telemetry is disabled the span never
    /// reads the clock.
    #[inline]
    pub fn span(&self) -> Span<'_> {
        Span { histogram: self, start: crate::enabled().then(Instant::now) }
    }

    /// Adds every sample `other` holds to this histogram, as if each had
    /// been recorded here too: bucket counts and sum add, min and max
    /// widen. Lets a per-owner histogram reach a shared one in one pass
    /// instead of one shared write per sample.
    pub fn absorb(&self, other: &Histogram) {
        if !crate::enabled() {
            return;
        }
        let mut absorbed = 0;
        for (mine, theirs) in self.counts.iter().zip(&other.counts) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
                absorbed += n;
            }
        }
        if absorbed == 0 {
            return;
        }
        self.sum.fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.min.fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max.fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all samples (wraps on overflow; counters this large mean the
    /// caller should be recording coarser units).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Condenses the histogram into count/sum/min/max plus estimated
    /// p50/p95/p99.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        let count: u64 = counts.iter().sum();
        let (min, max) = if count == 0 {
            (0, 0)
        } else {
            (self.min.load(Ordering::Relaxed), self.max.load(Ordering::Relaxed))
        };
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            // Rank of the q-quantile sample (1-based), then walk buckets.
            let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0u64;
            for (i, &c) in counts.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    // Midpoint of the bucket's value range, clamped to the
                    // exactly-tracked extremes.
                    let (lo, hi) = if i == 0 {
                        (0, 0)
                    } else {
                        (1u64 << (i - 1), (1u64 << (i - 1)).saturating_mul(2).saturating_sub(1))
                    };
                    return (lo + (hi - lo) / 2).clamp(min, max);
                }
            }
            max
        };
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min,
            max,
            p50: quantile(0.50),
            p95: quantile(0.95),
            p99: quantile(0.99),
        }
    }
}

/// A monotonic span timer: records elapsed nanoseconds into its histogram
/// on drop (see [`Histogram::span`]).
#[derive(Debug)]
pub struct Span<'a> {
    histogram: &'a Histogram,
    start: Option<Instant>,
}

impl Span<'_> {
    /// Stops the span early, recording now instead of at drop.
    pub fn stop(mut self) {
        if let Some(start) = self.start.take() {
            self.histogram.record_duration(start.elapsed());
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            self.histogram.record_duration(start.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        crate::set_enabled(true);
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);

        let g = Gauge::new();
        g.set(0.25);
        assert_eq!(g.get(), 0.25);
        g.set(f64::NAN); // ignored
        g.set(f64::INFINITY); // ignored
        assert_eq!(g.get(), 0.25);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        crate::set_enabled(true);
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 5050);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 100);
        // Log-bucket estimates: p50 of 1..=100 is ~50, inside [33, 96];
        // p99 must land in the top bucket [64, 100].
        assert!((33..=96).contains(&s.p50), "p50 = {}", s.p50);
        assert!(s.p95 >= 64 && s.p95 <= 100, "p95 = {}", s.p95);
        assert!(s.p99 >= s.p50);
    }

    #[test]
    fn histogram_single_value_is_exact() {
        crate::set_enabled(true);
        let h = Histogram::new();
        h.record(42);
        let s = h.snapshot();
        assert_eq!((s.count, s.min, s.max), (1, 42, 42));
        // One sample: every quantile clamps to the exact extremes.
        assert_eq!(s.p50, 42);
        assert_eq!(s.p99, 42);
    }

    #[test]
    fn empty_histogram_snapshot_is_zero() {
        let h = Histogram::new();
        let s = h.snapshot();
        assert_eq!(
            s,
            HistogramSnapshot { count: 0, sum: 0, min: 0, max: 0, p50: 0, p95: 0, p99: 0 }
        );
    }

    #[test]
    fn absorb_matches_recording_every_sample_twice() {
        crate::set_enabled(true);
        let (shared, own, both) = (Histogram::new(), Histogram::new(), Histogram::new());
        for v in [3u64, 900, 5] {
            shared.record(v);
            both.record(v);
        }
        for v in [0u64, 70_000, 41, 41] {
            own.record(v);
            both.record(v);
        }
        shared.absorb(&own);
        assert_eq!(shared.snapshot(), both.snapshot());
        assert_eq!(own.count(), 4, "the absorbed histogram is left as it was");
        // An empty histogram widens nothing (its min is the u64::MAX sentinel).
        let before = shared.snapshot();
        shared.absorb(&Histogram::new());
        assert_eq!(shared.snapshot(), before);
    }

    #[test]
    fn span_records_elapsed_time() {
        crate::set_enabled(true);
        let h = Histogram::new();
        {
            let _span = h.span();
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(h.count(), 1);
        assert!(h.sum() >= 2_000_000, "recorded {} ns", h.sum());
    }

    #[test]
    fn extreme_values_do_not_panic() {
        crate::set_enabled(true);
        let h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, u64::MAX);
    }
}
