//! Sender pacing: a token bucket for wire-rate control and an adaptive
//! redundancy controller that converts observed loss into a per-segment
//! frame budget.
//!
//! The paper's arithmetic (Sec. 5.1.1) works in *coded output rate vs. NIC
//! egress*; the token bucket is the knob that keeps a fast encoder from
//! flooding a slower link, and the redundancy controller decides how many
//! coded frames beyond `n` each segment gets before the sender waits for
//! feedback — the rateless substitute for retransmission.

use std::time::{Duration, Instant};

/// A classic token bucket over bytes.
#[derive(Clone, Debug)]
pub(crate) struct TokenBucket {
    /// Refill rate in bytes/second; `f64::INFINITY` disables pacing.
    rate: f64,
    /// Bucket capacity in bytes (burst allowance).
    burst: f64,
    tokens: f64,
    last: Option<Instant>,
}

impl TokenBucket {
    /// A bucket refilling at `rate_bytes_per_s` with `burst_bytes`
    /// capacity (the bucket starts full).
    pub(crate) fn new(rate_bytes_per_s: f64, burst_bytes: f64) -> TokenBucket {
        assert!(rate_bytes_per_s > 0.0, "token rate must be positive");
        assert!(burst_bytes > 0.0, "burst must be positive");
        TokenBucket { rate: rate_bytes_per_s, burst: burst_bytes, tokens: burst_bytes, last: None }
    }

    /// A bucket that never delays (no pacing).
    pub(crate) fn unlimited() -> TokenBucket {
        TokenBucket { rate: f64::INFINITY, burst: f64::INFINITY, tokens: f64::INFINITY, last: None }
    }

    /// Requests `bytes` tokens at time `now`. Returns [`Duration::ZERO`]
    /// and consumes the tokens if the send may proceed, otherwise the time
    /// to wait before retrying (tokens are *not* consumed).
    ///
    /// A frame larger than the burst capacity is charged `burst` tokens:
    /// the bucket can never hold more than `burst`, so demanding more
    /// would make the frame wait forever. The oversized frame instead
    /// drains the bucket completely, which still bounds the long-run rate.
    pub(crate) fn request(&mut self, bytes: usize, now: Instant) -> Duration {
        if self.rate.is_infinite() {
            return Duration::ZERO;
        }
        if let Some(last) = self.last {
            let dt = now.saturating_duration_since(last).as_secs_f64();
            self.tokens = (self.tokens + dt * self.rate).min(self.burst);
        }
        self.last = Some(now);
        let need = (bytes as f64).min(self.burst);
        if self.tokens >= need {
            self.tokens -= need;
            Duration::ZERO
        } else {
            // Rounded up to the nanosecond and never zero: a quote rounded
            // down lands a hair before the tokens are there, and a zero
            // quote would read as "send" with the tokens still missing.
            let nanos = ((need - self.tokens) / self.rate * 1e9).ceil();
            Duration::from_nanos((nanos as u64).max(1))
        }
    }
}

/// Adapts the sender's redundancy factor to the loss the receiver reports.
///
/// A rateless sender at loss rate `p` needs `1/(1-p)` frames on the wire
/// per innovative frame received; the controller tracks an exponential
/// moving average of observed delivery and exposes that factor (clamped),
/// plus helpers to turn "frames still missing" into a send budget.
#[derive(Clone, Debug)]
pub(crate) struct RedundancyController {
    loss_estimate: f64,
    alpha: f64,
    max_factor: f64,
}

/// Ceiling on the loss estimate: above this the `1/(1-p)` factor explodes
/// and the clamped [`RedundancyController::factor`] governs anyway.
const MAX_LOSS: f64 = 0.95;

impl RedundancyController {
    /// A controller starting from a prior loss guess (0 for a clean link).
    pub(crate) fn new(initial_loss_guess: f64) -> RedundancyController {
        RedundancyController {
            loss_estimate: initial_loss_guess.clamp(0.0, MAX_LOSS),
            alpha: 0.3,
            max_factor: 4.0,
        }
    }

    /// Folds one feedback observation in: the receiver has seen `received`
    /// of the `sent` data datagrams so far (cumulative counts).
    ///
    /// Degenerate feedback is tolerated rather than trusted: `sent == 0`
    /// (no traffic yet — a ratio would divide by zero) is ignored, and
    /// `received > sent` (duplication faults can deliver more frames than
    /// were sent) is treated as zero loss, not negative loss. The estimate
    /// is re-clamped to `[0, MAX_LOSS]` after every fold so no sequence of
    /// observations can push it outside the range `factor()` assumes.
    pub(crate) fn observe(&mut self, sent: u64, received: u64) {
        if sent == 0 {
            return;
        }
        let observed_loss = 1.0 - (received.min(sent) as f64 / sent as f64);
        self.loss_estimate = (self.alpha * observed_loss + (1.0 - self.alpha) * self.loss_estimate)
            .clamp(0.0, MAX_LOSS);
    }

    /// Current loss estimate in `[0, 0.95]`.
    pub(crate) fn loss_estimate(&self) -> f64 {
        self.loss_estimate
    }

    /// Frames to send per innovative frame needed: `1/(1-loss)`, clamped.
    pub(crate) fn factor(&self) -> f64 {
        (1.0 / (1.0 - self.loss_estimate.min(0.95))).min(self.max_factor)
    }

    /// Send budget covering `missing` still-needed innovative frames, with
    /// a small constant floor so tiny remainders still make progress.
    pub(crate) fn budget_for(&self, missing: usize) -> u64 {
        ((missing as f64 * self.factor()).ceil() as u64).max(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_paces_to_its_rate() {
        let t0 = Instant::now();
        let mut bucket = TokenBucket::new(1000.0, 100.0);
        // The burst drains immediately...
        assert_eq!(bucket.request(100, t0), Duration::ZERO);
        // ...then a 50-byte send must wait 50ms at 1000 B/s.
        let wait = bucket.request(50, t0);
        assert!(wait > Duration::from_millis(45) && wait <= Duration::from_millis(50));
        // After the wait has elapsed the tokens are there.
        assert_eq!(bucket.request(50, t0 + wait), Duration::ZERO);
    }

    #[test]
    fn bucket_caps_accumulation_at_burst() {
        let t0 = Instant::now();
        let mut bucket = TokenBucket::new(1000.0, 100.0);
        assert_eq!(bucket.request(100, t0), Duration::ZERO);
        // An hour later only `burst` tokens are available.
        let later = t0 + Duration::from_secs(3600);
        assert_eq!(bucket.request(100, later), Duration::ZERO);
        assert!(bucket.request(1, later) > Duration::ZERO);
    }

    #[test]
    fn over_burst_frame_is_eventually_admitted() {
        let t0 = Instant::now();
        // A 1500-byte frame against a 1000-byte burst: under the old
        // `need = bytes` rule the bucket could never hold enough tokens
        // and the frame would be deferred forever.
        let mut bucket = TokenBucket::new(1000.0, 1000.0);
        assert_eq!(bucket.request(1500, t0), Duration::ZERO, "full bucket admits the frame");
        // The oversized send drained the whole bucket; the next one waits
        // for a full refill, never longer.
        let wait = bucket.request(1500, t0);
        assert!(wait > Duration::ZERO && wait <= Duration::from_secs(1), "wait = {wait:?}");
        // And crucially, the wait it quotes is sufficient: retrying after
        // it has elapsed succeeds instead of re-quoting forever.
        assert_eq!(bucket.request(1500, t0 + wait), Duration::ZERO);
    }

    #[test]
    fn a_quote_is_never_zero_and_paying_it_exactly_admits_one_frame() {
        // A driver that wakes exactly when told (a virtual-time test, a
        // due index) must find the tokens there, and a shortfall of a
        // fraction of a nanosecond must still read as a wait, not as a
        // free send: at 108 000 B/s a quote rounded to the nearest
        // nanosecond fell short by that much on almost every frame.
        for rate in [1_000.0, 96_000.0, 108_000.0, 123_457.3, 1e9 / 3.0] {
            let mut bucket = TokenBucket::new(rate, 4.0 * 1083.0);
            let mut now = Instant::now();
            while bucket.request(1083, now).is_zero() {} // drain the burst
            for _ in 0..500 {
                now += bucket.request(1083, now);
                assert_eq!(bucket.request(1083, now), Duration::ZERO, "rate {rate}");
                assert!(bucket.request(1083, now) > Duration::ZERO, "rate {rate}: a free send");
            }
        }
    }

    #[test]
    fn unlimited_bucket_never_waits() {
        let mut bucket = TokenBucket::unlimited();
        let now = Instant::now();
        for _ in 0..1000 {
            assert_eq!(bucket.request(1 << 20, now), Duration::ZERO);
        }
    }

    #[test]
    fn controller_tracks_observed_loss() {
        let mut ctl = RedundancyController::new(0.0);
        assert!((ctl.factor() - 1.0).abs() < 1e-9);
        for _ in 0..50 {
            ctl.observe(1000, 800); // 20% loss
        }
        assert!((ctl.loss_estimate() - 0.2).abs() < 0.01);
        assert!((ctl.factor() - 1.25).abs() < 0.02);
    }

    #[test]
    fn controller_ignores_empty_observations() {
        let mut ctl = RedundancyController::new(0.3);
        let before = ctl.loss_estimate();
        ctl.observe(0, 0);
        ctl.observe(0, 50); // stray feedback before anything was sent
        assert_eq!(ctl.loss_estimate(), before);
    }

    #[test]
    fn controller_treats_duplication_as_zero_loss() {
        let mut ctl = RedundancyController::new(0.5);
        // Duplication faults: the receiver counts more frames than were
        // sent. That must read as 0% loss, never negative.
        for _ in 0..200 {
            ctl.observe(100, 250);
        }
        assert!(ctl.loss_estimate() >= 0.0);
        assert!(ctl.loss_estimate() < 1e-9, "estimate decays to zero, got {}", ctl.loss_estimate());
        assert!((ctl.factor() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn controller_estimate_stays_clamped() {
        let mut ctl = RedundancyController::new(0.95);
        for _ in 0..50 {
            ctl.observe(1000, 0); // total blackout
        }
        assert!(ctl.loss_estimate() <= 0.95);
        assert!(ctl.factor() <= 4.0);
    }

    #[test]
    fn controller_budget_has_a_floor_and_scales() {
        let ctl = RedundancyController::new(0.2);
        assert!(ctl.budget_for(0) >= 2);
        assert!(ctl.budget_for(100) >= 125);
        // Extreme loss estimates stay clamped.
        let hostile = RedundancyController::new(10.0);
        assert!(hostile.factor() <= 4.0);
    }
}
