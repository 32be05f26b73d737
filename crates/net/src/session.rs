//! The sans-I/O rateless sender: one session = one stream to one receiver.
//!
//! [`SenderSession`] owns no socket. It is a state machine polled with the
//! current time: `poll` yields datagrams to transmit (announce, then paced
//! coded frames) or a duration to wait, and `handle_datagram` folds in
//! receiver feedback (ACK bitmaps, FIN). The same machine therefore drives
//! a point-to-point [`Channel`](crate::channel::Channel) (see
//! [`run_sender`](crate::sender::run_sender)) and every per-peer session of
//! the multi-receiver [`ShardedServer`](crate::shard::ShardedServer).
//!
//! There is no retransmission path anywhere: a segment that lost frames
//! simply receives *fresh* coded frames until its decoder reaches rank `n`
//! (the rateless property of RLNC). Feedback only (a) stops completed
//! segments from consuming encode budget and (b) calibrates how much
//! redundancy the link needs.

use nc_check::sync::Arc;
use nc_rlnc::codec::StreamCodecSender;
use nc_telemetry::{Histogram, Snapshot};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

use crate::metrics::metrics;
use crate::pacing::{RedundancyController, TokenBucket};
use crate::step::Event;
use crate::step::Session;
use crate::wire::{
    seal_data, Datagram, DatagramRef, Payload, SegmentBitmap, StreamMeta, WireError, HEADER_BYTES,
    MAX_DATAGRAM_BYTES,
};

/// Tuning knobs for a sender session.
#[derive(Clone, Debug)]
pub struct SenderConfig {
    /// Wire pacing in bytes/second (`None` = unpaced).
    pub pace_bytes_per_s: Option<f64>,
    /// Token-bucket burst in bytes.
    pub burst_bytes: f64,
    /// Prior loss estimate seeding the redundancy controller.
    pub initial_loss: f64,
    /// Flow-control window: cap on data frames estimated in flight
    /// (sent, discounted by the loss estimate, minus acknowledged). Keeps
    /// the sender from racing arbitrarily far ahead of feedback — every
    /// frame sent past a segment's completion is pure overhead, and an
    /// unthrottled sender can also flood a receiver's socket buffer.
    pub window_frames: u64,
    /// Abort after this long without any valid datagram from the peer.
    pub idle_timeout: Duration,
    /// Hard cap on the whole transfer.
    pub deadline: Option<Duration>,
}

impl Default for SenderConfig {
    fn default() -> SenderConfig {
        SenderConfig {
            pace_bytes_per_s: None,
            // Modest: a large burst overflows default UDP socket buffers
            // (a ~2 KB datagram occupies ~4 KB of kernel buffer).
            burst_bytes: 64.0 * 1024.0,
            initial_loss: 0.0,
            window_frames: 256,
            idle_timeout: Duration::from_secs(5),
            deadline: None,
        }
    }
}

/// How often a session re-sends the announce until the first ACK. A
/// repeat `Request` before that ACK is answered at once instead (the
/// receiver sends one as soon as data reaches it before the announce).
pub(crate) const ANNOUNCE_INTERVAL: Duration = Duration::from_millis(20);

/// Floor on quoted feedback waits. Waits are computed from the earliest
/// live timer (stall grace, announce retry, idle timeout, deadline); this
/// only stops a timer landing immediately from degenerating the driver
/// into a spin loop.
pub(crate) const ACK_WAIT: Duration = Duration::from_millis(2);

/// With no feedback for this long, a session trickles a little extra
/// budget to every incomplete segment (keeps the stream alive through ACK
/// loss).
pub const STALL_GRACE: Duration = Duration::from_millis(100);

/// What [`SenderSession::poll`] asks its driver to do.
pub type SenderEvent = Event;

/// How a sender session ended.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SenderOutcome {
    /// The receiver confirmed full recovery (ACK-all or FIN).
    Completed,
    /// No valid peer datagram for `idle_timeout`.
    IdleTimeout,
    /// The overall `deadline` elapsed.
    DeadlineExceeded,
}

/// Final per-session statistics.
#[derive(Clone, Debug)]
pub struct SenderReport {
    /// How the session ended.
    pub outcome: SenderOutcome,
    /// Coded data frames sent.
    pub frames_sent: u64,
    /// Total wire bytes sent (data + announces).
    pub bytes_sent: u64,
    /// Announce datagrams sent.
    pub announces_sent: u64,
    /// ACK datagrams received.
    pub acks_received: u64,
    /// Data datagrams the receiver reported as received.
    pub(crate) peer_received: u64,
    /// Frames the receiver reported as innovative.
    pub(crate) peer_innovative: u64,
    /// Segments in the stream.
    pub segments_total: usize,
    /// Segments the receiver confirmed complete.
    pub segments_completed: usize,
    /// Unpadded stream length in bytes.
    pub(crate) original_len: usize,
    /// Wall-clock duration of the session.
    pub elapsed: Duration,
    /// Final EMA loss estimate of the redundancy controller.
    pub loss_estimate: f64,
    /// Final redundancy factor (`1/(1-loss)`, clamped).
    pub(crate) redundancy_factor: f64,
}

impl SenderReport {
    /// Overhead ratio: coded frames sent per innovative frame delivered
    /// (the rateless substitute for a retransmission count). `None` until
    /// the receiver has reported any innovative frame.
    pub fn overhead_ratio(&self) -> Option<f64> {
        (self.peer_innovative > 0).then(|| self.frames_sent as f64 / self.peer_innovative as f64)
    }

    /// Application goodput in bytes/second (original bytes over session
    /// wall time), for completed sessions.
    pub(crate) fn goodput_bytes_per_s(&self) -> Option<f64> {
        (self.outcome == SenderOutcome::Completed && !self.elapsed.is_zero())
            .then(|| self.original_len as f64 / self.elapsed.as_secs_f64())
    }
}

/// The sans-I/O rateless sender state machine (see module docs).
pub struct SenderSession {
    session: u64,
    encoder: Arc<dyn StreamCodecSender>,
    config: SenderConfig,
    rng: StdRng,
    bucket: TokenBucket,
    redundancy: RedundancyController,
    /// Receiver-confirmed per-segment completion.
    completed: SegmentBitmap,
    sent_per_segment: Vec<u64>,
    budget_per_segment: Vec<u64>,
    next_segment: usize,
    /// Wire size of one data datagram (constant per coding config).
    data_datagram_bytes: usize,
    announce_at: Option<Instant>,
    /// The receiver's first `Request` (the one that opens the stream)
    /// has arrived; a later one, before any ACK, asks for the announce.
    requested: bool,
    acked_once: bool,
    /// An ACK arrived since the last `poll`, which folds it in.
    feedback_pending: bool,
    /// Data frames the peer's feedback can describe: those handed out
    /// before the latest burst (see [`SenderSession::fold_feedback`]).
    visible_sent: u64,
    started: Instant,
    last_activity: Instant,
    last_trickle: Instant,
    /// Coded data frames handed out; with `peer_received`, the two
    /// counters the flow window is computed from.
    frames_sent: u64,
    /// Highest cumulative receive count the peer has reported. ACK and FIN
    /// max-merge into it, so a reordered ACK can never shrink it.
    peer_received: u64,
    bytes_sent: u64,
    announces_sent: u64,
    acks_received: u64,
    peer_innovative: u64,
    outcome: Option<SenderOutcome>,
    ended: Option<Instant>,
    /// Per-session pacing-wait distribution (nanoseconds); feeds the
    /// per-session [`Snapshot`] attached to server transfer reports.
    pacing_waits: Histogram,
}

impl std::fmt::Debug for SenderSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SenderSession")
            .field("session", &self.session)
            .field("codec", &self.encoder.codec())
            .field("outcome", &self.outcome)
            .finish_non_exhaustive()
    }
}

impl SenderSession {
    /// Builds a session serving `encoder`'s stream under `session` id.
    /// Deterministic for a fixed `(encoder, seed)` pair. Any
    /// [`StreamCodecSender`] backend works — the session never looks past
    /// the trait.
    ///
    /// # Errors
    ///
    /// [`WireError::TooLarge`] if one coded frame cannot fit a UDP
    /// datagram under this coding configuration.
    pub fn new(
        encoder: Arc<dyn StreamCodecSender>,
        session: u64,
        config: SenderConfig,
        seed: u64,
        now: Instant,
    ) -> Result<SenderSession, WireError> {
        let coding = encoder.coding_config();
        let data_datagram_bytes = HEADER_BYTES + encoder.frame_wire_bytes();
        if data_datagram_bytes > MAX_DATAGRAM_BYTES {
            return Err(WireError::TooLarge { needed: data_datagram_bytes });
        }
        let segments = encoder.total_segments();
        let redundancy = RedundancyController::new(config.initial_loss);
        let initial_budget = redundancy.budget_for(coding.blocks());
        let bucket = match config.pace_bytes_per_s {
            Some(rate) => TokenBucket::new(rate, config.burst_bytes),
            None => TokenBucket::unlimited(),
        };
        metrics().sessions_started.inc();
        Ok(SenderSession {
            session,
            encoder,
            config,
            rng: StdRng::seed_from_u64(seed),
            bucket,
            redundancy,
            completed: SegmentBitmap::new(segments),
            sent_per_segment: vec![0; segments],
            budget_per_segment: vec![initial_budget; segments],
            next_segment: 0,
            data_datagram_bytes,
            announce_at: None,
            requested: false,
            acked_once: false,
            feedback_pending: false,
            visible_sent: 0,
            started: now,
            last_activity: now,
            last_trickle: now,
            frames_sent: 0,
            peer_received: 0,
            bytes_sent: 0,
            announces_sent: 0,
            acks_received: 0,
            peer_innovative: 0,
            outcome: None,
            ended: None,
            pacing_waits: Histogram::new(),
        })
    }

    /// The stream shape this session announces.
    pub fn meta(&self) -> StreamMeta {
        let coding = self.encoder.coding_config();
        StreamMeta {
            blocks: coding.blocks() as u32,
            block_size: coding.block_size() as u32,
            total_segments: self.encoder.total_segments() as u32,
            original_len: self.encoder.original_len() as u64,
            codec: self.encoder.codec(),
        }
    }

    /// Folds in one datagram from the receiver. Completion takes effect
    /// at once; an ACK's counters reach the loss estimate at the next
    /// `poll`, once per batch of feedback.
    pub fn handle_datagram<B>(&mut self, datagram: &Datagram<B>, now: Instant) {
        if datagram.session != self.session {
            return;
        }
        match &datagram.payload {
            Payload::Request => {
                self.last_activity = now;
                // A repeat request before any ACK: the receiver has no
                // announce (it was lost, or data overtook it). Announce
                // at this poll rather than at the next retry.
                if self.requested && !self.acked_once {
                    self.announce_at = None;
                }
                self.requested = true;
            }
            Payload::Ack { received, innovative, completed } => {
                self.last_activity = now;
                self.acked_once = true;
                self.acks_received += 1;
                metrics().acks_received.inc();
                // Counters are cumulative; max-merge resists reordered ACKs.
                self.peer_received = self.peer_received.max(*received);
                self.peer_innovative = self.peer_innovative.max(*innovative);
                let complete = self.completed.union_with(completed);
                self.feedback_pending = true;
                if complete == self.completed.len() && complete > 0 {
                    self.finish(SenderOutcome::Completed, now);
                }
            }
            Payload::Fin { received, innovative } => {
                self.last_activity = now;
                self.acked_once = true;
                self.peer_received = self.peer_received.max(*received);
                self.peer_innovative = self.peer_innovative.max(*innovative);
                for i in 0..self.completed.len() {
                    self.completed.set(i);
                }
                self.finish(SenderOutcome::Completed, now);
            }
            // Sender-role datagrams from a confused peer: ignore.
            Payload::Announce(_) | Payload::Data(_) => {}
        }
    }

    /// Advances the state machine (see [`SenderEvent`]).
    pub fn poll(&mut self, now: Instant) -> Event {
        if std::mem::take(&mut self.feedback_pending) {
            self.fold_feedback();
        }
        let event = self.next_event(now);
        if matches!(event, Event::Wait(_)) {
            // Every frame handed out so far has the wait to arrive in.
            self.visible_sent = self.frames_sent;
        }
        event
    }

    /// Folds the feedback that arrived since the last `poll` into the loss
    /// estimate and the segment budgets: once per batch of ACKs, from the
    /// freshest cumulative counters.
    ///
    /// A driver that puts a burst on the wire and then drains feedback
    /// (`run_sender`, a shard step) reads ACKs the receiver sent before
    /// that burst reached it. Loss is therefore measured against the
    /// frames handed out before the latest burst — up to the previous
    /// fold, or to the last quoted wait — not against every frame handed
    /// out: counting a burst in flight as lost would inflate the estimate
    /// by up to a burst per observation, and the redundancy factor with it.
    fn fold_feedback(&mut self) {
        self.redundancy.observe(self.visible_sent, self.peer_received);
        let m = metrics();
        m.loss_estimate.set(self.redundancy.loss_estimate());
        m.redundancy_factor.set(self.redundancy.factor());
        self.regrant_budgets();
        self.visible_sent = self.frames_sent;
    }

    fn next_event(&mut self, now: Instant) -> Event {
        loop {
            if self.outcome.is_some() {
                return Event::Finished;
            }
            if let Some(deadline) = self.config.deadline {
                if now.duration_since(self.started) >= deadline {
                    self.finish(SenderOutcome::DeadlineExceeded, now);
                    continue;
                }
            }
            if now.duration_since(self.last_activity) >= self.config.idle_timeout {
                self.finish(SenderOutcome::IdleTimeout, now);
                continue;
            }

            // Announce until the first ACK proves the receiver knows the
            // stream shape.
            let announce_due = !self.acked_once
                && self.announce_at.is_none_or(|at| now.duration_since(at) >= ANNOUNCE_INTERVAL);
            if announce_due {
                let bytes = Datagram::new(self.session, Payload::Announce(self.meta()))
                    .encode()
                    .expect("announce datagrams are small");
                let wait = self.bucket.request(bytes.len(), now);
                if !wait.is_zero() {
                    self.record_pacing_wait(wait);
                    return Event::Wait(wait);
                }
                self.announce_at = Some(now);
                self.announces_sent += 1;
                self.bytes_sent += bytes.len() as u64;
                metrics().announces_sent.inc();
                return Event::Transmit(bytes);
            }

            if let Some(segment) = self.window_open().then(|| self.pick_segment()).flatten() {
                let wait = self.bucket.request(self.data_datagram_bytes, now);
                if !wait.is_zero() {
                    self.record_pacing_wait(wait);
                    return Event::Wait(wait);
                }
                // One pooled buffer, each byte written once: the codec
                // encodes its frame behind the header's place, then the
                // header goes in front with the checksum over both.
                let mut bytes = nc_pool::BytesPool::global().take_vec(self.data_datagram_bytes);
                self.encoder.frame_into(
                    segment,
                    self.sent_per_segment[segment],
                    &mut self.rng,
                    &mut bytes[HEADER_BYTES..],
                );
                seal_data(&mut bytes, self.session);
                self.sent_per_segment[segment] += 1;
                self.frames_sent += 1;
                self.bytes_sent += bytes.len() as u64;
                metrics().frames_sent.inc();
                return Event::Transmit(bytes);
            }

            // Budget-starved: every incomplete segment has used its frame
            // allowance and we are waiting on feedback. If feedback has
            // been silent for a while, trickle a little more budget so
            // pure-ACK-loss cannot deadlock the transfer.
            let stalled = now.duration_since(self.last_activity) >= STALL_GRACE
                && now.duration_since(self.last_trickle) >= STALL_GRACE;
            if stalled {
                self.last_trickle = now;
                for seg in 0..self.budget_per_segment.len() {
                    if !self.completed.get(seg) {
                        self.budget_per_segment[seg] = self.budget_per_segment[seg]
                            .max(self.sent_per_segment[seg] + self.redundancy.budget_for(1));
                    }
                }
                continue;
            }
            return Event::Wait(self.next_wake(now));
        }
    }

    /// Time until the earliest timer that can make `poll` progress with
    /// no new feedback: the stall-trickle grant, the announce retry, the
    /// idle timeout, or the hard deadline. Feedback arriving sooner
    /// re-arms all of them, so drivers treat the quote as an upper bound
    /// on how long to sleep (channel recvs return early on arrival) —
    /// never a fixed tick. [`ACK_WAIT`] floors the quote so a timer landing
    /// nanoseconds away cannot turn the driver into a spin loop.
    fn next_wake(&self, now: Instant) -> Duration {
        // Every branch of `poll` that could fire at or before `now` ran
        // before this was called, so each deadline here is in the future.
        let stall_at = self.last_activity.max(self.last_trickle) + STALL_GRACE;
        let idle_at = self.last_activity + self.config.idle_timeout;
        let mut wake = stall_at.min(idle_at);
        if let Some(deadline) = self.config.deadline {
            wake = wake.min(self.started + deadline);
        }
        if !self.acked_once {
            if let Some(at) = self.announce_at {
                wake = wake.min(at + ANNOUNCE_INTERVAL);
            }
        }
        wake.saturating_duration_since(now).max(ACK_WAIT)
    }

    /// The final report (valid once `poll` returned `Finished`; callable
    /// any time for progress snapshots).
    pub fn report(&self, now: Instant) -> SenderReport {
        SenderReport {
            outcome: self.outcome.unwrap_or(SenderOutcome::IdleTimeout),
            frames_sent: self.frames_sent,
            bytes_sent: self.bytes_sent,
            announces_sent: self.announces_sent,
            acks_received: self.acks_received,
            peer_received: self.peer_received,
            peer_innovative: self.peer_innovative,
            segments_total: self.encoder.total_segments(),
            segments_completed: self.completed.count_complete(),
            original_len: self.encoder.original_len(),
            elapsed: self.ended.unwrap_or(now).duration_since(self.started),
            loss_estimate: self.redundancy.loss_estimate(),
            redundancy_factor: self.redundancy.factor(),
        }
    }

    /// A point-in-time [`Snapshot`] of this session's own metrics, under
    /// `session.*` names. The [`ShardedServer`](crate::shard::ShardedServer)
    /// attaches one to every finished transfer.
    pub(crate) fn metrics_snapshot(&self, now: Instant) -> Snapshot {
        let report = self.report(now);
        let mut snap = Snapshot::default();
        let counters: [(&str, u64); 8] = [
            ("session.frames_sent", report.frames_sent),
            ("session.bytes_sent", report.bytes_sent),
            ("session.announces_sent", report.announces_sent),
            ("session.acks_received", report.acks_received),
            ("session.peer_received", report.peer_received),
            ("session.peer_innovative", report.peer_innovative),
            ("session.segments_completed", report.segments_completed as u64),
            ("session.segments_total", report.segments_total as u64),
        ];
        for (name, value) in counters {
            snap.counters.insert(name.to_string(), value);
        }
        snap.gauges.insert("session.loss_estimate".to_string(), report.loss_estimate);
        snap.gauges.insert("session.redundancy_factor".to_string(), report.redundancy_factor);
        // The negotiated backend, as its wire id (0 = dense RLNC,
        // 1 = FFT16) — lets `--telemetry-json` consumers split per-codec.
        snap.gauges
            .insert("session.codec_id".to_string(), f64::from(self.encoder.codec().to_wire()));
        if let Some(goodput) = report.goodput_bytes_per_s() {
            snap.gauges.insert("session.goodput_bytes_per_s".to_string(), goodput);
        }
        snap.histograms.insert("session.pacing_wait_ns".to_string(), self.pacing_waits.snapshot());
        snap
    }

    /// Records into the session's own histogram only: a waiting poll
    /// writes nothing process-wide, and `finish` hands the whole
    /// distribution to `net.pacing_wait_ns` in one pass.
    fn record_pacing_wait(&mut self, wait: Duration) {
        self.pacing_waits.record_duration(wait);
    }

    fn finish(&mut self, outcome: SenderOutcome, now: Instant) {
        if self.outcome.is_none() {
            self.outcome = Some(outcome);
            self.ended = Some(now);
            let m = metrics();
            m.pacing_wait_ns.absorb(&self.pacing_waits);
            if outcome == SenderOutcome::Completed {
                m.sessions_completed.inc();
                if let Some(goodput) = self.report(now).goodput_bytes_per_s() {
                    m.goodput_bytes_per_s.set(goodput);
                }
            } else {
                m.sessions_failed.inc();
            }
        }
    }

    /// Whether the flow-control window permits another data frame.
    ///
    /// "In flight" is estimated as frames sent that should *arrive* (sent
    /// scaled by the survival rate) minus frames the receiver reported.
    /// Discounting by the loss estimate keeps dropped frames from
    /// occupying the window forever; if a loss burst exceeds the estimate,
    /// the receiver's periodic ACKs raise the estimate (via `observe`)
    /// until the window reopens — so the window can throttle but never
    /// deadlock the session.
    ///
    /// Only a closed window publishes `net.window_occupancy`: an open one
    /// is the common case and writes nothing process-wide.
    fn window_open(&self) -> bool {
        let survival = 1.0 - self.redundancy.loss_estimate();
        let in_flight = self.frames_sent as f64 * survival - self.peer_received as f64;
        let open = in_flight < self.config.window_frames as f64;
        if !open {
            metrics().window_occupancy.set(in_flight / self.config.window_frames as f64);
        }
        open
    }

    /// Next incomplete segment with budget left, round-robin.
    fn pick_segment(&mut self) -> Option<usize> {
        let segments = self.sent_per_segment.len();
        for step in 0..segments {
            let seg = (self.next_segment + step) % segments;
            if !self.completed.get(seg) && self.sent_per_segment[seg] < self.budget_per_segment[seg]
            {
                self.next_segment = (seg + 1) % segments;
                return Some(seg);
            }
        }
        None
    }

    /// Re-derives per-segment budgets from the latest feedback.
    ///
    /// Grants cover only the *deficit*: innovative frames still missing,
    /// minus the in-flight frames already expected to survive the link
    /// (sent × survival − acknowledged). Without the in-flight discount
    /// every ACK would refill whatever the window drained and the sender
    /// would stream continuously until the completion bitmap caught up —
    /// pure overhead. The deficit (scaled by the redundancy factor) is
    /// spread evenly across incomplete segments; unlucky segments that
    /// need more than their share are topped up by later ACKs as the
    /// deficit re-emerges.
    fn regrant_budgets(&mut self) {
        let blocks = self.encoder.coding_config().blocks() as u64;
        let needed_total = blocks * self.encoder.total_segments() as u64;
        let remaining = needed_total.saturating_sub(self.peer_innovative) as f64;
        let incomplete = (self.completed.len() - self.completed.count_complete()) as u64;
        if incomplete == 0 || remaining == 0.0 {
            return;
        }
        let survival = 1.0 - self.redundancy.loss_estimate();
        let in_flight = (self.frames_sent as f64 * survival - self.peer_received as f64).max(0.0);
        let deficit = remaining - in_flight;
        if deficit <= 0.0 {
            return;
        }
        let extra = (deficit * self.redundancy.factor()).ceil() as u64;
        let share = extra.div_ceil(incomplete).max(1);
        for seg in 0..self.budget_per_segment.len() {
            if !self.completed.get(seg) {
                self.budget_per_segment[seg] =
                    self.budget_per_segment[seg].max(self.sent_per_segment[seg] + share);
            }
        }
    }
}

impl Session for SenderSession {
    /// Parses borrowed; unparseable feedback is dropped.
    fn handle(&mut self, bytes: &[u8], now: Instant) {
        if let Ok(datagram) = DatagramRef::parse(bytes) {
            self.handle_datagram(&datagram, now);
        }
    }

    fn poll(&mut self, now: Instant) -> Event {
        SenderSession::poll(self, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_rlnc::stream::StreamEncoder;
    use nc_rlnc::CodingConfig;

    fn encoder() -> Arc<StreamEncoder> {
        let config = CodingConfig::new(4, 64).unwrap();
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        Arc::new(StreamEncoder::new(config, &data).unwrap())
    }

    fn session(config: SenderConfig) -> SenderSession {
        SenderSession::new(encoder(), 77, config, 1, Instant::now()).unwrap()
    }

    #[test]
    fn announces_first_then_streams_data() {
        let mut s = session(SenderConfig::default());
        let now = Instant::now();
        let Event::Transmit(bytes) = s.poll(now) else { panic!("expected announce") };
        let datagram = Datagram::decode(&bytes).unwrap();
        assert!(matches!(datagram.payload, Payload::Announce(_)));
        assert_eq!(datagram.session, 77);
        let Event::Transmit(bytes) = s.poll(now) else { panic!("expected data") };
        assert!(matches!(Datagram::decode(&bytes).unwrap().payload, Payload::Data(_)));
    }

    #[test]
    fn a_repeat_request_before_any_ack_is_answered_with_the_announce() {
        let mut s = session(SenderConfig::default());
        let now = Instant::now();
        let request = Datagram::new(77, Payload::Request);
        let is_announce = |event| match event {
            Event::Transmit(bytes) => {
                matches!(Datagram::decode(&bytes).unwrap().payload, Payload::Announce(_))
            }
            _ => false,
        };
        s.handle_datagram(&request, now); // the one that opened the stream
        assert!(is_announce(s.poll(now)));
        assert!(!is_announce(s.poll(now)), "data follows");
        s.handle_datagram(&request, now);
        assert!(is_announce(s.poll(now)), "the receiver has no announce: send it now");
        let completed = SegmentBitmap::new(s.meta().total_segments as usize);
        s.handle_datagram(
            &Datagram::new(77, Payload::Ack { received: 1, innovative: 1, completed }),
            now,
        );
        s.handle_datagram(&request, now);
        assert!(!is_announce(s.poll(now)), "an ACK proved the announce arrived");
        assert_eq!(s.report(now).announces_sent, 2);
    }

    #[test]
    fn every_data_datagram_equals_the_twin_encoders_encoded_frame() {
        // The encode-in-place path against the owned path it replaced: a
        // twin encoder and a twin RNG (same seed) build each frame with
        // `frame_wire`, wrap it with `Datagram::encode`, and must get the
        // very bytes `poll` emitted — for every backend. Without feedback
        // each segment's budget is n frames; three stall trickles grant
        // more, so the dense codec's coded frames (seq >= n) are compared
        // as well as its systematic ones.
        use crate::codecs::make_sender;
        use nc_rlnc::codec::CodecId;
        const TRICKLES: usize = 3;
        let config = CodingConfig::new(4, 64).unwrap();
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        for id in [CodecId::DenseRlnc, CodecId::Fft16, CodecId::CircShift] {
            let twin = make_sender(id, config, &data).unwrap();
            let mut twin_rng = StdRng::seed_from_u64(9);
            let mut seq = vec![0u64; twin.total_segments()];
            let encoder = make_sender(id, config, &data).unwrap();
            let mut now = Instant::now();
            let mut s = SenderSession::new(encoder, 77, SenderConfig::default(), 9, now).unwrap();
            let mut compared = 0usize;
            let mut trickles = 0;
            loop {
                let bytes = match s.poll(now) {
                    Event::Transmit(bytes) => bytes,
                    Event::Wait(_) if trickles < TRICKLES => {
                        trickles += 1;
                        now += STALL_GRACE;
                        continue;
                    }
                    Event::Wait(_) => break, // budget spent, no feedback
                    Event::Finished => panic!("must not finish without feedback"),
                };
                let Payload::Data(frame) = Datagram::decode(&bytes).unwrap().payload else {
                    continue; // the announce
                };
                let segment = u32::from_le_bytes(frame[0..4].try_into().unwrap()) as usize;
                let twin_frame = twin.frame_wire(segment, seq[segment], &mut twin_rng);
                assert_eq!(twin_frame, frame, "{id:?} segment {segment} seq {}", seq[segment]);
                let want = Datagram::new(77, Payload::Data(twin_frame)).encode().unwrap();
                assert_eq!(bytes, want, "{id:?} segment {segment} seq {}", seq[segment]);
                seq[segment] += 1;
                compared += 1;
            }
            assert!(
                seq.iter().all(|&sent| sent > config.blocks() as u64),
                "{id:?}: every segment went past its first n frames: {seq:?}"
            );
            assert!(compared > twin.total_segments() * config.blocks(), "{id:?}: {compared}");
        }
    }

    #[test]
    fn budget_starves_without_feedback_then_trickles() {
        let mut s = session(SenderConfig::default());
        let now = Instant::now();
        let mut data_frames = 0u64;
        loop {
            match s.poll(now) {
                Event::Transmit(bytes) => {
                    if matches!(Datagram::decode(&bytes).unwrap().payload, Payload::Data(_)) {
                        data_frames += 1;
                    }
                }
                Event::Wait(_) => break,
                Event::Finished => panic!("must not finish without feedback"),
            }
        }
        // 4 blocks/segment × 16 segments, zero-loss prior → budget floor of
        // 2+ frames per missing frame... the exact number is the
        // controller's; what matters: bounded, then stalls.
        assert!(data_frames > 0);
        // After the grace period the trickle grants more budget.
        let later = now + 2 * STALL_GRACE;
        let mut trickled = 0u64;
        for _ in 0..16 {
            match s.poll(later) {
                Event::Transmit(bytes) => {
                    if matches!(Datagram::decode(&bytes).unwrap().payload, Payload::Data(_)) {
                        trickled += 1;
                    }
                }
                _ => break,
            }
        }
        assert!(trickled > 0, "trickle must release more data frames");
        assert_eq!(s.report(later).frames_sent, data_frames + trickled);
    }

    #[test]
    fn over_burst_frames_still_flow_through_a_paced_session() {
        // Burst capacity smaller than one data datagram (~90 bytes at
        // n=4, k=64): before the token-bucket clamp, the bucket could
        // never accumulate enough tokens for a single frame and the
        // session would quote waits forever.
        let config = SenderConfig {
            pace_bytes_per_s: Some(1_000_000.0),
            burst_bytes: 64.0,
            ..Default::default()
        };
        let mut s = session(config);
        let mut now = Instant::now();
        let mut data_frames = 0u64;
        for _ in 0..200 {
            match s.poll(now) {
                Event::Transmit(bytes) => {
                    if matches!(Datagram::decode(&bytes).unwrap().payload, Payload::Data(_)) {
                        data_frames += 1;
                    }
                }
                // Honor the quoted wait exactly; progress must follow.
                Event::Wait(wait) => now += wait,
                Event::Finished => break,
            }
        }
        assert!(data_frames > 0, "paced session with a tiny burst must still emit data frames");
    }

    #[test]
    fn completed_segments_stop_consuming_budget() {
        let mut s = session(SenderConfig::default());
        let now = Instant::now();
        let total_segments = s.meta().total_segments as usize;
        // Receiver reports segment 0 complete.
        let mut completed = SegmentBitmap::new(total_segments);
        completed.set(0);
        s.handle_datagram(
            &Datagram::new(77, Payload::Ack { received: 4, innovative: 4, completed }),
            now,
        );
        let mut seen_segment0 = 0;
        for _ in 0..200 {
            match s.poll(now) {
                Event::Transmit(bytes) => {
                    if let Payload::Data(frame) = Datagram::decode(&bytes).unwrap().payload {
                        let seg = u32::from_le_bytes(frame[0..4].try_into().unwrap());
                        if seg == 0 {
                            seen_segment0 += 1;
                        }
                    }
                }
                _ => break,
            }
        }
        assert_eq!(seen_segment0, 0, "completed segment must get no more frames");
    }

    #[test]
    fn a_burst_in_flight_is_not_counted_as_lost() {
        // A batching driver flushes a burst, then drains ACKs the receiver
        // sent before that burst reached it: lossless feedback, read at
        // the moment a driver reads it, must not raise the estimate.
        let mut s = session(SenderConfig::default());
        let now = Instant::now();
        let segments = s.meta().total_segments as usize;
        let ack = |received| {
            let completed = SegmentBitmap::new(segments);
            Datagram::new(77, Payload::Ack { received, innovative: received, completed })
        };
        let burst = |s: &mut SenderSession| {
            for _ in 0..8 {
                assert!(matches!(s.poll(now), Event::Transmit(_)));
            }
        };
        assert!(matches!(s.poll(now), Event::Transmit(_)), "the announce");
        s.handle_datagram(&ack(0), now);
        burst(&mut s);
        s.handle_datagram(&ack(0), now); // sent before burst one arrived
        burst(&mut s);
        s.handle_datagram(&ack(8), now); // all of burst one, none of two
        s.poll(now);
        assert_eq!(s.report(now).loss_estimate, 0.0);
    }

    #[test]
    fn a_reordered_older_ack_does_not_shrink_the_peer_counters() {
        let mut s = session(SenderConfig::default());
        let now = Instant::now();
        let segments = s.meta().total_segments as usize;
        let ack = |received| {
            let completed = SegmentBitmap::new(segments);
            Datagram::new(77, Payload::Ack { received, innovative: received, completed })
        };
        assert!(matches!(s.poll(now), Event::Transmit(_)), "the announce");
        // 4 segments x a budget of n = 4 frames at the zero-loss prior.
        for _ in 0..16 {
            assert!(matches!(s.poll(now), Event::Transmit(_)));
        }
        assert!(matches!(s.poll(now), Event::Wait(_)), "budget spent");
        s.handle_datagram(&ack(16), now);
        s.handle_datagram(&ack(8), now); // sent earlier, arrived later
        let report = s.report(now);
        assert_eq!(report.peer_received, 16);
        assert_eq!(report.peer_innovative, 16);
        s.poll(now);
        assert_eq!(s.report(now).loss_estimate, 0.0, "every frame sent was received");
    }

    #[test]
    fn fin_completes_and_idle_times_out() {
        let mut s = session(SenderConfig::default());
        let now = Instant::now();
        s.handle_datagram(&Datagram::new(77, Payload::Fin { received: 9, innovative: 8 }), now);
        assert_eq!(s.poll(now), Event::Finished);
        let report = s.report(now);
        assert_eq!(report.outcome, SenderOutcome::Completed);
        assert_eq!(report.segments_completed, report.segments_total);

        let mut idle =
            session(SenderConfig { idle_timeout: Duration::from_millis(5), ..Default::default() });
        assert_eq!(idle.poll(now + Duration::from_millis(50)), Event::Finished);
        assert_eq!(idle.report(now).outcome, SenderOutcome::IdleTimeout);
    }

    #[test]
    fn foreign_session_datagrams_are_ignored() {
        let mut s = session(SenderConfig::default());
        let now = Instant::now();
        s.handle_datagram(&Datagram::new(666, Payload::Fin { received: 1, innovative: 1 }), now);
        assert_eq!(s.outcome, None);
    }

    #[test]
    fn oversized_coding_config_is_rejected() {
        let config = CodingConfig::new(1024, 65_000).unwrap();
        let data = vec![1u8; 2048];
        let enc = Arc::new(StreamEncoder::new(config, &data).unwrap());
        assert!(matches!(
            SenderSession::new(enc, 1, SenderConfig::default(), 0, Instant::now()),
            Err(WireError::TooLarge { .. })
        ));
    }
}
