//! The receiving side: a sans-I/O session that turns hostile datagrams
//! into a decoded stream, plus a blocking driver over any
//! [`Channel`].
//!
//! The receiver requests the stream, learns its shape *and coding
//! backend* from the announce (see `crate::codecs`), absorbs coded
//! frames into the negotiated [`StreamCodecReceiver`], and feeds completion
//! back: small ACK datagrams carrying cumulative counters and a
//! per-segment bitmap (so the sender stops spending encode budget on
//! finished segments), then a FIN burst once the stream is bit-exact.
//! Corrupted, truncated, alien, and replayed datagrams are counted and
//! dropped — never trusted.

use nc_rlnc::codec::StreamCodecReceiver;
use nc_rlnc::CodingConfig;
use std::io;
use std::time::{Duration, Instant};

use crate::channel::Channel;
use crate::client::pump;
use crate::codecs::codec_for;
use crate::session::ANNOUNCE_INTERVAL;
use crate::step::Event;
use crate::step::{Session, Step};
use crate::wire::{Datagram, DatagramRef, Payload, SegmentBitmap, StreamMeta, WireError};

/// Send an ACK after this many data datagrams: the count rule, which
/// paces ACKs while frames flow.
pub(crate) const ACK_EVERY: u64 = 8;

/// The ACK timer's floor. The timer ACKs when
/// `max(ACK_INTERVAL, ACK_EVERY x mean frame gap)` has passed since the
/// last ACK, the mean gap being a 1/8-weight moving average of data frame
/// inter-arrival times, each clamped at `ACK_INTERVAL`. A fast flow
/// therefore ACKs at least every `ACK_INTERVAL`; a slow one (a 768 Kbps
/// peer gets a frame every ~9.4 ms) at most every
/// `ACK_EVERY x ACK_INTERVAL`, so its count rule fires first. With no
/// frames arriving the timer still fires ("nothing arrived" ACKs).
pub(crate) const ACK_INTERVAL: Duration = Duration::from_millis(10);

/// Re-send the initial request at this interval until announced. Data
/// that arrives before the announce prompts one at once, at most once
/// per [`ANNOUNCE_INTERVAL`].
pub(crate) const REQUEST_INTERVAL: Duration = Duration::from_millis(20);

/// How many times to repeat the final FIN (it may be lost).
pub(crate) const FIN_REPEATS: u32 = 3;

/// Tuning knobs for a receiver session.
#[derive(Clone, Debug)]
pub struct ReceiverConfig {
    /// Abort after this long without any valid sender datagram.
    pub idle_timeout: Duration,
    /// Hard cap on the whole transfer.
    pub deadline: Option<Duration>,
}

impl Default for ReceiverConfig {
    fn default() -> ReceiverConfig {
        ReceiverConfig { idle_timeout: Duration::from_secs(5), deadline: None }
    }
}

/// What [`ReceiverSession::poll`] asks its driver to do.
pub type ReceiverEvent = Event;

/// How a receiver session ended.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ReceiverOutcome {
    /// The stream decoded completely.
    Completed,
    /// No valid sender datagram for `idle_timeout`.
    IdleTimeout,
    /// The overall `deadline` elapsed.
    DeadlineExceeded,
}

/// Final receiver-side statistics.
#[derive(Clone, Debug)]
pub struct ReceiverReport {
    /// How the session ended.
    pub outcome: ReceiverOutcome,
    /// Data datagrams that arrived intact and parsed.
    pub received: u64,
    /// Frames that increased decoder rank.
    pub innovative: u64,
    /// Datagrams rejected by the checksum (bit damage in flight).
    pub corrupt: u64,
    /// Datagrams with foreign magic/version/session.
    pub alien: u64,
    /// Datagrams whose payload failed to parse after the checksum passed.
    pub malformed: u64,
    /// Repeat announces contradicting the accepted one (different codec,
    /// shape, or length) — rejected rather than re-negotiated mid-stream.
    pub conflicting_announces: u64,
    /// Data frames that arrived before the announce (undecodable; lost).
    /// Counted in `received` too, which the ACKs report.
    pub pre_announce: u64,
    /// ACK datagrams sent.
    pub acks_sent: u64,
    /// Time from the first data frame to full decode, if completed.
    pub decode_latency: Option<Duration>,
}

enum State {
    AwaitAnnounce {
        last_request: Option<Instant>,
        /// When data that came before the announce last prompted a
        /// request out of turn.
        nudged_at: Option<Instant>,
    },
    Receiving {
        /// The announce's negotiated backend, behind the codec seam: dense
        /// RLNC Gauss-Jordan or FFT16 erasure decode, the session can't
        /// tell.
        decoder: Box<dyn StreamCodecReceiver>,
        completed: SegmentBitmap,
    },
    Done {
        data: Vec<u8>,
        fins_sent: u32,
    },
}

/// The sans-I/O receiver state machine (see module docs).
pub struct ReceiverSession {
    session: u64,
    config: ReceiverConfig,
    state: State,
    received: u64,
    innovative: u64,
    corrupt: u64,
    alien: u64,
    malformed: u64,
    conflicting_announces: u64,
    pre_announce: u64,
    acks_sent: u64,
    /// The announce this session accepted; the yardstick repeats are
    /// checked against.
    accepted_meta: Option<StreamMeta>,
    since_ack: u64,
    ack_pending: bool,
    last_ack_at: Option<Instant>,
    frame_gaps: FrameGaps,
    started: Instant,
    last_activity: Instant,
    first_data_at: Option<Instant>,
    completed_at: Option<Instant>,
    outcome: Option<ReceiverOutcome>,
}

impl ReceiverSession {
    /// A session expecting stream `session` from the peer.
    pub fn new(session: u64, config: ReceiverConfig, now: Instant) -> ReceiverSession {
        ReceiverSession {
            session,
            config,
            state: State::AwaitAnnounce { last_request: None, nudged_at: None },
            received: 0,
            innovative: 0,
            corrupt: 0,
            alien: 0,
            malformed: 0,
            conflicting_announces: 0,
            pre_announce: 0,
            acks_sent: 0,
            accepted_meta: None,
            since_ack: 0,
            ack_pending: false,
            last_ack_at: None,
            frame_gaps: FrameGaps::default(),
            started: now,
            last_activity: now,
            first_data_at: None,
            completed_at: None,
            outcome: None,
        }
    }

    /// The stream id this session asks for.
    pub(crate) fn session_id(&self) -> u64 {
        self.session
    }

    /// Whether the stream decoded completely.
    pub fn is_complete(&self) -> bool {
        matches!(self.state, State::Done { .. })
    }

    /// The recovered stream, once complete.
    pub fn recovered(&self) -> Option<&[u8]> {
        match &self.state {
            State::Done { data, .. } => Some(data),
            _ => None,
        }
    }

    /// Consumes the session, returning the recovered bytes if complete.
    pub fn into_recovered(self) -> Option<Vec<u8>> {
        match self.state {
            State::Done { data, .. } => Some(data),
            _ => None,
        }
    }

    /// Feeds one raw datagram off the wire into the session. Total over
    /// arbitrary bytes: anything unparseable is counted and dropped. A data
    /// frame is parsed where it lies — `bytes` may be a receive slot — and
    /// copied once, into the decoder.
    pub fn handle_bytes(&mut self, bytes: &[u8], now: Instant) {
        let datagram = match DatagramRef::parse(bytes) {
            Ok(d) => d,
            Err(WireError::ChecksumMismatch) => {
                self.corrupt += 1;
                return;
            }
            Err(
                WireError::BadMagic | WireError::BadVersion { .. } | WireError::TooShort { .. },
            ) => {
                self.alien += 1;
                return;
            }
            Err(_) => {
                self.malformed += 1;
                return;
            }
        };
        if datagram.session != self.session {
            self.alien += 1;
            return;
        }
        match datagram.payload {
            Payload::Announce(meta) => {
                self.last_activity = now;
                self.start_receiving(meta);
            }
            Payload::Data(frame_bytes) => {
                self.last_activity = now;
                self.handle_frame(frame_bytes, now);
            }
            // Receiver-role traffic reflected back (or a confused peer).
            Payload::Request | Payload::Ack { .. } | Payload::Fin { .. } => {}
        }
    }

    /// Advances the state machine (see [`ReceiverEvent`]).
    pub fn poll(&mut self, now: Instant) -> Event {
        if self.outcome.is_some() {
            return Event::Finished;
        }
        if let Some(deadline) = self.config.deadline {
            if now.duration_since(self.started) >= deadline {
                self.outcome = Some(ReceiverOutcome::DeadlineExceeded);
                return Event::Finished;
            }
        }
        match &mut self.state {
            State::Done { fins_sent, .. } => {
                if *fins_sent < FIN_REPEATS {
                    *fins_sent += 1;
                    let bytes = Datagram::new(
                        self.session,
                        Payload::Fin { received: self.received, innovative: self.innovative },
                    )
                    .encode()
                    .expect("fin datagrams are small");
                    Event::Transmit(bytes)
                } else {
                    self.outcome = Some(ReceiverOutcome::Completed);
                    Event::Finished
                }
            }
            State::AwaitAnnounce { last_request, .. } => {
                if now.duration_since(self.last_activity) >= self.config.idle_timeout {
                    self.outcome = Some(ReceiverOutcome::IdleTimeout);
                    return Event::Finished;
                }
                let due = last_request.is_none_or(|at| now.duration_since(at) >= REQUEST_INTERVAL);
                if due {
                    *last_request = Some(now);
                    let bytes = Datagram::new(self.session, Payload::Request)
                        .encode()
                        .expect("request datagrams are small");
                    Event::Transmit(bytes)
                } else {
                    // Precise: sleep to the retry (or idle) deadline, not
                    // a full fixed interval past it.
                    let retry_at = last_request.expect("checked by `due`") + REQUEST_INTERVAL;
                    let idle_at = self.last_activity + self.config.idle_timeout;
                    Event::Wait(until(retry_at.min(idle_at), now))
                }
            }
            State::Receiving { completed, .. } => {
                if now.duration_since(self.last_activity) >= self.config.idle_timeout {
                    self.outcome = Some(ReceiverOutcome::IdleTimeout);
                    return Event::Finished;
                }
                // The timer fires even with zero frames received: a
                // "nothing arrived" ACK is what lets the sender's loss
                // estimate catch up with a burst of drops and reopen its
                // window. Its period stretches to `ACK_EVERY` mean frame
                // gaps (see `ACK_INTERVAL`), so on a slow flow the count
                // rule paces ACKs and the timer covers only a flow that
                // slowed or stopped.
                let ack_period = self.frame_gaps.ack_period();
                let interval_due =
                    self.last_ack_at.is_none_or(|at| now.duration_since(at) >= ack_period);
                if self.ack_pending || self.since_ack >= ACK_EVERY || interval_due {
                    // The bitmap is lent to the datagram, not cloned: an
                    // ACK allocates nothing once the pool is warm.
                    let (received, innovative) = (self.received, self.innovative);
                    let lent = std::mem::replace(completed, SegmentBitmap::new(0));
                    let ack = Payload::Ack { received, innovative, completed: lent };
                    let ack = Datagram::new(self.session, ack);
                    let bytes = ack.encode().expect("ack datagrams are small per MAX_SEGMENTS");
                    let Payload::Ack { completed: lent, .. } = ack.payload else { unreachable!() };
                    *completed = lent;
                    self.acks_sent += 1;
                    self.since_ack = 0;
                    self.ack_pending = false;
                    self.last_ack_at = Some(now);
                    Event::Transmit(bytes)
                } else {
                    let ack_at = self.last_ack_at.expect("interval_due was false") + ack_period;
                    let idle_at = self.last_activity + self.config.idle_timeout;
                    Event::Wait(until(ack_at.min(idle_at), now))
                }
            }
        }
    }

    /// The final report (valid once `poll` returned `Finished`).
    pub fn report(&self) -> ReceiverReport {
        ReceiverReport {
            outcome: self.outcome.unwrap_or(ReceiverOutcome::IdleTimeout),
            received: self.received,
            innovative: self.innovative,
            corrupt: self.corrupt,
            alien: self.alien,
            malformed: self.malformed,
            conflicting_announces: self.conflicting_announces,
            pre_announce: self.pre_announce,
            acks_sent: self.acks_sent,
            decode_latency: match (self.first_data_at, self.completed_at) {
                (Some(first), Some(done)) => Some(done.duration_since(first)),
                _ => None,
            },
        }
    }

    fn start_receiving(&mut self, meta: StreamMeta) {
        if !matches!(self.state, State::AwaitAnnounce { .. }) {
            // Repeats of the accepted announce are idempotent keep-alives.
            // A repeat that *contradicts* it — notably a different codec
            // byte — must never re-negotiate the decoder mid-stream (the
            // absorbed frames would be reinterpreted under the wrong
            // backend); reject it and count the conflict.
            if self.accepted_meta.is_some_and(|accepted| meta != accepted) {
                self.conflicting_announces += 1;
            }
            return;
        }
        if meta.validate().is_err() {
            self.malformed += 1;
            return;
        }
        let Ok(coding) = CodingConfig::new(meta.blocks as usize, meta.block_size as usize) else {
            self.malformed += 1;
            return;
        };
        let segments = meta.total_segments as usize;
        // The announce names the backend; the registry builds its
        // receiving half. A shape the backend rejects (e.g. an odd block
        // size under a GF(2^16) codec) is a malformed announce.
        let Ok(decoder) =
            codec_for(meta.codec).make_receiver(coding, segments, meta.original_len as usize)
        else {
            self.malformed += 1;
            return;
        };
        self.accepted_meta = Some(meta);
        self.state = State::Receiving { decoder, completed: SegmentBitmap::new(segments) };
    }

    fn handle_frame(&mut self, frame_bytes: &[u8], now: Instant) {
        let State::Receiving { decoder, completed } = &mut self.state else {
            if let State::AwaitAnnounce { last_request, nudged_at } = &mut self.state {
                // Received, though undecodable: the ACKs count it, so the
                // sender does not read the frames it sent ahead of a lost
                // announce as link loss.
                self.received += 1;
                self.pre_announce += 1;
                // The sender is streaming, so its announce was lost or
                // overtaken: ask again at this poll rather than at the
                // next retry (a sender not yet ACKed answers a repeat
                // request with its announce), at most once per announce
                // interval.
                if nudged_at.is_none_or(|at| now.duration_since(at) >= ANNOUNCE_INTERVAL) {
                    *nudged_at = Some(now);
                    *last_request = None;
                }
            }
            return; // Done: late frames are ignored
        };
        let absorbed = match decoder.absorb(frame_bytes) {
            Ok(absorbed) => absorbed,
            Err(_) => {
                self.malformed += 1;
                return;
            }
        };
        if self.first_data_at.is_none() {
            self.first_data_at = Some(now);
        }
        self.frame_gaps.note(now);
        self.received += 1;
        self.since_ack += 1;
        if absorbed.innovative {
            self.innovative += 1;
        }
        if absorbed.segment_complete {
            completed.set(absorbed.segment);
            self.ack_pending = true; // tell the sender immediately
            if decoder.is_complete() {
                self.completed_at = Some(now);
                self.ack_pending = false;
                // The decoder is finished with: take its buffer, not a copy.
                let idle = State::AwaitAnnounce { last_request: None, nudged_at: None };
                let State::Receiving { decoder, .. } = std::mem::replace(&mut self.state, idle)
                else {
                    unreachable!("matched as receiving above")
                };
                let data = decoder.into_recovered().expect("complete stream recovers");
                self.state = State::Done { data, fins_sent: 0 };
            }
        }
    }
}

/// The data-frame inter-arrival clock the ACK timer stretches to.
#[derive(Default)]
struct FrameGaps {
    /// Arrival of the latest data frame, the start of the next sample.
    last: Option<Instant>,
    /// Moving average (weight 1/8) of the gaps; the first gap seeds it,
    /// zero before.
    mean: Duration,
}

impl FrameGaps {
    /// Folds one data frame's arrival in. Each sample is clamped at
    /// [`ACK_INTERVAL`], so one long stall cannot stretch the clock past
    /// `ACK_EVERY x ACK_INTERVAL`.
    fn note(&mut self, now: Instant) {
        if let Some(last) = self.last.replace(now) {
            let gap = now.saturating_duration_since(last).min(ACK_INTERVAL);
            self.mean = if self.mean.is_zero() { gap } else { self.mean - self.mean / 8 + gap / 8 };
        }
    }

    /// How long after the last ACK the timer ACKs:
    /// `max(ACK_INTERVAL, ACK_EVERY x mean gap)`.
    fn ack_period(&self) -> Duration {
        ACK_INTERVAL.max(self.mean.saturating_mul(ACK_EVERY as u32))
    }
}

/// Time from `now` until `at`, floored so a deadline landing immediately
/// cannot quote a zero wait and spin the driver.
fn until(at: Instant, now: Instant) -> Duration {
    at.saturating_duration_since(now).max(Duration::from_micros(100))
}

impl Session for ReceiverSession {
    fn handle(&mut self, bytes: &[u8], now: Instant) {
        self.handle_bytes(bytes, now);
    }

    fn poll(&mut self, now: Instant) -> Event {
        ReceiverSession::poll(self, now)
    }
}

/// Drives a [`ReceiverSession`] over a channel until it finishes,
/// returning its report: the [`Client`](crate::client::Client)'s shell
/// with this one session.
///
/// # Errors
///
/// Propagates channel I/O errors (datagram loss is not an error).
pub fn run_receiver<C: Channel>(
    channel: &mut C,
    session: &mut ReceiverSession,
) -> io::Result<ReceiverReport> {
    let mut step = Step::new();
    step.insert(session.session_id(), &mut *session);
    pump(channel, &mut step, &mut |_| {})?;
    Ok(session.report())
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::sim::{addr, drive, Node, Stream};
    use nc_rlnc::codec::CodecId;

    fn announce() -> Datagram {
        Datagram::new(
            5,
            Payload::Announce(StreamMeta {
                blocks: 4,
                block_size: 16,
                total_segments: 2,
                original_len: 100,
                codec: CodecId::DenseRlnc,
            }),
        )
    }

    #[test]
    fn requests_until_announced_then_acks() {
        let t0 = Instant::now();
        let mut r = ReceiverSession::new(5, ReceiverConfig::default(), t0);
        let Event::Transmit(bytes) = r.poll(t0) else { panic!("expected request") };
        assert!(matches!(Datagram::decode(&bytes).unwrap().payload, Payload::Request));
        // Second poll inside the request interval waits.
        assert!(matches!(r.poll(t0), Event::Wait(_)));
        r.handle_bytes(&announce().encode().unwrap(), t0);
        assert!(!r.is_complete());
    }

    #[test]
    fn data_before_the_announce_asks_again_at_once_once_per_announce_interval() {
        let (_, frames) = stream(2);
        let t0 = Instant::now();
        let mut r = ReceiverSession::new(5, ReceiverConfig::default(), t0);
        let is_request = |event| match event {
            Event::Transmit(bytes) => {
                matches!(Datagram::decode(&bytes).unwrap().payload, Payload::Request)
            }
            _ => false,
        };
        assert!(is_request(r.poll(t0)), "the opening request");
        let t1 = t0 + Duration::from_millis(1);
        r.handle_bytes(&frames[0], t1);
        assert!(is_request(r.poll(t1)), "data came first: the announce was lost");
        let t2 = t1 + ANNOUNCE_INTERVAL / 2;
        r.handle_bytes(&frames[1], t2);
        assert!(matches!(r.poll(t2), Event::Wait(_)), "not again within the interval");
        let t3 = t1 + ANNOUNCE_INTERVAL;
        r.handle_bytes(&frames[2], t3);
        assert!(is_request(r.poll(t3)));
        let report = r.report();
        assert_eq!(
            (report.pre_announce, report.received),
            (3, 3),
            "counted, and acked, as received"
        );
    }

    #[test]
    fn hostile_announces_are_rejected() {
        let Payload::Announce(sane) = announce().payload else { unreachable!() };
        let huge = StreamMeta {
            blocks: u32::MAX,
            block_size: u32::MAX,
            total_segments: u32::MAX,
            original_len: u64::MAX,
            codec: CodecId::DenseRlnc,
        };
        // 100 bytes fill 2 segments of 4 x 16: one segment more or fewer
        // than the length implies is as malformed as an oversized shape.
        for hostile in [
            huge,
            StreamMeta { total_segments: 3, ..sane },
            StreamMeta { total_segments: 1, ..sane },
        ] {
            let t0 = Instant::now();
            let mut r = ReceiverSession::new(5, ReceiverConfig::default(), t0);
            let Event::Transmit(_) = r.poll(t0) else { panic!("expected the request") };
            r.handle_bytes(&Datagram::new(5, Payload::Announce(hostile)).encode().unwrap(), t0);
            assert_eq!(r.report().malformed, 1, "{hostile:?}");
            // Still awaiting a sane announce.
            let Event::Transmit(bytes) = r.poll(t0 + Duration::from_millis(25)) else {
                panic!("expected request retry")
            };
            assert!(matches!(Datagram::decode(&bytes).unwrap().payload, Payload::Request));
        }
    }

    #[test]
    fn fft_announce_with_a_shape_its_backend_rejects_is_malformed() {
        // GF(2^16) codecs need an even block size; the dense default does
        // not. The codec seam must route shape validation to the
        // negotiated backend, not a one-size-fits-all check.
        let t0 = Instant::now();
        let mut r = ReceiverSession::new(5, ReceiverConfig::default(), t0);
        let odd = Datagram::new(
            5,
            Payload::Announce(StreamMeta {
                blocks: 4,
                block_size: 15,
                total_segments: 2,
                original_len: 100,
                codec: CodecId::Fft16,
            }),
        );
        r.handle_bytes(&odd.encode().unwrap(), t0);
        assert_eq!(r.report().malformed, 1);
        // The same shape under dense RLNC is fine.
        let mut ok = ReceiverSession::new(5, ReceiverConfig::default(), t0);
        let dense = Datagram::new(
            5,
            Payload::Announce(StreamMeta {
                blocks: 4,
                block_size: 15,
                total_segments: 2,
                original_len: 100,
                codec: CodecId::DenseRlnc,
            }),
        );
        ok.handle_bytes(&dense.encode().unwrap(), t0);
        assert_eq!(ok.report().malformed, 0);
    }

    #[test]
    fn conflicting_duplicate_announce_cannot_switch_the_codec() {
        let t0 = Instant::now();
        let mut r = ReceiverSession::new(5, ReceiverConfig::default(), t0);
        r.handle_bytes(&announce().encode().unwrap(), t0);
        assert!(matches!(r.state, State::Receiving { .. }));

        // Identical repeat: idempotent, nothing counted.
        r.handle_bytes(&announce().encode().unwrap(), t0);
        assert_eq!(r.report().conflicting_announces, 0);

        // Same session, same shape, different codec byte: must be rejected
        // and counted, never silently re-negotiated.
        let conflicting = Datagram::new(
            5,
            Payload::Announce(StreamMeta {
                blocks: 4,
                block_size: 16,
                total_segments: 2,
                original_len: 100,
                codec: CodecId::Fft16,
            }),
        );
        r.handle_bytes(&conflicting.encode().unwrap(), t0);
        assert_eq!(r.report().conflicting_announces, 1);
        assert_eq!(r.report().malformed, 0);
        // The decoder negotiated at accept time is still the one in place.
        assert_eq!(r.accepted_meta.unwrap().codec, CodecId::DenseRlnc);
        assert!(matches!(r.state, State::Receiving { .. }));
    }

    #[test]
    fn garbage_bytes_are_counted_not_fatal() {
        let t0 = Instant::now();
        let mut r = ReceiverSession::new(5, ReceiverConfig::default(), t0);
        r.handle_bytes(b"", t0);
        r.handle_bytes(b"total garbage that is long enough to look like a header", t0);
        let mut corrupted = announce().encode().unwrap();
        corrupted[23] ^= 0x40;
        r.handle_bytes(&corrupted, t0);
        let report = r.report();
        assert_eq!(report.alien, 2);
        assert_eq!(report.corrupt, 1);
    }

    /// A dense 16 x 64 B stream of `segments` segments under session 5:
    /// its announce and its first `n` (systematic) data datagrams per
    /// segment, segments interleaved round-robin as the sender sends them.
    fn stream(segments: usize) -> (Vec<u8>, Vec<Vec<u8>>) {
        let stream = Stream::new(segments);
        (stream.announce(5), (0..stream.frames.len()).map(|i| stream.data(5, i)).collect())
    }

    /// Drives `r` alone on a step in virtual time, as `run_receiver`
    /// would; returns the instants ACKs went out.
    fn ack_times(
        r: &mut ReceiverSession,
        arrivals: &[(Instant, Vec<u8>)],
        end: Instant,
    ) -> Vec<Instant> {
        let mut acks = Vec::new();
        let mut step = Step::new();
        step.insert(5, r);
        let t0 = arrivals[0].0;
        let arrivals = arrivals.iter().map(|(at, bytes)| (*at, addr(1), bytes.clone()));
        let is_ack = |bytes: &[u8]| {
            matches!(DatagramRef::parse(bytes), Ok(Datagram { payload: Payload::Ack { .. }, .. }))
        };
        let mut node = Node {
            step: &mut step,
            open: |_, _| None,
            watch: |_, now, sent| acks.extend(sent.iter().filter(|(_, b)| is_ack(b)).map(|_| now)),
        };
        drive(&mut [&mut node], t0, arrivals, None, end);
        acks
    }

    /// `frames` at `spacing` after an announce at `t0`.
    fn spaced(
        t0: Instant,
        announce: &[u8],
        frames: &[Vec<u8>],
        spacing: Duration,
    ) -> Vec<(Instant, Vec<u8>)> {
        let data =
            frames.iter().enumerate().map(|(i, f)| (t0 + spacing * (i as u32 + 1), f.clone()));
        std::iter::once((t0, announce.to_vec())).chain(data).collect()
    }

    #[test]
    fn a_paced_flow_acks_by_count_not_by_clock() {
        // 288 frames 9.4 ms apart (a 768 Kbps peer's 16 x 1 KiB frames):
        // a 10 ms clock would ACK almost every frame. The count rule, the
        // segment completions and the first ACK after the announce are all
        // that may send one.
        let (announce, frames) = stream(18);
        assert_eq!(frames.len(), 288);
        let t0 = Instant::now();
        let arrivals = spaced(t0, &announce, &frames, Duration::from_micros(9_400));
        let mut r = ReceiverSession::new(5, ReceiverConfig::default(), t0);
        let acks = ack_times(&mut r, &arrivals, t0 + Duration::from_secs(4));
        assert!(r.is_complete());
        let bound = 288 / ACK_EVERY as usize + 18 + 1;
        assert!(acks.len() <= bound, "{} ACKs for 288 frames (bound {bound})", acks.len());
        assert_eq!(acks.len() as u64, r.report().acks_sent);
    }

    #[test]
    fn a_fast_flow_keeps_the_ack_interval_after_a_pause() {
        // Frames 100 us apart: the mean gap times `ACK_EVERY` is far below
        // `ACK_INTERVAL`, so the clock is the parent's: after the flow
        // pauses, the timer ACK lands `ACK_INTERVAL` after the last ACK.
        let (announce, frames) = stream(8);
        let t0 = Instant::now();
        let arrivals = spaced(t0, &announce, &frames[..60], Duration::from_micros(100));
        let last_frame = arrivals.last().unwrap().0;
        let mut r = ReceiverSession::new(5, ReceiverConfig::default(), t0);
        let acks = ack_times(&mut r, &arrivals, last_frame + Duration::from_millis(25));
        let during = acks.iter().filter(|&&at| at <= last_frame).count();
        assert!(during >= 60 / 8, "count rule ACKs during the flow: {acks:?}");
        let (last, timer) = (acks[during - 1], acks[during]);
        assert_eq!(timer - last, ACK_INTERVAL, "{acks:?}");
        assert_eq!(acks[during + 1] - timer, ACK_INTERVAL);
    }

    #[test]
    fn the_first_poll_after_an_announce_and_frames_acks() {
        // Data frames sharing the announce's receive batch must not hold
        // back the ACK that tells the sender to stop re-announcing.
        let (announce, frames) = stream(2);
        let t0 = Instant::now();
        let mut r = ReceiverSession::new(5, ReceiverConfig::default(), t0);
        r.handle_bytes(&announce, t0);
        for frame in &frames[..4] {
            r.handle_bytes(frame, t0);
        }
        let Event::Transmit(bytes) = r.poll(t0) else { panic!("expected an ACK") };
        let Payload::Ack { received, .. } = Datagram::decode(&bytes).unwrap().payload else {
            panic!("expected an ACK")
        };
        assert_eq!(received, 4);
    }

    #[test]
    fn a_stalled_paced_flow_still_acks_nothing_arrived() {
        // A paced flow, then a 5 s stall: the clock stretched to the
        // flow's frame rate, but never past `ACK_EVERY x ACK_INTERVAL`,
        // and "nothing arrived" ACKs keep coming at that period. One
        // frame after the stall, then another stall: the long gap is one
        // clamped sample, so the period stays within that bound.
        let config = ReceiverConfig { idle_timeout: Duration::from_secs(10), ..Default::default() };
        let bound = ACK_INTERVAL * ACK_EVERY as u32;
        let (announce, frames) = stream(16);
        let t0 = Instant::now();
        let mut arrivals = spaced(t0, &announce, &frames[..64], Duration::from_micros(9_400));
        let last_frame = arrivals.last().unwrap().0;
        let resumed = last_frame + Duration::from_secs(5);
        arrivals.push((resumed, frames[64].clone()));
        let mut r = ReceiverSession::new(5, config, t0);
        let acks = ack_times(&mut r, &arrivals, resumed + Duration::from_secs(2));
        let stalled = acks.iter().filter(|&&at| at > last_frame && at < resumed).count();
        assert!(stalled >= 5_000 / 80, "{stalled} ACKs in a 5 s stall");
        let after = acks.iter().filter(|&&at| at > resumed).count();
        assert!(after >= 2_000 / 80, "{after} ACKs in the second stall");
        assert!(acks.iter().any(|&at| at > last_frame && at - last_frame <= bound));
        for pair in acks.windows(2) {
            assert!(pair[1] - pair[0] <= bound, "ACKs {:?} apart", pair[1] - pair[0]);
        }
    }

    #[test]
    fn idle_timeout_finishes_incomplete() {
        let t0 = Instant::now();
        let config =
            ReceiverConfig { idle_timeout: Duration::from_millis(10), ..Default::default() };
        let mut r = ReceiverSession::new(5, config, t0);
        assert_eq!(r.poll(t0 + Duration::from_millis(50)), Event::Finished);
        assert_eq!(r.report().outcome, ReceiverOutcome::IdleTimeout);
        assert!(r.recovered().is_none());
    }
}
