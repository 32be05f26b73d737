//! The receiving side: a sans-I/O session that turns hostile datagrams
//! into a decoded stream, plus a blocking driver over any
//! [`Channel`].
//!
//! The receiver requests the stream, learns its shape *and coding
//! backend* from the announce (see [`crate::codecs`]), absorbs coded
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
use crate::codecs::codec_for;
use crate::wire::{Datagram, DatagramRef, Payload, SegmentBitmap, StreamMeta, WireError};

/// Tuning knobs for a receiver session.
#[derive(Clone, Debug)]
pub struct ReceiverConfig {
    /// Send an ACK after this many data datagrams.
    pub ack_every: u64,
    /// Also ACK at least this often while data is flowing.
    pub ack_interval: Duration,
    /// Re-send the initial request at this interval until announced.
    pub request_interval: Duration,
    /// How many times to repeat the final FIN (it may be lost).
    pub fin_repeats: u32,
    /// Abort after this long without any valid sender datagram.
    pub idle_timeout: Duration,
    /// Hard cap on the whole transfer.
    pub deadline: Option<Duration>,
}

impl Default for ReceiverConfig {
    fn default() -> ReceiverConfig {
        ReceiverConfig {
            ack_every: 8,
            ack_interval: Duration::from_millis(10),
            request_interval: Duration::from_millis(20),
            fin_repeats: 3,
            idle_timeout: Duration::from_secs(5),
            deadline: None,
        }
    }
}

/// What the driver should do next.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReceiverEvent {
    /// Put these bytes on the wire (request/ACK/FIN).
    Transmit(Vec<u8>),
    /// Wait (and poll the channel) this long.
    Wait(Duration),
    /// The session is over; collect data and report.
    Finished,
}

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
    pub pre_announce: u64,
    /// ACK datagrams sent.
    pub acks_sent: u64,
    /// Time from the first data frame to full decode, if completed.
    pub decode_latency: Option<Duration>,
}

enum State {
    AwaitAnnounce {
        last_request: Option<Instant>,
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
            state: State::AwaitAnnounce { last_request: None },
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
            started: now,
            last_activity: now,
            first_data_at: None,
            completed_at: None,
            outcome: None,
        }
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
    pub fn poll(&mut self, now: Instant) -> ReceiverEvent {
        if self.outcome.is_some() {
            return ReceiverEvent::Finished;
        }
        if let Some(deadline) = self.config.deadline {
            if now.duration_since(self.started) >= deadline {
                self.outcome = Some(ReceiverOutcome::DeadlineExceeded);
                return ReceiverEvent::Finished;
            }
        }
        match &mut self.state {
            State::Done { fins_sent, .. } => {
                if *fins_sent < self.config.fin_repeats {
                    *fins_sent += 1;
                    let bytes = Datagram::new(
                        self.session,
                        Payload::Fin { received: self.received, innovative: self.innovative },
                    )
                    .encode()
                    .expect("fin datagrams are small");
                    ReceiverEvent::Transmit(bytes)
                } else {
                    self.outcome = Some(ReceiverOutcome::Completed);
                    ReceiverEvent::Finished
                }
            }
            State::AwaitAnnounce { last_request } => {
                if now.duration_since(self.last_activity) >= self.config.idle_timeout {
                    self.outcome = Some(ReceiverOutcome::IdleTimeout);
                    return ReceiverEvent::Finished;
                }
                let due = last_request
                    .is_none_or(|at| now.duration_since(at) >= self.config.request_interval);
                if due {
                    *last_request = Some(now);
                    let bytes = Datagram::new(self.session, Payload::Request)
                        .encode()
                        .expect("request datagrams are small");
                    ReceiverEvent::Transmit(bytes)
                } else {
                    // Precise: sleep to the retry (or idle) deadline, not
                    // a full fixed interval past it.
                    let retry_at =
                        last_request.expect("checked by `due`") + self.config.request_interval;
                    let idle_at = self.last_activity + self.config.idle_timeout;
                    ReceiverEvent::Wait(until(retry_at.min(idle_at), now))
                }
            }
            State::Receiving { completed, .. } => {
                if now.duration_since(self.last_activity) >= self.config.idle_timeout {
                    self.outcome = Some(ReceiverOutcome::IdleTimeout);
                    return ReceiverEvent::Finished;
                }
                // Periodic even with zero frames received: a "nothing
                // arrived" ACK is what lets the sender's loss estimate
                // catch up with a burst of drops and reopen its window.
                let interval_due = self
                    .last_ack_at
                    .is_none_or(|at| now.duration_since(at) >= self.config.ack_interval);
                if self.ack_pending || self.since_ack >= self.config.ack_every || interval_due {
                    let bytes = Datagram::new(
                        self.session,
                        Payload::Ack {
                            received: self.received,
                            innovative: self.innovative,
                            completed: completed.clone(),
                        },
                    )
                    .encode()
                    .expect("ack datagrams are small per MAX_SEGMENTS");
                    self.acks_sent += 1;
                    self.since_ack = 0;
                    self.ack_pending = false;
                    self.last_ack_at = Some(now);
                    ReceiverEvent::Transmit(bytes)
                } else {
                    let ack_at = self.last_ack_at.expect("interval_due was false")
                        + self.config.ack_interval;
                    let idle_at = self.last_activity + self.config.idle_timeout;
                    ReceiverEvent::Wait(until(ack_at.min(idle_at), now))
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
            if matches!(self.state, State::AwaitAnnounce { .. }) {
                self.pre_announce += 1;
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
                let idle = State::AwaitAnnounce { last_request: None };
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

/// Time from `now` until `at`, floored so a deadline landing immediately
/// cannot quote a zero wait and spin the driver.
fn until(at: Instant, now: Instant) -> Duration {
    at.saturating_duration_since(now).max(Duration::from_micros(100))
}

/// Drives a [`ReceiverSession`] over a channel until it finishes,
/// returning the recovered bytes (if any) and the report.
///
/// Each receive batch is handed to the session borrowed from the
/// channel's slots; the session is then polled until it quotes a wait,
/// and the requests, ACKs or FINs it produced leave in one
/// [`Channel::send_batch`].
///
/// # Errors
///
/// Propagates channel I/O errors (datagram loss is not an error).
pub fn run_receiver<C: Channel>(
    channel: &mut C,
    session: &mut ReceiverSession,
) -> io::Result<ReceiverReport> {
    // lint: allow(vec-capacity) — one staging vector per transfer, drained by every flush.
    let mut feedback = Vec::new();
    loop {
        let wait = match session.poll(Instant::now()) {
            ReceiverEvent::Transmit(bytes) => {
                feedback.push(bytes);
                continue;
            }
            ReceiverEvent::Wait(timeout) => Some(timeout),
            ReceiverEvent::Finished => None,
        };
        channel.send_batch(&mut feedback)?;
        let Some(timeout) = wait else { return Ok(session.report()) };
        channel.recv_batch(timeout, &mut |bytes| session.handle_bytes(bytes, Instant::now()))?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let ReceiverEvent::Transmit(bytes) = r.poll(t0) else { panic!("expected request") };
        assert!(matches!(Datagram::decode(&bytes).unwrap().payload, Payload::Request));
        // Second poll inside the request interval waits.
        assert!(matches!(r.poll(t0), ReceiverEvent::Wait(_)));
        r.handle_bytes(&announce().encode().unwrap(), t0);
        assert!(!r.is_complete());
    }

    #[test]
    fn hostile_announces_are_rejected() {
        let t0 = Instant::now();
        let mut r = ReceiverSession::new(5, ReceiverConfig::default(), t0);
        let hostile = Datagram::new(
            5,
            Payload::Announce(StreamMeta {
                blocks: u32::MAX,
                block_size: u32::MAX,
                total_segments: u32::MAX,
                original_len: u64::MAX,
                codec: CodecId::DenseRlnc,
            }),
        );
        r.handle_bytes(&hostile.encode().unwrap(), t0);
        assert_eq!(r.report().malformed, 1);
        // Still awaiting a sane announce.
        let ReceiverEvent::Transmit(bytes) = r.poll(t0 + Duration::from_millis(25)) else {
            panic!("expected request retry")
        };
        assert!(matches!(Datagram::decode(&bytes).unwrap().payload, Payload::Request));
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

    #[test]
    fn idle_timeout_finishes_incomplete() {
        let t0 = Instant::now();
        let config =
            ReceiverConfig { idle_timeout: Duration::from_millis(10), ..Default::default() };
        let mut r = ReceiverSession::new(5, config, t0);
        assert_eq!(r.poll(t0 + Duration::from_millis(50)), ReceiverEvent::Finished);
        assert_eq!(r.report().outcome, ReceiverOutcome::IdleTimeout);
        assert!(r.recovered().is_none());
    }
}
