//! Blocking driver gluing a [`SenderSession`] to a
//! [`Channel`]: point-to-point file push over UDP
//! (or an in-process pair) with rateless recovery.

use nc_rlnc::codec::StreamCodecSender;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::channel::Channel;
use crate::session::{SenderConfig, SenderEvent, SenderReport, SenderSession};
use crate::sysio::MAX_BATCH;
use crate::wire::{Datagram, WireError};

/// Drives a [`SenderSession`] over `channel` until it finishes.
///
/// Frames are staged until the session quotes a wait, finishes, or a
/// burst of `MAX_BATCH` (64) datagrams is ready; the burst then goes out
/// in one [`Channel::send_batch`] (one `sendmmsg` on a [`UdpChannel`])
/// and the feedback that arrived meanwhile is drained in batches before
/// the session is polled again.
///
/// # Errors
///
/// Propagates channel I/O errors (datagram loss is not an error).
///
/// [`UdpChannel`]: crate::channel::UdpChannel
pub fn run_sender<C: Channel>(
    channel: &mut C,
    session: &mut SenderSession,
) -> io::Result<SenderReport> {
    let mut burst = Vec::new();
    loop {
        match session.poll(Instant::now()) {
            SenderEvent::Transmit(bytes) => {
                burst.push(bytes);
                if burst.len() < MAX_BATCH {
                    continue;
                }
            }
            SenderEvent::Wait(timeout) if burst.is_empty() => {
                if timeout < Duration::from_millis(1) {
                    // Sub-millisecond pacing gaps: socket waits round up
                    // to whole milliseconds or scheduler ticks, which
                    // would turn smooth pacing into multi-millisecond
                    // bursts that overflow the peer's socket buffer.
                    drain(channel, session)?;
                    std::thread::sleep(timeout);
                } else if channel.recv_batch(timeout, &mut |bytes| handle(session, bytes))? > 0 {
                    drain(channel, session)?;
                }
                continue;
            }
            SenderEvent::Finished if burst.is_empty() => {
                return Ok(session.report(Instant::now()));
            }
            // A wait or finish quoted with frames staged: send them, then
            // ask again — the feedback drained below can change the answer.
            SenderEvent::Wait(_) | SenderEvent::Finished => {}
        }
        // On the wire: the buffers return to the pool, for the next
        // `poll` to encode into.
        channel.send_batch(&mut burst)?;
        // ACKs take effect before the next frame is budgeted.
        drain(channel, session)?;
    }
}

/// Convenience: build a session for `data` and run it over `channel`.
///
/// # Errors
///
/// [`WireError::TooLarge`] (as [`io::ErrorKind::InvalidInput`]) if one
/// coded frame cannot fit a datagram, plus any channel I/O error.
pub fn send_stream<C: Channel>(
    channel: &mut C,
    encoder: Arc<dyn StreamCodecSender>,
    session_id: u64,
    config: SenderConfig,
    seed: u64,
) -> io::Result<SenderReport> {
    let mut session = SenderSession::new(encoder, session_id, config, seed, Instant::now())
        .map_err(|e: WireError| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
    run_sender(channel, &mut session)
}

/// Handles feedback, a batch at a time, until none is waiting.
fn drain<C: Channel>(channel: &mut C, session: &mut SenderSession) -> io::Result<()> {
    while channel.recv_batch(Duration::ZERO, &mut |bytes| handle(session, bytes))? > 0 {}
    Ok(())
}

fn handle(session: &mut SenderSession, bytes: &[u8]) {
    // Unparseable feedback is dropped; the wire layer already counts for
    // the receiver side, and a sender only ever acts on valid ACK/FIN.
    if let Ok(datagram) = Datagram::decode(bytes) {
        session.handle_datagram(&datagram, Instant::now());
    }
}
