//! Blocking driver gluing a [`SenderSession`] to a
//! [`Channel`](crate::channel::Channel): point-to-point file push over UDP
//! (or an in-process pair) with rateless recovery.

use nc_rlnc::codec::StreamCodecSender;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::channel::Channel;
use crate::session::{SenderConfig, SenderEvent, SenderReport, SenderSession};
use crate::wire::{Datagram, WireError};

/// Drives a [`SenderSession`] over `channel` until it finishes.
///
/// # Errors
///
/// Propagates channel I/O errors (datagram loss is not an error).
pub fn run_sender<C: Channel>(
    channel: &mut C,
    session: &mut SenderSession,
) -> io::Result<SenderReport> {
    loop {
        let now = Instant::now();
        match session.poll(now) {
            SenderEvent::Transmit(bytes) => {
                channel.send(&bytes)?;
                // The datagram is on the wire; its allocation is the
                // buffer the next `poll` encodes into, via the shared pool.
                nc_pool::BytesPool::global().recycle(bytes);
                // Drain feedback that arrived while we were sending so ACKs
                // take effect before the next frame is budgeted.
                drain(channel, session)?;
            }
            SenderEvent::Wait(timeout) => {
                if timeout < Duration::from_millis(1) {
                    // Sub-millisecond pacing gaps: socket read timeouts
                    // (SO_RCVTIMEO) round up to scheduler ticks, which
                    // would turn smooth pacing into multi-millisecond
                    // bursts that overflow the peer's socket buffer.
                    drain(channel, session)?;
                    std::thread::sleep(timeout);
                } else if let Some(incoming) = channel.recv_timeout(timeout)? {
                    handle(session, &incoming);
                    drain(channel, session)?;
                }
            }
            SenderEvent::Finished => return Ok(session.report(Instant::now())),
        }
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

fn drain<C: Channel>(channel: &mut C, session: &mut SenderSession) -> io::Result<()> {
    while let Some(incoming) = channel.recv_timeout(Duration::ZERO)? {
        handle(session, &incoming);
    }
    Ok(())
}

fn handle(session: &mut SenderSession, bytes: &[u8]) {
    // Unparseable feedback is dropped; the wire layer already counts for
    // the receiver side, and a sender only ever acts on valid ACK/FIN.
    if let Ok(datagram) = Datagram::decode(bytes) {
        session.handle_datagram(&datagram, Instant::now());
    }
}
