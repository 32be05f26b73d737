//! Batched datagram syscalls behind one `#[cfg]`-gated seam.
//!
//! The paper's serving bottleneck (§5.1.1) is not arithmetic but the
//! per-datagram cost of moving packets through the kernel. This module is
//! the only place the crate talks to the platform about that:
//!
//! * **Linux (default):** `SO_REUSEPORT` socket groups, `sendmmsg` /
//!   `recvmmsg` batches, and `poll`-based waiting, declared via
//!   hand-written `extern "C"` items — the workspace vendors no `libc`
//!   crate, and the zero-dependency stance is worth four syscall
//!   signatures and two sockaddr layouts.
//! * **Everything else** (and Linux under `RUSTFLAGS="--cfg
//!   nc_portable_io"`, which CI builds to keep the fallback honest):
//!   plain `std::net::UdpSocket` calls, one datagram per syscall, socket
//!   groups emulated with `try_clone`.
//!
//! Both implementations expose the same four functions, so everything
//! above this seam ([`crate::channel::BatchSocket`], and through it the
//! sharded server and the point-to-point [`crate::channel::UdpChannel`])
//! is platform-free. Fallback semantics differ only in throughput:
//!
//! | capability        | linux path           | portable path            |
//! |-------------------|----------------------|--------------------------|
//! | socket group      | kernel flow-hashing  | one socket, cloned       |
//! | batched send      | 1 syscall / batch    | 1 syscall / datagram     |
//! | batched receive   | 1 poll + 1 recvmmsg  | timed recv + nonblocking |
//! | receive buffer    | SO_RCVBUF resize     | kernel default (no-op)   |
//! | syscall metric    | exact                | exact                    |
//!
//! Every syscall issued here increments `net.syscalls`; the layered
//! benchmark (`benchmark/`) divides it by the datagrams moved
//! (`net.tx_datagrams + net.rx_datagrams`) to report
//! `net.syscalls_per_datagram`.

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::Duration;

/// Most datagrams one batched send/receive call will move. Bounds the
/// stack scratch (iovecs, headers, address storage) the Linux path builds
/// per call.
pub(crate) const MAX_BATCH: usize = 64;

#[cfg(all(target_os = "linux", not(nc_portable_io)))]
pub(crate) use linux::{bind_group, recv_from_batch, send_to_batch, set_recv_buffer};

#[cfg(any(not(target_os = "linux"), nc_portable_io))]
pub(crate) use portable::{bind_group, recv_from_batch, send_to_batch, set_recv_buffer};

/// Whether this build batches syscalls (`sendmmsg`/`recvmmsg`) or falls
/// back to one datagram per syscall.
pub(crate) fn batched() -> bool {
    cfg!(all(target_os = "linux", not(nc_portable_io)))
}

fn count_syscalls(n: u64) {
    crate::metrics::metrics().syscalls.add(n);
}

/// The Linux fast path. The only module in the crate allowed to contain
/// `unsafe`: raw syscall declarations plus the pointer plumbing
/// (`iovec`/`msghdr`/`sockaddr`) they require. Every unsafe block states
/// the invariant it leans on; everything is process-local memory handed
/// to well-specified syscalls.
#[cfg(all(target_os = "linux", not(nc_portable_io)))]
#[allow(unsafe_code)]
mod linux {
    use super::*;
    use std::mem::MaybeUninit;
    use std::os::fd::{AsRawFd, FromRawFd};

    // Kernel ABI constants (x86_64 / aarch64 Linux; generic asm values).
    const AF_INET: u16 = 2;
    const AF_INET6: u16 = 10;
    const SOCK_DGRAM: i32 = 2;
    const SOCK_CLOEXEC: i32 = 0o2000000;
    const SOL_SOCKET: i32 = 1;
    const SO_REUSEPORT: i32 = 15;
    const MSG_DONTWAIT: i32 = 0x40;
    const POLLIN: i16 = 0x1;

    /// `struct iovec`.
    #[repr(C)]
    struct IoVec {
        base: *mut u8,
        len: usize,
    }

    /// Large enough for any `sockaddr_*`; 8-aligned like the kernel's
    /// `struct sockaddr_storage`.
    #[repr(C, align(8))]
    #[derive(Clone, Copy)]
    struct SockAddrStorage {
        data: [u8; 128],
    }

    impl SockAddrStorage {
        const ZERO: SockAddrStorage = SockAddrStorage { data: [0; 128] };
    }

    /// `struct msghdr` (64-bit layout: `msg_iovlen`/`msg_controllen` are
    /// `size_t`).
    #[repr(C)]
    struct MsgHdr {
        name: *mut SockAddrStorage,
        namelen: u32,
        iov: *mut IoVec,
        iovlen: usize,
        control: *mut u8,
        controllen: usize,
        flags: i32,
    }

    /// `struct mmsghdr`.
    #[repr(C)]
    struct MMsgHdr {
        hdr: MsgHdr,
        len: u32,
    }

    impl MMsgHdr {
        /// One message over the single buffer `iov`; a null `name` sends
        /// to the connected peer.
        fn new(name: *mut SockAddrStorage, namelen: u32, iov: *mut IoVec) -> MMsgHdr {
            let control = std::ptr::null_mut();
            let hdr = MsgHdr { name, namelen, iov, iovlen: 1, control, controllen: 0, flags: 0 };
            MMsgHdr { hdr, len: 0 }
        }
    }

    /// Scratch for one batched call, left uninitialized: a call writes
    /// only the entries it hands to the kernel, so a burst of one does not
    /// pay for clearing `MAX_BATCH` headers and addresses (~13 KB).
    fn scratch<T>() -> [MaybeUninit<T>; MAX_BATCH] {
        [const { MaybeUninit::uninit() }; MAX_BATCH]
    }

    /// `struct pollfd`.
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn bind(fd: i32, addr: *const SockAddrStorage, len: u32) -> i32;
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
        fn sendmmsg(fd: i32, msgvec: *mut MMsgHdr, vlen: u32, flags: i32) -> i32;
        fn recvmmsg(fd: i32, msgvec: *mut MMsgHdr, vlen: u32, flags: i32, timeout: *mut u8) -> i32;
        fn poll(fds: *mut PollFd, nfds: usize, timeout_ms: i32) -> i32;
    }

    /// Serializes a `SocketAddr` into kernel `sockaddr_in`/`sockaddr_in6`
    /// layout, returning the populated storage and its length.
    fn encode_addr(addr: SocketAddr) -> (SockAddrStorage, u32) {
        let mut s = SockAddrStorage::ZERO;
        match addr {
            SocketAddr::V4(v4) => {
                s.data[0..2].copy_from_slice(&AF_INET.to_ne_bytes());
                s.data[2..4].copy_from_slice(&v4.port().to_be_bytes());
                s.data[4..8].copy_from_slice(&v4.ip().octets());
                (s, 16)
            }
            SocketAddr::V6(v6) => {
                s.data[0..2].copy_from_slice(&AF_INET6.to_ne_bytes());
                s.data[2..4].copy_from_slice(&v6.port().to_be_bytes());
                s.data[4..8].copy_from_slice(&v6.flowinfo().to_be_bytes());
                s.data[8..24].copy_from_slice(&v6.ip().octets());
                s.data[24..28].copy_from_slice(&v6.scope_id().to_ne_bytes());
                (s, 28)
            }
        }
    }

    /// Parses the bytes of a kernel-written sockaddr back into a
    /// `SocketAddr`. `None` for families an AF_INET/AF_INET6 socket can
    /// never produce, or a name too short for its family.
    fn decode_addr(name: &[u8]) -> Option<SocketAddr> {
        let family = u16::from_ne_bytes(name.get(0..2)?.try_into().ok()?);
        let port = u16::from_be_bytes(name.get(2..4)?.try_into().ok()?);
        if family == AF_INET {
            let ip: [u8; 4] = name.get(4..8)?.try_into().ok()?;
            Some(SocketAddr::from((ip, port)))
        } else if family == AF_INET6 {
            let ip: [u8; 16] = name.get(8..24)?.try_into().ok()?;
            let scope = u32::from_ne_bytes(name.get(24..28)?.try_into().ok()?);
            let flow = u32::from_be_bytes(name.get(4..8)?.try_into().ok()?);
            Some(SocketAddr::V6(std::net::SocketAddrV6::new(ip.into(), port, flow, scope)))
        } else {
            None
        }
    }

    /// Creates one UDP socket with `SO_REUSEPORT` set *before* bind —
    /// the ordering `std::net::UdpSocket::bind` cannot provide, and the
    /// whole reason this function speaks raw syscalls.
    fn bind_reuseport(addr: SocketAddr) -> io::Result<UdpSocket> {
        let domain = match addr {
            SocketAddr::V4(_) => i32::from(AF_INET),
            SocketAddr::V6(_) => i32::from(AF_INET6),
        };
        // SAFETY: `socket(2)` takes no pointers; a negative return is an
        // error checked below.
        let fd = unsafe { socket(domain, SOCK_DGRAM | SOCK_CLOEXEC, 0) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` is a fresh, valid descriptor owned by no other
        // object; `UdpSocket` takes ownership and closes it on drop (which
        // also covers the error paths below).
        let sock = unsafe { UdpSocket::from_raw_fd(fd) };
        let one: i32 = 1;
        // SAFETY: `value` points at a live i32 of the stated length for
        // the duration of the call.
        let rc = unsafe {
            setsockopt(
                sock.as_raw_fd(),
                SOL_SOCKET,
                SO_REUSEPORT,
                &one,
                std::mem::size_of::<i32>() as u32,
            )
        };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        let (storage, len) = encode_addr(addr);
        // SAFETY: `storage` is a live, correctly laid out sockaddr of the
        // stated length for the duration of the call.
        let rc = unsafe { bind(sock.as_raw_fd(), &storage, len) };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(sock)
    }

    /// Asks the kernel for a `bytes`-sized receive buffer (`SO_RCVBUF`;
    /// granted size is capped by `net.core.rmem_max`). A receiver that
    /// drains in batches can absorb a whole burst here instead of
    /// shedding it as loss the rateless layer then has to repair.
    pub(crate) fn set_recv_buffer(socket: &UdpSocket, bytes: usize) -> io::Result<()> {
        const SO_RCVBUF: i32 = 8;
        let value = bytes.min(i32::MAX as usize) as i32;
        super::count_syscalls(1);
        // SAFETY: `value` points at a live i32 of the stated length for
        // the duration of the call.
        let rc = unsafe {
            setsockopt(
                socket.as_raw_fd(),
                SOL_SOCKET,
                SO_RCVBUF,
                &value,
                std::mem::size_of::<i32>() as u32,
            )
        };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Binds `shards` sockets sharing `addr`: the kernel hashes incoming
    /// flows across the group, so each socket sees a stable subset of
    /// peers with no user-space demultiplexing.
    ///
    /// A one-socket group is a plain bind. Given port 0 and `SO_REUSEPORT`,
    /// the kernel may hand out a port that another reuseport socket of the
    /// same user already holds, such as a live server's; the two sockets
    /// then split that port's traffic, and a client on its server's port
    /// never sees a reply.
    pub(crate) fn bind_group(addr: SocketAddr, shards: usize) -> io::Result<Vec<UdpSocket>> {
        if shards == 1 {
            return Ok(vec![UdpSocket::bind(addr)?]);
        }
        let mut sockets = Vec::new();
        let first = bind_reuseport(addr)?;
        // Re-resolve so `addr` with port 0 lands every socket on the same
        // ephemeral port.
        let bound = first.local_addr()?;
        sockets.push(first);
        for _ in 1..shards {
            sockets.push(bind_reuseport(bound)?);
        }
        Ok(sockets)
    }

    /// Sends every datagram in `msgs`, one `sendmmsg` per [`MAX_BATCH`]
    /// chunk. Returns the datagrams, and their bytes, handed to the
    /// kernel; backpressure (`EAGAIN`) and ICMP-unreachable feedback are
    /// loss, not errors. On a `connected` socket the addresses are
    /// ignored and every header's `msg_name` stays null.
    pub(crate) fn send_to_batch(
        socket: &UdpSocket,
        msgs: &[(SocketAddr, Vec<u8>)],
        connected: bool,
    ) -> io::Result<(usize, u64)> {
        let fd = socket.as_raw_fd();
        let (mut sent, mut sent_bytes) = (0usize, 0u64);
        for chunk in msgs.chunks(MAX_BATCH) {
            let (mut addrs, mut iovecs, mut hdrs) = (scratch(), scratch(), scratch());
            for (i, (to, bytes)) in chunk.iter().enumerate() {
                let (name, namelen) = if connected {
                    (std::ptr::null_mut(), 0)
                } else {
                    let (storage, namelen) = encode_addr(*to);
                    (std::ptr::from_mut(addrs[i].write(storage)), namelen)
                };
                // The kernel never writes through a send iov; the cast is
                // only to satisfy the shared msghdr layout.
                let iov =
                    iovecs[i].write(IoVec { base: bytes.as_ptr().cast_mut(), len: bytes.len() });
                hdrs[i].write(MMsgHdr::new(name, namelen, iov));
            }
            let hdrs = hdrs.as_mut_ptr().cast::<MMsgHdr>();
            let mut off = 0usize;
            while off < chunk.len() {
                super::count_syscalls(1);
                // SAFETY: the first `chunk.len()` entries of `hdrs` were
                // written above (the kernel reads no others); their name
                // pointers are null or point at written `addrs` entries,
                // and their iovs at written `iovecs` entries over `chunk`
                // buffers, all outliving the call.
                let rc = unsafe { sendmmsg(fd, hdrs.add(off), (chunk.len() - off) as u32, 0) };
                if rc < 0 {
                    let err = io::Error::last_os_error();
                    match err.kind() {
                        io::ErrorKind::Interrupted => continue,
                        // A full send buffer on an unreliable transport is
                        // loss: drop the remainder and let fresh coded
                        // frames repair it.
                        io::ErrorKind::WouldBlock => return Ok((sent, sent_bytes)),
                        // ICMP unreachable from an earlier send surfaces
                        // here; the error is consumed, the current
                        // datagram was not sent — skip it as lost.
                        io::ErrorKind::ConnectionRefused => {
                            off += 1;
                            continue;
                        }
                        _ => return Err(err),
                    }
                }
                let accepted = &chunk[off..off + rc as usize];
                sent_bytes += accepted.iter().map(|(_, bytes)| bytes.len() as u64).sum::<u64>();
                sent += accepted.len();
                off += accepted.len();
            }
        }
        Ok((sent, sent_bytes))
    }

    /// Receives up to `slots.len().min(MAX_BATCH)` datagrams: one `poll`
    /// to wait up to `timeout` for readability (skipped when zero), then
    /// one nonblocking `recvmmsg` to drain. Fills `meta[i]` with the
    /// length and source of the datagram in `slots[i]`; a length of 0
    /// marks a slot to skip. Returns the number of filled slots.
    pub(crate) fn recv_from_batch(
        socket: &UdpSocket,
        timeout: Duration,
        slots: &mut [Vec<u8>],
        meta: &mut Vec<(usize, SocketAddr)>,
    ) -> io::Result<usize> {
        meta.clear();
        let fd = socket.as_raw_fd();
        if !timeout.is_zero() {
            let mut pfd = PollFd { fd, events: POLLIN, revents: 0 };
            let ms = timeout.as_millis().clamp(1, i32::MAX as u128) as i32;
            super::count_syscalls(1);
            // SAFETY: `pfd` is a live pollfd for the duration of the call.
            let rc = unsafe { poll(&mut pfd, 1, ms) };
            if rc < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(0);
                }
                return Err(err);
            }
            if rc == 0 {
                return Ok(0); // timed out; nothing readable
            }
        }
        let n = slots.len().min(MAX_BATCH);
        let (mut addrs, mut iovecs, mut hdrs) =
            (scratch::<SockAddrStorage>(), scratch(), scratch());
        for (i, slot) in slots[..n].iter_mut().enumerate() {
            let iov = iovecs[i].write(IoVec { base: slot.as_mut_ptr(), len: slot.len() });
            let namelen = std::mem::size_of::<SockAddrStorage>() as u32;
            hdrs[i].write(MMsgHdr::new(addrs[i].as_mut_ptr(), namelen, iov));
        }
        let hdrs = hdrs.as_mut_ptr().cast::<MMsgHdr>();
        super::count_syscalls(1);
        // SAFETY: the first `n` entries of `hdrs` were written above (the
        // kernel touches no others); their iovs point into distinct
        // `slots` buffers and their names at distinct `addrs` entries,
        // all outliving the call. MSG_DONTWAIT keeps the call from
        // blocking regardless of the socket's mode.
        let rc = unsafe { recvmmsg(fd, hdrs, n as u32, MSG_DONTWAIT, std::ptr::null_mut()) };
        if rc < 0 {
            let err = io::Error::last_os_error();
            return match err.kind() {
                // Raced another shard to the data, or an async ICMP error
                // got consumed: either way, nothing to read right now.
                io::ErrorKind::WouldBlock
                | io::ErrorKind::Interrupted
                | io::ErrorKind::ConnectionRefused => Ok(0),
                _ => Err(err),
            };
        }
        let got = rc as usize;
        for (i, addr) in addrs[..got].iter().enumerate() {
            // SAFETY: `i < got <= n`, so `hdrs[i]` was written above; the
            // kernel set its `len` and `namelen` and wrote the first
            // `namelen` bytes of `addr` (capped at its size: a longer
            // name is truncated, never overrun).
            let (len, name) = unsafe {
                let hdr = &*hdrs.add(i);
                let namelen = (hdr.hdr.namelen as usize).min(std::mem::size_of_val(addr));
                (hdr.len as usize, std::slice::from_raw_parts(addr.as_ptr().cast::<u8>(), namelen))
            };
            match decode_addr(name) {
                Some(addr) => meta.push((len, addr)),
                None => meta.push((0, SocketAddr::from(([0, 0, 0, 0], 0)))),
            }
        }
        Ok(got)
    }
}

/// The portable fallback: the same four entry points over plain
/// `std::net::UdpSocket`, one datagram per syscall. Compiled on
/// non-Linux targets and under `--cfg nc_portable_io` (a CI lane), so
/// the seam above it can never quietly grow a Linux-only dependency.
#[cfg(any(not(target_os = "linux"), nc_portable_io))]
mod portable {
    use super::*;

    /// `std` exposes no portable receive-buffer knob, so the request is
    /// best-effort: the socket keeps the kernel default, which the doc
    /// table above declares. Not an error — callers size buffers as a
    /// throughput optimization, never for correctness.
    pub(crate) fn set_recv_buffer(_socket: &UdpSocket, _bytes: usize) -> io::Result<()> {
        Ok(())
    }

    /// One socket, cloned: no kernel flow-hashing, so every clone sees
    /// every datagram race-first. Shard affinity is restored above this
    /// seam by the owner-hash dispatch (see `crate::shard`).
    pub(crate) fn bind_group(addr: SocketAddr, shards: usize) -> io::Result<Vec<UdpSocket>> {
        let mut sockets = Vec::new();
        let first = UdpSocket::bind(addr)?;
        for _ in 1..shards {
            sockets.push(first.try_clone()?);
        }
        sockets.insert(0, first);
        Ok(sockets)
    }

    /// A connected socket sends with `send`: the BSDs and macOS refuse
    /// `sendto` with an address on one (`EISCONN`), Linux ignores it.
    pub(crate) fn send_to_batch(
        socket: &UdpSocket,
        msgs: &[(SocketAddr, Vec<u8>)],
        connected: bool,
    ) -> io::Result<(usize, u64)> {
        let (mut sent, mut sent_bytes) = (0usize, 0u64);
        for (to, bytes) in msgs {
            super::count_syscalls(1);
            let result = if connected { socket.send(bytes) } else { socket.send_to(bytes, to) };
            match result {
                Ok(_) => {
                    sent += 1;
                    sent_bytes += bytes.len() as u64;
                }
                // Loss, not failure: ICMP feedback or a full buffer.
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::ConnectionRefused | io::ErrorKind::WouldBlock
                    ) => {}
                Err(e) => return Err(e),
            }
        }
        Ok((sent, sent_bytes))
    }

    pub(crate) fn recv_from_batch(
        socket: &UdpSocket,
        timeout: Duration,
        slots: &mut [Vec<u8>],
        meta: &mut Vec<(usize, SocketAddr)>,
    ) -> io::Result<usize> {
        meta.clear();
        let mut got = 0usize;
        let n = slots.len().min(MAX_BATCH);
        while got < n {
            let first = got == 0 && !timeout.is_zero();
            // Mode changes count too: the syscalls-per-datagram metric
            // must stay honest about what the fallback really costs.
            if first {
                super::count_syscalls(2);
                socket.set_nonblocking(false)?;
                socket.set_read_timeout(Some(timeout))?;
            } else {
                super::count_syscalls(1);
                socket.set_nonblocking(true)?;
            }
            super::count_syscalls(1);
            match socket.recv_from(&mut slots[got]) {
                Ok((len, addr)) => {
                    meta.push((len, addr));
                    got += 1;
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::ConnectionRefused
                            | io::ErrorKind::Interrupted
                    ) =>
                {
                    break
                }
                Err(e) => return Err(e),
            }
        }
        // Leave the socket nonblocking: the next call sets the mode it
        // needs, and a send never blocks on a full buffer (loss instead).
        if got == n || got == 0 {
            super::count_syscalls(1);
            socket.set_nonblocking(true)?;
        }
        Ok(got)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_sockets_share_one_address() {
        let sockets = bind_group(SocketAddr::from(([127, 0, 0, 1], 0)), 4).unwrap();
        assert_eq!(sockets.len(), 4);
        let addr = sockets[0].local_addr().unwrap();
        for s in &sockets {
            assert_eq!(s.local_addr().unwrap(), addr);
        }
    }

    #[test]
    fn a_one_socket_group_holds_its_port_alone() {
        // Nothing can join a lone socket's port, so no later port-0 bind
        // can be handed it either.
        let lone = bind_group(SocketAddr::from(([127, 0, 0, 1], 0)), 1).unwrap().remove(0);
        let addr = lone.local_addr().unwrap();
        assert!(bind_group(addr, 2).is_err(), "a group joined a lone socket's port");
    }

    #[test]
    fn batch_send_and_receive_roundtrip() {
        let rx = bind_group(SocketAddr::from(([127, 0, 0, 1], 0)), 1).unwrap().remove(0);
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let to = rx.local_addr().unwrap();
        let msgs: Vec<(SocketAddr, Vec<u8>)> =
            (0..10u8).map(|i| (to, vec![i; 32 + i as usize])).collect();
        let wire_bytes: u64 = msgs.iter().map(|(_, bytes)| bytes.len() as u64).sum();
        assert_eq!(send_to_batch(&tx, &msgs, false).unwrap(), (10, wire_bytes));

        let mut slots: Vec<Vec<u8>> = (0..16).map(|_| vec![0u8; 2048]).collect();
        let mut meta = Vec::new();
        let mut seen = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while seen.len() < 10 && std::time::Instant::now() < deadline {
            let got =
                recv_from_batch(&rx, Duration::from_millis(200), &mut slots, &mut meta).unwrap();
            for i in 0..got {
                let (len, from) = meta[i];
                assert_eq!(from, tx.local_addr().unwrap());
                seen.push(slots[i][..len].to_vec());
            }
        }
        seen.sort();
        let mut want: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; 32 + i as usize]).collect();
        want.sort();
        assert_eq!(seen, want);
    }

    #[test]
    fn connected_send_ignores_the_address() {
        let rx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        tx.connect(rx.local_addr().unwrap()).unwrap();
        // Somewhere else entirely: a connected send must not address it
        // (`EISCONN` off Linux), and the datagram still reaches the peer.
        let elsewhere = SocketAddr::from(([127, 0, 0, 1], 9));
        let msgs = vec![(elsewhere, b"to the peer".to_vec())];
        assert_eq!(send_to_batch(&tx, &msgs, true).unwrap(), (1, 11));

        let mut slots: Vec<Vec<u8>> = vec![vec![0u8; 64]];
        let mut meta = Vec::new();
        let got = recv_from_batch(&rx, Duration::from_secs(5), &mut slots, &mut meta).unwrap();
        assert_eq!(got, 1);
        assert_eq!(meta[0], (11, tx.local_addr().unwrap()));
        assert_eq!(&slots[0][..11], b"to the peer");
    }

    #[test]
    fn zero_timeout_recv_polls_without_blocking() {
        let rx = bind_group(SocketAddr::from(([127, 0, 0, 1], 0)), 1).unwrap().remove(0);
        let mut slots: Vec<Vec<u8>> = vec![vec![0u8; 64]];
        let mut meta = Vec::new();
        let start = std::time::Instant::now();
        assert_eq!(recv_from_batch(&rx, Duration::ZERO, &mut slots, &mut meta).unwrap(), 0);
        assert!(start.elapsed() < Duration::from_millis(100), "zero timeout must not block");
    }
}
