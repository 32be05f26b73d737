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
//! Both implementations expose the same six functions, so everything
//! above this seam ([`crate::channel::BatchSocket`], and through it the
//! sharded server and the point-to-point [`crate::channel::UdpChannel`])
//! is platform-free. Fallback semantics differ only in throughput:
//!
//! | capability           | linux path                      | portable path            |
//! |----------------------|---------------------------------|--------------------------|
//! | socket group         | kernel flow-hashing             | one socket, cloned       |
//! | batched send         | 1 syscall / batch               | 1 syscall / datagram     |
//! | segmentation offload | UDP_SEGMENT per same-destination run, probed, per-socket fallback | none |
//! | receive offload      | UDP_GRO, probed                 | none                     |
//! | batched receive      | 1 poll + 1 recvmmsg             | timed recv + nonblocking |
//! | truncated receive    | MSG_TRUNC: skipped, counted     | unseen: delivered cut to the slot (the CRC rejects it) |
//! | receive buffer       | SO_RCVBUF resize                | kernel default (no-op)   |
//! | syscall metric       | exact                           | exact                    |
//!
//! Every syscall issued here increments `net.syscalls`; the layered
//! benchmark (`benchmark/`) divides it by the datagrams moved
//! (`net.tx_datagrams + net.rx_datagrams`) to report
//! `net.syscalls_per_datagram`. Every message the kernel accepts
//! increments `net.tx_messages`, so `net.tx_datagrams / net.tx_messages`
//! is how many datagrams segmentation offload put in one message; every
//! message received increments `net.rx_messages`, so
//! `net.rx_datagrams / net.rx_messages` is how many receive offload put
//! in one.
//!
//! **Segmentation offload** (`UDP_SEGMENT`, Linux 4.18+). A run of
//! consecutive queued datagrams with one destination and one length (one
//! shorter datagram may end it) goes to the kernel as one message: its
//! iovecs are the run's own buffers and a control message names the
//! segment size. The kernel carries the run as one packet as far as it
//! can and splits it into the same datagrams at the end, so the wire
//! bytes do not change. A socket coalesces only if the `getsockopt` probe
//! at creation succeeds — an older kernel would silently ignore the
//! control message and send the run as one oversized datagram — and stops
//! for good the first time the kernel refuses a coalesced message
//! (`net.tx_gso_refused`), resending the rest one datagram per message.
//!
//! **Receive offload** (`UDP_GRO`, Linux 5.0+). A socket that sets the
//! option gets a run the kernel still carries as one packet — on
//! loopback, every `UDP_SEGMENT` send — as one message, with a control
//! message naming the segment size; [`crate::channel::BatchSocket`]
//! splits it back into the same datagrams. A kernel without the option
//! refuses the `setsockopt`, and the socket receives one datagram per
//! message as before.

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::Duration;

/// Most datagrams one batched send/receive call will move. Bounds the
/// stack scratch (iovecs, headers, address storage, control messages) the
/// Linux path builds per call.
pub(crate) const MAX_BATCH: usize = 64;

#[cfg(all(target_os = "linux", not(nc_portable_io)))]
pub(crate) use linux::{
    bind_group, enable_gro, probe_segmentation, recv_from_batch, send_to_batch, set_recv_buffer,
};

#[cfg(any(not(target_os = "linux"), nc_portable_io))]
pub(crate) use portable::{
    bind_group, enable_gro, probe_segmentation, recv_from_batch, send_to_batch, set_recv_buffer,
};

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
    const SOL_UDP: i32 = 17;
    const UDP_SEGMENT: i32 = 103;
    const UDP_GRO: i32 = 104;
    const MSG_CTRUNC: i32 = 0x8;
    const MSG_TRUNC: i32 = 0x20;
    const MSG_DONTWAIT: i32 = 0x40;
    const POLLIN: i16 = 0x1;
    const EIO: i32 = 5;
    const EINVAL: i32 = 22;
    const EMSGSIZE: i32 = 90;
    const EOPNOTSUPP: i32 = 95;

    /// The most payload one `UDP_SEGMENT` message may carry: the IPv4 UDP
    /// limit (65 535 less the IP and UDP headers), also used for IPv6.
    const MAX_SEGMENTED_BYTES: usize = 65_507;

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
        /// One message over the `iovlen` buffers from `iov` on, with no
        /// control message; a null `name` sends to the connected peer.
        fn new(
            name: *mut SockAddrStorage,
            namelen: u32,
            iov: *mut IoVec,
            iovlen: usize,
        ) -> MMsgHdr {
            let control = std::ptr::null_mut();
            let hdr = MsgHdr { name, namelen, iov, iovlen, control, controllen: 0, flags: 0 };
            MMsgHdr { hdr, len: 0 }
        }
    }

    /// A `struct cmsghdr` carrying one `UDP_SEGMENT` segment size. Its
    /// size is `CMSG_SPACE(2)`, the `msg_controllen` it goes out with.
    #[repr(C)]
    struct SegmentCmsg {
        len: usize,
        level: i32,
        ty: i32,
        size: u16,
    }

    impl SegmentCmsg {
        fn new(size: u16) -> SegmentCmsg {
            // `CMSG_LEN(2)`: the kernel refuses any other length.
            let len = std::mem::offset_of!(SegmentCmsg, size) + std::mem::size_of::<u16>();
            SegmentCmsg { len, level: SOL_UDP, ty: UDP_SEGMENT, size }
        }
    }

    /// A `struct cmsghdr` with room for one `int`: where `recvmmsg` writes
    /// a coalesced message's `UDP_GRO` segment size. Its size is
    /// `CMSG_SPACE(4)`, the `msg_controllen` a receive offers.
    #[repr(C)]
    struct GroCmsg {
        len: usize,
        level: i32,
        ty: i32,
        size: i32,
    }

    impl GroCmsg {
        /// `CMSG_LEN(4)`: the least `msg_controllen` that holds the size.
        const LEN: usize = std::mem::offset_of!(GroCmsg, size) + std::mem::size_of::<i32>();
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
        fn getsockopt(fd: i32, level: i32, name: i32, value: *mut i32, len: *mut u32) -> i32;
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
        set_option(&sock, SOL_SOCKET, SO_REUSEPORT, 1)?;
        let (storage, len) = encode_addr(addr);
        // SAFETY: `storage` is a live, correctly laid out sockaddr of the
        // stated length for the duration of the call.
        let rc = unsafe { bind(sock.as_raw_fd(), &storage, len) };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(sock)
    }

    /// Sets the integer socket option `level`/`name` to `value`.
    fn set_option(socket: &UdpSocket, level: i32, name: i32, value: i32) -> io::Result<()> {
        // SAFETY: `value` points at a live i32 of the stated length for
        // the duration of the call.
        let rc = unsafe {
            setsockopt(socket.as_raw_fd(), level, name, &value, std::mem::size_of::<i32>() as u32)
        };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Asks the kernel for a `bytes`-sized receive buffer (`SO_RCVBUF`;
    /// granted size is capped by `net.core.rmem_max`). A receiver that
    /// drains in batches can absorb a whole burst here instead of
    /// shedding it as loss the rateless layer then has to repair.
    pub(crate) fn set_recv_buffer(socket: &UdpSocket, bytes: usize) -> io::Result<()> {
        const SO_RCVBUF: i32 = 8;
        super::count_syscalls(1);
        set_option(socket, SOL_SOCKET, SO_RCVBUF, bytes.min(i32::MAX as usize) as i32)
    }

    /// Whether the kernel knows `UDP_SEGMENT` on this socket. A kernel
    /// before 4.18 fails the read with `ENOPROTOOPT` — and would ignore
    /// the option as a control message, sending a run as one datagram.
    pub(crate) fn probe_segmentation(socket: &UdpSocket) -> bool {
        let fd = socket.as_raw_fd();
        let (mut value, mut len) = (0i32, std::mem::size_of::<i32>() as u32);
        super::count_syscalls(1);
        // SAFETY: `value` and `len` are live locals for the duration of
        // the call, and `len` states `value`'s size.
        let rc = unsafe { getsockopt(fd, SOL_UDP, UDP_SEGMENT, &mut value, &mut len) };
        rc == 0
    }

    /// Asks the kernel to hand this socket coalesced runs whole
    /// (`UDP_GRO`). A kernel before 5.0 refuses the option; the socket
    /// then receives one datagram per message.
    pub(crate) fn enable_gro(socket: &UdpSocket) -> bool {
        super::count_syscalls(1);
        set_option(socket, SOL_UDP, UDP_GRO, 1).is_ok()
    }

    /// Clears `UDP_GRO`: the socket receives one datagram per message.
    #[cfg(test)]
    pub(super) fn disable_gro(socket: &UdpSocket) {
        set_option(socket, SOL_UDP, UDP_GRO, 0).expect("UDP_GRO");
    }

    /// Sets `SO_NO_CHECK`: the socket sends without UDP checksums, which
    /// makes the kernel refuse every `UDP_SEGMENT` message.
    #[cfg(test)]
    pub(super) fn disable_udp_checksums(socket: &UdpSocket) {
        const SO_NO_CHECK: i32 = 11;
        set_option(socket, SOL_SOCKET, SO_NO_CHECK, 1).expect("SO_NO_CHECK");
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

    /// How many datagrams from the front of `rest` one `UDP_SEGMENT`
    /// message carries: consecutive datagrams to `rest[0]`'s address (any
    /// address on a `connected` socket) and of `rest[0]`'s length, except
    /// that one shorter, non-empty datagram may end the run, holding at
    /// most [`MAX_SEGMENTED_BYTES`] in all. `rest` is at most a
    /// [`MAX_BATCH`] chunk, and no kernel's `UDP_MAX_SEGMENTS` is below 64.
    pub(super) fn run_length(rest: &[(SocketAddr, Vec<u8>)], connected: bool) -> usize {
        let (to, head) = &rest[0];
        let (size, mut total, mut run) = (head.len(), head.len(), 1);
        for (addr, bytes) in &rest[1..] {
            let len = bytes.len();
            let joins = (connected || addr == to) && len > 0 && len <= size;
            if !joins || total + len > MAX_SEGMENTED_BYTES {
                break;
            }
            total += len;
            run += 1;
            if len < size {
                break;
            }
        }
        run
    }

    /// Whether a failed coalesced message is the kernel refusing the
    /// offload itself: a segment too large for the route's MTU, a device
    /// or socket without checksum offload (`SO_NO_CHECK`), IPsec.
    fn refuses_segmentation(err: &io::Error) -> bool {
        matches!(err.raw_os_error(), Some(EINVAL | EIO | EMSGSIZE | EOPNOTSUPP))
    }

    /// Sends every datagram in `msgs`, one `sendmmsg` per [`MAX_BATCH`]
    /// chunk. While `segment` holds, each [`run_length`] run of a chunk is
    /// one `UDP_SEGMENT` message; a run of one, or any datagram once
    /// `segment` is off, is a message of its own. The first refused
    /// coalesced message clears `segment` and goes out again with the
    /// rest of the chunk, one datagram per message.
    ///
    /// Returns the datagrams, and their bytes, handed to the kernel;
    /// backpressure (`EAGAIN`) and ICMP-unreachable feedback are loss, not
    /// errors. On a `connected` socket the addresses are ignored and
    /// every header's `msg_name` stays null.
    pub(crate) fn send_to_batch(
        socket: &UdpSocket,
        msgs: &[(SocketAddr, Vec<u8>)],
        connected: bool,
        segment: &mut bool,
    ) -> io::Result<(usize, u64)> {
        let fd = socket.as_raw_fd();
        let m = crate::metrics::metrics();
        let (mut sent, mut sent_bytes) = (0usize, 0u64);
        for chunk in msgs.chunks(MAX_BATCH) {
            let (mut addrs, mut iovecs, mut cmsgs, mut hdrs) =
                (scratch(), scratch(), scratch(), scratch());
            for (iov, (_, bytes)) in iovecs.iter_mut().zip(chunk) {
                // The kernel never writes through a send iov; the cast is
                // only to satisfy the shared msghdr layout.
                iov.write(IoVec { base: bytes.as_ptr().cast_mut(), len: bytes.len() });
            }
            let iovecs = iovecs.as_mut_ptr().cast::<IoVec>();
            // One past the last datagram of each message of a call.
            let mut ends = [0usize; MAX_BATCH];
            // The first datagram of `chunk` not yet handed to the kernel.
            let mut first = 0usize;
            while first < chunk.len() {
                let (mut count, mut start) = (0usize, first);
                while start < chunk.len() {
                    let (to, bytes) = &chunk[start];
                    let run = if *segment { run_length(&chunk[start..], connected) } else { 1 };
                    let (name, namelen) = if connected {
                        (std::ptr::null_mut(), 0)
                    } else {
                        let (storage, namelen) = encode_addr(*to);
                        (std::ptr::from_mut(addrs[count].write(storage)), namelen)
                    };
                    let mut hdr = MMsgHdr::new(name, namelen, iovecs.wrapping_add(start), run);
                    if run > 1 {
                        let size = u16::try_from(bytes.len()).expect("a run fits in 64 KiB");
                        let cmsg = cmsgs[count].write(SegmentCmsg::new(size));
                        hdr.hdr.control = std::ptr::from_mut(cmsg).cast();
                        hdr.hdr.controllen = std::mem::size_of::<SegmentCmsg>();
                    }
                    hdrs[count].write(hdr);
                    start += run;
                    ends[count] = start;
                    count += 1;
                }
                super::count_syscalls(1);
                // SAFETY: the first `count` entries of `hdrs` were written
                // above (the kernel reads no others). Their name pointers
                // are null or point at written `addrs` entries, their
                // control pointers null or at written `cmsgs` entries, and
                // each iov pointer at the first of its run's `run`
                // consecutive `iovecs` entries, all written over `chunk`
                // buffers; everything outlives the call.
                let rc = unsafe { sendmmsg(fd, hdrs.as_mut_ptr().cast(), count as u32, 0) };
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
                        // message was not sent — skip its datagrams as lost.
                        io::ErrorKind::ConnectionRefused => {
                            first = ends[0];
                            continue;
                        }
                        // The failed message is always the call's first.
                        _ if ends[0] - first > 1 && refuses_segmentation(&err) => {
                            *segment = false;
                            m.tx_gso_refused.inc();
                            continue;
                        }
                        _ => return Err(err),
                    }
                }
                let end = ends[..rc as usize].last().copied().unwrap_or(first);
                let accepted = &chunk[first..end];
                sent_bytes += accepted.iter().map(|(_, bytes)| bytes.len() as u64).sum::<u64>();
                sent += accepted.len();
                m.tx_messages.add(rc as u64);
                first = end;
            }
        }
        Ok((sent, sent_bytes))
    }

    /// Receives up to `slots.len().min(MAX_BATCH)` messages: one `poll`
    /// to wait up to `timeout` for readability (skipped when zero), then
    /// one nonblocking `recvmmsg` to drain. Fills `meta[i]` with the
    /// length, source and segment size of the message in `slots[i]`: a
    /// `UDP_GRO` run of datagrams of the segment size (the last may be
    /// shorter), or one datagram, whose segment size is its length. A
    /// length of 0 marks a slot to skip: an unknown source, or a message
    /// longer than its slot (`MSG_TRUNC`, counted in `net.rx_truncated`;
    /// the length the kernel reports is the part it copied). Returns the
    /// number of filled slots.
    pub(crate) fn recv_from_batch(
        socket: &UdpSocket,
        timeout: Duration,
        slots: &mut [Vec<u8>],
        meta: &mut Vec<(usize, SocketAddr, usize)>,
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
        let (mut addrs, mut iovecs, mut cmsgs, mut hdrs) =
            (scratch::<SockAddrStorage>(), scratch(), scratch::<GroCmsg>(), scratch());
        for (i, slot) in slots[..n].iter_mut().enumerate() {
            let iov = iovecs[i].write(IoVec { base: slot.as_mut_ptr(), len: slot.len() });
            let namelen = std::mem::size_of::<SockAddrStorage>() as u32;
            let mut hdr = MMsgHdr::new(addrs[i].as_mut_ptr(), namelen, iov, 1);
            hdr.hdr.control = cmsgs[i].as_mut_ptr().cast();
            hdr.hdr.controllen = std::mem::size_of::<GroCmsg>();
            hdrs[i].write(hdr);
        }
        let hdrs = hdrs.as_mut_ptr().cast::<MMsgHdr>();
        super::count_syscalls(1);
        // SAFETY: the first `n` entries of `hdrs` were written above (the
        // kernel touches no others); their iovs point into distinct
        // `slots` buffers, their names at distinct `addrs` entries and
        // their controls at distinct `cmsgs` entries of the stated
        // length, all outliving the call. MSG_DONTWAIT keeps the call
        // from blocking regardless of the socket's mode.
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
        for (i, (addr, cmsg)) in addrs[..got].iter().zip(&cmsgs).enumerate() {
            // SAFETY: `i < got <= n`, so `hdrs[i]` was written above; the
            // kernel set its `len`, `namelen`, `controllen` and `flags`,
            // wrote the first `namelen` bytes of `addr` (capped at its
            // size: a longer name is truncated, never overrun) and the
            // first `controllen` bytes of `cmsg`, which are read only when
            // they cover the whole segment size.
            let (len, flags, name, gro) = unsafe {
                let hdr = &*hdrs.add(i);
                let namelen = (hdr.hdr.namelen as usize).min(std::mem::size_of_val(addr));
                let name = std::slice::from_raw_parts(addr.as_ptr().cast::<u8>(), namelen);
                let whole = hdr.hdr.controllen >= GroCmsg::LEN && hdr.hdr.flags & MSG_CTRUNC == 0;
                let gro = if whole { Some(cmsg.assume_init_ref()) } else { None };
                (hdr.len as usize, hdr.hdr.flags, name, gro)
            };
            let segment = match gro {
                Some(c) if c.level == SOL_UDP && c.ty == UDP_GRO && c.size > 0 => c.size as usize,
                _ => len,
            };
            let truncated = flags & MSG_TRUNC != 0;
            if truncated {
                crate::metrics::metrics().rx_truncated.inc();
            }
            match decode_addr(name) {
                Some(addr) if !truncated => meta.push((len, addr, segment)),
                _ => meta.push((0, SocketAddr::from(([0, 0, 0, 0], 0)), 0)),
            }
        }
        Ok(got)
    }
}

/// The portable fallback: the same five entry points over plain
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

    /// `std` has no control messages, so no socket coalesces.
    pub(crate) fn probe_segmentation(_socket: &UdpSocket) -> bool {
        false
    }

    /// Nor does any receive a coalesced run.
    pub(crate) fn enable_gro(_socket: &UdpSocket) -> bool {
        false
    }

    /// One message per datagram. A connected socket sends with `send`:
    /// the BSDs and macOS refuse `sendto` with an address on one
    /// (`EISCONN`), Linux ignores it.
    pub(crate) fn send_to_batch(
        socket: &UdpSocket,
        msgs: &[(SocketAddr, Vec<u8>)],
        connected: bool,
        _segment: &mut bool,
    ) -> io::Result<(usize, u64)> {
        let (mut sent, mut sent_bytes) = (0usize, 0u64);
        for (to, bytes) in msgs {
            super::count_syscalls(1);
            let result = if connected { socket.send(bytes) } else { socket.send_to(bytes, to) };
            match result {
                Ok(_) => {
                    sent += 1;
                    sent_bytes += bytes.len() as u64;
                    crate::metrics::metrics().tx_messages.inc();
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
        meta: &mut Vec<(usize, SocketAddr, usize)>,
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
                // `std` reports the copied length and no flags, so a
                // datagram longer than its slot arrives cut short.
                Ok((len, addr)) => {
                    meta.push((len, addr, len));
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
        let mut segment = probe_segmentation(&tx);
        assert_eq!(send_to_batch(&tx, &msgs, false, &mut segment).unwrap(), (10, wire_bytes));

        let mut slots: Vec<Vec<u8>> = (0..16).map(|_| vec![0u8; 2048]).collect();
        let mut meta = Vec::new();
        let mut seen = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while seen.len() < 10 && std::time::Instant::now() < deadline {
            let got =
                recv_from_batch(&rx, Duration::from_millis(200), &mut slots, &mut meta).unwrap();
            for i in 0..got {
                let (len, from, _) = meta[i];
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
        let mut segment = probe_segmentation(&tx);
        assert_eq!(send_to_batch(&tx, &msgs, true, &mut segment).unwrap(), (1, 11));

        let mut slots: Vec<Vec<u8>> = vec![vec![0u8; 64]];
        let mut meta = Vec::new();
        let got = recv_from_batch(&rx, Duration::from_secs(5), &mut slots, &mut meta).unwrap();
        assert_eq!(got, 1);
        assert_eq!(meta[0], (11, tx.local_addr().unwrap(), 11));
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

    // Segmentation offload. Each `gso_*` test checks that every datagram
    // arrives byte-identical and in order per destination, and prints
    // whether this kernel coalesced or fell back (CI runs them with
    // `--nocapture`).

    fn loopback() -> SocketAddr {
        SocketAddr::from(([127, 0, 0, 1], 0))
    }

    /// A receiving socket with room for a whole batch of 1 KiB datagrams.
    fn receiver() -> UdpSocket {
        let rx = bind_group(loopback(), 1).unwrap().remove(0);
        set_recv_buffer(&rx, 1 << 20).unwrap();
        rx
    }

    /// `len` bytes that differ from datagram `i`'s for every other `i` below 256.
    fn datagram(i: usize, len: usize) -> Vec<u8> {
        (0..len).map(|j| (i * 31 + j) as u8).collect()
    }

    fn payloads<'a>(msgs: impl IntoIterator<Item = &'a (SocketAddr, Vec<u8>)>) -> Vec<Vec<u8>> {
        msgs.into_iter().map(|(_, bytes)| bytes.clone()).collect()
    }

    /// The first `n` datagrams to reach `rx`, in arrival order.
    fn receive(rx: &UdpSocket, n: usize) -> Vec<Vec<u8>> {
        let mut slots: Vec<Vec<u8>> = (0..MAX_BATCH).map(|_| vec![0u8; 2048]).collect();
        let (mut meta, mut seen) = (Vec::new(), Vec::new());
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while seen.len() < n && std::time::Instant::now() < deadline {
            let got =
                recv_from_batch(rx, Duration::from_millis(200), &mut slots, &mut meta).unwrap();
            seen.extend(
                meta[..got].iter().zip(&slots).map(|(&(len, _, _), slot)| slot[..len].to_vec()),
            );
        }
        seen
    }

    /// The messages `send_to_batch` makes of `msgs` while it coalesces.
    #[cfg(all(target_os = "linux", not(nc_portable_io)))]
    fn runs(msgs: &[(SocketAddr, Vec<u8>)], connected: bool) -> usize {
        let runs_in = |chunk: &[(SocketAddr, Vec<u8>)]| {
            let (mut runs, mut start) = (0, 0);
            while start < chunk.len() {
                start += linux::run_length(&chunk[start..], connected);
                runs += 1;
            }
            runs
        };
        msgs.chunks(MAX_BATCH).map(runs_in).sum()
    }

    #[cfg(any(not(target_os = "linux"), nc_portable_io))]
    fn runs(msgs: &[(SocketAddr, Vec<u8>)], _connected: bool) -> usize {
        msgs.len()
    }

    /// Sends `msgs` through a freshly probed `tx`, checks that the return
    /// value sums the datagrams, and prints how the kernel took them.
    /// Returns the messages they went out in.
    fn send_and_report(
        test: &str,
        tx: &UdpSocket,
        msgs: &[(SocketAddr, Vec<u8>)],
        connected: bool,
    ) -> usize {
        let mut segment = probe_segmentation(tx);
        let probed = segment;
        let bytes = msgs.iter().map(|(_, bytes)| bytes.len() as u64).sum();
        assert_eq!(send_to_batch(tx, msgs, connected, &mut segment).unwrap(), (msgs.len(), bytes));
        let messages = if segment { runs(msgs, connected) } else { msgs.len() };
        let how = match (probed, segment) {
            (true, true) => "UDP_SEGMENT accepted",
            (true, false) => "UDP_SEGMENT refused, fell back",
            (false, _) => "no UDP_SEGMENT on this path",
        };
        println!("{test}: {} datagrams -> {messages} messages ({how})", msgs.len());
        messages
    }

    /// `coalesced` messages where this path offers `UDP_SEGMENT`, else
    /// one per datagram.
    fn expected_messages(tx: &UdpSocket, coalesced: usize, datagrams: usize) -> usize {
        if probe_segmentation(tx) {
            coalesced
        } else {
            datagrams
        }
    }

    #[test]
    fn gso_splits_a_full_batch_at_the_ipv4_limit() {
        let (rx, tx) = (receiver(), UdpSocket::bind(loopback()).unwrap());
        let to = rx.local_addr().unwrap();
        // 64 x 1068 B is 68 352 B: 61 datagrams fit under 65 507, 3 follow.
        let msgs: Vec<_> = (0..MAX_BATCH).map(|i| (to, datagram(i, 1068))).collect();
        let test = "gso_splits_a_full_batch_at_the_ipv4_limit";
        assert_eq!(send_and_report(test, &tx, &msgs, false), expected_messages(&tx, 2, MAX_BATCH));
        assert_eq!(receive(&rx, msgs.len()), payloads(&msgs));
    }

    #[test]
    fn gso_run_may_end_with_one_shorter_datagram() {
        let (rx, tx) = (receiver(), UdpSocket::bind(loopback()).unwrap());
        let to = rx.local_addr().unwrap();
        // [4 x 500, 200] [3 x 500, 200] [100]: one shorter datagram ends
        // a run, a second starts the next.
        let lens = [500, 500, 500, 500, 200, 500, 500, 500, 200, 100];
        let msgs: Vec<_> =
            lens.iter().enumerate().map(|(i, &len)| (to, datagram(i, len))).collect();
        let test = "gso_run_may_end_with_one_shorter_datagram";
        assert_eq!(send_and_report(test, &tx, &msgs, false), expected_messages(&tx, 3, lens.len()));
        assert_eq!(receive(&rx, msgs.len()), payloads(&msgs));
    }

    #[test]
    fn gso_runs_break_where_the_destination_changes() {
        let (a, b, tx) = (receiver(), receiver(), UdpSocket::bind(loopback()).unwrap());
        let (to_a, to_b) = (a.local_addr().unwrap(), b.local_addr().unwrap());
        let msgs: Vec<_> = [to_a, to_a, to_b, to_a, to_a]
            .iter()
            .enumerate()
            .map(|(i, &to)| (to, datagram(i, 300)))
            .collect();
        let test = "gso_runs_break_where_the_destination_changes";
        assert_eq!(send_and_report(test, &tx, &msgs, false), expected_messages(&tx, 3, msgs.len()));
        let to = |addr| payloads(msgs.iter().filter(|(to, _)| *to == addr));
        assert_eq!(receive(&a, 4), to(to_a));
        assert_eq!(receive(&b, 1), to(to_b));
    }

    #[test]
    fn gso_a_connected_socket_runs_across_queued_addresses() {
        let (rx, tx) = (receiver(), UdpSocket::bind(loopback()).unwrap());
        tx.connect(rx.local_addr().unwrap()).unwrap();
        let elsewhere = SocketAddr::from(([127, 0, 0, 1], 9));
        let msgs: Vec<_> = (0..8)
            .map(|i| {
                (if i % 2 == 0 { elsewhere } else { rx.local_addr().unwrap() }, datagram(i, 700))
            })
            .collect();
        let test = "gso_a_connected_socket_runs_across_queued_addresses";
        assert_eq!(send_and_report(test, &tx, &msgs, true), expected_messages(&tx, 1, msgs.len()));
        assert_eq!(receive(&rx, msgs.len()), payloads(&msgs));
    }

    #[test]
    fn gso_runs_of_one_go_out_plainly() {
        let (rx, tx) = (receiver(), UdpSocket::bind(loopback()).unwrap());
        let to = rx.local_addr().unwrap();
        let test = "gso_runs_of_one_go_out_plainly";
        // A lone datagram, then lengths that only grow: no run forms.
        let lone = vec![(to, datagram(0, 1068))];
        assert_eq!(send_and_report(test, &tx, &lone, false), 1);
        let growing: Vec<_> = (1..4).map(|i| (to, datagram(i, 100 * i))).collect();
        assert_eq!(send_and_report(test, &tx, &growing, false), growing.len());
        assert_eq!(receive(&rx, 4), payloads(lone.iter().chain(&growing)));
    }

    #[cfg(all(target_os = "linux", not(nc_portable_io)))]
    #[test]
    fn gso_refusal_falls_back_once_per_socket() {
        let (rx, tx) = (receiver(), UdpSocket::bind(loopback()).unwrap());
        // Without UDP checksums the kernel refuses every coalesced send
        // (`EINVAL`) and takes single datagrams.
        linux::disable_udp_checksums(&tx);
        let to = rx.local_addr().unwrap();
        let msgs: Vec<_> = (0..16).map(|i| (to, datagram(i, 1068))).collect();
        let bytes = msgs.iter().map(|(_, bytes)| bytes.len() as u64).sum();
        let refused = &crate::metrics::metrics().tx_gso_refused;
        let before = refused.get();
        let mut segment = probe_segmentation(&tx);
        let probed = segment;
        for flush in 0..2 {
            assert_eq!(send_to_batch(&tx, &msgs, false, &mut segment).unwrap(), (16, bytes));
            assert!(!segment, "flush {flush}: coalescing stays off");
            // A second attempt would be refused again.
            assert_eq!(refused.get() - before, u64::from(probed), "flush {flush}");
            assert_eq!(receive(&rx, msgs.len()), payloads(&msgs), "flush {flush}");
        }
        let how = if probed {
            "refused once, then one datagram per message"
        } else {
            "no UDP_SEGMENT on this kernel"
        };
        println!("gso_refusal_falls_back_once_per_socket: 2 x 16 datagrams ({how})");
    }

    // Receive offload. Each `gro_*` test sends a burst through a probed
    // socket into a `BatchSocket`, checks that every datagram it delivers
    // is byte-identical and in order, and prints how many messages carried
    // them (CI runs them with `--nocapture`).

    use crate::channel::BatchSocket;

    /// A `BatchSocket` delivering datagrams of up to `slot_bytes`, with
    /// room for a whole batch of 1 KiB datagrams in its receive buffer.
    fn gro_receiver(slot_bytes: usize) -> BatchSocket {
        let rx = BatchSocket::bind(loopback(), slot_bytes).unwrap();
        rx.set_recv_buffer(1 << 20).unwrap();
        rx
    }

    /// Receives until `n` datagrams, delivered or skipped, have reached
    /// `rx`. Returns the messages they came in and the delivered ones in
    /// arrival order.
    fn receive_runs(rx: &mut BatchSocket, n: usize) -> (usize, Vec<Vec<u8>>) {
        let (mut messages, mut datagrams, mut seen) = (0, 0, Vec::new());
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while datagrams < n && std::time::Instant::now() < deadline {
            let (got, split) = rx
                .recv_up_to(MAX_BATCH, Duration::from_millis(200), |_, bytes| {
                    seen.push(bytes.to_vec());
                })
                .unwrap();
            messages += got;
            datagrams += split;
        }
        (messages, seen)
    }

    /// Sends `msgs` through `tx`, receives them at `rx` and prints how
    /// many messages carried them. Returns the messages and the delivered
    /// datagrams, as [`receive_runs`].
    fn send_and_receive_runs(
        test: &str,
        tx: &UdpSocket,
        rx: &mut BatchSocket,
        msgs: &[(SocketAddr, Vec<u8>)],
    ) -> (usize, Vec<Vec<u8>>) {
        let mut segment = probe_segmentation(tx);
        let bytes = msgs.iter().map(|(_, bytes)| bytes.len() as u64).sum();
        assert_eq!(send_to_batch(tx, msgs, false, &mut segment).unwrap(), (msgs.len(), bytes));
        let (messages, seen) = receive_runs(rx, msgs.len());
        let how = match (gro_offered(), segment) {
            (true, true) => "UDP_GRO on",
            (true, false) => "UDP_GRO on, no UDP_SEGMENT on this path",
            (false, _) => "no UDP_GRO on this path",
        };
        println!("{test}: {} datagrams -> {messages} messages ({how})", msgs.len());
        (messages, seen)
    }

    /// Whether a fresh socket on this path takes `UDP_GRO`.
    fn gro_offered() -> bool {
        enable_gro(&UdpSocket::bind(loopback()).unwrap())
    }

    /// `coalesced` messages where this path offers both `UDP_SEGMENT` and
    /// `UDP_GRO`, else one per datagram.
    fn expected_runs(tx: &UdpSocket, coalesced: usize, datagrams: usize) -> usize {
        if gro_offered() {
            expected_messages(tx, coalesced, datagrams)
        } else {
            datagrams
        }
    }

    #[test]
    fn gro_a_full_batch_arrives_as_two_messages() {
        let (mut rx, tx) = (gro_receiver(2048), UdpSocket::bind(loopback()).unwrap());
        let to = rx.local_addr().unwrap();
        // Two `UDP_SEGMENT` runs of 61 and 3 (see
        // `gso_splits_a_full_batch_at_the_ipv4_limit`), each one message.
        let msgs: Vec<_> = (0..MAX_BATCH).map(|i| (to, datagram(i, 1068))).collect();
        let test = "gro_a_full_batch_arrives_as_two_messages";
        let (messages, seen) = send_and_receive_runs(test, &tx, &mut rx, &msgs);
        assert_eq!(seen, payloads(&msgs));
        assert_eq!(messages, expected_runs(&tx, 2, MAX_BATCH));
    }

    #[test]
    fn gro_splits_mixed_lengths_and_short_tails() {
        let (mut rx, tx) = (gro_receiver(2048), UdpSocket::bind(loopback()).unwrap());
        let to = rx.local_addr().unwrap();
        // [4 x 500, 200] [3 x 500, 200] [100]: each run's last segment is
        // shorter than its segment size, and a lone datagram is its own.
        let lens = [500, 500, 500, 500, 200, 500, 500, 500, 200, 100];
        let msgs: Vec<_> =
            lens.iter().enumerate().map(|(i, &len)| (to, datagram(i, len))).collect();
        let test = "gro_splits_mixed_lengths_and_short_tails";
        let (messages, seen) = send_and_receive_runs(test, &tx, &mut rx, &msgs);
        assert_eq!(seen, payloads(&msgs));
        assert_eq!(messages, expected_runs(&tx, 3, lens.len()));
    }

    #[test]
    fn gro_skips_and_counts_segments_longer_than_the_slot() {
        let truncated = &crate::metrics::metrics().rx_truncated;
        let before = truncated.get();
        let (mut rx, tx) = (gro_receiver(600), UdpSocket::bind(loopback()).unwrap());
        let to = rx.local_addr().unwrap();
        // One run of segment size 1000: three segments too long for a
        // 600-byte datagram, and a 300-byte tail that fits.
        let lens = [1000, 1000, 1000, 300];
        let msgs: Vec<_> =
            lens.iter().enumerate().map(|(i, &len)| (to, datagram(i, len))).collect();
        let test = "gro_skips_and_counts_segments_longer_than_the_slot";
        let (messages, seen) = send_and_receive_runs(test, &tx, &mut rx, &msgs);
        assert_eq!(messages, expected_runs(&tx, 1, lens.len()));
        if batched() {
            assert_eq!(seen, payloads(&msgs[3..]), "a datagram longer than the cap is skipped");
            // Other tests may count truncations meanwhile, never fewer.
            assert!(truncated.get() - before >= 3, "and counted");
        } else {
            // `std` cannot see truncation: each arrives cut to the slot.
            let mut cut = payloads(&msgs);
            cut[..3].iter_mut().for_each(|bytes| bytes.truncate(600));
            assert_eq!(seen, cut);
        }
    }

    #[cfg(all(target_os = "linux", not(nc_portable_io)))]
    #[test]
    fn gro_off_means_one_message_per_datagram() {
        let socket = bind_group(loopback(), 1).unwrap().remove(0);
        let handle = socket.try_clone().unwrap();
        let mut rx = BatchSocket::from_socket(socket, 2048);
        rx.set_recv_buffer(1 << 20).unwrap();
        // The option belongs to the socket, not the descriptor.
        linux::disable_gro(&handle);
        let tx = UdpSocket::bind(loopback()).unwrap();
        let to = rx.local_addr().unwrap();
        let msgs: Vec<_> = (0..MAX_BATCH).map(|i| (to, datagram(i, 1068))).collect();
        let test = "gro_off_means_one_message_per_datagram";
        let mut segment = probe_segmentation(&tx);
        send_to_batch(&tx, &msgs, false, &mut segment).unwrap();
        let (messages, seen) = receive_runs(&mut rx, msgs.len());
        println!("{test}: {} datagrams -> {messages} messages (UDP_GRO cleared)", msgs.len());
        assert_eq!(seen, payloads(&msgs));
        assert_eq!(messages, MAX_BATCH);
    }
}
