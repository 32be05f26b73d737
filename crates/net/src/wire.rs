//! The versioned datagram codec.
//!
//! Every datagram on the wire is one header plus one typed payload:
//!
//! ```text
//! offset  size  field
//!      0     4  magic  = b"NCNC"
//!      4     1  version = 2 (1 still accepted on decode)
//!      5     1  kind    (Request/Announce/Data/Ack/Fin)
//!      6     2  flags   (LE, reserved, must decode even if non-zero)
//!      8     8  session id (LE)
//!     16     4  CRC-32 over header[0..16] ++ payload (LE)
//!     20     …  payload (layout per kind)
//! ```
//!
//! Version history: v1 announces carried only the stream shape (20 bytes)
//! and implied dense RLNC; v2 appends one codec-id byte ([`CodecId`]) so
//! the coding backend is negotiated per stream. Decode accepts both — a
//! v1 announce maps to [`CodecId::DenseRlnc`] — but always encodes v2.
//! An announce whose codec byte this build does not know is rejected with
//! [`WireError::UnknownCodec`], never a panic.
//!
//! One parser ([`DatagramRef::parse`], borrowing; [`Datagram::decode`] is
//! it plus a copy) and one header writer serve every kind; the checksum is
//! a CRC-32 folded 64 bytes per step with carry-less multiplies on x86-64
//! hosts with PCLMULQDQ, and table-sliced sixteen bytes per step on short
//! inputs and every other host.
//!
//! Decoding is total: any byte string — truncated, bit-flipped, alien
//! protocol, hostile lengths — returns a [`WireError`], never panics, and
//! never yields a datagram whose bytes were corrupted (the checksum covers
//! header and payload).

use core::fmt;
use nc_rlnc::codec::CodecId;

/// First bytes of every datagram.
pub(crate) const MAGIC: [u8; 4] = *b"NCNC";
/// Current protocol version (always emitted; see `OLDEST_VERSION`).
pub(crate) const VERSION: u8 = 2;
/// Oldest version still accepted on decode (v1 = pre-codec-negotiation;
/// its announces imply dense RLNC).
pub(crate) const OLDEST_VERSION: u8 = 1;
/// Header bytes before the payload.
pub const HEADER_BYTES: usize = 20;
/// Largest datagram this transport will emit (UDP/IPv4 payload ceiling).
pub(crate) const MAX_DATAGRAM_BYTES: usize = 65_507;
/// Sanity cap on advertised stream shape (segments and blocks), so one
/// hostile announce cannot trigger a giant allocation.
pub(crate) const MAX_SEGMENTS: usize = 1 << 20;
/// Sanity cap on `n` (blocks per generation) in an announce.
pub(crate) const MAX_BLOCKS: usize = 1 << 14;
/// Sanity cap on `k` (block size) in an announce.
pub(crate) const MAX_BLOCK_SIZE: usize = 1 << 16;

/// Wire size of an ACK datagram for a stream of `segments` segments — the
/// largest receiver→sender datagram (header, received/innovative counters,
/// and the completion bitmap with its length prefix). A server that only
/// receives feedback sizes its batched receive slots from this instead of
/// [`MAX_DATAGRAM_BYTES`], shrinking per-socket slot memory ~300x.
pub(crate) const fn ack_wire_bytes(segments: usize) -> usize {
    HEADER_BYTES + 8 + 8 + 4 + segments.div_ceil(8)
}

/// Errors from datagram encoding/decoding.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// Fewer bytes than one header.
    TooShort {
        /// Bytes actually present.
        actual: usize,
    },
    /// The first four bytes are not `MAGIC` — an alien datagram.
    BadMagic,
    /// Unsupported protocol version.
    BadVersion {
        /// Version byte found on the wire.
        found: u8,
    },
    /// Unknown datagram kind byte.
    UnknownKind {
        /// Kind byte found on the wire.
        found: u8,
    },
    /// The CRC-32 does not match — the datagram was corrupted in flight.
    ChecksumMismatch,
    /// The payload does not parse under its kind's layout.
    MalformedPayload {
        /// Which kind failed to parse.
        kind: &'static str,
    },
    /// An encode would exceed `MAX_DATAGRAM_BYTES`.
    TooLarge {
        /// Bytes the encode would need.
        needed: usize,
    },
    /// An announce advertises a stream shape beyond the sanity caps.
    LimitExceeded {
        /// Which advertised field is out of range.
        field: &'static str,
    },
    /// An announce names a coding backend this build does not implement.
    /// Distinct from [`WireError::MalformedPayload`] so drivers can log a
    /// "peer is newer than me" hint instead of a generic parse failure.
    UnknownCodec {
        /// Codec-id byte found on the wire.
        found: u8,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::TooShort { actual } => {
                write!(f, "datagram too short: {actual} bytes, header needs {HEADER_BYTES}")
            }
            WireError::BadMagic => write!(f, "bad magic: not an nc-net datagram"),
            WireError::BadVersion { found } => {
                write!(f, "unsupported protocol version {found} (want {VERSION})")
            }
            WireError::UnknownKind { found } => write!(f, "unknown datagram kind {found}"),
            WireError::ChecksumMismatch => write!(f, "checksum mismatch: datagram corrupted"),
            WireError::MalformedPayload { kind } => write!(f, "malformed {kind} payload"),
            WireError::TooLarge { needed } => {
                write!(f, "datagram would need {needed} bytes (max {MAX_DATAGRAM_BYTES})")
            }
            WireError::LimitExceeded { field } => {
                write!(f, "announced {field} exceeds the sanity cap")
            }
            WireError::UnknownCodec { found } => {
                write!(f, "announce names unknown codec id {found}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) slice-by-16
/// tables, built at compile time. `CRC_TABLES[0]` is the classic bytewise
/// table; `CRC_TABLES[j][b]` is the register after byte `b` followed by `j`
/// zero bytes, which is what lets sixteen input bytes fold in one step.
static CRC_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut j = 1;
    while j < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[j - 1][i];
            tables[j][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    tables
};

/// The CRC contribution of one little-endian word of a 16-byte block whose
/// last byte is followed by `tail` more bytes of that block.
#[inline(always)]
fn crc32_fold_word(word: u32, tail: usize) -> u32 {
    CRC_TABLES[tail + 3][(word & 0xFF) as usize]
        ^ CRC_TABLES[tail + 2][((word >> 8) & 0xFF) as usize]
        ^ CRC_TABLES[tail + 1][((word >> 16) & 0xFF) as usize]
        ^ CRC_TABLES[tail][(word >> 24) as usize]
}

/// Streaming CRC-32 update over one chunk (state is the raw register; start
/// from `0xFFFF_FFFF`, finish by inverting) — the one CRC entry point. A
/// chunk of at least 64 bytes on a host with PCLMULQDQ is folded with
/// carry-less multiplies; anything else runs the slice-by-16 body.
fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= clmul::FOLD_MIN_BYTES {
        if let Some(register) = clmul::crc32(state, bytes) {
            return register;
        }
    }
    crc32_sliced(state, bytes)
}

/// The CRC-32 folded with carry-less multiplies (Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction", Intel
/// 2009; the construction zlib and crc32fast use).
///
/// The CRC is the message polynomial times `x^32` mod `P`, so 128 message
/// bits followed by `d` more can be replaced by their two 64-bit halves
/// times `x^(d+32) mod P` and `x^(d-32) mod P`, added onto the bits `d`
/// further on: one PCLMULQDQ per half. Four lanes fold 64 bytes per step
/// (`d` = 512), then collapse into one that folds 16 bytes per step
/// (`d` = 128); what is left is reduced to 64 bits and then, with one
/// Barrett step, to the 32-bit register. The CRC is bit-reflected, so every
/// constant is too: `x^k mod P` bit-reversed over 33 bits (the module tests
/// derive each one from the polynomial).
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod clmul {
    use std::arch::x86_64::*;
    use std::sync::OnceLock;

    /// Shortest chunk the fold takes: its four 16-byte lanes.
    pub(super) const FOLD_MIN_BYTES: usize = 64;

    /// `x^(4·128+32) mod P`: folds a lane's low (earlier) half 512 bits on.
    pub(super) const K1: i64 = 0x1_5444_2BD4;
    /// `x^(4·128-32) mod P`: folds a lane's high half 512 bits on.
    pub(super) const K2: i64 = 0x1_C6E4_1596;
    /// `x^(128+32) mod P`: the low half, 128 bits on.
    pub(super) const K3: i64 = 0x1_7519_97D0;
    /// `x^(128-32) mod P`: the high half, 128 bits on; also 128 → 96 bits.
    pub(super) const K4: i64 = 0x0_CCAA_009E;
    /// `x^64 mod P`: 96 → 64 bits.
    pub(super) const K5: i64 = 0x1_63CD_6124;
    /// `P` itself, 33 bits.
    pub(super) const P_X: i64 = 0x1_DB71_0641;
    /// Barrett's `μ = ⌊x^64 / P⌋`, 33 bits.
    pub(super) const MU: i64 = 0x1_F701_1641;

    /// Whether this host has `pclmulqdq` and `sse4.1`, detected once and
    /// published as the `net.crc_kernel` gauge: 1 = this fold runs. The
    /// gauge stays 0 (slice-by-16) where it does not, and on other hosts.
    pub(super) fn available() -> bool {
        static AVAILABLE: OnceLock<bool> = OnceLock::new();
        *AVAILABLE.get_or_init(|| {
            let available =
                is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1");
            crate::metrics::metrics().crc_kernel.set(f64::from(u8::from(available)));
            available
        })
    }

    /// The register after `bytes` by [`crc32_fold`], or `None` where the
    /// host cannot fold.
    #[inline]
    pub(super) fn crc32(state: u32, bytes: &[u8]) -> Option<u32> {
        // SAFETY: `available` detected pclmulqdq and sse4.1 on this host.
        available().then(|| unsafe { crc32_fold(state, bytes) })
    }

    /// One 16-byte chunk as a vector, first byte in the low lane.
    #[inline]
    #[target_feature(enable = "sse4.1")]
    fn load(chunk: &[u8]) -> __m128i {
        let chunk: &[u8; 16] = chunk.try_into().expect("a 16-byte chunk");
        // SAFETY: `chunk` is 16 readable bytes; `loadu` takes any alignment.
        unsafe { _mm_loadu_si128(chunk.as_ptr().cast()) }
    }

    /// `acc` carried 128 bits (or 512, by `keys`) further on and added to
    /// `next`: its low half times `keys`' low constant, its high half times
    /// the high one.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, keys);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, keys);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// The register after `bytes`, starting from `state` (as
    /// [`super::crc32_update`]); the sub-16-byte tail, and a chunk shorter
    /// than [`FOLD_MIN_BYTES`], go through [`super::crc32_sliced`].
    ///
    /// # Safety
    ///
    /// The host must support `pclmulqdq` and `sse4.1`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    unsafe fn crc32_fold(state: u32, bytes: &[u8]) -> u32 {
        if bytes.len() < FOLD_MIN_BYTES {
            return super::crc32_sliced(state, bytes);
        }
        let (head, rest) = bytes.split_at(FOLD_MIN_BYTES);
        // The register joins the first 32 message bits (reflected: the
        // low lane's low word), as the byte loop would xor it in.
        let mut x0 = _mm_xor_si128(load(&head[0..16]), _mm_cvtsi32_si128(state as i32));
        let mut x1 = load(&head[16..32]);
        let mut x2 = load(&head[32..48]);
        let mut x3 = load(&head[48..64]);
        let k1k2 = _mm_set_epi64x(K2, K1);
        let mut steps = rest.chunks_exact(FOLD_MIN_BYTES);
        for step in &mut steps {
            x0 = fold(x0, load(&step[0..16]), k1k2);
            x1 = fold(x1, load(&step[16..32]), k1k2);
            x2 = fold(x2, load(&step[32..48]), k1k2);
            x3 = fold(x3, load(&step[48..64]), k1k2);
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold(fold(fold(x0, x1, k3k4), x2, k3k4), x3, k3k4);
        let mut blocks = steps.remainder().chunks_exact(16);
        for block in &mut blocks {
            x = fold(x, load(block), k3k4);
        }
        // 128 → 96 bits: the low half times x^96 onto the high half.
        let x = _mm_xor_si128(_mm_clmulepi64_si128::<0x10>(x, k3k4), _mm_srli_si128::<8>(x));
        // 96 → 64 bits: the low word times x^64 onto the rest.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(x),
        );
        // Barrett: T1 = (R mod x^32)·μ, T2 = (T1 mod x^32)·P; reflected,
        // the remainder R - T2 sits in the second word.
        let mu_p = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), mu_p);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), mu_p);
        let register = _mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32;
        super::crc32_sliced(register, blocks.remainder())
    }
}

/// The portable CRC-32 body: sixteen bytes per step, the sub-block tail a
/// byte at a time.
fn crc32_sliced(mut state: u32, bytes: &[u8]) -> u32 {
    let mut blocks = bytes.chunks_exact(16);
    for block in &mut blocks {
        let word = |at: usize| {
            u32::from_le_bytes([block[at], block[at + 1], block[at + 2], block[at + 3]])
        };
        state = crc32_fold_word(word(0) ^ state, 12)
            ^ crc32_fold_word(word(4), 8)
            ^ crc32_fold_word(word(8), 4)
            ^ crc32_fold_word(word(12), 0);
    }
    for &b in blocks.remainder() {
        state = (state >> 8) ^ CRC_TABLES[0][((state ^ b as u32) & 0xFF) as usize];
    }
    state
}

/// CRC-32 over the header's checksummed prefix plus the payload.
fn datagram_crc(header_prefix: &[u8], payload: &[u8]) -> u32 {
    !crc32_update(crc32_update(0xFFFF_FFFF, header_prefix), payload)
}

/// Writes the header in front of a payload already sitting at
/// `datagram[HEADER_BYTES..]`, checksum last: the one place a datagram's
/// first twenty bytes are produced.
fn seal(datagram: &mut [u8], kind: u8, session: u64) {
    let (header, payload) = datagram.split_at_mut(HEADER_BYTES);
    header[0..4].copy_from_slice(&MAGIC);
    header[4] = VERSION;
    header[5] = kind;
    header[6..8].copy_from_slice(&0u16.to_le_bytes()); // flags (reserved)
    header[8..16].copy_from_slice(&session.to_le_bytes());
    let crc = datagram_crc(&header[0..16], payload);
    header[16..20].copy_from_slice(&crc.to_le_bytes());
}

/// Completes a data datagram whose coded frame was written in place at
/// `datagram[HEADER_BYTES..]` (the sender session's encode-in-place path):
/// byte-identical to `Datagram::new(session, Payload::Data(frame)).encode()`.
///
/// # Panics
///
/// Panics if `datagram` is shorter than a header.
pub(crate) fn seal_data(datagram: &mut [u8], session: u64) {
    seal(datagram, KIND_DATA, session);
}

/// The stream shape an [`Payload::Announce`] advertises.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct StreamMeta {
    /// Blocks per generation (`n`).
    pub(crate) blocks: u32,
    /// Block size in bytes (`k`).
    pub(crate) block_size: u32,
    /// Number of segments in the stream.
    pub(crate) total_segments: u32,
    /// Unpadded byte length of the stream.
    pub(crate) original_len: u64,
    /// Coding backend the sender will frame data with (one byte on the
    /// wire; absent in v1 announces, which imply dense RLNC).
    pub(crate) codec: CodecId,
}

impl StreamMeta {
    /// Validates the advertised shape against the sanity caps (so a
    /// receiver never allocates decoder state for a hostile announce), and
    /// the segment count against the length: it must be exactly the
    /// `ceil(original_len / (blocks × block_size))` segments the stream
    /// fills, so the buffer a receiver reserves for the stream is its
    /// length plus less than one segment of padding.
    ///
    /// # Errors
    ///
    /// [`WireError::LimitExceeded`] naming the offending field.
    pub(crate) fn validate(&self) -> Result<(), WireError> {
        if self.blocks == 0 || self.blocks as usize > MAX_BLOCKS {
            return Err(WireError::LimitExceeded { field: "blocks" });
        }
        if self.block_size == 0 || self.block_size as usize > MAX_BLOCK_SIZE {
            return Err(WireError::LimitExceeded { field: "block size" });
        }
        if self.total_segments == 0 || self.total_segments as usize > MAX_SEGMENTS {
            return Err(WireError::LimitExceeded { field: "segment count" });
        }
        let segment_bytes = u64::from(self.blocks) * u64::from(self.block_size);
        if self.original_len == 0
            || self.original_len.div_ceil(segment_bytes) != u64::from(self.total_segments)
        {
            return Err(WireError::LimitExceeded { field: "original length" });
        }
        Ok(())
    }
}

/// A bitmap with one bit per stream segment (set = segment fully decoded).
/// The completion feedback ACK datagrams carry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentBitmap {
    bits: usize,
    bytes: Vec<u8>,
}

impl SegmentBitmap {
    /// An all-clear bitmap for `bits` segments.
    pub fn new(bits: usize) -> SegmentBitmap {
        SegmentBitmap { bits, bytes: vec![0u8; bits.div_ceil(8)] }
    }

    /// Number of segments tracked.
    pub(crate) fn len(&self) -> usize {
        self.bits
    }

    /// Marks segment `i` complete (out-of-range indices are ignored — the
    /// bitmap's shape is fixed by the receiver, not by wire input).
    pub(crate) fn set(&mut self, i: usize) {
        if i < self.bits {
            self.bytes[i / 8] |= 1 << (i % 8);
        }
    }

    /// Whether segment `i` is complete (out-of-range reads as false).
    pub(crate) fn get(&self, i: usize) -> bool {
        i < self.bits && self.bytes[i / 8] & (1 << (i % 8)) != 0
    }

    /// Number of complete segments: a popcount per byte (padding bits
    /// past `len()` are never set — `set` ignores them and the wire form
    /// rejects them).
    pub(crate) fn count_complete(&self) -> usize {
        self.bytes.iter().map(|byte| byte.count_ones() as usize).sum()
    }

    /// Marks complete every segment `other` marks complete, a byte at a
    /// time, and returns the new [`count_complete`](Self::count_complete).
    /// Segments past `len()` are ignored: when `other` is longer, the bits
    /// of the last shared byte beyond `len()` are masked off, so padding
    /// stays clear.
    pub(crate) fn union_with(&mut self, other: &SegmentBitmap) -> usize {
        let shared = self.bytes.len().min(other.bytes.len());
        for (mine, theirs) in self.bytes[..shared].iter_mut().zip(&other.bytes) {
            *mine |= theirs;
        }
        if other.bits > self.bits && !self.bits.is_multiple_of(8) {
            if let Some(last) = self.bytes.last_mut() {
                *last &= (1u8 << (self.bits % 8)) - 1;
            }
        }
        self.count_complete()
    }

    fn to_wire(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.bits as u32).to_le_bytes());
        out.extend_from_slice(&self.bytes);
    }

    fn from_wire(bytes: &[u8]) -> Option<SegmentBitmap> {
        let bits = u32::from_le_bytes(bytes.get(0..4)?.try_into().ok()?) as usize;
        if bits > MAX_SEGMENTS {
            return None;
        }
        let body = bytes.get(4..)?;
        if body.len() != bits.div_ceil(8) {
            return None;
        }
        // Reject set bits in the final byte's padding so equal bitmaps have
        // one wire form.
        if !bits.is_multiple_of(8) {
            let last = *body.last()?;
            if last >> (bits % 8) != 0 {
                return None;
            }
        }
        // lint: allow(vec-capacity) — one small owned bitmap per ACK: one per `ACK_EVERY` data frames plus one per completed segment (the ACK timer stretches to the flow's frame rate), merged into the sender's own bitmap and dropped; data datagrams never come here.
        Some(SegmentBitmap { bits, bytes: body.to_vec() })
    }
}

/// The session id in a datagram's header, unchecked: the session it is
/// routed to parses the rest, checksum included.
pub(crate) fn session_of(bytes: &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(bytes.get(8..16)?.try_into().ok()?))
}

/// Kind byte of a data datagram.
const KIND_DATA: u8 = 3;

/// Typed datagram payloads. `B` is the storage of a data frame: `Vec<u8>`
/// for an owned [`Datagram`], `&[u8]` for a [`DatagramRef`] borrowed from
/// the receive buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Payload<B = Vec<u8>> {
    /// Receiver → sender: start (or keep) serving this session.
    Request,
    /// Sender → receiver: the stream's shape. Sent first and re-sent until
    /// acknowledged by any ACK.
    Announce(StreamMeta),
    /// Sender → receiver: one coded frame in its backend's wire format
    /// (parsed by the receiver's negotiated codec, which knows the
    /// session's [`CodingConfig`](nc_rlnc::CodingConfig)).
    Data(B),
    /// Receiver → sender: completion feedback. `received`/`innovative`
    /// count all data frames so far; the bitmap marks decoded segments.
    Ack {
        /// Data datagrams that arrived intact.
        received: u64,
        /// Frames that increased some decoder's rank.
        innovative: u64,
        /// Per-segment completion.
        completed: SegmentBitmap,
    },
    /// Receiver → sender: the whole stream decoded; stop sending.
    Fin {
        /// Data datagrams that arrived intact.
        received: u64,
        /// Frames that increased some decoder's rank.
        innovative: u64,
    },
}

impl<B> Payload<B> {
    fn kind_byte(&self) -> u8 {
        match self {
            Payload::Request => 1,
            Payload::Announce(_) => 2,
            Payload::Data(_) => KIND_DATA,
            Payload::Ack { .. } => 4,
            Payload::Fin { .. } => 5,
        }
    }
}

/// One datagram: a session id plus a typed payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Datagram<B = Vec<u8>> {
    /// Session the datagram belongs to (chosen by the sender of a stream).
    pub session: u64,
    /// The typed payload.
    pub payload: Payload<B>,
}

/// A datagram parsed without copying: a data frame stays a slice of the
/// bytes it was parsed from (a `recvmmsg` slot), so it reaches the codec
/// receiver with one copy, into the decoder.
pub type DatagramRef<'a> = Datagram<&'a [u8]>;

impl Datagram {
    /// Convenience constructor.
    pub fn new(session: u64, payload: Payload) -> Datagram {
        Datagram { session, payload }
    }

    /// Serializes to wire bytes (header, checksum, payload), each byte
    /// written once into a pooled buffer the transport drivers recycle.
    ///
    /// # Errors
    ///
    /// [`WireError::TooLarge`] if the result would exceed
    /// `MAX_DATAGRAM_BYTES` (the caller's coding config is too big for
    /// one UDP datagram).
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let payload_bytes = match &self.payload {
            Payload::Request => 0,
            Payload::Announce(_) => 21,
            Payload::Data(frame) => frame.len(),
            Payload::Ack { completed, .. } => 16 + 4 + completed.bytes.len(),
            Payload::Fin { .. } => 16,
        };
        let total = HEADER_BYTES + payload_bytes;
        if total > MAX_DATAGRAM_BYTES {
            return Err(WireError::TooLarge { needed: total });
        }
        let mut out = nc_pool::BytesPool::global().take_capacity(total);
        out.resize(HEADER_BYTES, 0); // `seal` fills it in once the payload is behind it
        match &self.payload {
            Payload::Request => {}
            Payload::Announce(meta) => {
                out.extend_from_slice(&meta.blocks.to_le_bytes());
                out.extend_from_slice(&meta.block_size.to_le_bytes());
                out.extend_from_slice(&meta.total_segments.to_le_bytes());
                out.extend_from_slice(&meta.original_len.to_le_bytes());
                out.push(meta.codec.to_wire());
            }
            Payload::Data(frame) => {
                out.extend_from_slice(frame);
                crate::metrics::metrics().tx_bytes_copied.add(frame.len() as u64);
            }
            Payload::Ack { received, innovative, completed } => {
                out.extend_from_slice(&received.to_le_bytes());
                out.extend_from_slice(&innovative.to_le_bytes());
                completed.to_wire(&mut out);
            }
            Payload::Fin { received, innovative } => {
                out.extend_from_slice(&received.to_le_bytes());
                out.extend_from_slice(&innovative.to_le_bytes());
            }
        }
        debug_assert_eq!(out.len(), total);
        seal(&mut out, self.payload.kind_byte(), self.session);
        Ok(out)
    }

    /// Parses wire bytes into an owned datagram: [`DatagramRef::parse`]
    /// then [`DatagramRef::into_owned`].
    ///
    /// # Errors
    ///
    /// As for [`DatagramRef::parse`].
    pub fn decode(bytes: &[u8]) -> Result<Datagram, WireError> {
        DatagramRef::parse(bytes).map(DatagramRef::into_owned)
    }
}

impl<'a> DatagramRef<'a> {
    /// Parses wire bytes — the one parser. Total over arbitrary input:
    /// truncation, foreign magic, unknown kinds/versions, checksum damage,
    /// and malformed payloads each map to a distinct [`WireError`].
    ///
    /// # Errors
    ///
    /// The [`WireError`] naming what is wrong with `bytes`.
    pub fn parse(bytes: &'a [u8]) -> Result<DatagramRef<'a>, WireError> {
        if bytes.len() < HEADER_BYTES {
            return Err(WireError::TooShort { actual: bytes.len() });
        }
        if bytes[0..4] != MAGIC {
            return Err(WireError::BadMagic);
        }
        let version = bytes[4];
        if !(OLDEST_VERSION..=VERSION).contains(&version) {
            return Err(WireError::BadVersion { found: version });
        }
        let kind = bytes[5];
        let session = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
        let stored_crc = u32::from_le_bytes(bytes[16..20].try_into().expect("4 bytes"));
        let payload = &bytes[HEADER_BYTES..];
        if datagram_crc(&bytes[0..16], payload) != stored_crc {
            crate::metrics::metrics().rx_crc_rejected.inc();
            return Err(WireError::ChecksumMismatch);
        }
        let payload = match kind {
            1 => {
                if !payload.is_empty() {
                    return Err(WireError::MalformedPayload { kind: "request" });
                }
                Payload::Request
            }
            2 => {
                // v1 announces predate codec negotiation: 20 bytes, dense
                // RLNC implied. v2 appends the one-byte codec id.
                let codec = match (version, payload.len()) {
                    (1, 20) => CodecId::DenseRlnc,
                    (2, 21) => CodecId::from_wire(payload[20])
                        .ok_or(WireError::UnknownCodec { found: payload[20] })?,
                    _ => return Err(WireError::MalformedPayload { kind: "announce" }),
                };
                Payload::Announce(StreamMeta {
                    blocks: u32::from_le_bytes(payload[0..4].try_into().expect("4 bytes")),
                    block_size: u32::from_le_bytes(payload[4..8].try_into().expect("4 bytes")),
                    total_segments: u32::from_le_bytes(payload[8..12].try_into().expect("4 bytes")),
                    original_len: u64::from_le_bytes(payload[12..20].try_into().expect("8 bytes")),
                    codec,
                })
            }
            KIND_DATA => Payload::Data(payload),
            4 => {
                if payload.len() < 16 {
                    return Err(WireError::MalformedPayload { kind: "ack" });
                }
                let received = u64::from_le_bytes(payload[0..8].try_into().expect("8 bytes"));
                let innovative = u64::from_le_bytes(payload[8..16].try_into().expect("8 bytes"));
                let completed = SegmentBitmap::from_wire(&payload[16..])
                    .ok_or(WireError::MalformedPayload { kind: "ack" })?;
                Payload::Ack { received, innovative, completed }
            }
            5 => {
                if payload.len() != 16 {
                    return Err(WireError::MalformedPayload { kind: "fin" });
                }
                Payload::Fin {
                    received: u64::from_le_bytes(payload[0..8].try_into().expect("8 bytes")),
                    innovative: u64::from_le_bytes(payload[8..16].try_into().expect("8 bytes")),
                }
            }
            other => return Err(WireError::UnknownKind { found: other }),
        };
        Ok(Datagram { session, payload })
    }

    /// The owned form: a data frame is copied out of the parsed bytes,
    /// every other kind is moved as is.
    pub fn into_owned(self) -> Datagram {
        let payload = match self.payload {
            Payload::Request => Payload::Request,
            Payload::Announce(meta) => Payload::Announce(meta),
            // lint: allow(vec-capacity) — the owned form of a data frame is a copy by definition; the receive path parses borrowed and never calls this.
            Payload::Data(frame) => Payload::Data(frame.to_vec()),
            Payload::Ack { received, innovative, completed } => {
                Payload::Ack { received, innovative, completed }
            }
            Payload::Fin { received, innovative } => Payload::Fin { received, innovative },
        };
        Datagram { session: self.session, payload }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ack_wire_bytes_matches_encoded_ack() {
        for segments in [1usize, 7, 8, 11, 1000, 4096] {
            let mut bitmap = SegmentBitmap::new(segments);
            bitmap.set(segments - 1);
            let ack =
                Datagram::new(42, Payload::Ack { received: 10, innovative: 9, completed: bitmap });
            assert_eq!(
                ack.encode().unwrap().len(),
                ack_wire_bytes(segments),
                "segments={segments}"
            );
        }
    }

    fn sample_datagrams() -> Vec<Datagram> {
        let mut bitmap = SegmentBitmap::new(11);
        bitmap.set(0);
        bitmap.set(7);
        bitmap.set(10);
        vec![
            Datagram::new(7, Payload::Request),
            Datagram::new(
                9,
                Payload::Announce(StreamMeta {
                    blocks: 32,
                    block_size: 1024,
                    total_segments: 4,
                    original_len: 100_000,
                    codec: CodecId::Fft16,
                }),
            ),
            Datagram::new(u64::MAX, Payload::Data(vec![1, 2, 3, 4, 5])),
            Datagram::new(0, Payload::Ack { received: 10, innovative: 9, completed: bitmap }),
            Datagram::new(3, Payload::Fin { received: 44, innovative: 40 }),
        ]
    }

    #[test]
    fn all_kinds_roundtrip() {
        for datagram in sample_datagrams() {
            let wire = datagram.encode().unwrap();
            assert_eq!(Datagram::decode(&wire).unwrap(), datagram, "{datagram:?}");
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected_or_equal() {
        // Flipping any single bit anywhere in the datagram must be caught
        // by magic/version/kind checks or by the CRC — never mis-parse.
        for datagram in sample_datagrams() {
            let wire = datagram.encode().unwrap();
            for byte in 0..wire.len() {
                for bit in 0..8 {
                    let mut bad = wire.clone();
                    bad[byte] ^= 1 << bit;
                    assert!(
                        Datagram::decode(&bad).is_err(),
                        "bit flip at {byte}.{bit} of {datagram:?} went undetected"
                    );
                }
            }
        }
    }

    #[test]
    fn truncations_are_rejected() {
        for datagram in sample_datagrams() {
            let wire = datagram.encode().unwrap();
            for len in 0..wire.len() {
                assert!(Datagram::decode(&wire[..len]).is_err());
            }
        }
    }

    #[test]
    fn alien_and_versioned_datagrams_are_rejected() {
        assert_eq!(
            Datagram::decode(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n"),
            Err(WireError::BadMagic)
        );
        let wire = Datagram::new(1, Payload::Request).encode().unwrap();
        for bad_version in [0u8, VERSION + 1, 0xFF] {
            let mut bad = wire.clone();
            bad[4] = bad_version;
            assert_eq!(Datagram::decode(&bad), Err(WireError::BadVersion { found: bad_version }));
        }
    }

    /// Builds a datagram by hand with an arbitrary version byte and raw
    /// payload, CRC valid — what an old (or future) peer would emit.
    fn raw_datagram(version: u8, kind: u8, session: u64, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.push(version);
        out.push(kind);
        out.extend_from_slice(&0u16.to_le_bytes());
        out.extend_from_slice(&session.to_le_bytes());
        let crc = datagram_crc(&out[0..16], payload);
        out.extend_from_slice(&crc.to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    fn announce_payload_v1() -> Vec<u8> {
        let mut payload = Vec::new();
        payload.extend_from_slice(&32u32.to_le_bytes()); // blocks
        payload.extend_from_slice(&1024u32.to_le_bytes()); // block size
        payload.extend_from_slice(&4u32.to_le_bytes()); // segments
        payload.extend_from_slice(&100_000u64.to_le_bytes()); // original len
        payload
    }

    #[test]
    fn legacy_v1_announce_decodes_as_dense_rlnc() {
        // A pre-codec-negotiation sender: version byte 1, 20-byte announce
        // with no codec id. Must decode, defaulting to dense RLNC.
        let wire = raw_datagram(1, 2, 9, &announce_payload_v1());
        let datagram = Datagram::decode(&wire).unwrap();
        let Payload::Announce(meta) = datagram.payload else { panic!("expected announce") };
        assert_eq!(meta.codec, CodecId::DenseRlnc);
        assert_eq!(meta.blocks, 32);
        assert_eq!(meta.original_len, 100_000);
        // Non-announce v1 datagrams (identical layout in both versions)
        // also still parse.
        let fin = raw_datagram(1, 5, 9, &[0u8; 16]);
        assert!(matches!(Datagram::decode(&fin).unwrap().payload, Payload::Fin { .. }));
    }

    #[test]
    fn v1_announce_with_codec_byte_and_v2_without_are_malformed() {
        // Cross-version payload lengths must not half-parse.
        let mut with_codec = announce_payload_v1();
        with_codec.push(CodecId::Fft16.to_wire());
        assert_eq!(
            Datagram::decode(&raw_datagram(1, 2, 9, &with_codec)),
            Err(WireError::MalformedPayload { kind: "announce" })
        );
        assert_eq!(
            Datagram::decode(&raw_datagram(2, 2, 9, &announce_payload_v1())),
            Err(WireError::MalformedPayload { kind: "announce" })
        );
    }

    #[test]
    fn unknown_codec_id_is_rejected_cleanly_never_a_panic() {
        for unknown in [3u8, 7, 0x7F, 0xFF] {
            let mut payload = announce_payload_v1();
            payload.push(unknown);
            let wire = raw_datagram(VERSION, 2, 9, &payload);
            assert_eq!(
                Datagram::decode(&wire),
                Err(WireError::UnknownCodec { found: unknown }),
                "codec byte {unknown}"
            );
        }
        // Codec byte 2 became the circular-shift codec: known, not an error.
        let mut payload = announce_payload_v1();
        payload.push(CodecId::CircShift.to_wire());
        let announce = Datagram::decode(&raw_datagram(VERSION, 2, 9, &payload)).unwrap();
        match announce.payload {
            Payload::Announce(meta) => assert_eq!(meta.codec, CodecId::CircShift),
            other => panic!("expected announce, got {other:?}"),
        }
    }

    #[test]
    fn oversized_encode_is_rejected() {
        let datagram = Datagram::new(1, Payload::Data(vec![0u8; MAX_DATAGRAM_BYTES]));
        assert!(matches!(datagram.encode(), Err(WireError::TooLarge { .. })));
    }

    #[test]
    fn stream_meta_validation_caps() {
        // 8 segments of 128 x 4096: the last holds 1 byte.
        let good = StreamMeta {
            blocks: 128,
            block_size: 4096,
            total_segments: 8,
            original_len: 7 * 128 * 4096 + 1,
            codec: CodecId::DenseRlnc,
        };
        assert!(good.validate().is_ok());
        assert!(StreamMeta { original_len: 8 * 128 * 4096, ..good }.validate().is_ok());
        // The largest FFT16 shape passes too, so what it costs a receiver
        // before any frame is bounded there (`nc-fft`'s `announce_memory`).
        let largest = StreamMeta {
            blocks: MAX_BLOCKS as u32,
            block_size: 2,
            total_segments: MAX_SEGMENTS as u32,
            original_len: MAX_SEGMENTS as u64 * MAX_BLOCKS as u64 * 2,
            codec: CodecId::Fft16,
        };
        assert!(largest.validate().is_ok());
        for (meta, field) in [
            (StreamMeta { total_segments: 9, ..good }, "original length"),
            (StreamMeta { total_segments: 7, ..good }, "original length"),
            (StreamMeta { original_len: 1, ..good }, "original length"),
            (StreamMeta { blocks: 0, ..good }, "blocks"),
            (StreamMeta { blocks: MAX_BLOCKS as u32 + 1, ..good }, "blocks"),
            (StreamMeta { block_size: 0, ..good }, "block size"),
            (StreamMeta { total_segments: 0, ..good }, "segment count"),
            (StreamMeta { total_segments: MAX_SEGMENTS as u32 + 1, ..good }, "segment count"),
            (StreamMeta { original_len: 0, ..good }, "original length"),
            (StreamMeta { original_len: u64::MAX, ..good }, "original length"),
        ] {
            assert_eq!(meta.validate(), Err(WireError::LimitExceeded { field }));
        }
    }

    #[test]
    fn bitmap_set_get_and_padding_rules() {
        let mut bitmap = SegmentBitmap::new(10);
        for i in 0..10 {
            bitmap.set(i);
        }
        bitmap.set(1000); // out of range: ignored
        assert_eq!(bitmap.count_complete(), 10);

        // The byte popcount against the bit walk, on lengths that are and
        // are not multiples of 8; out-of-range sets must not reach the
        // padding bits the popcount would otherwise count.
        for bits in [1usize, 7, 8, 9, 63, 64, 65, 1000] {
            let mut bitmap = SegmentBitmap::new(bits);
            assert_eq!(bitmap.count_complete(), 0);
            for i in (0..bits + 16).step_by(3) {
                bitmap.set(i);
            }
            let walked = (0..bits).filter(|&i| bitmap.get(i)).count();
            assert_eq!(bitmap.count_complete(), walked, "bits={bits}");
            assert_eq!(walked, bits.div_ceil(3));
            (0..bits).for_each(|i| bitmap.set(i));
            assert_eq!(bitmap.count_complete(), bits);
        }

        // Padding bits set in the last byte must not decode (one wire form
        // per bitmap).
        let mut raw = Vec::new();
        SegmentBitmap::new(10).to_wire(&mut raw);
        let last = raw.len() - 1;
        raw[last] |= 0x80; // bit 15 of a 10-bit bitmap
        assert_eq!(SegmentBitmap::from_wire(&raw), None);
        // Wrong body length must not decode either.
        raw.push(0);
        assert_eq!(SegmentBitmap::from_wire(&raw), None);
    }

    /// The byte-at-a-time CRC-32 the sliced body replaced: the oracle.
    fn crc32_bytewise(mut state: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            state = (state >> 8) ^ CRC_TABLES[0][((state ^ b as u32) & 0xFF) as usize];
        }
        state
    }

    #[test]
    fn crc_matches_known_vector() {
        // CRC-32("123456789") = 0xCBF43926 (IEEE 802.3 check value).
        assert_eq!(!crc32_update(0xFFFF_FFFF, b"123456789"), 0xCBF4_3926);
        assert_eq!(!crc32_bytewise(0xFFFF_FFFF, b"123456789"), 0xCBF4_3926);
    }

    /// The register after a 16-byte header prefix: the state every payload
    /// checksum starts from.
    fn header_state() -> u32 {
        let header = Datagram::new(0xFEED_BEEF_0042, Payload::Request).encode().unwrap();
        crc32_bytewise(0xFFFF_FFFF, &header[0..16])
    }

    /// Checks `body` against the bytewise oracle at every length 0..=4200,
    /// 16 alignments and three initial states. The oracle runs once per
    /// alignment and state, one byte further per length.
    fn assert_matches_the_oracle(body: fn(u32, &[u8]) -> u32) {
        let bytes: Vec<u8> =
            (0..4200 + 16u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 11) as u8).collect();
        for state in [0xFFFF_FFFF, 0, header_state()] {
            for start in 0..16 {
                let mut oracle = state;
                for len in 0..=4200 {
                    assert_eq!(
                        body(state, &bytes[start..start + len]),
                        oracle,
                        "state {state:#010x} start {start} len {len}"
                    );
                    oracle = crc32_bytewise(oracle, &bytes[start + len..=start + len]);
                }
            }
        }
    }

    #[test]
    fn sliced_crc_equals_the_bytewise_oracle_at_every_length_alignment_and_state() {
        assert_matches_the_oracle(crc32_sliced);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn folded_crc_equals_the_bytewise_oracle_at_every_length_alignment_and_state() {
        if !clmul::available() {
            println!("no pclmulqdq + sse4.1 on this host: the fold is not run");
            return;
        }
        assert_matches_the_oracle(|state, bytes| clmul::crc32(state, bytes).unwrap());
    }

    #[test]
    fn crc_kernel_gauge_names_the_body_that_runs() {
        #[cfg(target_arch = "x86_64")]
        let folds = clmul::available();
        #[cfg(not(target_arch = "x86_64"))]
        let folds = false;
        // The entry point takes the fold on a long chunk exactly where the
        // host has it.
        let _ = crc32_update(0xFFFF_FFFF, &[0x5A; 64]);
        if nc_telemetry::enabled() {
            assert_eq!(crate::metrics::metrics().crc_kernel.get(), f64::from(u8::from(folds)));
        }
        let body = if folds { "pclmulqdq fold" } else { "slice-by-16" };
        let id = u8::from(folds);
        println!("crc_kernel_gauge_names_the_body_that_runs: {body} (net.crc_kernel = {id})");
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fold_constants_derive_from_the_polynomial() {
        const P: u64 = 0x1_04C1_1DB7;
        // Bit-reversed over 33 bits, as the fold stores its constants.
        let reflect33 = |v: u64| (v.reverse_bits() >> 31) as i64;
        // Reflected `x^k mod P`: the register after `k` shifts of a lone 1.
        let x_pow_mod_p = |k: u32| {
            let mut r = 1u64;
            for _ in 0..k {
                r <<= 1;
                if r >> 32 & 1 != 0 {
                    r ^= P;
                }
            }
            reflect33(r)
        };
        assert_eq!(clmul::K1, x_pow_mod_p(4 * 128 + 32));
        assert_eq!(clmul::K2, x_pow_mod_p(4 * 128 - 32));
        assert_eq!(clmul::K3, x_pow_mod_p(128 + 32));
        assert_eq!(clmul::K4, x_pow_mod_p(128 - 32));
        assert_eq!(clmul::K5, x_pow_mod_p(64));
        // P and μ = ⌊x^64 / P⌋ by long division, both 33 bits.
        let (mut rem, mut mu) = (1u128 << 64, 0u64);
        for bit in (32..=64).rev() {
            if rem >> bit & 1 != 0 {
                mu |= 1 << (bit - 32);
                rem ^= u128::from(P) << (bit - 32);
            }
        }
        assert_eq!(clmul::P_X, reflect33(P));
        assert_eq!(clmul::MU, reflect33(mu));
        // The slice-by-16 table is the same polynomial: its reflected
        // low 32 bits are the 0xEDB88320 the tables are built from.
        assert_eq!(clmul::P_X >> 1, 0xEDB8_8320);
    }

    proptest::proptest! {
        /// Both bodies, through the entry point and directly, agree with
        /// the oracle on arbitrary bytes from an arbitrary state.
        #[test]
        fn crc_bodies_agree_on_arbitrary_bytes_and_states(
            state in proptest::prelude::any::<u32>(),
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..3000),
        ) {
            let oracle = crc32_bytewise(state, &bytes);
            proptest::prop_assert_eq!(crc32_sliced(state, &bytes), oracle);
            proptest::prop_assert_eq!(crc32_update(state, &bytes), oracle);
            #[cfg(target_arch = "x86_64")]
            if let Some(folded) = clmul::crc32(state, &bytes) {
                proptest::prop_assert_eq!(folded, oracle);
            }
        }

        /// The byte-wise merge against the per-bit loop it replaced, on
        /// equal and mismatched lengths (an ACK's bitmap is wire input).
        #[test]
        fn bitmap_union_matches_the_per_bit_merge(
            mine in proptest::collection::vec(proptest::prelude::any::<bool>(), 0..80),
            theirs in proptest::collection::vec(proptest::prelude::any::<bool>(), 0..80),
        ) {
            let bitmap = |bits: &[bool]| {
                let mut bitmap = SegmentBitmap::new(bits.len());
                bits.iter().enumerate().filter(|(_, &b)| b).for_each(|(i, _)| bitmap.set(i));
                bitmap
            };
            let (mut merged, other) = (bitmap(&mine), bitmap(&theirs));
            let mut oracle = merged.clone();
            for i in 0..oracle.len().min(other.len()) {
                if other.get(i) {
                    oracle.set(i);
                }
            }
            let count = merged.union_with(&other);
            proptest::prop_assert_eq!(&merged, &oracle);
            proptest::prop_assert_eq!(count, oracle.count_complete());
            // Padding stays clear: the merged bitmap has one wire form.
            let mut raw = Vec::new();
            merged.to_wire(&mut raw);
            proptest::prop_assert_eq!(SegmentBitmap::from_wire(&raw), Some(merged));
        }
    }

    #[test]
    fn crc_of_a_concatenation_equals_the_split_update() {
        let bytes: Vec<u8> = (0..600u32).map(|i| (i * 7 + 3) as u8).collect();
        let one_shot = crc32_update(0xFFFF_FFFF, &bytes);
        for split in 0..=bytes.len() {
            let (a, b) = bytes.split_at(split);
            assert_eq!(crc32_update(crc32_update(0xFFFF_FFFF, a), b), one_shot, "split {split}");
        }
    }

    #[test]
    fn sealed_in_place_data_equals_the_encoded_datagram() {
        let frame: Vec<u8> = (0..300u32).map(|i| (i * 13) as u8).collect();
        let mut in_place = vec![0xEE; HEADER_BYTES];
        in_place.extend_from_slice(&frame);
        seal_data(&mut in_place, 0xFEED_BEEF_0042);
        let encoded = Datagram::new(0xFEED_BEEF_0042, Payload::Data(frame)).encode().unwrap();
        assert_eq!(in_place, encoded);
    }

    #[test]
    fn parse_borrows_the_data_frame_and_agrees_with_decode() {
        for datagram in sample_datagrams() {
            let wire = datagram.encode().unwrap();
            let parsed = DatagramRef::parse(&wire).unwrap();
            if let Payload::Data(frame) = parsed.payload {
                assert!(std::ptr::eq(frame, &wire[HEADER_BYTES..]), "data is a view, not a copy");
            }
            assert_eq!(parsed.into_owned(), datagram);
        }
    }
}
