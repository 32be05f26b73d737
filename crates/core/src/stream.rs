//! Stream-level coding: segmenting an arbitrary byte stream into
//! generations and reassembling it — the file/stream transfer layer that
//! bulk distribution (Avalanche) and VoD streaming both sit on.
//!
//! The wire unit is a [`StreamFrame`]: a segment index plus one coded
//! block, with a self-describing byte format.

use crate::block::CodedBlock;
use crate::decoder::Elimination;
use crate::encoder::Encoder;
use crate::error::Error;
use crate::segment::{segment_stream, CodingConfig};
use nc_gf256::region;
use rand::Rng;
use std::collections::BTreeMap;
// The round-robin cursor goes through nc-check's shim so the checker can
// explore concurrent `next_frame` callers (std re-export in normal builds).
use nc_check::sync::atomic::{AtomicUsize, Ordering};

/// Bytes in front of a frame's coded block: segment index + segment count.
pub(crate) const FRAME_HEADER_BYTES: usize = 8;

/// One wire frame: `(segment index, coded block)`.
///
/// Format: 4-byte little-endian segment index, 4-byte little-endian total
/// segment count, then the block's wire bytes (`n` coefficients + payload).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamFrame {
    /// Which segment of the stream the block codes.
    pub segment: u32,
    /// Total segments in the stream (lets receivers size themselves).
    pub total_segments: u32,
    /// The coded block.
    pub block: CodedBlock,
}

impl StreamFrame {
    /// Serializes the frame. The buffer comes from the process-wide
    /// [`nc_pool::BytesPool`] so recycling transport drivers keep frame
    /// serialization allocation-free.
    pub fn to_wire(&self) -> Vec<u8> {
        let mut out =
            nc_pool::BytesPool::global().take_capacity(FRAME_HEADER_BYTES + self.block.wire_len());
        out.extend_from_slice(&self.segment.to_le_bytes());
        out.extend_from_slice(&self.total_segments.to_le_bytes());
        out.extend_from_slice(self.block.coefficients());
        out.extend_from_slice(self.block.payload());
        out
    }

    /// Parses a frame for a known configuration.
    ///
    /// # Errors
    ///
    /// [`Error::SizeMismatch`] if the byte count is wrong.
    pub fn from_wire(config: CodingConfig, bytes: &[u8]) -> Result<StreamFrame, Error> {
        let (segment, coefficients, payload) = StreamFrame::split_wire(config, bytes)?;
        let total_segments = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        // Recycled storage: the vectors a decoder handed back earlier.
        let arena = nc_pool::BlockArena::global();
        let block = CodedBlock::new(arena.copy_coeffs(coefficients), arena.copy_payload(payload));
        Ok(StreamFrame { segment: segment as u32, total_segments, block })
    }

    /// Splits a frame's wire bytes into `(segment, coefficients, payload)`
    /// without copying — what [`StreamDecoder::push_parts`] takes.
    /// [`Error::SizeMismatch`] if the byte count is wrong.
    pub(crate) fn split_wire(
        config: CodingConfig,
        bytes: &[u8],
    ) -> Result<(usize, &[u8], &[u8]), Error> {
        let expected = FRAME_HEADER_BYTES + config.coded_block_bytes();
        if bytes.len() != expected {
            return Err(Error::SizeMismatch { expected, actual: bytes.len() });
        }
        let segment = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes")) as usize;
        let (coefficients, payload) = bytes[FRAME_HEADER_BYTES..].split_at(config.blocks());
        Ok((segment, coefficients, payload))
    }
}

/// Encodes a whole byte stream: one [`Encoder`] per segment, frames drawn
/// round-robin or per segment.
///
/// ```
/// use nc_rlnc::stream::{StreamDecoder, StreamEncoder};
/// use nc_rlnc::CodingConfig;
/// use rand::SeedableRng;
///
/// let config = CodingConfig::new(4, 16)?;
/// let data: Vec<u8> = (0..150u8).collect(); // 2.34 segments
/// let encoder = StreamEncoder::new(config, &data)?;
/// let mut decoder = StreamDecoder::new(config, encoder.total_segments(), data.len());
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// while !decoder.is_complete() {
///     decoder.push(encoder.next_frame(&mut rng))?;
/// }
/// assert_eq!(decoder.recover().unwrap(), data);
/// # Ok::<(), nc_rlnc::Error>(())
/// ```
#[derive(Debug)]
pub struct StreamEncoder {
    config: CodingConfig,
    encoders: Vec<Encoder>,
    original_len: usize,
    /// Round-robin position for [`StreamEncoder::next_frame`]. Atomic so
    /// one encoder instance is `Sync` and can feed multiple sender threads
    /// without per-thread clones.
    cursor: AtomicUsize,
}

impl Clone for StreamEncoder {
    fn clone(&self) -> StreamEncoder {
        StreamEncoder {
            config: self.config,
            encoders: self.encoders.clone(),
            original_len: self.original_len,
            cursor: AtomicUsize::new(self.cursor.load(Ordering::Acquire)),
        }
    }
}

impl StreamEncoder {
    /// Segments `data` (zero-padding the tail) and prepares an encoder per
    /// segment.
    ///
    /// # Errors
    ///
    /// [`Error::SizeMismatch`] for empty input (there is nothing to code).
    pub fn new(config: CodingConfig, data: &[u8]) -> Result<StreamEncoder, Error> {
        if data.is_empty() {
            return Err(Error::SizeMismatch { expected: 1, actual: 0 });
        }
        let encoders: Vec<Encoder> =
            segment_stream(config, data).into_iter().map(Encoder::new).collect();
        Ok(StreamEncoder {
            config,
            encoders,
            original_len: data.len(),
            cursor: AtomicUsize::new(0),
        })
    }

    /// The stream's coding configuration.
    pub fn config(&self) -> CodingConfig {
        self.config
    }

    /// Number of segments in the stream.
    pub fn total_segments(&self) -> usize {
        self.encoders.len()
    }

    /// Original (unpadded) byte length.
    pub fn original_len(&self) -> usize {
        self.original_len
    }

    /// A frame for a specific segment.
    ///
    /// # Panics
    ///
    /// Panics if `segment` is out of range.
    pub fn frame_for(&self, segment: usize, rng: &mut impl Rng) -> StreamFrame {
        StreamFrame {
            segment: segment as u32,
            total_segments: self.total_segments() as u32,
            block: self.encoders[segment].encode(rng),
        }
    }

    /// Writes frame `seq` of `segment` in its wire format straight into
    /// `out` (behind `StreamCodecSender::frame_into`), every byte written
    /// once and nothing allocated. The stream is systematic: for `seq < n`
    /// the frame is source block `seq` verbatim under the unit coefficient
    /// vector `e_seq`, with nothing drawn from `rng`; every later frame is
    /// the same coefficient draw (same RNG order) and payload as
    /// [`StreamEncoder::frame_for`]`(segment, rng).to_wire()`. Panics if
    /// `segment` is out of range or `out` is not exactly one frame
    /// (`8 + n + k` bytes) long.
    pub(crate) fn frame_into(&self, segment: usize, seq: u64, rng: &mut impl Rng, out: &mut [u8]) {
        assert_eq!(
            out.len(),
            FRAME_HEADER_BYTES + self.config.coded_block_bytes(),
            "frame buffer length"
        );
        let (header, block) = out.split_at_mut(FRAME_HEADER_BYTES);
        header[0..4].copy_from_slice(&(segment as u32).to_le_bytes());
        header[4..8].copy_from_slice(&(self.total_segments() as u32).to_le_bytes());
        let (coefficients, payload) = block.split_at_mut(self.config.blocks());
        let encoder = &self.encoders[segment];
        match usize::try_from(seq).ok().filter(|&source| source < self.config.blocks()) {
            Some(source) => encoder.systematic_into(source, coefficients, payload),
            None => encoder.encode_into(rng, coefficients, payload),
        }
    }

    /// The next frame, cycling through segments round-robin (a simple
    /// sender schedule; smarter senders use [`StreamEncoder::frame_for`]).
    pub fn next_frame(&self, rng: &mut impl Rng) -> StreamFrame {
        let segment = self.cursor.fetch_add(1, Ordering::AcqRel) % self.total_segments();
        self.frame_for(segment, rng)
    }

    /// The next `count` frames, round-robin across segments, with the
    /// GF(2^8) coding fanned over the shared worker pool
    /// ([`nc_pool::Pool::global`]), one task per segment.
    ///
    /// Coefficients are drawn serially from `rng` before any task runs,
    /// so for a given RNG state the frames are bit-identical to `count`
    /// successive [`StreamEncoder::next_frame`] calls — only the payload
    /// computation is batched: the draws that fall on one segment become
    /// one matrix product over it. This is the bulk-sender batch pattern of
    /// Sec. 5.3: generate many, buffer, deliver on demand.
    pub fn next_frames(&self, rng: &mut impl Rng, count: usize) -> Vec<StreamFrame> {
        /// One segment's share of the batch: which frames, their draws,
        /// then their coded blocks.
        struct Group {
            slots: Vec<usize>,
            rows: Vec<Vec<u8>>,
            blocks: Vec<CodedBlock>,
        }
        let total = self.total_segments();
        let mut groups: BTreeMap<usize, Group> = BTreeMap::new();
        for slot in 0..count {
            let segment = self.cursor.fetch_add(1, Ordering::AcqRel) % total;
            let group = groups.entry(segment).or_insert_with(|| Group {
                slots: Vec::new(),
                rows: Vec::new(),
                blocks: Vec::new(),
            });
            group.slots.push(slot);
            group.rows.push(self.encoders[segment].draw_coefficients(rng));
        }
        nc_pool::Pool::global().scope(|scope| {
            for (&segment, group) in groups.iter_mut() {
                let encoder = &self.encoders[segment];
                scope.spawn(move || {
                    group.blocks = encoder.encode_rows(std::mem::take(&mut group.rows));
                });
            }
        });
        let mut frames: Vec<Option<StreamFrame>> = (0..count).map(|_| None).collect();
        for (segment, group) in groups {
            for (slot, block) in group.slots.into_iter().zip(group.blocks) {
                frames[slot] = Some(StreamFrame {
                    segment: segment as u32,
                    total_segments: total as u32,
                    block,
                });
            }
        }
        frames.into_iter().map(|f| f.expect("every slot filled by its segment's task")).collect()
    }
}

/// What one `k`-byte slot of a segment's output slice holds.
#[derive(Copy, Clone, Debug)]
enum Slot {
    /// Holds nothing yet.
    Free,
    /// Source block `i` in slot `i`, final where it landed: it arrived
    /// verbatim as innovative row `row`, with unit coefficients `e_i`.
    Source { row: usize },
    /// The payload of innovative row `row`, a coded combination.
    Coded { row: usize },
}

/// One segment's decode state: its coefficient elimination and what each
/// of its `n` output slots holds.
#[derive(Clone, Debug)]
struct SegmentDecode {
    elimination: Elimination,
    slots: Vec<Slot>,
}

/// `Some(i)` if `coefficients` is exactly the unit vector `e_i`.
fn unit_index(coefficients: &[u8]) -> Option<usize> {
    let i = coefficients.iter().position(|&c| c != 0)?;
    (coefficients[i] == 1 && coefficients[i + 1..].iter().all(|&c| c == 0)).then_some(i)
}

/// The lowest free slot. Systematic frames arrive in source order, so a
/// hole below the highest one that arrived is most likely a loss, which no
/// later unit frame will claim back.
fn free_slot(slots: &[Slot]) -> usize {
    slots
        .iter()
        .position(|slot| matches!(slot, Slot::Free))
        .expect("fewer than n rows fill fewer than n slots")
}

/// Completes a segment in place: every source that did not arrive verbatim
/// is solved over its own slot. The `ℓ` coded payloads step aside into
/// `scratch`, then one product of the `ℓ` matching rows of `C⁻¹` by the
/// `n` held payloads overwrites their slots.
fn solve_lost(elimination: &Elimination, slots: &[Slot], held: &mut [u8], scratch: &mut Vec<u8>) {
    let k = held.len() / slots.len();
    scratch.clear();
    for (slot, payload) in slots.iter().zip(held.chunks_exact(k)) {
        if matches!(slot, Slot::Coded { .. }) {
            scratch.extend_from_slice(payload);
        }
    }
    let lost = scratch.len() / k;
    if lost == 0 {
        return;
    }
    crate::metrics::metrics().rows_solved.add(lost as u64);
    let inverse = elimination.inverse();
    let mut payloads: Vec<&[u8]> = vec![&[][..]; slots.len()];
    let mut parked = scratch.chunks_exact(k);
    // lint: allow(vec-capacity) — slice references for one product per completed segment, no bytes.
    let mut outs: Vec<&mut [u8]> = Vec::with_capacity(lost);
    // lint: allow(vec-capacity) — as above: the ℓ rows of `C⁻¹` that product reads.
    let mut rows: Vec<&[u8]> = Vec::with_capacity(lost);
    for (source, (slot, block)) in slots.iter().zip(held.chunks_exact_mut(k)).enumerate() {
        match *slot {
            Slot::Source { row } => payloads[row] = block,
            Slot::Coded { row } => {
                payloads[row] = parked.next().expect("one parked payload per coded slot");
                block.fill(0);
                outs.push(block);
                rows.push(inverse[source]);
            }
            Slot::Free => unreachable!("n rows fill all n slots"),
        }
    }
    region::matrix_mul_add(&mut outs, &payloads, &rows);
}

/// Receives frames for a whole stream and decodes them in place.
///
/// The decoder owns the stream's output buffer; a received payload is
/// copied once, into its segment's `n·k`-byte slice of it. A frame whose
/// coefficients are exactly `e_i` carries source block `i`, so an
/// innovative one lands in slot `i` and never moves again — the systematic
/// frames a dense sender opens each segment with decode by that copy
/// alone. Any other innovative frame takes a free slot, and steps to
/// another free slot if `e_i` later arrives for the one it borrowed. At
/// completion only the `ℓ` sources that did not arrive verbatim are
/// solved: their slots hold the `ℓ` coded payloads, which step aside into
/// a scratch buffer while one product of the matching `ℓ` rows of `C⁻¹`
/// by the `n` held payloads is written over them — `n·ℓ·k` work, none on a
/// lossless link, and `n²·k` for a stream of coded frames only. So
/// [`StreamDecoder::into_recovered`] is a truncation, not a reassembly.
#[derive(Clone, Debug)]
pub struct StreamDecoder {
    config: CodingConfig,
    original_len: usize,
    segments: Vec<SegmentDecode>,
    complete: usize,
    /// Segment after segment; grown (zero-filled) up to the highest segment
    /// that has received a block, so an announced-but-never-sent stream
    /// costs no memory.
    output: Vec<u8>,
    /// Up to one segment's worth: the coded payloads step aside into it
    /// while the product writes their slots.
    scratch: Vec<u8>,
}

impl StreamDecoder {
    /// Prepares a decoder for `total_segments` segments of an
    /// `original_len`-byte stream.
    pub fn new(config: CodingConfig, total_segments: usize, original_len: usize) -> StreamDecoder {
        StreamDecoder {
            config,
            original_len,
            segments: (0..total_segments)
                .map(|_| SegmentDecode { elimination: Elimination::new(config), slots: Vec::new() })
                .collect(),
            complete: 0,
            output: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Absorbs one frame; returns whether it was innovative. Frames for an
    /// already complete segment are ignored.
    ///
    /// # Errors
    ///
    /// [`Error::DimensionMismatch`] for out-of-range segment indices,
    /// [`Error::CoefficientCountMismatch`] / [`Error::SizeMismatch`] for a
    /// block of the wrong shape, and [`Error::InvalidConfig`] if the stream
    /// is too large to buffer on this host.
    pub fn push(&mut self, frame: StreamFrame) -> Result<bool, Error> {
        let segment = frame.segment as usize;
        let innovative =
            self.push_parts(segment, frame.block.coefficients(), frame.block.payload());
        let (coefficients, payload) = frame.block.into_parts();
        let arena = nc_pool::BlockArena::global();
        arena.recycle_coeffs(coefficients);
        arena.recycle_payload(payload);
        innovative
    }

    /// [`StreamDecoder::push`] for a block given as borrowed parts (see
    /// [`StreamFrame::split_wire`]): the one decode body. The dense
    /// receiver feeds it straight from the datagram, so a payload is copied
    /// once, into `output`.
    pub(crate) fn push_parts(
        &mut self,
        segment: usize,
        coefficients: &[u8],
        payload: &[u8],
    ) -> Result<bool, Error> {
        let (n, k) = (self.config.blocks(), self.config.block_size());
        let Some(state) = self.segments.get_mut(segment) else {
            return Err(Error::DimensionMismatch { op: "stream frame segment index" });
        };
        if coefficients.len() != n {
            return Err(Error::CoefficientCountMismatch {
                expected: n,
                actual: coefficients.len(),
            });
        }
        if payload.len() != k {
            return Err(Error::SizeMismatch { expected: k, actual: payload.len() });
        }
        if state.elimination.is_full() {
            return Ok(false);
        }
        const TOO_LARGE: Error = Error::InvalidConfig { reason: "stream too large to buffer" };
        let segment_bytes = self.config.segment_bytes();
        let end = (segment + 1).checked_mul(segment_bytes).ok_or(TOO_LARGE)?;
        if self.output.len() < end {
            self.output.try_reserve(end - self.output.len()).map_err(|_| TOO_LARGE)?;
            self.output.resize(end, 0);
        }
        if state.slots.is_empty() {
            // Sized by the segment's first frame, like the elimination
            // rows, so no later push allocates.
            state.slots.resize(n, Slot::Free);
        }
        let metrics = crate::metrics::metrics();
        metrics.blocks_received.inc();
        let row = state.elimination.rank();
        if !state.elimination.push(coefficients) {
            metrics.blocks_dependent.inc();
            return Ok(false);
        }
        metrics.blocks_innovative.inc();
        let held = &mut self.output[end - segment_bytes..end];
        let slots = &mut state.slots;
        let slot = match unit_index(coefficients) {
            Some(source) => {
                if let Slot::Coded { row: coded } = slots[source] {
                    let free = free_slot(slots);
                    held.copy_within(source * k..(source + 1) * k, free * k);
                    slots[free] = Slot::Coded { row: coded };
                }
                slots[source] = Slot::Source { row };
                source
            }
            None => {
                let free = free_slot(slots);
                slots[free] = Slot::Coded { row };
                free
            }
        };
        held[slot * k..(slot + 1) * k].copy_from_slice(payload);
        if state.elimination.is_full() {
            solve_lost(&state.elimination, &state.slots, held, &mut self.scratch);
            self.complete += 1;
        }
        Ok(true)
    }

    /// Segments fully decoded so far.
    pub fn segments_complete(&self) -> usize {
        self.complete
    }

    /// Whether one specific segment is fully decoded (out-of-range reads
    /// as false).
    pub fn segment_complete(&self, segment: usize) -> bool {
        self.segments.get(segment).is_some_and(|s| s.elimination.is_full())
    }

    /// Whether every segment is decoded.
    pub fn is_complete(&self) -> bool {
        self.complete == self.segments.len()
    }

    /// Overall progress as `(innovative blocks, needed blocks)`.
    pub fn progress(&self) -> (usize, usize) {
        let have = self.segments.iter().map(|s| s.elimination.rank()).sum();
        let need = self.segments.len() * self.config.blocks();
        (have, need)
    }

    /// A copy of the stream once complete.
    pub fn recover(&self) -> Option<Vec<u8>> {
        self.is_complete().then(|| self.output[..self.original_len.min(self.output.len())].to_vec())
    }

    /// The stream once complete, without copying it: the decoder's own
    /// buffer, cut to the original length.
    pub fn into_recovered(mut self) -> Option<Vec<u8>> {
        if !self.is_complete() {
            return None;
        }
        self.output.truncate(self.original_len);
        Some(self.output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn config() -> CodingConfig {
        CodingConfig::new(4, 16).unwrap()
    }

    #[test]
    fn stream_roundtrip_with_padding() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let data: Vec<u8> = (0..1000).map(|_| rng.gen()).collect(); // 15.6 segments
        let enc = StreamEncoder::new(config(), &data).unwrap();
        assert_eq!(enc.total_segments(), 16);
        let mut dec = StreamDecoder::new(config(), enc.total_segments(), data.len());
        while !dec.is_complete() {
            dec.push(enc.next_frame(&mut rng)).unwrap();
        }
        assert_eq!(dec.recover().unwrap(), data);
    }

    #[test]
    fn frames_roundtrip_the_wire() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let data = vec![7u8; 100];
        let enc = StreamEncoder::new(config(), &data).unwrap();
        let frame = enc.frame_for(1, &mut rng);
        let parsed = StreamFrame::from_wire(config(), &frame.to_wire()).unwrap();
        assert_eq!(parsed, frame);
    }

    #[test]
    fn frames_below_n_are_source_blocks_and_later_frames_keep_the_rng_order() {
        // 2.34 segments: the tail segment's blocks are zero-padded.
        let data: Vec<u8> = (0..150u32).map(|i| (i * 7 + 3) as u8).collect();
        let enc = StreamEncoder::new(config(), &data).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let mut twin_rng = rand::rngs::StdRng::seed_from_u64(8);
        let mut out = vec![0xEE; FRAME_HEADER_BYTES + config().coded_block_bytes()];
        for segment in 0..enc.total_segments() {
            for seq in 0..4 {
                enc.frame_into(segment, seq, &mut rng, &mut out);
                let frame = StreamFrame::from_wire(config(), &out).unwrap();
                assert_eq!(frame.segment as usize, segment);
                assert_eq!(frame.block, enc.encoders[segment].systematic(seq as usize));
            }
            // Nothing was drawn above: from seq n on, the frames are the
            // non-systematic frames of a twin RNG.
            for seq in [4, 5, u64::MAX] {
                enc.frame_into(segment, seq, &mut rng, &mut out);
                assert_eq!(out, enc.frame_for(segment, &mut twin_rng).to_wire());
            }
        }
    }

    #[test]
    fn wire_rejects_wrong_length() {
        assert!(StreamFrame::from_wire(config(), &[0u8; 5]).is_err());
    }

    #[test]
    fn out_of_range_segment_is_an_error() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let data = vec![1u8; 64];
        let enc = StreamEncoder::new(config(), &data).unwrap();
        let mut frame = enc.frame_for(0, &mut rng);
        frame.segment = 99;
        let mut dec = StreamDecoder::new(config(), 1, data.len());
        assert!(dec.push(frame).is_err());
    }

    #[test]
    fn progress_is_monotone() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let data = vec![9u8; 200];
        let enc = StreamEncoder::new(config(), &data).unwrap();
        let mut dec = StreamDecoder::new(config(), enc.total_segments(), data.len());
        let mut last = 0;
        while !dec.is_complete() {
            dec.push(enc.next_frame(&mut rng)).unwrap();
            let (have, need) = dec.progress();
            assert!(have >= last && have <= need);
            last = have;
        }
        assert_eq!(dec.segments_complete(), enc.total_segments());
    }

    #[test]
    fn encoder_is_sync_and_shareable_across_threads() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<StreamEncoder>();

        // One shared encoder instance feeding four sender threads: the
        // round-robin cursor must hand out every segment index and the
        // frames must still decode.
        let data: Vec<u8> = (0..1024u32).map(|i| (i * 7) as u8).collect(); // 16 segments
        let enc = StreamEncoder::new(config(), &data).unwrap();
        let frames = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let enc = &enc;
                let frames = &frames;
                s.spawn(move || {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(100 + t);
                    let local: Vec<StreamFrame> =
                        (0..40).map(|_| enc.next_frame(&mut rng)).collect();
                    frames.lock().unwrap().extend(local);
                });
            }
        });
        let frames = frames.into_inner().unwrap();
        assert_eq!(frames.len(), 160);
        // 160 draws over 16 segments: round-robin must cover each exactly 10x.
        let mut per_segment = [0usize; 16];
        for f in &frames {
            per_segment[f.segment as usize] += 1;
        }
        assert!(per_segment.iter().all(|&c| c == 10), "cursor skew: {per_segment:?}");
        let mut dec = StreamDecoder::new(config(), enc.total_segments(), data.len());
        let mut rng = rand::rngs::StdRng::seed_from_u64(200);
        for f in frames {
            dec.push(f).unwrap();
        }
        while !dec.is_complete() {
            dec.push(enc.next_frame(&mut rng)).unwrap();
        }
        assert_eq!(dec.recover().unwrap(), data);
    }

    #[test]
    fn empty_stream_is_rejected() {
        assert!(StreamEncoder::new(config(), &[]).is_err());
    }

    #[test]
    fn batched_frames_match_serial_frames_bit_exactly() {
        let data: Vec<u8> = (0..500u32).map(|i| (i * 13) as u8).collect();
        let serial = StreamEncoder::new(config(), &data).unwrap();
        let batched = StreamEncoder::new(config(), &data).unwrap();
        let mut rng_a = rand::rngs::StdRng::seed_from_u64(11);
        let mut rng_b = rand::rngs::StdRng::seed_from_u64(11);
        let want: Vec<StreamFrame> = (0..48).map(|_| serial.next_frame(&mut rng_a)).collect();
        let got = batched.next_frames(&mut rng_b, 48);
        assert_eq!(got, want, "pooled batch must equal serial draws bit-for-bit");
    }

    #[test]
    fn batched_frames_decode_the_stream() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let data: Vec<u8> = (0..777).map(|_| rng.gen()).collect();
        let enc = StreamEncoder::new(config(), &data).unwrap();
        let mut dec = StreamDecoder::new(config(), enc.total_segments(), data.len());
        while !dec.is_complete() {
            for frame in enc.next_frames(&mut rng, 32) {
                dec.push(frame).unwrap();
            }
        }
        assert_eq!(dec.recover().unwrap(), data);
    }

    #[test]
    fn decode_into_place_matches_the_per_segment_decoder_bit_for_bit() {
        use crate::decoder::Decoder;
        // 2.34 segments, so the tail segment is zero-padded. Every frame
        // goes to the stream decoder as borrowed wire parts and to one
        // reference `Decoder` per segment as an owned block.
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let data: Vec<u8> = (0..150).map(|_| rng.gen()).collect();
        let enc = StreamEncoder::new(config(), &data).unwrap();
        let mut dec = StreamDecoder::new(config(), enc.total_segments(), data.len());
        let mut reference: Vec<Decoder> =
            (0..enc.total_segments()).map(|_| Decoder::new(config())).collect();
        let mut late = 0;
        // Keep going past completion: late frames must change nothing.
        while !dec.is_complete() || late < 8 {
            late += usize::from(dec.is_complete());
            let frame = enc.next_frame(&mut rng);
            let wire = frame.to_wire();
            let (segment, coefficients, payload) =
                StreamFrame::split_wire(config(), &wire).unwrap();
            let was_complete = reference[segment].is_complete();
            let want = reference[segment].push(frame.block).unwrap();
            assert_eq!(dec.push_parts(segment, coefficients, payload).unwrap(), want);
            assert_eq!(dec.segment_complete(segment), reference[segment].is_complete());
            assert!(!(was_complete && want), "a complete segment takes nothing more");
        }
        let mut want: Vec<u8> = reference.iter().flat_map(|d| d.recover().unwrap()).collect();
        assert_eq!(want.len(), 3 * config().segment_bytes());
        want.truncate(data.len());
        assert_eq!(want, data);
        assert_eq!(dec.recover().unwrap(), want);
        assert_eq!(dec.into_recovered().unwrap(), want);
    }

    #[test]
    fn malformed_parts_are_errors_and_incomplete_streams_do_not_recover() {
        let mut dec = StreamDecoder::new(config(), 2, 100);
        assert!(matches!(
            dec.push_parts(0, &[1; 3], &[0; 16]),
            Err(Error::CoefficientCountMismatch { expected: 4, actual: 3 })
        ));
        assert!(matches!(dec.push_parts(0, &[1; 4], &[0; 15]), Err(Error::SizeMismatch { .. })));
        assert!(matches!(
            dec.push_parts(2, &[1; 4], &[0; 16]),
            Err(Error::DimensionMismatch { .. })
        ));
        assert!(dec.push_parts(1, &[1, 0, 0, 0], &[7; 16]).unwrap());
        assert_eq!(dec.progress(), (1, 8));
        assert!(dec.recover().is_none());
        assert!(dec.into_recovered().is_none());
    }

    #[test]
    fn frames_for_completed_segments_are_ignored() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let data = vec![3u8; 64]; // exactly one segment
        let enc = StreamEncoder::new(config(), &data).unwrap();
        let mut dec = StreamDecoder::new(config(), 1, data.len());
        while !dec.is_complete() {
            dec.push(enc.next_frame(&mut rng)).unwrap();
        }
        assert!(!dec.push(enc.next_frame(&mut rng)).unwrap());
        assert_eq!(dec.recover().unwrap(), data);
    }
}
