//! Stream-level coding: segmenting an arbitrary byte stream into
//! generations and decoding it back — the file/stream transfer layer that
//! bulk distribution (Avalanche) and VoD streaming both sit on.
//!
//! A dense frame is a segment index, the segment count and one coded block.
//! [`StreamEncoder`] writes frames through [`StreamCodecSender::frame_into`]
//! and [`StreamDecoder`] takes them through [`StreamCodecReceiver::absorb`].

use crate::codec::{Absorbed, CodecId, StreamCodecReceiver, StreamCodecSender};
use crate::decoder::Elimination;
use crate::encoder::Encoder;
use crate::error::Error;
use crate::segment::{segment_stream, CodingConfig};
use nc_gf256::region;
use rand::RngCore;

/// Bytes in front of a frame's coded block: segment index + segment count.
const FRAME_HEADER_BYTES: usize = 8;

/// Splits a frame's wire bytes into `(segment, coefficients, payload)`
/// without copying.
///
/// Format: 4-byte little-endian segment index, 4-byte little-endian total
/// segment count, then the block: `n` coefficients and `k` payload bytes.
/// [`Error::SizeMismatch`] if the byte count is wrong.
fn split_wire(config: CodingConfig, bytes: &[u8]) -> Result<(usize, &[u8], &[u8]), Error> {
    let expected = FRAME_HEADER_BYTES + config.coded_block_bytes();
    if bytes.len() != expected {
        return Err(Error::SizeMismatch { expected, actual: bytes.len() });
    }
    let segment = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes")) as usize;
    let (coefficients, payload) = bytes[FRAME_HEADER_BYTES..].split_at(config.blocks());
    Ok((segment, coefficients, payload))
}

/// Encodes a whole byte stream: one [`Encoder`] per segment, frames written
/// per segment and sequence number.
///
/// ```
/// use nc_rlnc::stream::{StreamDecoder, StreamEncoder};
/// use nc_rlnc::{CodingConfig, StreamCodecReceiver, StreamCodecSender};
/// use rand::SeedableRng;
///
/// let config = CodingConfig::new(4, 16)?;
/// let data: Vec<u8> = (0..150u8).collect(); // 2.34 segments
/// let encoder = StreamEncoder::new(config, &data)?;
/// let mut decoder = StreamDecoder::new(config, encoder.total_segments(), data.len());
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// // Frame `seq < n` of a segment is source block `seq`, later frames are
/// // coded. Every segment's frame 0 is lost; a coded frame stands in.
/// let mut seq = 1;
/// while !decoder.is_complete() {
///     for segment in 0..encoder.total_segments() {
///         decoder.absorb(&encoder.frame_wire(segment, seq, &mut rng))?;
///     }
///     seq += 1;
/// }
/// assert_eq!(decoder.recover().unwrap(), data);
/// # Ok::<(), nc_rlnc::Error>(())
/// ```
#[derive(Clone, Debug)]
pub struct StreamEncoder {
    config: CodingConfig,
    encoders: Vec<Encoder>,
    original_len: usize,
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
        Ok(StreamEncoder { config, encoders, original_len: data.len() })
    }

    /// Number of segments in the stream.
    pub fn total_segments(&self) -> usize {
        self.encoders.len()
    }
}

impl StreamCodecSender for StreamEncoder {
    fn codec(&self) -> CodecId {
        CodecId::DenseRlnc
    }

    fn coding_config(&self) -> CodingConfig {
        self.config
    }

    fn total_segments(&self) -> usize {
        self.encoders.len()
    }

    fn original_len(&self) -> usize {
        self.original_len
    }

    fn frame_wire_bytes(&self) -> usize {
        FRAME_HEADER_BYTES + self.config.coded_block_bytes()
    }

    /// Writes frame `seq` of `segment`, every byte once and nothing
    /// allocated. The stream is systematic: for `seq < n` the frame is
    /// source block `seq` verbatim under the unit coefficient vector
    /// `e_seq`, with nothing drawn from `rng`; every later frame is
    /// [`Encoder::encode`]'s coefficient draw (same RNG order) and payload.
    fn frame_into(&self, segment: usize, seq: u64, mut rng: &mut dyn RngCore, out: &mut [u8]) {
        assert_eq!(out.len(), self.frame_wire_bytes(), "frame buffer length");
        let (header, block) = out.split_at_mut(FRAME_HEADER_BYTES);
        header[0..4].copy_from_slice(&(segment as u32).to_le_bytes());
        header[4..8].copy_from_slice(&(self.total_segments() as u32).to_le_bytes());
        let (coefficients, payload) = block.split_at_mut(self.config.blocks());
        let encoder = &self.encoders[segment];
        match usize::try_from(seq).ok().filter(|&source| source < self.config.blocks()) {
            Some(source) => encoder.systematic_into(source, coefficients, payload),
            None => encoder.encode_into(&mut rng, coefficients, payload),
        }
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
/// [`StreamCodecReceiver::into_recovered`] is a truncation, not a reassembly.
///
/// The output buffer is reserved whole — every segment, padding included —
/// by the stream's first absorbed frame, and never reallocated after: a
/// segment's first frame only extends it, zero-filled, in place.
#[derive(Clone, Debug)]
pub struct StreamDecoder {
    config: CodingConfig,
    original_len: usize,
    segments: Vec<SegmentDecode>,
    complete: usize,
    /// Segment after segment. Empty until the first frame is absorbed, so
    /// an announced-but-never-sent stream costs no memory; that frame
    /// reserves `total_segments × segment_bytes` in one step, and each
    /// later segment's first frame extends the length (zero-filled) up to
    /// its own slice without moving the buffer.
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
}

impl StreamCodecReceiver for StreamDecoder {
    fn codec(&self) -> CodecId {
        CodecId::DenseRlnc
    }

    /// Absorbs one frame, copying its payload once, into `output`. Frames
    /// for an already complete segment are ignored.
    ///
    /// # Errors
    ///
    /// [`Error::SizeMismatch`] for a frame of the wrong length,
    /// [`Error::DimensionMismatch`] for an out-of-range segment index, and
    /// [`Error::InvalidConfig`] if the stream is too large to buffer on this
    /// host.
    fn absorb(&mut self, frame: &[u8]) -> Result<Absorbed, Error> {
        let (segment, coefficients, payload) = split_wire(self.config, frame)?;
        let (n, k) = (self.config.blocks(), self.config.block_size());
        let total_segments = self.segments.len();
        let Some(state) = self.segments.get_mut(segment) else {
            return Err(Error::DimensionMismatch { op: "stream frame segment index" });
        };
        let not_innovative = Absorbed { segment, innovative: false, segment_complete: false };
        if state.elimination.is_full() {
            return Ok(not_innovative);
        }
        const TOO_LARGE: Error = Error::InvalidConfig { reason: "stream too large to buffer" };
        let segment_bytes = self.config.segment_bytes();
        let stream_bytes = total_segments.checked_mul(segment_bytes).ok_or(TOO_LARGE)?;
        if self.output.capacity() < stream_bytes {
            // The whole stream, reserved by its first frame, so `output`
            // never moves: later segments extend it in place.
            let additional = stream_bytes - self.output.len();
            // lint: allow(vec-capacity) — the stream's own output buffer, once per stream; it is what `into_recovered` hands over.
            self.output.try_reserve_exact(additional).map_err(|_| TOO_LARGE)?;
        }
        // No overflow: `segment` is in range and the whole stream fit.
        let end = (segment + 1) * segment_bytes;
        if self.output.len() < end {
            self.output.resize(end, 0);
        }
        if state.slots.is_empty() {
            // Sized by the segment's first frame, like the elimination
            // rows, so no later frame allocates.
            state.slots.resize(n, Slot::Free);
        }
        let metrics = crate::metrics::metrics();
        metrics.blocks_received.inc();
        let row = state.elimination.rank();
        if !state.elimination.push(coefficients) {
            metrics.blocks_dependent.inc();
            return Ok(not_innovative);
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
        let segment_complete = state.elimination.is_full();
        if segment_complete {
            solve_lost(&state.elimination, &state.slots, held, &mut self.scratch);
            self.complete += 1;
        }
        Ok(Absorbed { segment, innovative: true, segment_complete })
    }

    fn segment_complete(&self, segment: usize) -> bool {
        self.segments.get(segment).is_some_and(|s| s.elimination.is_full())
    }

    fn segments_complete(&self) -> usize {
        self.complete
    }

    fn is_complete(&self) -> bool {
        self.complete == self.segments.len()
    }

    fn recover(&self) -> Option<Vec<u8>> {
        self.is_complete().then(|| self.output[..self.original_len.min(self.output.len())].to_vec())
    }

    /// The stream once complete, without copying it: the decoder's own
    /// buffer, cut to the original length.
    fn into_recovered(self: Box<Self>) -> Option<Vec<u8>> {
        if !self.is_complete() {
            return None;
        }
        let mut this = *self;
        this.output.truncate(this.original_len);
        Some(this.output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::CodedBlock;
    use rand::{Rng, SeedableRng};

    fn config() -> CodingConfig {
        CodingConfig::new(4, 16).unwrap()
    }

    /// Any `seq >= n` asks for a coded frame.
    const CODED: u64 = u64::MAX;

    /// `block` laid out as frame bytes of `segment` in a `total`-segment
    /// stream: the layout `split_wire` parses.
    fn frame_bytes(segment: usize, total: usize, block: &CodedBlock) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(segment as u32).to_le_bytes());
        out.extend_from_slice(&(total as u32).to_le_bytes());
        out.extend_from_slice(block.coefficients());
        out.extend_from_slice(block.payload());
        out
    }

    /// Overall progress as `(innovative blocks, needed blocks)`.
    fn progress(dec: &StreamDecoder) -> (usize, usize) {
        let have = dec.segments.iter().map(|s| s.elimination.rank()).sum();
        (have, dec.segments.len() * dec.config.blocks())
    }

    #[test]
    fn stream_roundtrip_with_padding() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let data: Vec<u8> = (0..1000).map(|_| rng.gen()).collect(); // 15.6 segments
        let enc = StreamEncoder::new(config(), &data).unwrap();
        assert_eq!(enc.total_segments(), 16);
        let mut dec = StreamDecoder::new(config(), enc.total_segments(), data.len());
        for segment in (0..enc.total_segments()).cycle() {
            if dec.is_complete() {
                break;
            }
            dec.absorb(&enc.frame_wire(segment, CODED, &mut rng)).unwrap();
        }
        assert_eq!(dec.recover().unwrap(), data);
    }

    #[test]
    fn frames_below_n_are_source_blocks_and_later_frames_keep_the_rng_order() {
        // 2.34 segments: the tail segment's blocks are zero-padded.
        let data: Vec<u8> = (0..150u32).map(|i| (i * 7 + 3) as u8).collect();
        let enc = StreamEncoder::new(config(), &data).unwrap();
        let total = enc.total_segments();
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let mut twin_rng = rand::rngs::StdRng::seed_from_u64(8);
        let mut out = vec![0xEE; enc.frame_wire_bytes()];
        for segment in 0..total {
            for seq in 0..4 {
                enc.frame_into(segment, seq, &mut rng, &mut out);
                let source = enc.encoders[segment].systematic(seq as usize);
                assert_eq!(out, frame_bytes(segment, total, &source));
            }
            // Nothing was drawn above: from seq n on, the frames are the
            // coded blocks of a twin RNG, laid out as frames.
            for seq in [4, 5, u64::MAX] {
                enc.frame_into(segment, seq, &mut rng, &mut out);
                let coded = enc.encoders[segment].encode(&mut twin_rng);
                assert_eq!(out, frame_bytes(segment, total, &coded));
            }
        }
    }

    #[test]
    fn wire_rejects_wrong_length() {
        let mut dec = StreamDecoder::new(config(), 1, 64);
        let expected = 8 + config().coded_block_bytes();
        for actual in [0, 5, expected - 1, expected + 1] {
            assert_eq!(dec.absorb(&vec![0; actual]), Err(Error::SizeMismatch { expected, actual }));
        }
        assert_eq!(progress(&dec), (0, 4));
    }

    #[test]
    fn out_of_range_segment_is_an_error() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let data = vec![1u8; 64];
        let enc = StreamEncoder::new(config(), &data).unwrap();
        let mut frame = enc.frame_wire(0, CODED, &mut rng);
        frame[0..4].copy_from_slice(&99u32.to_le_bytes());
        let mut dec = StreamDecoder::new(config(), 1, data.len());
        assert!(matches!(dec.absorb(&frame), Err(Error::DimensionMismatch { .. })));
        assert_eq!(progress(&dec), (0, 4));
    }

    #[test]
    fn progress_is_monotone() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let data = vec![9u8; 200];
        let enc = StreamEncoder::new(config(), &data).unwrap();
        let mut dec = StreamDecoder::new(config(), enc.total_segments(), data.len());
        let mut last = 0;
        for segment in (0..enc.total_segments()).cycle() {
            if dec.is_complete() {
                break;
            }
            dec.absorb(&enc.frame_wire(segment, CODED, &mut rng)).unwrap();
            let (have, need) = progress(&dec);
            assert!(have >= last && have <= need);
            last = have;
        }
        assert_eq!(dec.segments_complete(), enc.total_segments());
    }

    #[test]
    fn encoder_is_sync_and_shareable_across_threads() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<StreamEncoder>();

        // One shared encoder instance feeding four sender threads, each
        // writing the coded frames of its own quarter of the segments.
        let data: Vec<u8> = (0..1024u32).map(|i| (i * 7) as u8).collect(); // 16 segments
        let enc = StreamEncoder::new(config(), &data).unwrap();
        let frames = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for t in 0..4usize {
                let enc = &enc;
                let frames = &frames;
                s.spawn(move || {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(100 + t as u64);
                    let local: Vec<Vec<u8>> =
                        (0..40).map(|i| enc.frame_wire(t + 4 * (i % 4), CODED, &mut rng)).collect();
                    frames.lock().unwrap().extend(local);
                });
            }
        });
        let frames = frames.into_inner().unwrap();
        assert_eq!(frames.len(), 160);
        let mut dec = StreamDecoder::new(config(), enc.total_segments(), data.len());
        let mut per_segment = [0usize; 16];
        for frame in frames {
            per_segment[dec.absorb(&frame).unwrap().segment] += 1;
        }
        assert!(per_segment.iter().all(|&c| c == 10), "{per_segment:?}");
        let mut rng = rand::rngs::StdRng::seed_from_u64(200);
        for segment in (0..enc.total_segments()).cycle() {
            if dec.is_complete() {
                break;
            }
            dec.absorb(&enc.frame_wire(segment, CODED, &mut rng)).unwrap();
        }
        assert_eq!(dec.recover().unwrap(), data);
    }

    #[test]
    fn empty_stream_is_rejected() {
        assert!(StreamEncoder::new(config(), &[]).is_err());
    }

    #[test]
    fn decode_into_place_matches_the_per_segment_decoder_bit_for_bit() {
        use crate::decoder::Decoder;
        // 2.34 segments, so the tail segment is zero-padded. Every frame
        // goes to the stream decoder as wire bytes and to one reference
        // `Decoder` per segment as an owned block.
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let data: Vec<u8> = (0..150).map(|_| rng.gen()).collect();
        let enc = StreamEncoder::new(config(), &data).unwrap();
        let mut dec = StreamDecoder::new(config(), enc.total_segments(), data.len());
        let mut reference: Vec<Decoder> =
            (0..enc.total_segments()).map(|_| Decoder::new(config())).collect();
        let mut late = 0;
        // Keep going past completion: late frames must change nothing.
        for segment in (0..enc.total_segments()).cycle() {
            if dec.is_complete() && late == 8 {
                break;
            }
            late += usize::from(dec.is_complete());
            let wire = enc.frame_wire(segment, CODED, &mut rng);
            let (_, coefficients, payload) = split_wire(config(), &wire).unwrap();
            let block = CodedBlock::new(coefficients.to_vec(), payload.to_vec());
            let was_complete = reference[segment].is_complete();
            let want = reference[segment].push(block).unwrap();
            let absorbed = dec.absorb(&wire).unwrap();
            assert_eq!(absorbed.segment, segment);
            assert_eq!(absorbed.innovative, want);
            assert_eq!(
                absorbed.segment_complete,
                !was_complete && reference[segment].is_complete()
            );
            assert_eq!(dec.segment_complete(segment), reference[segment].is_complete());
            assert!(!(was_complete && want), "a complete segment takes nothing more");
        }
        let mut want: Vec<u8> = reference.iter().flat_map(|d| d.recover().unwrap()).collect();
        assert_eq!(want.len(), 3 * config().segment_bytes());
        want.truncate(data.len());
        assert_eq!(want, data);
        assert_eq!(dec.recover().unwrap(), want);
        assert_eq!(Box::new(dec).into_recovered().unwrap(), want);
    }

    #[test]
    fn the_output_buffer_is_reserved_whole_once_and_never_moves() {
        use rand::seq::SliceRandom;
        // 5.5 segments, so the tail segment is zero-padded. Each round
        // sends the next n frames of every incomplete segment (systematic
        // first, then coded), shuffled across segments, 30 % dropped.
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let data: Vec<u8> = (0..352).map(|_| rng.gen()).collect();
        let enc = StreamEncoder::new(config(), &data).unwrap();
        let total = enc.total_segments();
        assert_eq!(total, 6);
        let mut dec = StreamDecoder::new(config(), total, data.len());
        let mut wire = vec![0; enc.frame_wire_bytes()];
        let mut first = None;
        for round in 0.. {
            let seqs = round * 4..(round + 1) * 4;
            let mut frames: Vec<(usize, u64)> = (0..total)
                .filter(|&segment| !dec.segment_complete(segment))
                .flat_map(|segment| seqs.clone().map(move |seq| (segment, seq)))
                .collect();
            if frames.is_empty() {
                break;
            }
            frames.shuffle(&mut rng);
            for (segment, seq) in frames {
                if rng.gen_bool(0.3) {
                    continue;
                }
                enc.frame_into(segment, seq, &mut rng, &mut wire);
                dec.absorb(&wire).unwrap();
                let buffer = (dec.output.as_ptr(), dec.output.capacity());
                assert_eq!(buffer.1, total * config().segment_bytes());
                assert_eq!(*first.get_or_insert(buffer), buffer, "the output buffer moved");
            }
        }
        let recovered = Box::new(dec).into_recovered().unwrap();
        assert_eq!(Some((recovered.as_ptr(), recovered.capacity())), first);
        assert_eq!(recovered, data);
    }

    #[test]
    fn incomplete_streams_do_not_recover() {
        let mut dec = StreamDecoder::new(config(), 2, 100);
        let unit = CodedBlock::new(vec![1, 0, 0, 0], vec![7; 16]);
        let absorbed = dec.absorb(&frame_bytes(1, 2, &unit)).unwrap();
        assert_eq!(absorbed, Absorbed { segment: 1, innovative: true, segment_complete: false });
        assert_eq!(progress(&dec), (1, 8));
        assert!(dec.recover().is_none());
        assert!(Box::new(dec).into_recovered().is_none());
    }

    #[test]
    fn frames_for_completed_segments_are_ignored() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let data = vec![3u8; 64]; // exactly one segment
        let enc = StreamEncoder::new(config(), &data).unwrap();
        let mut dec = StreamDecoder::new(config(), 1, data.len());
        while !dec.is_complete() {
            dec.absorb(&enc.frame_wire(0, CODED, &mut rng)).unwrap();
        }
        for seq in [0, CODED] {
            let absorbed = dec.absorb(&enc.frame_wire(0, seq, &mut rng)).unwrap();
            assert!(!absorbed.innovative && !absorbed.segment_complete);
        }
        assert_eq!(dec.recover().unwrap(), data);
    }
}
