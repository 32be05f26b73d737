//! Stream-level coding: segmenting an arbitrary byte stream into
//! generations and reassembling it — the file/stream transfer layer that
//! bulk distribution (Avalanche) and VoD streaming both sit on.
//!
//! The wire unit is a [`StreamFrame`]: a segment index plus one coded
//! block, with a self-describing byte format.

use crate::block::CodedBlock;
use crate::decoder::Decoder;
use crate::encoder::Encoder;
use crate::error::Error;
use crate::segment::{segment_stream, CodingConfig};
use rand::Rng;
use std::collections::BTreeMap;
// The round-robin cursor goes through nc-check's shim so the checker can
// explore concurrent `next_frame` callers (std re-export in normal builds).
use nc_check::sync::atomic::{AtomicUsize, Ordering};

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
        let mut out = nc_pool::BytesPool::global().take_capacity(8 + self.block.wire_len());
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
        if bytes.len() != 8 + config.coded_block_bytes() {
            return Err(Error::SizeMismatch {
                expected: 8 + config.coded_block_bytes(),
                actual: bytes.len(),
            });
        }
        let segment = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes"));
        let total_segments = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        let block = CodedBlock::from_wire(config, &bytes[8..])?;
        Ok(StreamFrame { segment, total_segments, block })
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

/// Receives frames for a whole stream and reassembles the original bytes.
#[derive(Clone, Debug)]
pub struct StreamDecoder {
    config: CodingConfig,
    decoders: Vec<Decoder>,
    original_len: usize,
}

impl StreamDecoder {
    /// Prepares a decoder for `total_segments` segments of an
    /// `original_len`-byte stream.
    pub fn new(config: CodingConfig, total_segments: usize, original_len: usize) -> StreamDecoder {
        StreamDecoder {
            config,
            decoders: (0..total_segments).map(|_| Decoder::new(config)).collect(),
            original_len,
        }
    }

    /// Absorbs one frame; returns whether it was innovative.
    ///
    /// # Errors
    ///
    /// [`Error::DimensionMismatch`] for out-of-range segment indices and
    /// any block-shape error from the underlying decoder.
    pub fn push(&mut self, frame: StreamFrame) -> Result<bool, Error> {
        let idx = frame.segment as usize;
        let Some(decoder) = self.decoders.get_mut(idx) else {
            return Err(Error::DimensionMismatch { op: "stream frame segment index" });
        };
        if decoder.is_complete() {
            return Ok(false);
        }
        decoder.push(frame.block)
    }

    /// Segments fully decoded so far.
    pub fn segments_complete(&self) -> usize {
        self.decoders.iter().filter(|d| d.is_complete()).count()
    }

    /// Whether one specific segment is fully decoded (out-of-range reads
    /// as false).
    pub fn segment_complete(&self, segment: usize) -> bool {
        self.decoders.get(segment).is_some_and(Decoder::is_complete)
    }

    /// Whether every segment is decoded.
    pub fn is_complete(&self) -> bool {
        self.decoders.iter().all(|d| d.is_complete())
    }

    /// Overall progress as `(innovative blocks, needed blocks)`.
    pub fn progress(&self) -> (usize, usize) {
        let have = self.decoders.iter().map(|d| d.rank()).sum();
        let need = self.decoders.len() * self.config.blocks();
        (have, need)
    }

    /// Reassembles the stream once complete.
    pub fn recover(&self) -> Option<Vec<u8>> {
        if !self.is_complete() {
            return None;
        }
        // lint: allow(vec-capacity) — recovery output that escapes to the caller; no recycle edge.
        let mut out = Vec::with_capacity(self.original_len);
        for d in &self.decoders {
            out.extend_from_slice(&d.recover().expect("complete"));
        }
        out.truncate(self.original_len);
        Some(out)
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
