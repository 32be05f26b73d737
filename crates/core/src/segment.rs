//! Coding configurations and source segments.

use crate::error::Error;
use bytes::Bytes;

/// The `(n, k)` parameters of one coding generation: `n` blocks of `k` bytes
/// (the paper's notation throughout).
///
/// ```
/// use nc_rlnc::CodingConfig;
/// let config = CodingConfig::new(128, 4096)?; // the paper's streaming setting
/// assert_eq!(config.segment_bytes(), 512 * 1024);
/// # Ok::<(), nc_rlnc::Error>(())
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct CodingConfig {
    blocks: usize,
    block_size: usize,
}

impl CodingConfig {
    /// Creates a configuration with `blocks` (= n) blocks of `block_size`
    /// (= k) bytes.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if either parameter is zero.
    pub fn new(blocks: usize, block_size: usize) -> Result<CodingConfig, Error> {
        if blocks == 0 {
            return Err(Error::InvalidConfig { reason: "block count must be non-zero" });
        }
        if block_size == 0 {
            return Err(Error::InvalidConfig { reason: "block size must be non-zero" });
        }
        Ok(CodingConfig { blocks, block_size })
    }

    /// The number of blocks per generation, the paper's `n`.
    #[inline]
    pub fn blocks(&self) -> usize {
        self.blocks
    }

    /// The block size in bytes, the paper's `k`.
    #[inline]
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Total payload bytes per segment: `n · k`.
    #[inline]
    pub fn segment_bytes(&self) -> usize {
        self.blocks * self.block_size
    }

    /// Bytes of one coded block on the wire: `n` coefficients + `k` payload.
    #[inline]
    pub fn coded_block_bytes(&self) -> usize {
        self.blocks + self.block_size
    }

    /// The coding overhead ratio `n / k` the paper cites when discussing how
    /// coefficient processing shrinks relative to payload as `k` grows.
    #[inline]
    pub fn coefficient_overhead(&self) -> f64 {
        self.blocks as f64 / self.block_size as f64
    }
}

/// One segment of source data: exactly `n · k` bytes, viewed as `n` source
/// blocks `b_1 … b_n` of `k` bytes each.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Segment {
    config: CodingConfig,
    data: Bytes,
}

impl Segment {
    /// Wraps `data` (which must be exactly `config.segment_bytes()` long).
    ///
    /// # Errors
    ///
    /// Returns [`Error::SizeMismatch`] on a length mismatch — use
    /// [`Segment::from_bytes_padded`] for arbitrary-length input.
    pub fn from_bytes(config: CodingConfig, data: impl Into<Bytes>) -> Result<Segment, Error> {
        let data = data.into();
        if data.len() != config.segment_bytes() {
            return Err(Error::SizeMismatch {
                expected: config.segment_bytes(),
                actual: data.len(),
            });
        }
        Ok(Segment { config, data })
    }

    /// Wraps `data`, zero-padding it up to `config.segment_bytes()`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SizeMismatch`] if `data` is *longer* than one
    /// segment.
    pub fn from_bytes_padded(config: CodingConfig, data: &[u8]) -> Result<Segment, Error> {
        if data.len() > config.segment_bytes() {
            return Err(Error::SizeMismatch {
                expected: config.segment_bytes(),
                actual: data.len(),
            });
        }
        // lint: allow(vec-capacity) — once-per-stream segmentation setup, not a per-frame path.
        let mut padded = Vec::with_capacity(config.segment_bytes());
        padded.extend_from_slice(data);
        padded.resize(config.segment_bytes(), 0);
        Ok(Segment { config, data: padded.into() })
    }

    /// The segment's coding configuration.
    #[inline]
    pub fn config(&self) -> CodingConfig {
        self.config
    }

    /// The raw segment bytes.
    #[inline]
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Source block `i` (`0 ≤ i < n`) as a byte slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    #[inline]
    pub fn block(&self, i: usize) -> &[u8] {
        let k = self.config.block_size;
        &self.data[i * k..(i + 1) * k]
    }

    /// Iterates over the `n` source blocks in order.
    pub fn iter_blocks(&self) -> impl Iterator<Item = &[u8]> {
        self.data.chunks_exact(self.config.block_size)
    }
}

/// Splits an arbitrary byte stream into segments of `config.segment_bytes()`
/// each, zero-padding the final segment (the media "segments" of the
/// paper's streaming scenario, e.g. 512 KB of video per segment).
pub fn segment_stream(config: CodingConfig, data: &[u8]) -> Vec<Segment> {
    if data.is_empty() {
        return Vec::new();
    }
    data.chunks(config.segment_bytes())
        .map(|chunk| {
            Segment::from_bytes_padded(config, chunk).expect("chunk cannot exceed segment size")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_rejects_zero_parameters() {
        assert!(CodingConfig::new(0, 16).is_err());
        assert!(CodingConfig::new(16, 0).is_err());
        assert!(CodingConfig::new(1, 1).is_ok());
    }

    #[test]
    fn paper_streaming_setting() {
        let c = CodingConfig::new(128, 4096).unwrap();
        assert_eq!(c.segment_bytes(), 512 * 1024);
        assert_eq!(c.coded_block_bytes(), 128 + 4096);
        assert!((c.coefficient_overhead() - 0.03125).abs() < 1e-12);
    }

    #[test]
    fn segment_blocks_partition_data() {
        let config = CodingConfig::new(4, 8).unwrap();
        let data: Vec<u8> = (0..32).collect();
        let seg = Segment::from_bytes(config, data.clone()).unwrap();
        assert_eq!(seg.block(0), &data[0..8]);
        assert_eq!(seg.block(3), &data[24..32]);
        let collected: Vec<u8> = seg.iter_blocks().flatten().copied().collect();
        assert_eq!(collected, data);
    }

    #[test]
    fn from_bytes_rejects_wrong_length() {
        let config = CodingConfig::new(4, 8).unwrap();
        assert_eq!(
            Segment::from_bytes(config, vec![0u8; 31]).unwrap_err(),
            Error::SizeMismatch { expected: 32, actual: 31 }
        );
    }

    #[test]
    fn padded_construction_and_overflow() {
        let config = CodingConfig::new(2, 4).unwrap();
        let seg = Segment::from_bytes_padded(config, &[1, 2, 3]).unwrap();
        assert_eq!(seg.data(), &[1, 2, 3, 0, 0, 0, 0, 0]);
        assert!(Segment::from_bytes_padded(config, &[0; 9]).is_err());
    }

    #[test]
    fn stream_segmentation_roundtrip() {
        let config = CodingConfig::new(3, 5).unwrap();
        let data: Vec<u8> = (0..40u8).collect(); // 2.67 segments
        let segs = segment_stream(config, &data);
        assert_eq!(segs.len(), 3);
        let joined: Vec<u8> = segs.iter().flat_map(|seg| seg.data()).copied().collect();
        assert_eq!(joined[..data.len()], data[..]);
        assert!(joined[data.len()..].iter().all(|&b| b == 0), "zero padding");
    }

    #[test]
    fn empty_stream_produces_no_segments() {
        let config = CodingConfig::new(3, 5).unwrap();
        assert!(segment_stream(config, &[]).is_empty());
    }
}
