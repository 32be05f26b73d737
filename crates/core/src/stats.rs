//! Decoding statistics.

/// Counters accumulated by a [`crate::Decoder`] across its lifetime.
///
/// The paper's complexity discussion (Sec. 3, Sec. 4.1) counts row
/// operations and GF multiplications; these statistics expose the same
/// quantities so experiments can verify complexity claims: ~n² row
/// operations over `[coefficients | transform]` rows of 2n bytes while blocks
/// arrive, then one n × n by n × k product over the payloads at completion.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct DecodeStats {
    /// Total coded blocks offered to the decoder.
    pub received: usize,
    /// Blocks that increased the decoding rank.
    pub innovative: usize,
    /// Blocks that reduced to an all-zero row (linearly dependent) and were
    /// discarded, exactly as the Gauss-Jordan process does implicitly.
    pub discarded_dependent: usize,
    /// Row operations executed (normalizations + eliminations), each over
    /// one 2n-byte `[coefficients | transform]` row.
    pub row_ops: usize,
    /// Byte-wide GF multiplications executed: 2n per row operation, plus the
    /// n²·k of the payload product once the decoder is complete.
    pub gf_multiplications: u64,
}

impl DecodeStats {
    /// The linear-dependence overhead ratio: dependent / received.
    pub fn dependence_overhead(&self) -> f64 {
        if self.received == 0 {
            0.0
        } else {
            self.discarded_dependent as f64 / self.received as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_ratio() {
        let mut s = DecodeStats::default();
        assert_eq!(s.dependence_overhead(), 0.0);
        s.received = 10;
        s.discarded_dependent = 1;
        assert!((s.dependence_overhead() - 0.1).abs() < 1e-12);
    }
}
