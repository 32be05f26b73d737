//! Configuration grids shared by the figure binaries.

/// The paper's block-size sweep: 128 bytes to 32 KiB, powers of two.
pub(crate) fn block_sizes() -> Vec<usize> {
    (7..=15).map(|e| 1usize << e).collect()
}

/// The paper's generation sizes.
pub(crate) const BLOCK_COUNTS: [usize; 3] = [128, 256, 512];

/// Extended generation sizes for Fig. 8 (up to 1024).
pub(crate) const BLOCK_COUNTS_FIG8: [usize; 4] = [128, 256, 512, 1024];

/// Converts a rate in bytes/second to the paper's MB/s (2^20 bytes).
pub(crate) fn to_mb(rate_bytes_per_s: f64) -> f64 {
    rate_bytes_per_s / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_matches_paper_range() {
        let ks = block_sizes();
        assert_eq!(ks.first(), Some(&128));
        assert_eq!(ks.last(), Some(&32768));
        assert_eq!(ks.len(), 9);
    }

    #[test]
    fn mb_conversion() {
        assert!((to_mb(1024.0 * 1024.0) - 1.0).abs() < 1e-12);
    }
}
