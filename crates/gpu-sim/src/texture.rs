//! Texture-cache model.
//!
//! The paper's Table-based-4 optimization moves the exp table into texture
//! memory: texture fetches are cached (per 3-SM cluster on Tesla), need
//! fewer address-calculation instructions than shared memory, and the cache
//! controller can merge pending requests to the same line. Public
//! documentation of the cache internals is scarce (the paper says as much),
//! so this model is deliberately simple: a direct-mapped, line-granular
//! cache per SM, with hits serviced at register speed and misses paying a
//! device-memory transaction.

use crate::stats::ExecCounters;

/// A direct-mapped texture cache for one SM.
#[derive(Debug)]
pub(crate) struct TexCache {
    /// Tag per line (`u64::MAX` = invalid).
    tags: Vec<u64>,
    line_bytes: u64,
}

impl TexCache {
    /// Creates a cache of `capacity` bytes with `line_bytes` lines.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate.
    pub(crate) fn new(capacity: usize, line_bytes: usize) -> TexCache {
        assert!(line_bytes > 0 && capacity >= line_bytes, "degenerate texture cache");
        TexCache { tags: vec![u64::MAX; capacity / line_bytes], line_bytes: line_bytes as u64 }
    }

    /// Services a warp of texture fetches at the given byte addresses,
    /// updating hit/miss counters and the underlying memory traffic.
    /// Requests from the same warp to one line are merged before the lookup
    /// (the request-combining behaviour the paper suspects).
    pub(crate) fn access(&mut self, counters: &mut ExecCounters, addrs: &[u64]) {
        // Merge same-line requests within the warp first.
        let mut lines: Vec<u64> = addrs.iter().map(|a| a / self.line_bytes).collect();
        lines.sort_unstable();
        lines.dedup();
        for line in lines {
            let set = (line % self.tags.len() as u64) as usize;
            if self.tags[set] == line {
                counters.tex_hits += 1;
            } else {
                counters.tex_misses += 1;
                self.tags[set] = line;
                counters.gmem_transactions += 1;
                counters.gmem_bytes += self.line_bytes;
            }
        }
    }

    /// Invalidates every line (between kernel launches the working set may
    /// have been overwritten by global stores, which Tesla textures do not
    /// snoop).
    pub(crate) fn invalidate(&mut self) {
        self.tags.fill(u64::MAX);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_touch_hits() {
        let mut cache = TexCache::new(8192, 32);
        let mut c = ExecCounters::default();
        cache.access(&mut c, &[100]);
        assert_eq!((c.tex_hits, c.tex_misses), (0, 1));
        cache.access(&mut c, &[101]); // same 32-byte line
        assert_eq!((c.tex_hits, c.tex_misses), (1, 1));
    }

    #[test]
    fn warp_requests_to_one_line_merge() {
        let mut cache = TexCache::new(8192, 32);
        let mut c = ExecCounters::default();
        let addrs: Vec<u64> = (0..32).map(|i| 64 + (i % 8)).collect();
        cache.access(&mut c, &addrs);
        assert_eq!(c.tex_misses, 1, "one line, one miss");
    }

    #[test]
    fn small_table_fits_and_stays_resident() {
        // A 512-byte exp table spans 16 lines of a 8 KiB cache: after one
        // cold pass every fetch hits.
        let mut cache = TexCache::new(8192, 32);
        let mut c = ExecCounters::default();
        for a in (0..512u64).step_by(32) {
            cache.access(&mut c, &[a]);
        }
        assert_eq!(c.tex_misses, 16);
        let miss_before = c.tex_misses;
        for a in 0..512u64 {
            cache.access(&mut c, &[a]);
        }
        assert_eq!(c.tex_misses, miss_before, "fully resident after warmup");
        assert_eq!(c.tex_hits, 512);
    }

    #[test]
    fn conflicting_lines_evict() {
        let mut cache = TexCache::new(64, 32); // 2 lines
        let mut c = ExecCounters::default();
        cache.access(&mut c, &[0]);
        cache.access(&mut c, &[64]); // maps to set 0 again (line 2 % 2 == 0)
        cache.access(&mut c, &[0]); // evicted → miss
        assert_eq!(c.tex_misses, 3);
    }

    #[test]
    fn invalidate_flushes() {
        let mut cache = TexCache::new(8192, 32);
        let mut c = ExecCounters::default();
        cache.access(&mut c, &[0]);
        cache.invalidate();
        cache.access(&mut c, &[0]);
        assert_eq!(c.tex_misses, 2);
    }

    #[test]
    fn misses_generate_memory_traffic() {
        let mut cache = TexCache::new(8192, 32);
        let mut c = ExecCounters::default();
        cache.access(&mut c, &[0, 32, 64]);
        assert_eq!(c.gmem_transactions, 3);
        assert_eq!(c.gmem_bytes, 96);
    }
}
