//! Order statistics for repetition samples.
//!
//! Every timing the benchmark reports is a median over equal-work
//! repetitions with its quartiles and sample count; quartiles follow
//! Python's `statistics.quantiles(values, n=4)` so the numbers here and
//! the driver's spread check agree.

/// Median, quartiles and count of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// The reported value (median of the samples).
    pub value: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// A value measured once (no spread information).
    pub fn single(value: f64) -> Summary {
        Summary { value, q1: value, q3: value, n: 1 }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.value.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    v
}

/// The `i`-th of `parts` cut points, Python's "exclusive" method.
fn cut(sorted: &[f64], i: usize, parts: usize) -> f64 {
    let len = sorted.len();
    match len {
        0 => return 0.0,
        1 => return sorted[0],
        _ => {}
    }
    let m = len + 1;
    let j = (i * m / parts).clamp(1, len - 1);
    let delta = (i * m) as f64 - (j * parts) as f64;
    (sorted[j - 1] * (parts as f64 - delta) + sorted[j] * delta) / parts as f64
}

/// Median and quartiles of `values` (non-finite samples are dropped).
pub fn summarize(values: &[f64]) -> Summary {
    let v = sorted(values);
    Summary { value: cut(&v, 2, 4), q1: cut(&v, 1, 4), q3: cut(&v, 3, 4), n: v.len() }
}

/// The `p`-th percentile of `values`, or `None` unless at least ten
/// samples lie beyond it (a tail read off fewer is noise).
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    // The epsilon keeps 100 samples at p90 (exactly ten beyond) in.
    if (v.len() as f64) * (100.0 - p) / 100.0 + 1e-9 < 10.0 {
        return None;
    }
    let idx = ((v.len() as f64 * p / 100.0).ceil() as usize).clamp(1, v.len()) - 1;
    Some(v[idx])
}

/// The highest percentile that still has at least ten samples beyond it,
/// with its value: `(percentile, value)`. Falls back to the median when
/// even p90 would rest on fewer than ten samples.
pub fn high_percentile(values: &[f64]) -> (f64, f64) {
    [99.9, 99.0, 95.0, 90.0]
        .into_iter()
        .find_map(|p| percentile(values, p).map(|v| (p, v)))
        .unwrap_or((50.0, summarize(values).value))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.value, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.value, s.q3), (1.0, 2.0, 3.0));
        assert_eq!(summarize(&[4.0]), Summary::single(4.0));
    }

    #[test]
    fn high_percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(high_percentile(&v), (99.0, 990.0));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(high_percentile(&v), (90.0, 90.0));
        let v: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(high_percentile(&v).0, 50.0);
    }
}
