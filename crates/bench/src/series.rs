//! Series containers and the aligned table printer used by every figure
//! binary.

use serde::{Deserialize, Serialize};

/// One plotted series: a label and `(x, y)` points (x = block size in
/// bytes, y = bandwidth in MB/s unless a binary says otherwise).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub(crate) struct Series {
    /// Legend label, matching the paper's (e.g. `"GTX280 (n=128)"`).
    pub(crate) label: String,
    /// The data points.
    pub(crate) points: Vec<(usize, f64)>,
}

impl Series {
    /// Creates an empty series.
    pub(crate) fn new(label: impl Into<String>) -> Series {
        Series { label: label.into(), points: Vec::new() }
    }

    /// Appends a point.
    pub(crate) fn push(&mut self, x: usize, y: f64) {
        self.points.push((x, y));
    }

    /// The y value at a given x, if present.
    pub(crate) fn at(&self, x: usize) -> Option<f64> {
        self.points.iter().find(|(px, _)| *px == x).map(|(_, y)| *y)
    }

    /// The maximum y value (the "plateau" of a bandwidth curve).
    pub(crate) fn peak(&self) -> f64 {
        self.points.iter().map(|(_, y)| *y).fold(f64::NAN, f64::max)
    }
}

/// Formats aligned rows: block sizes down the side, one column per series —
/// the shape of the paper's plots, printed as a table.
pub(crate) fn format_table(title: &str, xlabel: &str, series: &[Series]) -> String {
    let mut xs: Vec<usize> = series.iter().flat_map(|s| s.points.iter().map(|p| p.0)).collect();
    xs.sort_unstable();
    xs.dedup();

    let mut out = String::new();
    out.push_str(&format!("## {title}\n"));
    let mut header = format!("{xlabel:>10}");
    for s in series {
        header.push_str(&format!("  {:>18}", s.label));
    }
    out.push_str(&header);
    out.push('\n');
    out.push_str(&"-".repeat(header.len()));
    out.push('\n');
    for x in xs {
        let xs_label =
            if x >= 1024 && x % 1024 == 0 { format!("{}K", x / 1024) } else { format!("{x}") };
        out.push_str(&format!("{xs_label:>10}"));
        for s in series {
            match s.at(x) {
                Some(y) => out.push_str(&format!("  {y:>18.1}")),
                None => out.push_str(&format!("  {:>18}", "-")),
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_accessors() {
        let mut s = Series::new("test");
        s.push(128, 10.0);
        s.push(256, 20.0);
        assert_eq!(s.at(128), Some(10.0));
        assert_eq!(s.at(512), None);
        assert_eq!(s.peak(), 20.0);
    }

    #[test]
    fn table_layout_includes_all_series() {
        let mut a = Series::new("A");
        a.push(128, 1.0);
        a.push(1024, 2.0);
        let mut b = Series::new("B");
        b.push(128, 3.0);
        let t = format_table("title", "k", &[a, b]);
        assert!(t.contains("## title"));
        assert!(t.contains("A"));
        assert!(t.contains("B"));
        assert!(t.contains("1K"));
        assert!(t.contains('-'));
    }

    #[test]
    fn missing_points_render_as_dashes() {
        let mut a = Series::new("A");
        a.push(128, 1.0);
        let mut b = Series::new("B");
        b.push(256, 3.0);
        let t = format_table("t", "k", &[a, b]);
        let dash_cells =
            t.matches("  -").count() + t.lines().filter(|l| l.trim_end().ends_with(" -")).count();
        assert!(dash_cells >= 2, "each series misses one x: {t}");
    }
}
