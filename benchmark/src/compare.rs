//! `--compare a.json b.json`: per metric x workload, how much worse `b`'s
//! median is than `a`'s, against the bound `BENCHMARK.json` fixes.
//!
//! A difference is only called when the runs' own spread allows it:
//! where the quartile ranges of the two runs overlap although the
//! medians differ by more than the bound, or where either run's spread
//! is wider than the bound, the row reads "unresolved", not "ok".

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::json::{parse, Json};
use crate::names::{lookup, Better};
use crate::stats::Summary;

/// `BENCHMARK.json`, two directories up from nothing: next to this
/// package's directory.
pub fn benchmark_json_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("BENCHMARK.json")
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Metric name -> regression bound, from `BENCHMARK.json`'s `end_to_end`.
pub fn bounds(benchmark_json: &Json) -> BTreeMap<String, f64> {
    benchmark_json
        .get("end_to_end")
        .and_then(Json::as_array)
        .into_iter()
        .flatten()
        .filter_map(|m| Some((m.get("name")?.as_str()?.to_string(), m.get("bound")?.as_f64()?)))
        .collect()
}

/// One metric of one report; a missing quartile reads as the value.
fn reading(json: &Json) -> Option<Summary> {
    let value = json.get("value")?.as_f64()?;
    let field = |k: &str| json.get(k).and_then(Json::as_f64).unwrap_or(value);
    Some(Summary { value, q1: field("q1"), q3: field("q3"), n: field("n") as usize })
}

fn range(s: &Summary) -> (f64, f64) {
    (s.q1.min(s.q3), s.q1.max(s.q3))
}

/// The verdict for one row. `worse` is the share of `a`'s median by
/// which `b` is worse (negative: better).
fn verdict(a: &Summary, b: &Summary, worse: f64, bound: f64) -> &'static str {
    let ((a_lo, a_hi), (b_lo, b_hi)) = (range(a), range(b));
    let overlap = a_lo <= b_hi && b_lo <= a_hi;
    let noisy = a.spread().max(b.spread()) > bound;
    if worse.abs() > bound {
        match (overlap, worse > 0.0) {
            (true, _) => "unresolved",
            (false, true) => "WORSE",
            (false, false) => "better",
        }
    } else if noisy {
        "unresolved"
    } else {
        "ok"
    }
}

/// The comparison table and whether any gated row reads "WORSE".
///
/// # Errors
///
/// Unreadable or malformed input files.
pub fn compare(a: &Path, b: &Path, benchmark_json: &Path) -> Result<(String, bool), String> {
    let (a_json, b_json) = (read_json(a)?, read_json(b)?);
    let bounds = bounds(&read_json(benchmark_json)?);
    let workloads = |j: &Json| j.get("workloads").and_then(Json::as_object).cloned();
    let a_w = workloads(&a_json).ok_or_else(|| format!("{}: no \"workloads\"", a.display()))?;
    let b_w = workloads(&b_json).ok_or_else(|| format!("{}: no \"workloads\"", b.display()))?;

    let mut out = format!(
        "a = {}\nb = {}\n{:<22} {:<34} {:>14} {:>14} {:>9} {:>7}  {}\n",
        a.display(),
        b.display(),
        "workload",
        "metric",
        "a",
        "b",
        "b worse",
        "bound",
        "verdict"
    );
    let mut any_worse = false;
    for (workload, a_entry) in &a_w {
        let Some(b_entry) = b_w.get(workload) else { continue };
        let metrics = |e: &Json| e.get("metrics").and_then(Json::as_object).cloned();
        let (Some(a_m), Some(b_m)) = (metrics(a_entry), metrics(b_entry)) else { continue };
        for (name, a_metric) in &a_m {
            let (Some(ra), Some(rb)) = (reading(a_metric), b_m.get(name).and_then(reading)) else {
                continue;
            };
            let better = lookup(name).map_or(Better::Lower, |d| d.better);
            let worse = if ra.value == 0.0 {
                0.0
            } else {
                match better {
                    Better::Higher => (ra.value - rb.value) / ra.value.abs(),
                    Better::Lower => (rb.value - ra.value) / ra.value.abs(),
                }
            };
            let (bound_text, verdict_text) = match bounds.get(name) {
                Some(&bound) => (format!("{:.1}%", bound * 100.0), verdict(&ra, &rb, worse, bound)),
                None => ("-".to_string(), "not gated"),
            };
            any_worse |= verdict_text == "WORSE";
            out.push_str(&format!(
                "{workload:<22} {name:<34} {:>14.4} {:>14.4} {:>8.1}% {bound_text:>7}  {verdict_text}\n",
                ra.value,
                rb.value,
                worse * 100.0
            ));
        }
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reading(value: f64, q1: f64, q3: f64) -> Summary {
        Summary { value, q1, q3, n: 10 }
    }

    #[test]
    fn verdicts_respect_bound_and_spread() {
        let a = reading(100.0, 99.0, 101.0);
        // 20% worse, ranges apart.
        assert_eq!(verdict(&a, &reading(80.0, 79.0, 81.0), 0.20, 0.10), "WORSE");
        // 20% worse, but b's quartile range reaches back into a's.
        assert_eq!(verdict(&a, &reading(80.0, 70.0, 100.0), 0.20, 0.10), "unresolved");
        // Within the bound and tight.
        assert_eq!(verdict(&a, &reading(97.0, 96.0, 98.0), 0.03, 0.10), "ok");
        // Within the bound but b's own spread exceeds it.
        assert_eq!(verdict(&a, &reading(97.0, 85.0, 110.0), 0.03, 0.10), "unresolved");
        assert_eq!(verdict(&a, &reading(130.0, 129.0, 131.0), -0.30, 0.10), "better");
    }

    #[test]
    fn bounds_come_from_the_end_to_end_list() {
        let doc = parse(
            r#"{"end_to_end": [{"name": "x", "bound": 0.1}, {"name": "setup_s", "bound": 0.25}]}"#,
        )
        .unwrap();
        let b = bounds(&doc);
        assert_eq!(b.get("x"), Some(&0.1));
        assert_eq!(b.get("setup_s"), Some(&0.25));
    }
}
