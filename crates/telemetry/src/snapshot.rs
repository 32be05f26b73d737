//! Point-in-time registry captures and their JSON form.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::json::{self, JsonError, JsonValue};

/// A [`crate::Histogram`] condensed to its summary statistics.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Estimated median (log-bucket midpoint, clamped to min/max).
    pub p50: u64,
    /// Estimated 95th percentile.
    pub p95: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
}

impl HistogramSnapshot {}

/// Every metric of one [`crate::Registry`] at a point in time.
///
/// Serializes to a deterministic (sorted-key) JSON object and parses back
/// exactly: `Snapshot::from_json(&snap.to_json()) == Ok(snap)` for any
/// snapshot whose gauges are finite (non-finite gauge values are never
/// stored — see [`crate::Gauge::set`]).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// The counter named `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// The gauge named `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The histogram summary named `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<HistogramSnapshot> {
        self.histograms.get(name).copied()
    }

    /// Serializes to a compact JSON object with sorted keys.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_string(&mut out, name);
            out.push(':');
            out.push_str(&value.to_string());
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_string(&mut out, name);
            out.push(':');
            json::write_f64(&mut out, *value);
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_string(&mut out, name);
            out.push_str(&format!(
                ":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                h.count, h.sum, h.min, h.max, h.p50, h.p95, h.p99
            ));
        }
        out.push_str("}}");
        out
    }

    /// Parses a snapshot back from [`Snapshot::to_json`] output (or any
    /// JSON object of the same shape; unknown top-level keys are
    /// rejected, missing sections default to empty).
    ///
    /// # Errors
    ///
    /// [`JsonError`] on malformed JSON or a shape mismatch.
    pub fn from_json(input: &str) -> Result<Snapshot, JsonError> {
        let value = json::parse(input)?;
        let JsonValue::Object(top) = value else {
            return Err(JsonError::shape("top level must be an object"));
        };
        let mut snap = Snapshot::default();
        for (key, section) in top {
            let JsonValue::Object(entries) = section else {
                return Err(JsonError::shape("sections must be objects"));
            };
            match key.as_str() {
                "counters" => {
                    for (name, v) in entries {
                        snap.counters.insert(name, v.as_u64()?);
                    }
                }
                "gauges" => {
                    for (name, v) in entries {
                        snap.gauges.insert(name, v.as_f64()?);
                    }
                }
                "histograms" => {
                    for (name, v) in entries {
                        snap.histograms.insert(name, histogram_from(v)?);
                    }
                }
                _ => return Err(JsonError::shape("unknown top-level key")),
            }
        }
        Ok(snap)
    }

    /// Writes [`Snapshot::to_json`] (plus a trailing newline) to `path`.
    ///
    /// # Errors
    ///
    /// Any file I/O error.
    pub fn write_json_file(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let mut file = std::fs::File::create(path)?;
        file.write_all(self.to_json().as_bytes())?;
        file.write_all(b"\n")
    }
}

fn histogram_from(value: JsonValue) -> Result<HistogramSnapshot, JsonError> {
    let JsonValue::Object(fields) = value else {
        return Err(JsonError::shape("histogram must be an object"));
    };
    let mut h = HistogramSnapshot::default();
    for (name, v) in fields {
        let slot = match name.as_str() {
            "count" => &mut h.count,
            "sum" => &mut h.sum,
            "min" => &mut h.min,
            "max" => &mut h.max,
            "p50" => &mut h.p50,
            "p95" => &mut h.p95,
            "p99" => &mut h.p99,
            _ => return Err(JsonError::shape("unknown histogram field")),
        };
        *slot = v.as_u64()?;
    }
    Ok(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut s = Snapshot::default();
        s.counters.insert("net.frames_sent".into(), 1234);
        s.counters.insert("a \"quoted\"\\name".into(), u64::MAX);
        s.gauges.insert("net.loss_estimate".into(), 0.19921875);
        s.gauges.insert("neg".into(), -1.5e-9);
        s.histograms.insert(
            "pacing_wait_ns".into(),
            HistogramSnapshot { count: 3, sum: 99, min: 1, max: 64, p50: 24, p95: 48, p99: 64 },
        );
        s
    }

    #[test]
    fn json_roundtrip_exact() {
        let s = sample();
        let json = s.to_json();
        assert_eq!(Snapshot::from_json(&json).unwrap(), s);
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let s = Snapshot::default();
        assert_eq!(s.to_json(), r#"{"counters":{},"gauges":{},"histograms":{}}"#);
        assert_eq!(Snapshot::from_json(&s.to_json()).unwrap(), s);
    }

    #[test]
    fn malformed_json_is_an_error() {
        for bad in [
            "",
            "{",
            "[]",
            "{\"counters\":3}",
            "{\"bogus\":{}}",
            r#"{"counters":{"x":-1}}"#,
            r#"{"histograms":{"h":{"weird":1}}}"#,
            r#"{"counters":{},"gauges":{},"histograms":{}} trailing"#,
        ] {
            assert!(Snapshot::from_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn missing_sections_default_empty() {
        let s = Snapshot::from_json(r#"{"counters":{"only":7}}"#).unwrap();
        assert_eq!(s.counter("only"), Some(7));
        assert!(s.gauges.is_empty());
    }
}
