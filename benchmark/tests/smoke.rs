//! `--smoke` size of every workload: bit-exact recovery, and the printed
//! metric and workload names against `BENCHMARK.json`.

use std::collections::BTreeSet;

use nc_benchmark::compare::benchmark_json_path;
use nc_benchmark::json::{parse, Json};
use nc_benchmark::names::{END_TO_END, LADDER, PER_LAYER, WORKLOADS};
use nc_benchmark::probes::gpu_sim_tb5;
use nc_benchmark::run::{report_json, run_workload, Options, Outcome};

const SEED: u64 = nc_benchmark::host::DEVELOPMENT_SEED;

fn options(trace: bool) -> Options {
    Options { seed: SEED, seconds: 0.5, trace, smoke: true }
}

fn benchmark_json() -> Json {
    let text = std::fs::read_to_string(benchmark_json_path()).expect("BENCHMARK.json is present");
    parse(&text).expect("BENCHMARK.json is JSON")
}

/// `(name, unit, better)` of every entry of one of the metric lists.
fn listed(doc: &Json, list: &str) -> Vec<(String, String, String)> {
    doc.get(list)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field =
                |k: &str| m.get(k).and_then(Json::as_str).expect("string field").to_string();
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
}

#[test]
fn names_equal_benchmark_json_exactly() {
    let doc = benchmark_json();
    let ours = |defs: &[nc_benchmark::names::MetricDef]| -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.as_str().to_string()))
            .collect()
    };
    assert_eq!(listed(&doc, "end_to_end"), ours(&END_TO_END));
    assert_eq!(listed(&doc, "per_layer"), ours(&PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);

    let mut seen = BTreeSet::new();
    for name in END_TO_END.iter().chain(PER_LAYER.iter()).map(|d| d.name).chain(WORKLOADS) {
        assert!(well_formed(name), "{name} does not match [A-Za-z0-9][A-Za-z0-9_.-]*");
        assert!(seen.insert(name), "{name} is used twice");
    }
    for rung in LADDER {
        assert!(PER_LAYER.iter().any(|d| d.name == rung), "ladder rung {rung} is a layer metric");
    }
    for bound in doc.get("end_to_end").and_then(Json::as_array).expect("list") {
        let b = bound.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(b > 0.0 && b <= 0.25, "bound {b} outside (0, 0.25]");
    }
}

fn check(outcome: &Outcome, traced: bool) {
    let w = &outcome.workload;
    assert!(outcome.correct, "{w}: recovered bytes differ from the source");
    assert_eq!(outcome.failed, 0, "{w}: every unit is delivered");
    assert!(outcome.attempted >= 1);
    let printed: Vec<&str> = outcome.metrics.keys().copied().collect();
    let mut expected = Outcome::expected_names(traced);
    expected.sort_unstable();
    assert_eq!(printed, expected, "{w}: printed names equal the list");
    for (name, s) in &outcome.metrics {
        assert!(s.value.is_finite(), "{w}: {name} is a number");
    }

    let line = parse(&outcome.result_line()).expect("result line is JSON");
    let keys: Vec<&str> = line.as_object().expect("object").keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    for (name, entry) in line.get("metrics").and_then(Json::as_object).expect("metrics") {
        let keys: Vec<&str> =
            entry.as_object().expect("object").keys().map(String::as_str).collect();
        assert_eq!(keys, ["unit", "value"], "{w}: {name}");
    }
}

#[test]
fn every_workload_recovers_bit_exact_untraced() {
    let outcomes: Vec<Outcome> =
        WORKLOADS.iter().map(|w| run_workload(w, &options(false), 0.0)).collect();
    for outcome in &outcomes {
        check(outcome, false);
        for gated in ["goodput_mb_s", "delivery_ms_p50", "setup_s"] {
            assert!(outcome.metrics[gated].value > 0.0, "{}: {gated} is never 0", outcome.workload);
        }
    }
    // The report file round-trips and compares clean against itself.
    let provenance = nc_benchmark::host::Provenance::collect(SEED, false, true, 0.5);
    let dir = std::env::temp_dir().join(format!("nc-benchmark-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("report.json");
    std::fs::write(&path, report_json(&provenance, &outcomes)).expect("write report");
    let (table, any_worse) =
        nc_benchmark::compare::compare(&path, &path, &benchmark_json_path()).expect("compare");
    assert!(!any_worse, "a report is not worse than itself:\n{table}");
    for w in WORKLOADS {
        assert!(table.contains(w), "compare lists {w}");
    }
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}

#[test]
fn every_workload_recovers_bit_exact_traced() {
    for w in WORKLOADS {
        let outcome = run_workload(w, &options(true), 0.0);
        check(&outcome, true);
        let ladder = outcome.notes.iter().find(|n| n.starts_with("layer ladder")).expect("ladder");
        for rung in LADDER {
            assert!(ladder.contains(rung), "{w}: ladder prints {rung}");
        }
        let spans = nc_benchmark::run::out_dir().join(format!("trace-{w}.json"));
        let doc = parse(&std::fs::read_to_string(&spans).expect("span file")).expect("JSON");
        assert_eq!(doc.get("workload").and_then(Json::as_str), Some(w));
        assert!(!doc.get("spans").and_then(Json::as_array).expect("spans").is_empty());
    }
}

#[test]
fn modeled_gpu_rate_repeats_exactly() {
    let (first, _) = gpu_sim_tb5(SEED, true);
    let (second, _) = gpu_sim_tb5(SEED, true);
    assert!(first > 0.0);
    assert_eq!(first.to_bits(), second.to_bits(), "the model is a function of its inputs");
}
