//! Runs one workload the way the contract in `BENCHMARK.json` asks:
//! set-up (repeated, median reported), warm-up, then equal-work
//! repetitions for the measured time; or, traced, an untraced and a
//! traced phase followed by the per-layer probes and the ladder.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use nc_telemetry::Snapshot;

use crate::host::{process_cpu_seconds, Provenance};
use crate::names::{lookup, END_TO_END, PER_LAYER};
use crate::probes::{self, Budget, Metrics};
use crate::spans::Tracer;
use crate::stats::{high_percentile, percentile, summarize, Summary};
use crate::workload::{self, NetCounts, Rep, Sizing, Workload};

/// What to run and how long.
#[derive(Clone, Debug)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// Times a set-up is repeated in an untraced run; the median is `setup_s`.
const SETUPS: usize = 9;
/// Share of `--seconds` each of the two workload phases of a traced run
/// gets; the probes and the ladder take the rest.
const TRACED_PHASE_SHARE: f64 = 0.3;

/// One workload's result.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub workload: String,
    /// Every recovered payload equalled its source.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub reps: usize,
    pub describe: String,
    pub metrics: Metrics,
    /// Human-readable extras: the high percentile, the ladder.
    pub notes: Vec<String>,
}

/// Repetitions of one measured phase with the process counters around it.
struct Phase {
    reps: Vec<Rep>,
    wall_s: f64,
    cpu_s: f64,
}

impl Phase {
    fn total(&self, f: impl Fn(&Rep) -> u64) -> u64 {
        self.reps.iter().map(f).sum()
    }

    fn net(&self) -> NetCounts {
        let mut sum = NetCounts::default();
        self.reps.iter().for_each(|r| sum.add(&r.net));
        sum
    }

    fn units_ms(&self) -> Vec<f64> {
        self.reps.iter().flat_map(|r| r.unit_ms.iter().copied()).collect()
    }

    /// Goodput of each repetition, MB/s.
    fn goodputs(&self) -> Vec<f64> {
        self.per_rep(|r| r.payload_bytes as f64 / r.wall_s / 1e6)
    }

    fn goodput_mb_s(&self) -> Summary {
        summarize(&self.goodputs())
    }

    fn per_rep(&self, f: impl Fn(&Rep) -> f64) -> Vec<f64> {
        self.reps.iter().map(f).collect()
    }
}

fn run_phase(w: &mut dyn Workload, seconds: f64, smoke: bool, tr: &mut Tracer) -> Phase {
    let cpu0 = process_cpu_seconds();
    let started = Instant::now();
    let mut reps = Vec::new();
    loop {
        tr.set_rep(reps.len());
        let span = tr.begin("repetition");
        reps.push(w.rep(reps.len(), tr));
        tr.end(span);
        let enough = if smoke || w.single_rep() {
            true
        } else {
            reps.len() >= w.min_reps() && started.elapsed().as_secs_f64() >= seconds
        };
        if enough {
            break;
        }
    }
    Phase { reps, wall_s: started.elapsed().as_secs_f64(), cpu_s: process_cpu_seconds() - cpu0 }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The gated metrics of one untraced phase.
fn end_to_end(m: &mut Metrics, phase: &Phase, setup_s: Summary) {
    m.insert("goodput_mb_s", phase.goodput_mb_s());
    m.insert("delivery_ms_p50", summarize(&phase.units_ms()));
    let gb = phase.total(|r| r.payload_bytes) as f64 / 1e9;
    m.insert("cpu_s_per_gb", Summary::single(ratio(phase.cpu_s, gb)));
    m.insert("setup_s", setup_s);
}

/// The end-to-end numbers that exist only on some workloads.
fn workload_specific(m: &mut Metrics, phase: &Phase) {
    // The codec workloads are the ones that time encode calls themselves.
    let codec = phase.total(|r| r.encode_bytes) > 0;
    let zero = Summary::single(0.0);
    let delivery = summarize(&phase.units_ms());
    let rate = |bytes: fn(&Rep) -> u64, secs: fn(&Rep) -> f64| {
        summarize(&phase.per_rep(|r| ratio(bytes(r) as f64 / 1e6, secs(r))))
    };
    m.insert("encode_mb_s", if codec { rate(|r| r.encode_bytes, |r| r.encode_s) } else { zero });
    m.insert("decode_mb_s", if codec { rate(|r| r.decode_bytes, |r| r.decode_s) } else { zero });
    m.insert("segment_decode_ms_p50", if codec { delivery } else { zero });
    m.insert("transfer_ms_p50", if codec { zero } else { delivery });
    let per_s =
        summarize(&phase.per_rep(|r| (r.attempted - r.failed - r.mismatched) as f64 / r.wall_s));
    m.insert("sessions_per_s", if codec { zero } else { per_s });
    let overhead =
        summarize(&phase.per_rep(|r| ratio(r.net.wire_bytes as f64, r.payload_bytes as f64)));
    m.insert("wire_overhead", if codec { zero } else { overhead });
    let failed = phase.total(|r| r.failed + r.mismatched) as f64;
    m.insert("failed_share", Summary::single(ratio(failed, phase.total(|r| r.attempted) as f64)));
}

fn counter_delta(before: &Snapshot, after: &Snapshot, name: &str) -> f64 {
    after.counter(name).unwrap_or(0).saturating_sub(before.counter(name).unwrap_or(0)) as f64
}

fn histogram_sum(s: &Snapshot, name: &str) -> u64 {
    s.histogram(name).map_or(0, |h| h.sum)
}

/// Layer metrics read from `nc-telemetry` snapshot differences and the
/// repetition counts of the workload phases of a traced run.
fn from_telemetry(
    m: &mut Metrics,
    name: &str,
    before: &Snapshot,
    after: &Snapshot,
    phases: [&Phase; 2],
) {
    let d = |counter: &str| counter_delta(before, after, counter);
    let mut single = |metric: &'static str, value: f64| {
        m.insert(metric, Summary::single(value));
    };
    let mut net = NetCounts::default();
    phases.iter().for_each(|p| net.add(&p.net()));
    let wall_s: f64 = phases.iter().map(|p| p.wall_s).sum();
    let cpu_s: f64 = phases.iter().map(|p| p.cpu_s).sum();

    single("rlnc.dependent_share", ratio(d("core.blocks_dependent"), d("core.blocks_received")));
    single("rlnc.blocks_coded", d("core.blocks_coded"));
    let (hits, misses) = (d("pool.buffer_hits"), d("pool.buffer_misses"));
    single("pool.buffer_hit_share", ratio(hits, hits + misses));
    single("pool.bytes_recycled", d("pool.bytes_recycled"));
    single("pool.tasks_executed", d("pool.tasks_executed"));
    let idle_ns = histogram_sum(after, "pool.worker_idle_ns")
        .saturating_sub(histogram_sum(before, "pool.worker_idle_ns"));
    let workers = if name.starts_with("server_") { crate::server::shard_count() } else { 0 };
    single("pool.worker_idle_share", ratio(idle_ns as f64 / 1e9, wall_s * workers as f64));

    single("net.innovative_share", ratio(net.innovative as f64, net.received as f64));
    single("net.redundancy_factor", after.gauge("net.redundancy_factor").unwrap_or(0.0));
    single("net.loss_estimate", after.gauge("net.loss_estimate").unwrap_or(0.0));
    single("net.acks_per_frame", ratio(d("net.acks_received"), d("net.frames_sent")));
    single(
        "net.syscalls_per_datagram",
        ratio(d("net.syscalls"), d("net.tx_datagrams") + d("net.rx_datagrams")),
    );
    single(
        "net.rx_bytes_copied_per_datagram",
        ratio(d("net.rx_bytes_copied"), d("net.rx_datagrams") + net.channel_rx_datagrams as f64),
    );
    single(
        "net.deadline_miss_us_p99",
        after.histogram("net.deadline_miss_ns").map_or(0.0, |h| h.p99 as f64 / 1e3),
    );
    single("net.shard_forwards", d("net.shard_forwards"));
    single(
        "net.datagrams_per_payload_frame",
        ratio((net.frames_sent + net.announces_sent) as f64, net.frames_needed as f64),
    );
    single("net.reannounces", net.announces_sent.saturating_sub(net.sessions) as f64);
    single("net.client_cpu_share", ratio(net.client_cpu_s, cpu_s));

    let untraced = phases[0];
    let encode_busy = ratio(
        untraced.reps.iter().map(|r| r.encode_s).sum(),
        untraced.reps.iter().map(|r| r.wall_s).sum(),
    );
    single("rlnc.encode_busy_share", if name == "dense_128x4k" { encode_busy } else { 0.0 });
    // Only the churn workload has the thousand samples a p99 needs.
    let p99 = if name == "server_churn_1000x6k" {
        percentile(&untraced.units_ms(), 99.0).unwrap_or(0.0)
    } else {
        0.0
    };
    single("net.transfer_ms_p99", p99);
}

fn set_up(
    name: &str,
    opts: &Options,
    sizing: Sizing,
    times: usize,
) -> (Box<dyn Workload>, Summary) {
    let mut samples = Vec::new();
    let mut built = None;
    for _ in 0..times {
        drop(built.take()); // release the previous one's sockets and memory first
        let t = Instant::now();
        built = workload::setup(name, opts.seed, sizing);
        samples.push(t.elapsed().as_secs_f64());
    }
    (built.expect("caller checked the workload name"), summarize(&samples))
}

fn percentile_note(units: &[f64], what: &str) -> String {
    let (p, value) = high_percentile(units);
    format!("{what}: p{p} = {value:.3} ms over {} samples", units.len())
}

/// Where trace files go: `out/` next to this package's manifest.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Runs workload `name`. `fft_table_init_s` is the time the process's
/// first `nc_fft::tables()` call took (it can only be taken once).
///
/// # Panics
///
/// If `name` is not one of [`crate::names::WORKLOADS`].
pub fn run_workload(name: &str, opts: &Options, fft_table_init_s: f64) -> Outcome {
    assert!(crate::names::WORKLOADS.contains(&name), "unknown workload {name}");
    if opts.trace {
        run_traced(name, opts, fft_table_init_s)
    } else {
        run_untraced(name, opts)
    }
}

fn tally(
    name: &str,
    w: &dyn Workload,
    phases: &[&Phase],
    metrics: Metrics,
    notes: Vec<String>,
) -> Outcome {
    let sum = |f: fn(&Rep) -> u64| phases.iter().map(|p| p.total(f)).sum::<u64>();
    let mismatched = sum(|r| r.mismatched);
    Outcome {
        workload: name.to_string(),
        correct: mismatched == 0,
        attempted: sum(|r| r.attempted),
        failed: sum(|r| r.failed) + mismatched,
        reps: phases.iter().map(|p| p.reps.len()).sum(),
        describe: w.describe(),
        metrics,
        notes,
    }
}

fn run_untraced(name: &str, opts: &Options) -> Outcome {
    let sizing = Sizing::new(opts.smoke, opts.seconds);
    let (mut w, setup_s) = set_up(name, opts, sizing, if opts.smoke { 1 } else { SETUPS });
    let mut tr = Tracer::disabled();
    if !opts.smoke && !w.single_rep() {
        // Warm-up: fills the buffer pools and lets lazy set-up finish. The
        // open-loop workload has none: its single repetition is the whole
        // phase, ramp included.
        w.rep(usize::MAX, &mut tr);
    }
    let phase = run_phase(w.as_mut(), opts.seconds, opts.smoke, &mut tr);
    let mut metrics = Metrics::new();
    end_to_end(&mut metrics, &phase, setup_s);
    let per_rep: Vec<String> = phase.goodputs().iter().map(|g| format!("{g:.1}")).collect();
    let notes = vec![
        percentile_note(&phase.units_ms(), "delivery"),
        format!("goodput_mb_s per repetition: {}", per_rep.join(" ")),
    ];
    tally(name, w.as_ref(), &[&phase], metrics, notes)
}

fn run_traced(name: &str, opts: &Options, fft_table_init_s: f64) -> Outcome {
    let phase_seconds = opts.seconds * TRACED_PHASE_SHARE;
    let sizing = Sizing::new(opts.smoke, phase_seconds);
    let (mut w, _) = set_up(name, opts, sizing, 1);
    let mut off = Tracer::disabled();
    if !opts.smoke && !w.single_rep() {
        w.rep(usize::MAX, &mut off);
    }
    let before = nc_telemetry::snapshot();
    let untraced = run_phase(w.as_mut(), phase_seconds, opts.smoke, &mut off);
    let mut tr = Tracer::enabled(Instant::now());
    let traced = run_phase(w.as_mut(), phase_seconds, opts.smoke, &mut tr);
    let after = nc_telemetry::snapshot();

    let mut metrics = Metrics::new();
    workload_specific(&mut metrics, &untraced);
    from_telemetry(&mut metrics, name, &before, &after, [&untraced, &traced]);
    let overhead = 1.0 - ratio(traced.goodput_mb_s().value, untraced.goodput_mb_s().value);
    metrics.insert("trace.overhead_share", Summary::single(overhead));
    metrics.insert("fft.table_init_s", Summary::single(fft_table_init_s));
    metrics.insert(
        "net.rcvbuf_granted_bytes",
        Summary::single(crate::host::rcvbuf_granted_bytes() as f64),
    );

    probes::run_all(&mut metrics, opts.seed, Budget::new(opts.smoke));
    let bound = ratio(
        metrics["ladder.encoder_mb_s"].value * crate::codec::Dense::BLOCKS as f64,
        metrics["gf256.mul_add_mb_s_4k"].value,
    );
    metrics.insert("rlnc.encode_bound_ratio", Summary::single(bound));

    let mut notes = vec![percentile_note(&untraced.units_ms(), "delivery (untraced phase)")];
    notes.push(self_time_text(&tr));
    notes.push(probes::ladder_text(&metrics));
    let path = out_dir().join(format!("trace-{name}.json"));
    match std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, tr.to_json(name)))
    {
        Ok(()) => notes.push(format!("spans written to {}", path.display())),
        Err(e) => notes.push(format!("could not write {}: {e}", path.display())),
    }
    tally(name, w.as_ref(), &[&untraced, &traced], metrics, notes)
}

fn self_time_text(tr: &Tracer) -> String {
    let mut out = String::from("self time per span name (traced phase):\n");
    for (name, t) in tr.totals() {
        out.push_str(&format!(
            "  {name:<34} count {:>9}  total {:>10.3} ms  self {:>10.3} ms\n",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
    }
    out
}

impl Outcome {
    /// The names this outcome must carry: the gated list untraced, the
    /// per-layer list traced.
    pub fn expected_names(traced: bool) -> Vec<&'static str> {
        if traced {
            PER_LAYER.iter().map(|d| d.name).collect()
        } else {
            END_TO_END.iter().map(|d| d.name).collect()
        }
    }

    /// Every metric by name with its unit, quartiles and sample count.
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "== {} ==\n# {}\n# repetitions: {}  attempted: {}  failed: {}  correct: {}\n",
            self.workload, self.describe, self.reps, self.attempted, self.failed, self.correct
        );
        for (name, s) in &self.metrics {
            let unit = lookup(name).map_or("", |d| d.unit);
            out.push_str(&format!(
                "{name:<34} {:>16.6} {unit:<6} (q1 {:.6}, q3 {:.6}, n {})\n",
                s.value, s.q1, s.q3, s.n
            ));
        }
        for note in &self.notes {
            out.push_str(note.trim_end());
            out.push('\n');
        }
        out
    }

    fn metrics_json(&self, with_spread: bool) -> String {
        let fields: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, s)| {
                let unit = lookup(name).map_or("", |d| d.unit);
                if with_spread {
                    format!(
                        "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\", \"q1\": {}, \"q3\": {}, \"n\": {}}}",
                        s.value, s.q1, s.q3, s.n
                    )
                } else {
                    format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", s.value)
                }
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics_json(false)
        )
    }

    fn report_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"reps\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.reps,
            self.metrics_json(true)
        )
    }
}

/// The `--out` file: provenance plus every workload's metrics with
/// quartiles, the input of `--compare`.
pub fn report_json(provenance: &Provenance, outcomes: &[Outcome]) -> String {
    let workloads: BTreeMap<&str, String> =
        outcomes.iter().map(|o| (o.workload.as_str(), o.report_json())).collect();
    let body: Vec<String> = workloads.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!(
        "{{\n\"provenance\": {},\n\"workloads\": {{\n{}\n}}\n}}\n",
        provenance.to_json(),
        body.join(",\n")
    )
}
