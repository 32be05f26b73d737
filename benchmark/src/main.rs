//! Command line of the benchmark; see `README.md`.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use nc_benchmark::compare::{benchmark_json_path, compare};
use nc_benchmark::host::Provenance;
use nc_benchmark::names::WORKLOADS;
use nc_benchmark::run::{report_json, run_workload, Options, Outcome};

const USAGE: &str = "usage:
  nc-benchmark --seed <u64> [--workload <name>] [--seconds <n>] [--trace [0|1]] [--smoke] [--out <file>]
  nc-benchmark --compare <a.json> <b.json>

Without --workload every workload runs in turn. --seconds is the measured
time per workload (default 10). --trace runs the traced variant: per-layer
metrics, span files under benchmark/out/, and the layer ladder. --out
writes every metric with quartiles and the provenance block, the input of
--compare.";

struct Cli {
    options: Options,
    workload: Option<String>,
    out: Option<PathBuf>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let options = Options { seed: 0, seconds: 10.0, trace: false, smoke: false };
    let mut cli = Cli { options, workload: None, out: None };
    let mut seed = None;
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i).cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                let v = value(&mut i, "--seed")?;
                seed = Some(v.parse::<u64>().map_err(|_| format!("--seed {v}: not a u64"))?);
            }
            "--workload" => cli.workload = Some(value(&mut i, "--workload")?),
            "--seconds" => {
                let v = value(&mut i, "--seconds")?;
                cli.options.seconds =
                    v.parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or_else(|| format!("--seconds {v}: not a positive number"))?;
            }
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => i += 1,
                Some("1") => {
                    cli.options.trace = true;
                    i += 1;
                }
                _ => cli.options.trace = true,
            },
            "--smoke" => cli.options.smoke = true,
            "--out" => cli.out = Some(PathBuf::from(value(&mut i, "--out")?)),
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    cli.options.seed = seed.ok_or("--seed is required: it is the only source of inputs")?;
    if let Some(w) = &cli.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w}; one of {}", WORKLOADS.join(", ")));
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--compare") {
        let [_, a, b] = args.as_slice() else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        return match compare(a.as_ref(), b.as_ref(), &benchmark_json_path()) {
            Ok((table, any_worse)) => {
                print!("{table}");
                ExitCode::from(u8::from(any_worse))
            }
            Err(e) => {
                eprintln!("compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    // The FFT field tables are built once per process, on first use;
    // take that time before anything else can trigger it.
    let t = Instant::now();
    let _ = nc_fft::tables();
    let fft_table_init_s = t.elapsed().as_secs_f64();

    let options = &cli.options;
    let provenance =
        Provenance::collect(options.seed, options.trace, options.smoke, options.seconds);
    print!("{}", provenance.to_text());
    let names: Vec<&str> = match &cli.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let mut outcomes: Vec<Outcome> = Vec::new();
    for name in names {
        let outcome = run_workload(name, options, fft_table_init_s);
        print!("{}", outcome.to_text());
        // The result line: last on stdout when one workload was asked for.
        println!("{}", outcome.result_line());
        outcomes.push(outcome);
    }
    if let Some(path) = &cli.out {
        if let Err(e) = std::fs::write(path, report_json(&provenance, &outcomes)) {
            eprintln!("could not write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if outcomes.iter().all(|o| o.correct) {
        ExitCode::SUCCESS
    } else {
        eprintln!("recovered bytes differ from their source");
        ExitCode::from(1)
    }
}
