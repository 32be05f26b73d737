//! `nc-bench`: prints one figure of the paper's evaluation, or all of them.
//!
//! ```text
//! nc-bench <figure>|all [--sanitize] [--telemetry-json <path>]
//! ```
//!
//! `<figure>` is a name in [`nc_bench::report::FIGURES`]; the driver prints
//! the text its generator returns, verbatim. `--sanitize` runs
//! `<figure>_sanitize` instead (`fig7` and `ablation` have one: the same
//! kernels under the kernel sanitizer). `--telemetry-json <path>` writes the
//! process-wide telemetry snapshot to `<path>` after the run. An unknown
//! name or argument exits 2 and lists the figure names.
//!
//! Run with `cargo run -p nc-bench --release -- fig7`.

use std::process::ExitCode;

use nc_bench::report::FIGURES;

fn main() -> ExitCode {
    let mut figure = None;
    let mut sanitize = false;
    let mut telemetry = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--sanitize" {
            sanitize = true;
        } else if arg == "--telemetry-json" {
            let Some(path) = args.next() else {
                return usage("--telemetry-json requires a path argument");
            };
            telemetry = Some(path);
        } else if let Some(path) = arg.strip_prefix("--telemetry-json=") {
            telemetry = Some(path.to_string());
        } else if figure.is_none() && !arg.starts_with('-') {
            figure = Some(arg);
        } else {
            return usage(&format!("unexpected argument `{arg}`"));
        }
    }
    let Some(figure) = figure else { return usage("no figure named") };

    if figure == "all" && !sanitize {
        for &(name, run) in FIGURES {
            println!("=============================== {name} ===============================");
            println!("{}", run());
        }
    } else {
        let name = if sanitize { format!("{figure}_sanitize") } else { figure.clone() };
        let Some((_, run)) = FIGURES.iter().find(|(n, _)| *n == name) else {
            let flag = if sanitize { " --sanitize" } else { "" };
            return usage(&format!("no figure `{figure}{flag}`"));
        };
        print!("{}", run());
    }

    if let Some(path) = telemetry {
        if let Err(err) = nc_bench::telemetry::dump_telemetry(&path) {
            eprintln!("failed to write telemetry snapshot to {path}: {err}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn usage(problem: &str) -> ExitCode {
    let names: Vec<&str> = FIGURES.iter().map(|&(name, _)| name).collect();
    eprintln!(
        "nc-bench: {problem}\n\
         usage: nc-bench <figure>|all [--sanitize] [--telemetry-json <path>]\n\
         figures: {}",
        names.join(" ")
    );
    ExitCode::from(2)
}
