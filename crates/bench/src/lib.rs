//! Reproduction harness for every table and figure of the paper.
//!
//! One driver, `nc-bench <figure>|all`, prints any entry of
//! [`report::FIGURES`]: Figs. 4(a)-10, `misc` for the in-text numbers,
//! `streaming_capacity` for the Sec. 5.1.1 scenario, `ablation`,
//! `calibrate`, the two `--sanitize` variants, and the host-measured
//! `host_simd` and `pool`. `all` prints every one — the data behind
//! EXPERIMENTS.md. The modeled figures are deterministic; the
//! `golden_figures` test compares each with its checked-in output in
//! `crates/bench/golden/`, byte for byte.
//!
//! Shared here: the configuration grids, series containers, an aligned
//! table printer, and the driver's `--telemetry-json` snapshot writer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod grids;
pub mod report;
pub mod runners;
pub mod series;
pub mod telemetry;

pub use grids::{block_sizes, BLOCK_COUNTS};
pub use series::{format_table, Series};
