//! The repo's layered benchmark: GF kernel -> codec -> session -> socket
//! -> server, six workloads, every input from one `--seed`.
//!
//! It measures each layer from outside — timing calls into the crates'
//! public functions and diffing `nc_telemetry::snapshot()` — and edits
//! nothing it measures. `README.md` has the workload table, the map from
//! layer metrics to end-to-end metrics, and how to read the output;
//! `../BENCHMARK.json` is the contract the runner is checked against.

pub mod codec;
pub mod compare;
pub mod host;
pub mod json;
pub mod names;
pub mod probes;
pub mod run;
pub mod server;
pub mod spans;
pub mod stats;
pub mod udp;
pub mod workload;
