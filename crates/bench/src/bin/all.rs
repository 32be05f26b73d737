//! Regenerates every figure and table of the paper in one run — the data
//! behind EXPERIMENTS.md.
//!
//! Run with `cargo run -p nc-bench --release --bin all`.

fn main() {
    for (name, report) in [
        ("fig4a", nc_bench::report::fig4a()),
        ("fig4b", nc_bench::report::fig4b()),
        ("fig6", nc_bench::report::fig6()),
        ("fig7", nc_bench::report::fig7()),
        ("fig8", nc_bench::report::fig8()),
        ("fig9", nc_bench::report::fig9()),
        ("fig10", nc_bench::report::fig10()),
        ("host_simd", nc_bench::report::host_simd()),
        ("misc", nc_bench::report::misc()),
        ("ablation", nc_bench::report::ablations()),
        ("streaming_capacity", nc_bench::report::streaming_capacity()),
    ] {
        println!("=============================== {name} ===============================");
        println!("{report}");
    }
    nc_bench::dump_telemetry_if_requested();
}
