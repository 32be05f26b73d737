//! Host SIMD: measured GF(2^8) region bandwidth of every kernel rung this
//! host has, and the Fig. 10 partitioning sweep on live hardware on the
//! active rung.
//!
//! Run with `cargo run -p nc-bench --release --bin host_simd`.
//! Set `NC_GF_BACKEND=portable` (or `avx2`, `nibble`, ...) to move the
//! Fig. 10 sweep to another rung.

fn main() {
    print!("{}", nc_bench::report::host_simd());
    nc_bench::dump_telemetry_if_requested();
}
