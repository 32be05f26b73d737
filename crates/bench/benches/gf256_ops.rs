//! Criterion micro-benchmarks of the GF(2^8) primitives: the scalar
//! multiplication strategies the paper contrasts, and the region operations
//! all coding reduces to (per rung of the kernel ladder).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use nc_gf256::logdomain::{mul_rlog, to_rlog};
use nc_gf256::region::{dot_assign_on, mul_add_assign_on};
use nc_gf256::scalar::{mul_full_table, mul_loop, mul_table};
use nc_gf256::simd::Kernel;
use nc_gf256::wide::mul_word64;
use rand::{Rng, SeedableRng};

fn scalar_multiplication(c: &mut Criterion) {
    let mut group = c.benchmark_group("scalar_mul");
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let pairs: Vec<(u8, u8)> = (0..1024).map(|_| (rng.gen(), rng.gen())).collect();
    group.throughput(Throughput::Elements(pairs.len() as u64));

    group.bench_function("log_exp_table", |b| {
        b.iter(|| {
            let mut acc = 0u8;
            for &(x, y) in &pairs {
                acc ^= mul_table(black_box(x), black_box(y));
            }
            acc
        })
    });
    group.bench_function("loop_based", |b| {
        b.iter(|| {
            let mut acc = 0u8;
            for &(x, y) in &pairs {
                acc ^= mul_loop(black_box(x), black_box(y));
            }
            acc
        })
    });
    group.bench_function("full_table", |b| {
        b.iter(|| {
            let mut acc = 0u8;
            for &(x, y) in &pairs {
                acc ^= mul_full_table(black_box(x), black_box(y));
            }
            acc
        })
    });
    group.bench_function("log_domain_preprocessed", |b| {
        let log_pairs: Vec<(u16, u16)> =
            pairs.iter().map(|&(x, y)| (to_rlog(x), to_rlog(y))).collect();
        b.iter(|| {
            let mut acc = 0u8;
            for &(lx, ly) in &log_pairs {
                acc ^= mul_rlog(black_box(lx), black_box(ly));
            }
            acc
        })
    });
    group.bench_function("loop_based_wide64", |b| {
        let words: Vec<(u8, u64)> = (0..128).map(|i| (pairs[i].0, rng.gen())).collect();
        b.iter(|| {
            let mut acc = 0u64;
            for &(c8, w) in &words {
                acc ^= mul_word64(black_box(c8), black_box(w));
            }
            acc
        })
    });
    group.finish();
}

fn region_kernels(c: &mut Criterion) {
    // Per-rung axpy: every kernel this host has. 4 KiB is the paper's
    // streaming block size; 1 KiB and 16 KiB bracket it.
    let mut group = c.benchmark_group("region_mul_add");
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    for size in [1024usize, 4 * 1024, 16 * 1024] {
        let src: Vec<u8> = (0..size).map(|_| rng.gen()).collect();
        group.throughput(Throughput::Bytes(size as u64));
        for rung in Kernel::available() {
            group.bench_with_input(BenchmarkId::new(rung.kernel().name(), size), &size, |b, _| {
                let mut dst = vec![0u8; size];
                // Warm: the shim has no warmup phase.
                mul_add_assign_on(rung, &mut dst, &src, 0x53);
                b.iter(|| {
                    mul_add_assign_on(rung, &mut dst, black_box(&src), 0x53);
                })
            });
        }
    }
    group.finish();
}

fn blocked_dot(c: &mut Criterion) {
    // The encode inner loop: one destination row accumulating n sources.
    // The ISA rungs use the blocked multi-source kernel; the byte-at-a-time
    // rungs are the row-at-a-time references.
    let mut group = c.benchmark_group("region_dot_assign");
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let k = 4 * 1024usize;
    for n in [16usize, 64] {
        let sources: Vec<Vec<u8>> = (0..n).map(|_| (0..k).map(|_| rng.gen()).collect()).collect();
        let refs: Vec<&[u8]> = sources.iter().map(|s| s.as_slice()).collect();
        let coeffs: Vec<u8> = (0..n).map(|_| rng.gen_range(1..=255)).collect();
        group.throughput(Throughput::Bytes((n * k) as u64));
        for rung in Kernel::available() {
            group.bench_with_input(BenchmarkId::new(rung.kernel().name(), n), &n, |b, _| {
                let mut dst = vec![0u8; k];
                dot_assign_on(rung, &mut dst, &refs, &coeffs);
                b.iter(|| {
                    dot_assign_on(rung, &mut dst, black_box(&refs), black_box(&coeffs));
                })
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = scalar_multiplication, region_kernels, blocked_dot
}
criterion_main!(benches);
