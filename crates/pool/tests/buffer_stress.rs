//! Seeded multi-thread stress test for the `BytesPool` bucket shelves.
//!
//! Four threads hammer one pool with interleaved takes and recycles across
//! several capacity classes. Two properties are asserted:
//!
//! * **exclusive ownership** — every taken buffer is stamped with an
//!   owner-unique pattern and verified intact while held; if the shelf
//!   ever handed one allocation to two owners, the overlapping stamps
//!   would tear each other.
//! * **telemetry balance** — every take is recorded as exactly one of
//!   `pool.buffer_hits` / `pool.buffer_misses`, and the retained count
//!   ends within the configured bound.
//!
//! The schedule-exhaustive version of the same invariants (tiny
//! populations, every interleaving) lives in `crates/check/tests/`
//! `buffer_models.rs`; this test is the large-population, real-threads
//! complement.

use std::sync::Arc;

use nc_pool::BytesPool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const THREADS: u64 = 4;
const OPS_PER_THREAD: usize = 4_000;
const MAX_RETAINED: usize = 64;

/// Owner-unique fill byte for operation `op` of thread `tid`.
fn stamp(tid: u64, op: usize) -> u8 {
    (tid as usize * 131 + op * 7 + 1) as u8
}

#[test]
fn seeded_shelf_stress_keeps_ownership_and_telemetry_consistent() {
    nc_telemetry::set_enabled(true);
    let registry = nc_telemetry::default_registry();
    let hits = registry.counter("pool.buffer_hits");
    let misses = registry.counter("pool.buffer_misses");
    let (hits0, misses0) = (hits.get(), misses.get());

    let pool = BytesPool::new(MAX_RETAINED);
    let total_takes = Arc::new(std::sync::atomic::AtomicU64::new(0));

    let workers: Vec<_> = (0..THREADS)
        .map(|tid| {
            let pool = pool.clone();
            let total_takes = Arc::clone(&total_takes);
            // lint: allow(thread-spawn) — the point of this stress test is real, freely scheduled OS threads outside the model checker.
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xB0F5 + tid);
                // Buffers currently owned by this thread: (vec, fill byte).
                let mut held: Vec<(Vec<u8>, u8)> = Vec::new();
                for op in 0..OPS_PER_THREAD {
                    // Weighted coin: take, recycle-held, or recycle-fresh,
                    // across capacity classes 16..=2048.
                    match rng.gen_range(0..10u32) {
                        0..=4 => {
                            let len = 16usize << rng.gen_range(0..8u32);
                            let mut v = pool.take_vec(len);
                            assert!(v.len() == len, "take_vec must size exactly");
                            assert!(v.iter().all(|&b| b == 0), "take_vec must zero");
                            total_takes.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            let s = stamp(tid, op);
                            v.fill(s);
                            held.push((v, s));
                        }
                        5..=7 if !held.is_empty() => {
                            let idx = rng.gen_range(0..held.len());
                            let (v, s) = held.swap_remove(idx);
                            assert!(
                                v.iter().all(|&b| b == s),
                                "stamp torn while held: buffer shared between owners"
                            );
                            pool.recycle(v);
                        }
                        _ => {
                            let len = 16usize << rng.gen_range(0..8u32);
                            pool.recycle(vec![0u8; len]);
                        }
                    }
                    // Bound per-thread holdings so the pool sees churn.
                    if held.len() > 32 {
                        let (v, s) = held.remove(0);
                        assert!(v.iter().all(|&b| b == s), "stamp torn while held");
                        pool.recycle(v);
                    }
                }
                for (v, s) in held {
                    assert!(v.iter().all(|&b| b == s), "stamp torn at drain");
                    pool.recycle(v);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("stress thread must not panic");
    }

    let takes = total_takes.load(std::sync::atomic::Ordering::Relaxed);
    let (hit_d, miss_d) = (hits.get() - hits0, misses.get() - misses0);
    assert_eq!(
        hit_d + miss_d,
        takes,
        "every take must be exactly one hit or one miss (hits {hit_d} + misses {miss_d} != takes {takes})"
    );
    assert!(hit_d > 0, "a {THREADS}-thread churn must see some recycled hits");
    assert!(
        pool.retained() <= MAX_RETAINED,
        "retention bound violated: {} > {MAX_RETAINED}",
        pool.retained()
    );
}
