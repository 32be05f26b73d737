//! Seeded real-thread stress test for the global pool's thread magazines.
//!
//! Three threads in a ring take buffers from `BytesPool::global()`,
//! stamp them, and either keep them or hand them to the next thread,
//! which checks the stamp and recycles them there. A thread that only
//! receives fills its magazine and spills to the shared shelf; a thread
//! whose buffers leave it empties its magazine and takes from the shelf;
//! the 128 KiB takes bypass the magazines altogether. Asserted, as in
//! `buffer_stress.rs`:
//!
//! * **exclusive ownership** — every taken buffer is zeroed, stamped with
//!   an owner-unique byte and checked intact wherever it is released; a
//!   magazine or the shelf handing one allocation to two owners would
//!   tear the stamps.
//! * **telemetry balance** — every take counts exactly one of
//!   `pool.buffer_hits` / `pool.buffer_misses`, and the shelf ends within
//!   its bound once every thread has exited and emptied its magazine.
//!
//! The only test in its binary: the pool and the counters are
//! process-wide.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;

use nc_pool::BytesPool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const THREADS: usize = 3;
const OPS_PER_THREAD: usize = 6_000;
/// `BytesPool::global()`'s shelf bound.
const MAX_RETAINED: usize = 256;

/// Owner-unique fill byte for operation `op` of thread `tid`.
fn stamp(tid: usize, op: usize) -> u8 {
    (tid * 131 + op * 7 + 1) as u8
}

fn release(pool: &BytesPool, (v, s): (Vec<u8>, u8), at: &str) {
    assert!(v.iter().all(|&b| b == s), "stamp torn {at}: buffer shared between owners");
    pool.recycle(v);
}

#[test]
fn buffers_crossing_threads_keep_ownership_and_telemetry_consistent() {
    nc_telemetry::set_enabled(true);
    let registry = nc_telemetry::default_registry();
    let hits = registry.counter("pool.buffer_hits");
    let misses = registry.counter("pool.buffer_misses");
    let (hits0, misses0) = (hits.get(), misses.get());
    let pool = BytesPool::global();
    let takes = AtomicU64::new(0);

    let (senders, receivers): (Vec<_>, Vec<_>) =
        (0..THREADS).map(|_| mpsc::channel::<(Vec<u8>, u8)>()).unzip();
    std::thread::scope(|scope| {
        let workers: Vec<_> = receivers
            .into_iter()
            .enumerate()
            .map(|(tid, inbox)| {
                let next = senders[(tid + 1) % THREADS].clone();
                let takes = &takes;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0x3A6A + tid as u64);
                    let mut held: Vec<(Vec<u8>, u8)> = Vec::new();
                    for op in 0..OPS_PER_THREAD {
                        match rng.gen_range(0..10u32) {
                            // Take: 16 B .. 64 KiB, magazine classes; one
                            // in eight 128 KiB, a shelf-only class.
                            0..=4 => {
                                let len = match rng.gen_range(0..8u32) {
                                    0 => 128 << 10,
                                    _ => 16usize << rng.gen_range(0..13u32),
                                };
                                let mut v = pool.take_vec(len);
                                takes.fetch_add(1, Ordering::Relaxed);
                                assert_eq!(v.len(), len, "take_vec must size exactly");
                                assert!(v.iter().all(|&b| b == 0), "take_vec must zero");
                                let s = stamp(tid, op);
                                v.fill(s);
                                if rng.gen_bool(0.5) {
                                    next.send((v, s)).expect("the next thread drains its inbox");
                                } else {
                                    held.push((v, s));
                                }
                            }
                            5..=6 if !held.is_empty() => {
                                let i = rng.gen_range(0..held.len());
                                release(pool, held.swap_remove(i), "while held");
                            }
                            _ => {
                                while let Ok(passed) = inbox.try_recv() {
                                    release(pool, passed, "in flight");
                                }
                            }
                        }
                        if held.len() > 48 {
                            release(pool, held.remove(0), "while held");
                        }
                    }
                    drop(next);
                    held.into_iter().for_each(|h| release(pool, h, "at drain"));
                    // Until the previous thread has finished and dropped
                    // its sender.
                    inbox.into_iter().for_each(|passed| release(pool, passed, "in flight"));
                })
            })
            .collect();
        drop(senders);
        // Explicit joins: each returns after its thread's magazine has
        // emptied into the shelf.
        for worker in workers {
            worker.join().expect("stress thread must not panic");
        }
    });

    let takes = takes.load(Ordering::Relaxed);
    let (hit_d, miss_d) = (hits.get() - hits0, misses.get() - misses0);
    assert_eq!(
        hit_d + miss_d,
        takes,
        "every take must be exactly one hit or one miss (hits {hit_d} + misses {miss_d} != takes {takes})"
    );
    assert!(
        hit_d > takes / 2,
        "recycling across {THREADS} threads must mostly hit: {hit_d} of {takes}"
    );
    assert!(
        pool.retained() <= MAX_RETAINED,
        "retention bound violated: {} > {MAX_RETAINED}",
        pool.retained()
    );
    assert!(pool.retained() > 0, "the exited threads' magazines reached the shelf");
}
