//! Property-based tests of the field-buffer pool: checked-out buffers are
//! exclusively owned (no aliasing, contents undisturbed), every acquisition
//! is exact-length and zero-filled regardless of reuse, and the statistics
//! counters behave like monotone tallies.

use base::prop::{self, Gen};
use samr_mesh::pool::FieldPool;

/// One step of an interleaved acquire/release script. `Release` picks among
/// currently-held buffers by index (modulo the held count).
#[derive(Clone, Debug)]
enum Op {
    Acquire(usize),
    Release(usize),
    MarkSteady,
}

fn arb_op(g: &mut Gen) -> Op {
    match g.usize(0..3) {
        0 => Op::Acquire(g.usize(1..4096)),
        1 => Op::Release(g.any_u64() as usize),
        _ => Op::MarkSteady,
    }
}

/// While a buffer is checked out, nothing the pool does disturbs it: a
/// unique tag written at acquisition is intact at release, for any
/// interleaving of acquires, releases, and the steady-state switch.
/// Acquired buffers are always exact-length and zero-filled, whether
/// they came from a free list or a fresh allocation.
#[test]
fn checked_out_buffers_are_exclusive_and_acquires_zero_filled() {
    prop::check(
        prop::CASES,
        |g| g.vec(1..60, arb_op),
        |ops| {
            let pool = FieldPool::new();
            let mut held: Vec<(Vec<f64>, f64)> = Vec::new();
            let mut next_tag = 1.0f64;
            for op in ops {
                match op {
                    Op::Acquire(len) => {
                        let mut buf = pool.acquire(len);
                        assert_eq!(buf.len(), len);
                        assert!(buf.iter().all(|&v| v == 0.0), "acquire not zero-filled");
                        for v in buf.iter_mut() {
                            *v = next_tag;
                        }
                        held.push((buf, next_tag));
                        next_tag += 1.0;
                    }
                    Op::Release(ix) => {
                        if held.is_empty() {
                            continue;
                        }
                        let (buf, tag) = held.swap_remove(ix % held.len());
                        assert!(
                            buf.iter().all(|&v| v == tag),
                            "checked-out buffer was disturbed"
                        );
                        pool.release(buf);
                    }
                    Op::MarkSteady => pool.mark_steady(),
                }
            }
            for (buf, tag) in held {
                assert!(buf.iter().all(|&v| v == tag));
                pool.release(buf);
            }
        },
    );
}

/// Reuse never crosses size classes downward: a buffer can only serve a
/// later acquisition whose length fits its capacity, so acquisitions
/// larger than every released capacity always miss.
#[test]
fn reuse_only_serves_fitting_lengths() {
    prop::check(
        prop::CASES,
        |g| (g.usize(1..64), g.usize(2..8)),
        |(small, factor)| {
            let pool = FieldPool::new();
            let buf = pool.acquire(small);
            let cap = buf.capacity();
            pool.release(buf);
            // larger than the shelved capacity: must be a fresh allocation
            let big = pool.acquire(cap * factor);
            assert_eq!(pool.stats().hits, 0);
            assert_eq!(pool.stats().misses, 2);
            pool.release(big);
            // fits under the shelved capacity: must be a reuse
            let again = pool.acquire(small);
            assert_eq!(again.len(), small);
            assert_eq!(pool.stats().hits, 1);
            assert_eq!(pool.stats().misses, 2);
            pool.release(again);
        },
    );
}

/// All four counters are monotone over any script, hits + misses equals
/// the number of acquisitions, and steady misses never exceed misses.
#[test]
fn stats_are_monotone_tallies() {
    prop::check(
        prop::CASES,
        |g| g.vec(1..60, arb_op),
        |ops| {
            let pool = FieldPool::new();
            let mut held: Vec<Vec<f64>> = Vec::new();
            let mut acquires = 0u64;
            let mut prev = pool.stats();
            for op in ops {
                match op {
                    Op::Acquire(len) => {
                        held.push(pool.acquire(len));
                        acquires += 1;
                    }
                    Op::Release(ix) => {
                        if !held.is_empty() {
                            let buf = held.swap_remove(ix % held.len());
                            pool.release(buf);
                        }
                    }
                    Op::MarkSteady => pool.mark_steady(),
                }
                let s = pool.stats();
                assert!(s.hits >= prev.hits);
                assert!(s.misses >= prev.misses);
                assert!(s.bytes_recycled >= prev.bytes_recycled);
                assert!(s.steady_misses >= prev.steady_misses);
                assert_eq!(s.hits + s.misses, acquires);
                assert!(s.steady_misses <= s.misses);
                prev = s;
            }
        },
    );
}

/// The pool is shared across solver threads through one handle; hammer it
/// from several threads and check the tallies still add up.
#[test]
fn concurrent_acquire_release_keeps_counts_coherent() {
    let pool = FieldPool::new();
    let threads = 4;
    let per_thread = 200u64;
    std::thread::scope(|s| {
        for t in 0..threads {
            let pool = pool.clone();
            s.spawn(move || {
                for i in 0..per_thread {
                    let len = 1 + ((t as u64 * 37 + i * 13) % 500) as usize;
                    let mut buf = pool.acquire(len);
                    assert_eq!(buf.len(), len);
                    assert!(buf.iter().all(|&v| v == 0.0));
                    buf[0] = t as f64;
                    pool.release(buf);
                }
            });
        }
    });
    let s = pool.stats();
    assert_eq!(s.hits + s.misses, threads as u64 * per_thread);
    assert!(s.hits > 0, "concurrent reuse never happened");
}
