//! Field backing stores come from the allocator.
//!
//! SAMR regrids after every fine-level timestep, so field memory is a
//! stream of short-lived boxes whose sizes keep changing. A [`FieldPool`]
//! hands out zero-filled `Vec<f64>`s straight from the allocator and keeps
//! nothing: `vec![0.0; len]` is a zeroing allocation (fresh pages arrive
//! zeroed from the kernel, a reused heap chunk is zeroed once), so it costs
//! what clearing and resizing a shelved buffer did, while the process holds
//! only the memory its live fields use and gives the rest back. The handle
//! stays as the one place field buffers are drawn from, and counts them.
//!
//! Acquired buffers are always zero-filled, matching
//! [`Field3::zeros`](crate::field::Field3::zeros), so a field drawn here is
//! bit-identical to a fresh one.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counters of a run's field buffers. The four fields are a serialized
/// contract (`RunResult::pool`); only `misses` moves.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Always 0: no buffer is kept for reuse, so none is served again.
    pub hits: u64,
    /// Field buffers handed out, every one a fresh allocation.
    pub misses: u64,
    /// Always 0, for the same reason as `hits`.
    pub bytes_recycled: u64,
    /// Always 0: there is no warm-up after which an allocation would be
    /// unexpected — every field buffer is allocated.
    pub steady_misses: u64,
}

base::json_struct!(PoolStats: hits, misses, bytes_recycled, steady_misses);

/// The source of a hierarchy's field buffers. Cloning shares the counter.
#[derive(Clone, Debug, Default)]
pub struct FieldPool {
    handed_out: Arc<AtomicU64>,
}

impl FieldPool {
    /// A fresh pool with nothing handed out.
    pub fn new() -> Self {
        Self::default()
    }

    /// A handle for one solve worker: a clone of this pool.
    pub fn worker_handle(&self) -> FieldPool {
        self.clone()
    }

    /// A zero-filled buffer of exactly `len` elements, freshly allocated.
    pub fn acquire(&self, len: usize) -> Vec<f64> {
        // a statistic that publishes nothing else
        self.handed_out.fetch_add(1, Ordering::Relaxed);
        vec![0.0; len]
    }

    /// Buffers handed out so far.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            misses: self.handed_out.load(Ordering::Relaxed),
            ..PoolStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use base::prop::{self, Gen};

    /// One step of a script: acquire `len` elements (then scribble on them
    /// when `dirty`), or release a held buffer picked by index.
    #[derive(Clone, Debug)]
    enum Op {
        Acquire { len: usize, dirty: bool },
        Release(usize),
    }

    fn arb_op(g: &mut Gen) -> Op {
        if g.bool() {
            Op::Acquire {
                len: g.usize(0..4096),
                dirty: g.bool(),
            }
        } else {
            Op::Release(g.any_u64() as usize)
        }
    }

    /// Whatever was written into and released before, every acquisition is
    /// exactly `len` long and all zero, and `misses` counts acquisitions.
    #[test]
    fn every_acquisition_is_fresh_zeroed_and_counted() {
        prop::check(
            prop::CASES,
            |g| g.vec(1..60, arb_op),
            |ops| {
                let pool = FieldPool::new();
                let mut held: Vec<Vec<f64>> = Vec::new();
                let mut acquired = 0u64;
                for op in ops {
                    match op {
                        Op::Acquire { len, dirty } => {
                            let mut buf = pool.acquire(len);
                            acquired += 1;
                            assert_eq!(buf.len(), len);
                            assert!(buf.iter().all(|&v| v.to_bits() == 0), "not zero-filled");
                            if dirty {
                                buf.fill(f64::NAN);
                            }
                            held.push(buf);
                        }
                        Op::Release(ix) if !held.is_empty() => {
                            drop(held.swap_remove(ix % held.len()));
                        }
                        Op::Release(_) => {}
                    }
                    assert_eq!(pool.stats().misses, acquired);
                }
                let s = pool.stats();
                assert_eq!((s.hits, s.bytes_recycled, s.steady_misses), (0, 0, 0));
            },
        );
    }

    /// Worker handles taken on `par` workers count into the pool they came
    /// from, and their buffers are as fresh as the pool's own.
    #[test]
    fn worker_handles_on_par_workers_share_the_count() {
        let pool = FieldPool::new();
        let mut lens: Vec<usize> = (1..=64).collect();
        par::for_each_task_parallel(&mut lens, |_, len| {
            let handle = pool.worker_handle();
            let buf = handle.acquire(*len);
            assert!(buf.len() == *len && buf.iter().all(|&v| v == 0.0));
        });
        assert_eq!(pool.stats().misses, 64);
        assert_eq!(pool.worker_handle().stats(), pool.stats());
    }
}
