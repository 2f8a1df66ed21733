//! Apply a solver kernel to many patches' field sets on the worker pool.
//! Results are independent per patch, so parallel execution is
//! bit-identical to sequential.

use par::for_each_task_parallel;
use samr_mesh::field::Field3;
use samr_mesh::pool::{FieldPool, PoolHandle};

/// Apply `kernel` to every field set concurrently.
pub fn for_each_patch_parallel<K>(fieldsets: &mut [&mut Vec<Field3>], kernel: K)
where
    K: Fn(&mut Vec<Field3>) + Sync,
{
    for_each_task_parallel(fieldsets, |_, fs| kernel(fs));
}

/// Like [`for_each_task_parallel`], but hands each kernel invocation a
/// [`PoolHandle`] bound to the executing pool worker's home shard, so
/// solver scratch acquire/recycle on the hot path stays on per-thread free
/// lists instead of rendezvousing on one shared lock. The handle is
/// constructed lazily per invocation (it is two words: an `Arc` clone and
/// the thread's cached shard index), and results remain bit-identical to
/// sequential execution because the pool only changes *where* buffers come
/// from, never their contents after the zero-fill.
pub fn for_each_task_parallel_pooled<T, K>(pool: &FieldPool, items: &mut [T], kernel: K)
where
    T: Send,
    K: Fn(usize, &mut T, &PoolHandle) + Sync,
{
    for_each_task_parallel(items, |i, t| {
        let handle = pool.worker_handle();
        kernel(i, t, &handle);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use samr_mesh::region::Region;

    #[test]
    fn parallel_matches_sequential() {
        let mk = || -> Vec<Vec<Field3>> {
            (0..8)
                .map(|i| {
                    let mut f = Field3::zeros(Region::cube(4), 1);
                    f.map_interior(|p, _| (p.x + p.y + p.z + i) as f64);
                    vec![f]
                })
                .collect()
        };
        let kernel = |fs: &mut Vec<Field3>| {
            fs[0].map_interior(|_, v| v * 2.0 + 1.0);
        };
        let mut seq = mk();
        for fs in seq.iter_mut() {
            kernel(fs);
        }
        let mut par = mk();
        let mut refs: Vec<&mut Vec<Field3>> = par.iter_mut().collect();
        for_each_patch_parallel(&mut refs, kernel);
        assert_eq!(seq, par);
    }

    #[test]
    fn pooled_helper_hands_each_task_a_working_handle() {
        let pool = FieldPool::new();
        let mut items: Vec<Field3> = (0..6).map(|_| Field3::zeros(Region::cube(4), 1)).collect();
        for_each_task_parallel_pooled(&pool, &mut items, |i, f, h| {
            let int = f.interior();
            let mut scratch = Field3::new_in(h, int, 0);
            scratch.map_interior(|_, _| i as f64);
            f.copy_from(&scratch, &int);
            scratch.recycle(h);
        });
        for (i, f) in items.iter().enumerate() {
            assert_eq!(f.get(samr_mesh::ivec3(1, 1, 1)), i as f64);
        }
        // recycled scratch is back on a shelf, visible pool-wide
        assert!(pool.idle_buffers() > 0);
    }
}
