//! The workspace's data-parallel loop over independent tasks. It lives in
//! the mesh crate so the exchange-plan build can use it; `samr-solvers`
//! re-exports it beside the solver-side helpers built on it.

use rayon::prelude::*;

/// Apply `kernel` to every item concurrently, passing each item's index so
/// the kernel can look up per-item task data (ghost-fill plans, restriction
/// groups) from a shared slice. Items must be independent — writes go only
/// through `&mut T` — which makes parallel execution bit-identical to
/// sequential.
pub fn for_each_task_parallel<T, K>(items: &mut [T], kernel: K)
where
    T: Send,
    K: Fn(usize, &mut T) + Sync,
{
    items
        .par_iter_mut()
        .enumerate()
        .for_each(|(i, t)| kernel(i, t));
}
