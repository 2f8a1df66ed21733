//! Apply a solver kernel to many patches' field sets on the worker pool.
//! Results are independent per patch, so parallel execution is
//! bit-identical to sequential.

use par::for_each_task_parallel;
use samr_mesh::field::Field3;

/// Apply `kernel` to every field set concurrently.
pub fn for_each_patch_parallel<K>(fieldsets: &mut [&mut Vec<Field3>], kernel: K)
where
    K: Fn(&mut Vec<Field3>) + Sync,
{
    for_each_task_parallel(fieldsets, |_, fs| kernel(fs));
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
}
