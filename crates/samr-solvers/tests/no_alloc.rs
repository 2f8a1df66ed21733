//! `euler_step` and the shifted Poisson relaxation are documented to perform
//! zero heap allocations. A counting global allocator pins it: a warm call
//! on a patch must allocate nothing.

use samr_mesh::field::Field3;
use samr_mesh::index::ivec3;
use samr_mesh::region::Region;
use samr_solvers::{euler, poisson};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Allocations made by a thread while its `COUNTING` flag is up (the test
/// harness allocates on other threads whenever it likes).
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counter and
// the const-initialised, destructor-free thread-local never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.with(Cell::get) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`, above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations_of(f: impl FnOnce()) -> usize {
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn warm_solver_steps_allocate_nothing() {
    for size in [ivec3(8, 8, 8), ivec3(2, 9, 7), ivec3(6, 10, 1)] {
        let region = Region::at(ivec3(2, -1, 3), size);
        let mut fs: Vec<Field3> = (0..euler::NFIELDS)
            .map(|_| Field3::zeros(region, 1))
            .collect();
        euler::set_ambient(&mut fs, 1.0, [0.3, -0.2, 0.1], 1.0, 1.4);
        fs[euler::fields::RHO].set(region.lo, 2.0);
        euler::euler_step(&mut fs, 0.1, 1.4); // warm: first-use initialisation may allocate
        let n = allocations_of(|| euler::euler_step(&mut fs, 0.1, 1.4));
        assert_eq!(n, 0, "euler_step on {size:?}");

        let mut phi = Field3::zeros(region, 1);
        let rho = &fs[euler::fields::RHO];
        poisson::rbgs_sweep_shifted(&mut phi, rho, 1.0, 1.0);
        let n = allocations_of(|| poisson::rbgs_sweep_shifted(&mut phi, rho, 1.0, 1.0));
        assert_eq!(n, 0, "rbgs_sweep_shifted on {size:?}");
    }
}
