//! Offline stand-in for `rayon` — the subset the workspace calls
//! (`par_iter_mut().for_each`, `.enumerate().for_each`, a global pool sized
//! once by `ThreadPoolBuilder::build_global`). Work really runs in
//! parallel: a fixed set of worker threads plus the calling thread claim
//! item indices from a shared counter, so thread-local state (the field
//! pool's home shard) persists across calls as it does under rayon.
//! There is no work stealing and no nesting: a parallel call made from
//! inside a parallel region runs sequentially on the calling worker.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

pub mod prelude {
    pub use crate::{IndexedParallelIterator, IntoParallelRefMutIterator, ParallelIterator};
}

/// One broadcast job: `call(i)` for every `i < len`, indices claimed from
/// `next`. The closure pointer is only dereferenced while the dispatching
/// call is blocked in [`Pool::run`], which keeps the borrow alive.
#[derive(Clone)]
struct Job {
    call: *const (dyn Fn(usize) + Sync),
    len: usize,
    next: Arc<AtomicUsize>,
    panicked: Arc<AtomicBool>,
}

// SAFETY: the closure behind `call` is `Sync`, and `Pool::run` does not
// return before every worker that copied the job has dropped it.
unsafe impl Send for Job {}

#[derive(Default)]
struct State {
    job: Option<Job>,
    epoch: u64,
    /// Workers currently holding a copy of `job`.
    active: usize,
}

struct Pool {
    threads: usize,
    state: Mutex<State>,
    work: Condvar,
    done: Condvar,
    /// Serializes dispatchers: one broadcast job at a time.
    dispatch: Mutex<()>,
}

thread_local! {
    /// True on pool workers and on a caller while it is inside `Pool::run`.
    static IN_PARALLEL: Cell<bool> = const { Cell::new(false) };
}

static POOL: OnceLock<Arc<Pool>> = OnceLock::new();

/// No pool lock is held while user code runs, so a poisoned one is a bug here.
const POISONED: &str = "pool lock poisoned";

fn default_threads() -> usize {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n: &usize| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

fn spawn_pool(threads: usize) -> Arc<Pool> {
    let pool = Arc::new(Pool {
        threads,
        state: Mutex::new(State::default()),
        work: Condvar::new(),
        done: Condvar::new(),
        dispatch: Mutex::new(()),
    });
    // workers live as long as the process, like rayon's global pool
    for i in 1..threads {
        let p = Arc::clone(&pool);
        std::thread::Builder::new()
            .name(format!("rayon-standin-{i}"))
            .spawn(move || p.worker())
            .expect("spawn pool worker");
    }
    pool
}

fn pool() -> &'static Arc<Pool> {
    POOL.get_or_init(|| spawn_pool(default_threads()))
}

fn claim_loop(job: &Job) {
    // SAFETY: see `Job` — the dispatcher is blocked while we hold `job`.
    let call = unsafe { &*job.call };
    loop {
        // Relaxed: the counter only hands out indices. What the tasks write
        // is published by the `state` mutex every participant passes through
        // before the dispatcher returns.
        let i = job.next.fetch_add(1, Ordering::Relaxed);
        if i >= job.len {
            break;
        }
        call(i);
    }
}

impl Pool {
    fn worker(&self) {
        IN_PARALLEL.with(|f| f.set(true));
        let mut seen = 0u64;
        loop {
            let job = {
                let mut st = self.state.lock().expect(POISONED);
                loop {
                    if st.epoch != seen {
                        seen = st.epoch;
                        if let Some(job) = st.job.clone() {
                            st.active += 1;
                            break job;
                        }
                    }
                    st = self.work.wait(st).expect(POISONED);
                }
            };
            let ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| claim_loop(&job)));
            if ok.is_err() {
                job.panicked.store(true, Ordering::SeqCst);
            }
            drop(job);
            let mut st = self.state.lock().expect(POISONED);
            st.active -= 1;
            if st.active == 0 {
                self.done.notify_all();
            }
        }
    }

    fn run(&self, len: usize, call: &(dyn Fn(usize) + Sync)) {
        if len == 0 {
            return;
        }
        if self.threads <= 1 || len == 1 || IN_PARALLEL.with(|f| f.get()) {
            (0..len).for_each(call);
            return;
        }
        let _turn = self.dispatch.lock().expect(POISONED);
        // SAFETY: erases the borrow's lifetime; it is not used after `run`.
        let call: *const (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(call) };
        let job = Job {
            call,
            len,
            next: Arc::new(AtomicUsize::new(0)),
            panicked: Arc::new(AtomicBool::new(false)),
        };
        {
            let mut st = self.state.lock().expect(POISONED);
            st.job = Some(job.clone());
            st.epoch += 1;
        }
        self.work.notify_all();
        IN_PARALLEL.with(|f| f.set(true));
        let mine = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| claim_loop(&job)));
        IN_PARALLEL.with(|f| f.set(false));
        // withdraw the job, then wait for every worker that picked it up
        let mut st = self.state.lock().expect(POISONED);
        st.job = None;
        while st.active > 0 {
            st = self.done.wait(st).expect(POISONED);
        }
        drop(st);
        if let Err(p) = mine {
            std::panic::resume_unwind(p);
        }
        if job.panicked.load(Ordering::SeqCst) {
            panic!("a parallel task panicked on a pool worker");
        }
    }
}

/// Threads of the global pool (the caller counts as one).
pub fn current_num_threads() -> usize {
    pool().threads
}

/// Error of [`ThreadPoolBuilder::build_global`]: the pool already exists.
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("the global thread pool has already been initialized")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Sizes the global pool.
#[derive(Default)]
pub struct ThreadPoolBuilder {
    threads: usize,
}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// 0 keeps the default (`RAYON_NUM_THREADS`, else the core count).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    pub fn build_global(self) -> Result<(), ThreadPoolBuildError> {
        let n = if self.threads == 0 {
            default_threads()
        } else {
            self.threads
        };
        let mut fresh = false;
        POOL.get_or_init(|| {
            fresh = true;
            spawn_pool(n)
        });
        if fresh {
            Ok(())
        } else {
            Err(ThreadPoolBuildError)
        }
    }
}

/// Carrier of a slice's base pointer into the `Sync` index closure.
struct SendPtr<T>(*mut T);
// SAFETY: every index is claimed exactly once, so no two threads ever form
// a reference to the same element; `T: Send` lets elements cross threads.
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Through a method, so closures capture the wrapper, not the raw field.
    fn at(&self, i: usize) -> *mut T {
        // SAFETY (caller): `i` is within the slice the pointer came from.
        unsafe { self.0.add(i) }
    }
}

/// `for_each` over a parallel iterator.
pub trait ParallelIterator: Sized {
    type Item;
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync + Send;
}

/// Parallel iterators that know each item's position.
pub trait IndexedParallelIterator: ParallelIterator {
    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { base: self }
    }
}

/// `slice.par_iter_mut()` (and, by auto-deref, `vec.par_iter_mut()`).
pub trait IntoParallelRefMutIterator<'a> {
    type Iter: ParallelIterator;
    fn par_iter_mut(&'a mut self) -> Self::Iter;
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
    type Iter = IterMut<'a, T>;
    fn par_iter_mut(&'a mut self) -> IterMut<'a, T> {
        IterMut { slice: self }
    }
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for Vec<T> {
    type Iter = IterMut<'a, T>;
    fn par_iter_mut(&'a mut self) -> IterMut<'a, T> {
        IterMut { slice: self }
    }
}

/// Parallel iterator over `&mut T`.
pub struct IterMut<'a, T> {
    slice: &'a mut [T],
}

impl<'a, T: Send> IterMut<'a, T> {
    fn drive<F: Fn(usize, &'a mut T) + Sync>(self, f: F) {
        let len = self.slice.len();
        let base = SendPtr(self.slice.as_mut_ptr());
        pool().run(len, &|i| {
            // SAFETY: `i < len` and each `i` is handed out once.
            f(i, unsafe { &mut *base.at(i) })
        });
    }
}

impl<'a, T: Send> ParallelIterator for IterMut<'a, T> {
    type Item = &'a mut T;
    fn for_each<F: Fn(&'a mut T) + Sync + Send>(self, f: F) {
        self.drive(|_, t| f(t));
    }
}

impl<'a, T: Send> IndexedParallelIterator for IterMut<'a, T> {}

/// `par_iter_mut().enumerate()`.
pub struct Enumerate<I> {
    base: I,
}

impl<'a, T: Send> ParallelIterator for Enumerate<IterMut<'a, T>> {
    type Item = (usize, &'a mut T);
    fn for_each<F: Fn((usize, &'a mut T)) + Sync + Send>(self, f: F) {
        self.base.drive(|i, t| f((i, t)));
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn every_item_is_visited_once_with_its_index() {
        let _ = super::ThreadPoolBuilder::new()
            .num_threads(3)
            .build_global();
        let mut v: Vec<u64> = vec![0; 1000];
        for round in 1..=20u64 {
            v.par_iter_mut()
                .enumerate()
                .for_each(|(i, x)| *x += i as u64 * round);
        }
        let rounds: u64 = (1..=20).sum();
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as u64 * rounds));
        let mut w = vec![1u32; 17];
        w.par_iter_mut().for_each(|x| *x += 1);
        assert!(w.iter().all(|&x| x == 2));
    }

    #[test]
    fn nested_calls_do_not_deadlock() {
        let mut outer = vec![vec![0u32; 8]; 8];
        outer.par_iter_mut().for_each(|inner| {
            inner.par_iter_mut().for_each(|x| *x += 1);
        });
        assert!(outer.iter().flatten().all(|&x| x == 1));
    }
}
