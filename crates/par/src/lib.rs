//! The workspace's one worker pool (std only). A fixed set of worker
//! threads plus the calling thread claim item indices from a shared
//! counter, so work really runs in parallel and thread-local state
//! persists across calls: the global pool's workers live as long as the
//! process. There is no work stealing and no
//! nesting: a parallel call made from inside a parallel region runs
//! sequentially on the calling thread.
//!
//! [`for_each_task_parallel`] is the pool's own loop; [`map`] and [`join`]
//! are built on it. [`with_threads`] runs a closure against a temporary
//! pool of a given size (the thread-count determinism tests). The
//! rayon-shaped names at the bottom exist for `crates/benchmark`, which
//! sizes and reads this same pool under the dependency name `rayon`.
//!
//! The two idioms the compiler cannot check — the closure pointer whose borrow is erased
//! for the duration of a dispatch, and the slice base pointer handed to
//! the index closure — each live in a private module with everything that
//! upholds their conditions.

#![deny(unsafe_code)]

use std::cell::RefCell;
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

use pool::Pool;
pub use slice::for_each_task_parallel;

#[allow(unsafe_code)]
mod pool {
    use std::cell::Cell;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};
    use std::thread::JoinHandle;

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
        /// Set once, by [`Pool::shut_down`]: idle workers return.
        shut_down: bool,
    }

    pub(crate) struct Pool {
        pub(crate) threads: usize,
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

    /// No pool lock is held while user code runs, so a poisoned one is a bug here.
    const POISONED: &str = "pool lock poisoned";

    /// A pool of `threads` participants: the caller plus `threads - 1`
    /// workers, whose handles are returned.
    pub(crate) fn spawn_pool(threads: usize) -> (Arc<Pool>, Vec<JoinHandle<()>>) {
        let pool = Arc::new(Pool {
            threads,
            state: Mutex::new(State::default()),
            work: Condvar::new(),
            done: Condvar::new(),
            dispatch: Mutex::new(()),
        });
        let workers = (1..threads)
            .map(|i| {
                let p = Arc::clone(&pool);
                std::thread::Builder::new()
                    .name(format!("par-{i}"))
                    .spawn(move || p.worker())
                    .expect("spawn pool worker")
            })
            .collect();
        (pool, workers)
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
                        if st.shut_down {
                            return;
                        }
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
                let ok =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| claim_loop(&job)));
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

        /// Tell idle workers to return; no dispatch may follow.
        pub(crate) fn shut_down(&self) {
            self.state.lock().expect(POISONED).shut_down = true;
            self.work.notify_all();
        }

        pub(crate) fn run(&self, len: usize, call: &(dyn Fn(usize) + Sync)) {
            if len == 0 {
                return;
            }
            if self.threads <= 1 || len == 1 || IN_PARALLEL.with(|f| f.get()) {
                (0..len).for_each(call);
                return;
            }
            let turn = self.dispatch.lock().expect(POISONED);
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
            // before unwinding, or the panic would poison the lock for every later call
            drop(turn);
            if let Err(p) = mine {
                std::panic::resume_unwind(p);
            }
            if job.panicked.load(Ordering::SeqCst) {
                panic!("a parallel task panicked on a pool worker");
            }
        }
    }
}

#[allow(unsafe_code)]
mod slice {
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

    /// Apply `kernel` to every item concurrently, passing each item's index so
    /// the kernel can look up per-item task data (ghost-fill plans, restriction
    /// groups) from a shared slice. Items must be independent — writes go only
    /// through `&mut T` — which makes parallel execution bit-identical to
    /// sequential.
    pub fn for_each_task_parallel<'a, T, K>(items: &'a mut [T], kernel: K)
    where
        T: Send,
        K: Fn(usize, &'a mut T) + Sync,
    {
        let len = items.len();
        let base = SendPtr(items.as_mut_ptr());
        crate::run(len, &|i| {
            // SAFETY: `i < len` and each `i` is handed out once.
            kernel(i, unsafe { &mut *base.at(i) })
        });
    }
}

static GLOBAL: OnceLock<Arc<Pool>> = OnceLock::new();

thread_local! {
    /// The pool of the innermost [`with_threads`] this thread is inside.
    static SCOPED: RefCell<Option<Arc<Pool>>> = const { RefCell::new(None) };
}

fn default_threads() -> usize {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n: &usize| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

fn global() -> &'static Arc<Pool> {
    // workers live as long as the process: their handles are let go
    GLOBAL.get_or_init(|| pool::spawn_pool(default_threads()).0)
}

fn run(len: usize, call: &(dyn Fn(usize) + Sync)) {
    match SCOPED.with(|s| s.borrow().clone()) {
        Some(pool) => pool.run(len, call),
        None => global().run(len, call),
    }
}

/// Threads of the pool a parallel call made here would run on (the caller
/// counts as one).
pub fn current_num_threads() -> usize {
    SCOPED
        .with(|s| s.borrow().as_ref().map(|p| p.threads))
        .unwrap_or_else(|| global().threads)
}

/// `f(&items[i])` for every item, concurrently, results in item order.
pub fn map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let mut out: Vec<Option<R>> = items.iter().map(|_| None).collect();
    for_each_task_parallel(&mut out, |i, slot| *slot = Some(f(&items[i])));
    out.into_iter()
        .map(|r| r.expect("every index was claimed"))
        .collect()
}

/// Run `a` and `b`, possibly concurrently, and return both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let (mut a, mut b) = (Some(a), Some(b));
    let (mut ra, mut rb) = (None, None);
    let mut run_a = || ra = a.take().map(|f| f());
    let mut run_b = || rb = b.take().map(|f| f());
    let mut tasks: [&mut (dyn FnMut() + Send); 2] = [&mut run_a, &mut run_b];
    for_each_task_parallel(&mut tasks, |_, task| task());
    (
        ra.expect("index 0 was claimed"),
        rb.expect("index 1 was claimed"),
    )
}

/// Run `f` with this thread's parallel calls going to a temporary pool of
/// `n` threads (the caller and `n - 1` workers, joined before returning)
/// instead of the global one.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    assert!(n > 0, "a pool needs at least the calling thread");
    struct Scope {
        pool: Arc<Pool>,
        workers: Vec<JoinHandle<()>>,
        outer: Option<Arc<Pool>>,
    }
    impl Drop for Scope {
        fn drop(&mut self) {
            SCOPED.with(|s| *s.borrow_mut() = self.outer.take());
            self.pool.shut_down();
            for w in self.workers.drain(..) {
                // workers catch task panics, so a join error has nothing to report
                let _ = w.join();
            }
        }
    }
    let (pool, workers) = pool::spawn_pool(n);
    let outer = SCOPED.with(|s| s.borrow_mut().replace(Arc::clone(&pool)));
    let _scope = Scope {
        pool,
        workers,
        outer,
    };
    f()
}

// ---- the rayon-shaped subset `crates/benchmark` calls ---------------------

pub mod prelude {
    pub use crate::IntoParallelRefMutIterator;
}

/// `slice.par_iter_mut()` (and, by auto-deref, `vec.par_iter_mut()`).
pub trait IntoParallelRefMutIterator<T> {
    fn par_iter_mut(&mut self) -> IterMut<'_, T>;
}

impl<T: Send> IntoParallelRefMutIterator<T> for [T] {
    fn par_iter_mut(&mut self) -> IterMut<'_, T> {
        IterMut { slice: self }
    }
}

/// Parallel iterator over `&mut T`.
pub struct IterMut<'a, T> {
    slice: &'a mut [T],
}

impl<'a, T: Send> IterMut<'a, T> {
    pub fn for_each<F: Fn(&'a mut T) + Sync>(self, f: F) {
        for_each_task_parallel(self.slice, |_, t| f(t));
    }
}

/// Error of [`ThreadPoolBuilder::build_global`]: the pool already exists.
#[derive(Debug)]
pub struct ThreadPoolBuildError;

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
        GLOBAL.get_or_init(|| {
            fresh = true;
            pool::spawn_pool(n).0
        });
        if fresh {
            Ok(())
        } else {
            Err(ThreadPoolBuildError)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn every_item_is_visited_once_with_its_index() {
        let _ = ThreadPoolBuilder::new().num_threads(3).build_global();
        let mut v: Vec<u64> = vec![0; 1000];
        for round in 1..=20u64 {
            for_each_task_parallel(&mut v, |i, x| *x += i as u64 * round);
        }
        let rounds: u64 = (1..=20).sum();
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as u64 * rounds));
        // the rayon-shaped spelling is the same loop
        v.par_iter_mut().for_each(|x| *x += 1);
        assert!(v
            .iter()
            .enumerate()
            .all(|(i, &x)| x == i as u64 * rounds + 1));
    }

    #[test]
    fn a_nested_call_runs_inline_on_the_thread_that_made_it() {
        with_threads(4, || {
            let mut outer = vec![vec![(0u32, None); 8]; 8];
            for_each_task_parallel(&mut outer, |_, inner| {
                let me = std::thread::current().id();
                for_each_task_parallel(inner, |_, x| *x = (x.0 + 1, Some(me)));
                assert!(inner
                    .iter()
                    .all(|x| *x == (1, Some(std::thread::current().id()))));
            });
        });
    }

    #[test]
    fn map_keeps_item_order_and_join_returns_both_sides() {
        with_threads(3, || {
            let items: Vec<usize> = (0..500).collect();
            assert_eq!(
                map(&items, |&i| i * i),
                items.iter().map(|&i| i * i).collect::<Vec<_>>()
            );
            assert!(map(&[] as &[u8], |&b| b).is_empty());
            let text = String::from("left");
            let (a, b) = join(|| text.len(), || vec![1, 2, 3]);
            assert_eq!((a, b), (4, vec![1, 2, 3]));
        });
    }

    /// `n` tasks on the current pool of `n` threads, one per thread: no task
    /// may finish before all have started.
    fn one_task_per_thread(n: usize, task: impl Fn() + Sync) {
        let arrived = AtomicUsize::new(0);
        for_each_task_parallel(&mut vec![(); n], |_, _| {
            arrived.fetch_add(1, Ordering::SeqCst);
            while arrived.load(Ordering::SeqCst) < n {
                std::thread::yield_now();
            }
            task();
        });
    }

    #[test]
    fn with_threads_really_uses_that_many_threads_and_restores_the_outer_pool() {
        let before = current_num_threads();
        for n in [1, 2, 4, 8] {
            with_threads(n, || {
                assert_eq!(current_num_threads(), n);
                let ids = Mutex::new(HashSet::new());
                one_task_per_thread(n, || {
                    ids.lock().unwrap().insert(std::thread::current().id());
                });
                assert_eq!(ids.into_inner().unwrap().len(), n);
                with_threads(1, || assert_eq!(current_num_threads(), 1));
                assert_eq!(current_num_threads(), n);
            });
        }
        assert_eq!(current_num_threads(), before);
    }

    #[test]
    fn a_panicking_task_reaches_the_caller_and_the_pool_serves_the_next_call() {
        with_threads(4, || {
            let caller = std::thread::current().id();
            for panic_on_caller in [true, false] {
                let caught = std::panic::catch_unwind(|| {
                    one_task_per_thread(4, || {
                        let on_caller = std::thread::current().id() == caller;
                        assert!(on_caller != panic_on_caller, "deliberate");
                    });
                });
                assert!(
                    caught.is_err(),
                    "panic (caller: {panic_on_caller}) swallowed"
                );
                // the next call is served, nested calls still run inline
                let mut rows = vec![vec![0u32; 8]; 64];
                for_each_task_parallel(&mut rows, |i, row| {
                    let me = std::thread::current().id();
                    for_each_task_parallel(row, |j, x| {
                        assert_eq!(std::thread::current().id(), me);
                        *x = (i * 8 + j) as u32;
                    });
                });
                assert!(rows
                    .concat()
                    .iter()
                    .enumerate()
                    .all(|(k, &x)| x == k as u32));
            }
        });
    }
}
