//! Recycling allocator for field backing stores.
//!
//! SAMR regrids after *every* fine-level timestep, so a naive implementation
//! churns the heap with field-sized allocations forever: solver double
//! buffers, ghost-exchange slabs, regrid stashes and freshly inserted
//! patches all want a `Vec<f64>` of roughly recurring sizes. A [`FieldPool`]
//! keeps released backing stores on free-lists keyed by power-of-two
//! capacity class, so once the hierarchy has reached its working set a
//! timestep performs zero field-sized heap allocations (the
//! `steady_misses` counter proves it).
//!
//! Design notes:
//! - The pool is **sharded**: free-lists live in `NUM_SHARDS` independently
//!   locked shards, and every thread is pinned (round-robin at first touch)
//!   to one home shard. `acquire` and `release` touch only the home shard
//!   in the common case, so solve workers never serialize on a global lock;
//!   a shard is an array of shelves indexed by class *exponent* with a
//!   nonempty bitmask, making first-fit one `trailing_zeros`, not a map
//!   scan. When the home shard cannot serve, the request falls through a
//!   low-traffic **spill/steal tier**: the global shelf (where
//!   [`mark_steady`](FieldPool::mark_steady) provisions headroom), then the
//!   other shards. Only when no shelf anywhere can serve does the pool
//!   allocate.
//! - Buffers are keyed by *capacity class* (`len.next_power_of_two()`), not
//!   exact length: regrid keeps minting patches of novel sizes, and exact
//!   keying would miss forever. A request is served from its own class
//!   first, then first-fit from a few neighbouring larger classes
//!   (`BORROW_CLASSES`), and only as a last resort from an arbitrarily
//!   larger one — eager upward borrowing would let bursts of small
//!   ghost-slab requests raid the large patch-field shelves and force
//!   field-sized re-allocations. The served buffer is `resize`d down to the
//!   requested length (within capacity, so no reallocation).
//! - Every miss shelves a *spare* buffer of the same class alongside the
//!   one handed out. A miss marks a high-water mark of concurrent demand
//!   (solver scratch, ghost slabs and regrid stashes peak together), and
//!   that peak drifts as the mesh evolves — the spare gives later
//!   fluctuations headroom, amortizing misses to zero in steady state.
//! - [`mark_steady`](FieldPool::mark_steady) additionally provisions slack
//!   per class over the warm-up inventory — 50% by default, or a caller
//!   -supplied factor ([`mark_steady_with_headroom`]) sized to the measured
//!   mesh growth rate, since a hierarchy that keeps refining after warm-up
//!   needs inventory for its *final* working set, not its warm-up one.
//!   Provisioned spares are `Vec::with_capacity` reservations: they cost
//!   address space, not resident pages, until first use.
//! - Acquired buffers are always zero-filled, matching [`Field3::zeros`]
//!   semantics — pooled and fresh fields are bit-identical, which is what
//!   lets the optimized data path stay on the golden bit-identity tests.
//! - The handle is a cheap `Arc` clone and every operation is thread-safe,
//!   with exact monotone [`PoolStats`] kept in atomics. Which physical
//!   buffer a worker receives is scheduling-dependent, but since contents
//!   are always zeroed the *values* computed remain deterministic.
//! - Solver hot loops can resolve the home shard once via
//!   [`worker_handle`](FieldPool::worker_handle) and pass the resulting
//!   [`PoolHandle`] down through `step_patch`; both it and `FieldPool`
//!   implement [`FieldAlloc`], the trait the solvers are generic over.
//!
//! [`mark_steady_with_headroom`]: FieldPool::mark_steady_with_headroom
//! [`Field3::zeros`]: crate::field::Field3::zeros

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Number of independently locked shards (power of two).
const NUM_SHARDS: usize = 16;

/// One shelf per possible power-of-two class exponent.
const NUM_CLASSES: usize = usize::BITS as usize;

/// A request may be served first-fit from up to this many classes above its
/// own before falling through to the spill/steal tier; beyond that, upward
/// borrowing is a last resort (see module docs).
const BORROW_CLASSES: usize = 3;

/// Monotone counters describing pool behaviour over a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Acquisitions served from a free-list (no heap allocation).
    pub hits: u64,
    /// Acquisitions that had to allocate a fresh backing store.
    pub misses: u64,
    /// Total bytes handed back out of the free-lists (8 × cells per hit).
    pub bytes_recycled: u64,
    /// Misses after [`FieldPool::mark_steady`] — the steady-state
    /// field-allocation count the zero-alloc gate asserts on.
    pub steady_misses: u64,
}

base::json_struct!(PoolStats: hits, misses, bytes_recycled, steady_misses);

/// Breakdown of *where* hits were served from — the sharded fast path
/// versus the spill/steal fallback tiers — plus upward class borrowing.
/// Diagnostics only: which tier serves a given request depends on worker
/// scheduling, so unlike [`PoolStats`] these are not part of any
/// serialized result contract (deliberately no JSON form).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PoolDetail {
    /// Hits served by the caller's own home shard (the uncontended path).
    pub home_hits: u64,
    /// Hits served by the global spill tier (steady headroom and
    /// [`FieldPool::provision`]ed inventory live here).
    pub spill_hits: u64,
    /// Hits served by stealing from another thread's shard.
    pub steal_hits: u64,
    /// Hits served by a buffer of a *larger* class than requested
    /// (first-fit upward borrowing; see `BORROW_CLASSES`).
    pub borrow_hits: u64,
    /// Hits served out of each shard's shelves (home + stolen), indexed by
    /// shard. Sums to `home_hits + steal_hits`; spill-tier hits are global
    /// and belong to no shard.
    pub shard_hits: Vec<u64>,
}

/// Which tier ended up serving a reuse request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ServeTier {
    Home,
    Spill,
    Steal(usize),
}

/// Free-lists indexed by class exponent, with a nonempty bitmask so
/// first-fit in a class range is a couple of bit ops.
#[derive(Debug)]
struct Shelves {
    lists: [Vec<Vec<f64>>; NUM_CLASSES],
    nonempty: u64,
}

impl Shelves {
    fn new() -> Self {
        Shelves {
            lists: std::array::from_fn(|_| Vec::new()),
            nonempty: 0,
        }
    }

    fn push(&mut self, exp: usize, buf: Vec<f64>) {
        self.lists[exp].push(buf);
        self.nonempty |= 1u64 << exp;
    }

    /// Pop from the smallest nonempty class in `lo..=hi` (LIFO within a
    /// class, so the hottest buffer comes back first).
    fn pop_in(&mut self, lo: usize, hi: usize) -> Option<Vec<f64>> {
        let mut mask = self.nonempty >> lo << lo;
        if hi < NUM_CLASSES - 1 {
            mask &= (1u64 << (hi + 1)) - 1;
        }
        if mask == 0 {
            return None;
        }
        let exp = mask.trailing_zeros() as usize;
        let buf = self.lists[exp].pop();
        if self.lists[exp].is_empty() {
            self.nonempty &= !(1u64 << exp);
        }
        buf
    }

    fn len(&self) -> usize {
        self.lists.iter().map(Vec::len).sum()
    }
}

#[derive(Debug)]
struct PoolInner {
    /// Per-thread-home shards: the uncontended fast path.
    shards: [Mutex<Shelves>; NUM_SHARDS],
    /// Spill/steal tier: headroom provisioned at the steady switch lands
    /// here, and any shard may draw from it when its own shelves run dry.
    global: Mutex<Shelves>,
    /// Buffers minted per class exponent (by misses), sizing the headroom
    /// provisioned when [`FieldPool::mark_steady`] ends warm-up.
    minted: [AtomicU64; NUM_CLASSES],
    hits: AtomicU64,
    misses: AtomicU64,
    bytes_recycled: AtomicU64,
    steady: AtomicBool,
    steady_misses: AtomicU64,
    /// Serving-tier breakdown (see [`PoolDetail`]).
    home_hits: AtomicU64,
    spill_hits: AtomicU64,
    steal_hits: AtomicU64,
    borrow_hits: AtomicU64,
    shard_hits: [AtomicU64; NUM_SHARDS],
}

impl Default for PoolInner {
    fn default() -> Self {
        PoolInner {
            shards: std::array::from_fn(|_| Mutex::new(Shelves::new())),
            global: Mutex::new(Shelves::new()),
            minted: std::array::from_fn(|_| AtomicU64::new(0)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bytes_recycled: AtomicU64::new(0),
            steady: AtomicBool::new(false),
            steady_misses: AtomicU64::new(0),
            home_hits: AtomicU64::new(0),
            spill_hits: AtomicU64::new(0),
            steal_hits: AtomicU64::new(0),
            borrow_hits: AtomicU64::new(0),
            shard_hits: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A shared, thread-safe recycling pool of `Vec<f64>` field backing stores.
#[derive(Clone, Debug, Default)]
pub struct FieldPool {
    inner: Arc<PoolInner>,
}

/// The allocation interface the solvers are generic over: both the pool
/// itself and a shard-resolved [`PoolHandle`] satisfy it, so library code
/// written against `&FieldPool` keeps working while the driver's solve
/// workers pass pre-resolved handles.
pub trait FieldAlloc {
    /// Hand out a zero-filled buffer of exactly `len` elements.
    fn acquire(&self, len: usize) -> Vec<f64>;
    /// Hand out a buffer of exactly `len` elements whose contents are
    /// unspecified (a reused buffer keeps whatever values its previous life
    /// left behind). Only for callers that overwrite every element before
    /// any read — skipping the zero fill is the entire point.
    fn acquire_unfilled(&self, len: usize) -> Vec<f64> {
        self.acquire(len)
    }
    /// Return a backing store for reuse.
    fn release(&self, buf: Vec<f64>);
}

/// Power-of-two class exponent a buffer of length `len` is requested from.
fn class_exp(len: usize) -> usize {
    len.next_power_of_two().max(1).trailing_zeros() as usize
}

/// Class exponent a buffer of capacity `cap` is shelved under: the largest
/// power of two ≤ `cap`, so serving a request from `exp..` never
/// reallocates on the resize down to the requested length.
fn shelf_exp(cap: usize) -> usize {
    debug_assert!(cap > 0);
    (usize::BITS - 1 - cap.leading_zeros()) as usize
}

/// Home shard of the calling thread: assigned round-robin at first touch,
/// cached in a thread-local. Shard identity only affects which physical
/// buffer a request receives, never the values computed (buffers are
/// zeroed), so the round-robin order is free to be scheduling-dependent.
fn home_shard() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static HOME: usize = NEXT.fetch_add(1, Ordering::Relaxed) & (NUM_SHARDS - 1);
    }
    HOME.with(|&h| h)
}

impl FieldPool {
    /// A fresh, empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// A handle with the calling thread's home shard resolved once, for
    /// solver hot loops that acquire and release many buffers per patch.
    pub fn worker_handle(&self) -> PoolHandle {
        PoolHandle {
            pool: self.clone(),
            shard: home_shard(),
        }
    }

    fn try_reuse(&self, shard: usize, lo: usize, hi: usize) -> Option<(Vec<f64>, ServeTier)> {
        if let Some(buf) = self.inner.shards[shard].lock().unwrap().pop_in(lo, hi) {
            return Some((buf, ServeTier::Home));
        }
        if let Some(buf) = self.inner.global.lock().unwrap().pop_in(lo, hi) {
            return Some((buf, ServeTier::Spill));
        }
        // steal sweep: every other shard, briefly locked
        for k in 1..NUM_SHARDS {
            let other = (shard + k) & (NUM_SHARDS - 1);
            if let Some(buf) = self.inner.shards[other].lock().unwrap().pop_in(lo, hi) {
                return Some((buf, ServeTier::Steal(other)));
            }
        }
        None
    }

    fn acquire_from(&self, shard: usize, len: usize) -> Vec<f64> {
        self.acquire_from_with(shard, len, true)
    }

    fn acquire_from_with(&self, shard: usize, len: usize, zero: bool) -> Vec<f64> {
        let exp = class_exp(len);
        let near = (exp + BORROW_CLASSES).min(NUM_CLASSES - 1);
        let reused = self
            .try_reuse(shard, exp, near)
            .or_else(|| self.try_reuse(shard, exp, NUM_CLASSES - 1));
        match reused {
            Some((mut buf, tier)) => {
                debug_assert!(buf.capacity() >= len);
                if zero {
                    buf.clear();
                }
                // without `zero`, prior contents stay in place and only the
                // tail past the reused length is (necessarily) initialized
                buf.resize(len, 0.0);
                self.inner.hits.fetch_add(1, Ordering::Relaxed);
                self.inner
                    .bytes_recycled
                    .fetch_add(8 * len as u64, Ordering::Relaxed);
                match tier {
                    ServeTier::Home => {
                        self.inner.home_hits.fetch_add(1, Ordering::Relaxed);
                        self.inner.shard_hits[shard].fetch_add(1, Ordering::Relaxed);
                    }
                    ServeTier::Spill => {
                        self.inner.spill_hits.fetch_add(1, Ordering::Relaxed);
                    }
                    ServeTier::Steal(other) => {
                        self.inner.steal_hits.fetch_add(1, Ordering::Relaxed);
                        self.inner.shard_hits[other].fetch_add(1, Ordering::Relaxed);
                    }
                }
                if shelf_exp(buf.capacity()) > exp {
                    self.inner.borrow_hits.fetch_add(1, Ordering::Relaxed);
                }
                buf
            }
            None => {
                self.inner.misses.fetch_add(1, Ordering::Relaxed);
                if self.inner.steady.load(Ordering::Relaxed) {
                    self.inner.steady_misses.fetch_add(1, Ordering::Relaxed);
                }
                // allocate the full class up front so the buffer can serve
                // any same-class request on its next life
                let cap = 1usize << exp;
                let mut buf = Vec::with_capacity(cap);
                buf.resize(len, 0.0);
                // A miss is a high-water mark: peak concurrent demand for
                // this class just outgrew inventory, and peak demand drifts
                // as the mesh evolves. Shelve a spare alongside so the next
                // fluctuation finds headroom instead of allocating again.
                self.inner.shards[shard]
                    .lock()
                    .unwrap()
                    .push(exp, Vec::with_capacity(cap));
                self.inner.minted[exp].fetch_add(2, Ordering::Relaxed);
                buf
            }
        }
    }

    fn release_to(&self, shard: usize, buf: Vec<f64>) {
        if buf.capacity() == 0 {
            return;
        }
        let exp = shelf_exp(buf.capacity());
        self.inner.shards[shard].lock().unwrap().push(exp, buf);
    }

    /// Hand out a zero-filled buffer of exactly `len` elements, reusing a
    /// pooled backing store when one of sufficient capacity exists.
    pub fn acquire(&self, len: usize) -> Vec<f64> {
        self.acquire_from(home_shard(), len)
    }

    /// Return a backing store to the pool for reuse.
    pub fn release(&self, buf: Vec<f64>) {
        self.release_to(home_shard(), buf);
    }

    /// Declare warm-up over with the default 50% headroom; see
    /// [`mark_steady_with_headroom`](Self::mark_steady_with_headroom).
    pub fn mark_steady(&self) {
        self.mark_steady_with_headroom(0.5);
    }

    /// Declare warm-up over: from now on every miss increments
    /// `steady_misses`, the count the zero-alloc verify gate asserts is 0.
    ///
    /// The first call (only — the transition is idempotent) also provisions
    /// `factor` headroom per class over everything minted during warm-up,
    /// into the global spill tier. Peak concurrent demand drifts with the
    /// evolving mesh and with worker scheduling, so inventory merely
    /// *equal* to the warm-up peak would still miss on the next
    /// fluctuation. Callers whose mesh keeps growing after warm-up (the
    /// driver measures this) pass a growth-scaled factor; the spares are
    /// capacity-only reservations until first use.
    pub fn mark_steady_with_headroom(&self, factor: f64) {
        if self.inner.steady.swap(true, Ordering::Relaxed) {
            return;
        }
        let factor = factor.max(0.0);
        let mut global = self.inner.global.lock().unwrap();
        for (exp, minted) in self.inner.minted.iter().enumerate() {
            let n = minted.load(Ordering::Relaxed);
            if n == 0 {
                continue;
            }
            let extra = (n as f64 * factor).ceil() as u64 + 1;
            for _ in 0..extra {
                global.push(exp, Vec::with_capacity(1usize << exp));
            }
        }
    }

    /// Shelve `count` spare buffers able to serve `len`-element requests
    /// into the global spill tier, ahead of demand. Unlike a miss this is a
    /// *planned* inventory extension: drivers call it when they observe the
    /// working set grow (e.g. a regrid that enlarged the hierarchy), so the
    /// zero-alloc steady state survives mesh growth no warm-up projection
    /// could have foreseen. The spares are `Vec::with_capacity`
    /// reservations — address space, not resident pages, until first use.
    pub fn provision(&self, len: usize, count: u64) {
        if len == 0 || count == 0 {
            return;
        }
        let exp = class_exp(len);
        let mut global = self.inner.global.lock().unwrap();
        for _ in 0..count {
            global.push(exp, Vec::with_capacity(1usize << exp));
        }
    }

    /// Whether `other` is a handle to this very pool (shelves, steady mark
    /// and counters shared), not merely an equal-looking one.
    pub fn ptr_eq(&self, other: &FieldPool) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Whether [`mark_steady`](Self::mark_steady) has been called.
    pub fn is_steady(&self) -> bool {
        self.inner.steady.load(Ordering::Relaxed)
    }

    /// Snapshot of the monotone counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.inner.hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
            bytes_recycled: self.inner.bytes_recycled.load(Ordering::Relaxed),
            steady_misses: self.inner.steady_misses.load(Ordering::Relaxed),
        }
    }

    /// Snapshot of the serving-tier breakdown. The invariant
    /// `home_hits + spill_hits + steal_hits == stats().hits` holds on any
    /// quiescent pool; which tier served a request is scheduling-dependent,
    /// so these feed diagnostics (stat blocks, hotpath JSON), never
    /// fingerprints.
    pub fn detail(&self) -> PoolDetail {
        PoolDetail {
            home_hits: self.inner.home_hits.load(Ordering::Relaxed),
            spill_hits: self.inner.spill_hits.load(Ordering::Relaxed),
            steal_hits: self.inner.steal_hits.load(Ordering::Relaxed),
            borrow_hits: self.inner.borrow_hits.load(Ordering::Relaxed),
            shard_hits: self
                .inner
                .shard_hits
                .iter()
                .map(|h| h.load(Ordering::Relaxed))
                .collect(),
        }
    }

    /// Number of buffers currently shelved (for tests and diagnostics).
    pub fn idle_buffers(&self) -> usize {
        let shards: usize = self
            .inner
            .shards
            .iter()
            .map(|s| s.lock().unwrap().len())
            .sum();
        shards + self.inner.global.lock().unwrap().len()
    }
}

impl FieldAlloc for FieldPool {
    fn acquire(&self, len: usize) -> Vec<f64> {
        FieldPool::acquire(self, len)
    }
    fn acquire_unfilled(&self, len: usize) -> Vec<f64> {
        self.acquire_from_with(home_shard(), len, false)
    }
    fn release(&self, buf: Vec<f64>) {
        FieldPool::release(self, buf);
    }
}

/// A [`FieldPool`] handle with the home shard resolved once. Cheap to
/// clone; create one per solve worker ([`FieldPool::worker_handle`]) and
/// thread it through the patch kernels so the per-buffer fast path skips
/// even the thread-local lookup.
#[derive(Clone, Debug)]
pub struct PoolHandle {
    pool: FieldPool,
    shard: usize,
}

impl PoolHandle {
    /// The underlying pool.
    pub fn pool(&self) -> &FieldPool {
        &self.pool
    }
}

impl FieldAlloc for PoolHandle {
    fn acquire(&self, len: usize) -> Vec<f64> {
        self.pool.acquire_from(self.shard, len)
    }
    fn acquire_unfilled(&self, len: usize) -> Vec<f64> {
        self.pool.acquire_from_with(self.shard, len, false)
    }
    fn release(&self, buf: Vec<f64>) {
        self.pool.release_to(self.shard, buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_is_zero_filled_and_exact_length() {
        let pool = FieldPool::new();
        let mut b = pool.acquire(100);
        assert_eq!(b.len(), 100);
        assert!(b.iter().all(|&v| v == 0.0));
        b.fill(7.0);
        pool.release(b);
        // reuse must re-zero
        let b2 = pool.acquire(60);
        assert_eq!(b2.len(), 60);
        assert!(b2.iter().all(|&v| v == 0.0));
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn same_class_reuses_larger_class_serves_smaller() {
        let pool = FieldPool::new();
        pool.release(pool.acquire(1000)); // class 1024
        // 1000 and 1024 share a class; 600 is class 1024 too
        let b = pool.acquire(600);
        assert_eq!(pool.stats().hits, 1);
        pool.release(b);
        // a smaller class (512) is served first-fit from the larger shelf
        let b = pool.acquire(300);
        assert_eq!(b.len(), 300);
        assert_eq!(pool.stats().hits, 2);
        pool.release(b);
        // a larger class (2048) cannot be served by a 1024-capacity buffer
        let b = pool.acquire(2000);
        assert_eq!(pool.stats().misses, 2);
        assert_eq!(b.len(), 2000);
    }

    #[test]
    fn distant_class_still_serves_as_last_resort() {
        let pool = FieldPool::new();
        // a huge buffer far above the near-borrow window
        pool.release(pool.acquire(1 << 16));
        pool.release(pool.acquire(1 << 16)); // consumes the minted spare
        assert_eq!(pool.idle_buffers(), 2);
        // a tiny request: nothing nearby, but inventory exists — must not miss
        let b = pool.acquire(8);
        assert_eq!(b.len(), 8);
        assert_eq!(pool.stats().misses, 1);
    }

    #[test]
    fn steady_misses_only_count_after_mark() {
        let pool = FieldPool::new();
        let a = pool.acquire(64);
        assert_eq!(pool.stats().steady_misses, 0);
        pool.release(a);
        pool.mark_steady();
        assert!(pool.is_steady());
        let _hit = pool.acquire(64);
        assert_eq!(pool.stats().steady_misses, 0, "hits never count");
        let _miss = pool.acquire(1 << 20);
        let s = pool.stats();
        assert_eq!(s.steady_misses, 1);
        assert_eq!(s.misses, 2);
    }

    #[test]
    fn mark_steady_provisions_headroom_exactly_once() {
        let pool = FieldPool::new();
        pool.release(pool.acquire(100)); // miss: mints the buffer + a spare
        let idle_before = pool.idle_buffers();
        assert_eq!(idle_before, 2);
        pool.mark_steady();
        let idle_after = pool.idle_buffers();
        assert!(idle_after > idle_before, "no headroom was provisioned");
        pool.mark_steady(); // idempotent: a second call adds nothing
        assert_eq!(pool.idle_buffers(), idle_after);
        pool.mark_steady_with_headroom(10.0); // still idempotent
        assert_eq!(pool.idle_buffers(), idle_after);
        // the provisioned slack serves steady demand beyond the warm-up
        // peak without a single steady miss
        let bufs: Vec<_> = (0..idle_after).map(|_| pool.acquire(100)).collect();
        assert_eq!(pool.stats().steady_misses, 0);
        for b in bufs {
            pool.release(b);
        }
    }

    #[test]
    fn headroom_factor_scales_provisioning() {
        let idle_with = |factor: f64| {
            let pool = FieldPool::new();
            pool.release(pool.acquire(100));
            pool.mark_steady_with_headroom(factor);
            pool.idle_buffers()
        };
        assert!(idle_with(4.0) > idle_with(0.5));
    }

    #[test]
    fn provision_extends_inventory_without_counting_misses() {
        let pool = FieldPool::new();
        pool.mark_steady();
        pool.provision(100, 3);
        assert_eq!(pool.idle_buffers(), 3);
        // provisioned spares serve steady demand with zero steady misses
        let bufs: Vec<_> = (0..3).map(|_| pool.acquire(100)).collect();
        let s = pool.stats();
        assert_eq!(s.steady_misses, 0);
        assert_eq!(s.hits, 3);
        for b in bufs {
            pool.release(b);
        }
        // degenerate inputs are no-ops
        pool.provision(0, 5);
        pool.provision(64, 0);
        assert_eq!(pool.idle_buffers(), 3);
    }

    #[test]
    fn a_miss_shelves_a_spare_of_the_same_class() {
        let pool = FieldPool::new();
        // first acquisition misses and leaves one spare behind ...
        let a = pool.acquire(64);
        assert_eq!(pool.idle_buffers(), 1);
        // ... so a second concurrent checkout of the class is a hit
        let b = pool.acquire(64);
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(pool.idle_buffers(), 0);
        pool.release(a);
        pool.release(b);
        assert_eq!(pool.idle_buffers(), 2);
    }

    #[test]
    fn clone_shares_the_same_pool() {
        let pool = FieldPool::new();
        let handle = pool.clone();
        handle.release(handle.acquire(32));
        let b = pool.acquire(32);
        assert_eq!(pool.stats().hits, 1);
        assert_eq!(handle.stats().hits, 1);
        drop(b);
    }

    #[test]
    fn worker_handle_shares_inventory_and_stats() {
        let pool = FieldPool::new();
        let h = pool.worker_handle();
        h.release(h.acquire(128));
        // the plain pool sees the handle's shelved buffer (same shard on
        // this thread) and its stats
        let b = pool.acquire(128);
        assert_eq!(b.len(), 128);
        assert_eq!(pool.stats().hits, 1);
        assert_eq!(h.pool().stats().hits, 1);
        h.release(b);
    }

    #[test]
    fn buffers_released_on_another_thread_are_stolen_not_missed() {
        let pool = FieldPool::new();
        // fill several distinct home shards from distinct threads
        for _ in 0..3 {
            let p = pool.clone();
            std::thread::spawn(move || {
                p.release(p.acquire(4096));
            })
            .join()
            .unwrap();
        }
        let before = pool.stats().misses;
        // this thread's shard may be empty; the steal sweep must find one
        let b = pool.acquire(4000);
        assert_eq!(b.len(), 4000);
        assert_eq!(pool.stats().misses, before, "steal path missed");
    }

    #[test]
    fn detail_attributes_hits_to_their_serving_tier() {
        let pool = FieldPool::new();
        // home-shard hit: released and re-acquired on this thread
        pool.release(pool.acquire(64));
        let _a = pool.acquire(64);
        let d = pool.detail();
        assert_eq!(d.home_hits, 1);
        assert_eq!((d.spill_hits, d.steal_hits, d.borrow_hits), (0, 0, 0));
        assert_eq!(d.shard_hits.iter().sum::<u64>(), 1);
        // spill-tier hit: provisioned inventory lives on the global shelf
        pool.provision(1 << 12, 1);
        let _b = pool.acquire(1 << 12);
        let d = pool.detail();
        assert_eq!(d.spill_hits, 1);
        // steal hit: inventory shelved by a different home shard
        let p = pool.clone();
        std::thread::spawn(move || p.release(p.acquire(1 << 14)))
            .join()
            .unwrap();
        let d0 = pool.detail();
        let _c = pool.acquire(1 << 14);
        let d = pool.detail();
        // the releasing thread may share this thread's shard (round-robin),
        // so the hit lands as either home or steal — but never spill
        assert_eq!(d.home_hits + d.steal_hits, d0.home_hits + d0.steal_hits + 1);
        let s = pool.stats();
        assert_eq!(d.home_hits + d.spill_hits + d.steal_hits, s.hits);
        assert_eq!(d.shard_hits.iter().sum::<u64>(), d.home_hits + d.steal_hits);
    }

    #[test]
    fn borrow_hits_count_service_from_a_larger_class() {
        let pool = FieldPool::new();
        pool.release(pool.acquire(1000)); // shelves class 1024
        let _b = pool.acquire(300); // class 512 request served by the 1024 buffer
        let d = pool.detail();
        assert_eq!(d.borrow_hits, 1);
        // same-class service is not a borrow
        let pool2 = FieldPool::new();
        pool2.release(pool2.acquire(1000));
        let _c = pool2.acquire(600);
        assert_eq!(pool2.detail().borrow_hits, 0);
    }

    #[test]
    fn stats_are_monotone() {
        let pool = FieldPool::new();
        let mut prev = pool.stats();
        for i in 1..50usize {
            let b = pool.acquire((i * 37) % 500 + 1);
            if i % 3 != 0 {
                pool.release(b);
            }
            let s = pool.stats();
            assert!(s.hits >= prev.hits);
            assert!(s.misses >= prev.misses);
            assert!(s.bytes_recycled >= prev.bytes_recycled);
            assert!(s.steady_misses >= prev.steady_misses);
            assert_eq!(s.hits + s.misses, i as u64);
            prev = s;
        }
    }
}
