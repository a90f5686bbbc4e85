//! Offline stand-in for the `rayon` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the API subset it uses: `into_par_iter()` on ranges and vectors,
//! `par_chunks_mut` on slices, `current_num_threads`, and the
//! `map`/`enumerate`/`zip`/`for_each`/`sum`/`collect` combinators. Work is
//! fanned out over `RAYON_NUM_THREADS` (falling back to the host's core
//! count) participants: the calling thread plus helpers from one
//! process-wide persistent pool. Ordering of results matches the
//! sequential iteration order, exactly as rayon's indexed parallel
//! iterators guarantee.
//!
//! # Dynamic chunking (work stealing)
//!
//! Items are *not* pre-partitioned into one static chunk per worker.
//! Instead every worker claims the next unclaimed index from a shared
//! atomic cursor (grain size 1) and writes its result into that index's
//! dedicated output slot. A worker that finishes a cheap item immediately
//! claims the next one, so heterogeneous workloads — one item taking 10×
//! the median is the norm for fault-injection trials, where a collapsed
//! training returns in a fraction of a clean resume's time — keep every
//! thread busy until the input is exhausted, instead of stalling the
//! dispatch on the worker that happened to receive the expensive chunk.
//! Because each claimed index owns exactly one input and one output slot,
//! results are assembled in input order no matter which worker computed
//! them or in what order workers finished: **order preservation is
//! positional, not temporal**, so callers observe byte-identical output at
//! any thread count (see `tests/stealing.rs`).
//!
//! # The worker pool
//!
//! Kernel ops dispatch thousands of tiny fan-outs per second, so a
//! dispatch must cost far less than an OS thread spawn. Helpers are
//! spawned lazily, grow to the largest `threads − 1` ever requested, and
//! then live for the rest of the process, blocked (never spinning: on a
//! small shared host a spinner steals the caller's core) until a dispatch
//! wakes them. The pool runs one job at a time:
//!
//! * the caller posts the job, wakes the first `threads − 1` helpers and
//!   runs the same claim loop itself as one participant;
//! * when the cursor is exhausted it retracts the job, so a helper that
//!   wakes late never joins a finished one, and waits for the helpers
//!   still inside to leave before it reads the output;
//! * a top-level dispatch that finds the pool busy with another caller's
//!   job runs inline on its own thread rather than queueing or spawning
//!   (N serving threads on N cores already use every core).
//!
//! `map` is eager (it runs the closure in parallel immediately), which is
//! observationally equivalent for the pipeline shapes used in this repo
//! (`map` directly followed by a terminal `sum`/`collect`). Nested
//! parallelism — a dispatch from inside any participant, helper or
//! caller — executes sequentially instead of spawning a second tier of
//! threads. If an item panics, the remaining items still run (matching
//! rayon, which does not cancel siblings mid-flight), the first panic
//! payload is re-raised on the caller once every participant has left,
//! and the pool stays usable.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

thread_local! {
    /// Set on pool helpers for their whole life, and on a caller while it
    /// participates in its own job: dispatches from here run inline.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Worker count: `RAYON_NUM_THREADS` if set to a positive integer, else the
/// host's core count. Real rayon reads the variable once at global-pool
/// initialization; reading it per dispatch (it costs well under a
/// microsecond) is an intentional superset that lets determinism tests
/// vary the thread count within one process (results must be identical
/// either way).
pub fn current_num_threads() -> usize {
    if let Ok(s) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    host_threads()
}

/// `std::thread::available_parallelism()`, resolved once per process: on a
/// cgroup-v1 host every call re-parses `/proc/self/cgroup` and
/// `/proc/self/mountinfo`, tens of microseconds that every kernel op's
/// parallelism check would otherwise pay.
fn host_threads() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1))
}

/// One dispatch's shared state. It lives on the caller's stack; helpers
/// reach it through a [`JobRef`] and stop touching it before they leave
/// (see [`Pool::help`]), and the caller returns only after every helper
/// has left. The slot pointers are shared by every participant; safety
/// rests on the claim protocol in [`Job::participate`]: the atomic cursor
/// hands each index to exactly one participant, so no two threads ever
/// touch the same slot.
struct Job<T, R, F> {
    n: usize,
    cursor: AtomicUsize,
    input: *mut Option<T>,
    output: *mut Option<R>,
    f: *const F,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl<T: Send, R: Send, F: Fn(T) -> R + Sync> Job<T, R, F> {
    /// Claim and run items until the cursor is exhausted. A panicking item
    /// is recorded (first payload wins) and the loop goes on claiming, so
    /// every other item still runs. The cursor is `Relaxed` because it
    /// publishes no data: the pool mutex orders the slots (the job is
    /// posted under it before a helper reads it, and a helper leaves under
    /// it before the caller reads the output).
    fn participate(&self) {
        loop {
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                return;
            }
            // SAFETY: this participant is the unique claimant of index i
            // (fetch_add returns each value once), so it has exclusive
            // access to both slots; the caller keeps the vectors and `f`
            // alive until every participant has left.
            let item =
                unsafe { (*self.input.add(i)).take() }.expect("claimed input slot is populated");
            let f = unsafe { &*self.f };
            match catch_unwind(AssertUnwindSafe(|| f(item))) {
                Ok(result) => unsafe { *self.output.add(i) = Some(result) },
                Err(payload) => {
                    lock(&self.panic).get_or_insert(payload);
                }
            }
        }
    }
}

/// A type-erased pointer to a posted [`Job`] and the function that runs
/// one participant of it.
#[derive(Clone, Copy)]
struct JobRef {
    job: *const (),
    participate: unsafe fn(*const ()),
}

// SAFETY: a JobRef only leaves its caller's thread through the pool, and
// `execute` posts one only for a `Job` whose items and results are `Send`
// and whose closure is `Sync`; the caller keeps the job alive until every
// helper that read the pointer has left.
unsafe impl Send for JobRef {}

/// # Safety
///
/// `job` must point to a live `Job<T, R, F>`.
unsafe fn participate_erased<T: Send, R: Send, F: Fn(T) -> R + Sync>(job: *const ()) {
    // SAFETY: guaranteed by the caller.
    unsafe { (*job.cast::<Job<T, R, F>>()).participate() }
}

/// Pool bookkeeping, guarded by [`Pool::state`].
struct PoolState {
    /// A top-level caller owns the pool (its job may already be retracted
    /// while it waits for helpers to leave).
    busy: bool,
    /// The posted job, if its cursor may still have work.
    job: Option<JobRef>,
    /// Bumped per posted job, so a helper joins each job at most once.
    epoch: u64,
    /// Helpers `0..width` take part in the posted job.
    width: usize,
    /// Helpers currently inside the posted job.
    active: usize,
    /// Every helper spawned so far, never joined: they live as long as
    /// the process, and cannot panic (items run under `catch_unwind`).
    helpers: Vec<JoinHandle<()>>,
}

struct Pool {
    state: Mutex<PoolState>,
    /// Signalled when the last helper leaves a job.
    left: Condvar,
}

static POOL: Pool = Pool {
    state: Mutex::new(PoolState {
        busy: false,
        job: None,
        epoch: 0,
        width: 0,
        active: 0,
        helpers: Vec::new(),
    }),
    left: Condvar::new(),
};

/// Lock ignoring poison: nothing panics while either mutex of this module
/// is held, and every update leaves its data valid.
fn lock<V>(m: &Mutex<V>) -> MutexGuard<'_, V> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Pool {
    /// Body of helper `index`: sleep until a job it belongs to is posted,
    /// run one participant of it, leave, repeat.
    fn help(&'static self, index: usize) {
        IN_WORKER.with(|w| w.set(true));
        let mut seen = 0;
        loop {
            let job = {
                let mut st = lock(&self.state);
                loop {
                    match st.job {
                        Some(job) if index < st.width && st.epoch != seen => {
                            seen = st.epoch;
                            st.active += 1;
                            break job;
                        }
                        _ => {
                            drop(st);
                            // An unpark that raced ahead of this park
                            // leaves a token, so no wake-up is lost.
                            std::thread::park();
                            st = lock(&self.state);
                        }
                    }
                }
            };
            // SAFETY: the job stays alive until `active` drops to zero,
            // which cannot happen before this helper's decrement below.
            unsafe { (job.participate)(job.job) };
            let mut st = lock(&self.state);
            st.active -= 1;
            if st.active == 0 {
                self.left.notify_one();
            }
        }
    }

    /// Take the pool for a job of `threads` participants (the caller
    /// included), spawning missing helpers. Returns the helper count the
    /// job may use, or `None` when another caller holds the pool.
    fn acquire(&'static self, threads: usize) -> Option<usize> {
        let mut st = lock(&self.state);
        if st.busy {
            return None;
        }
        st.busy = true;
        while st.helpers.len() < threads - 1 {
            let index = st.helpers.len();
            let spawned = std::thread::Builder::new()
                .name(format!("rayon-shim-{index}"))
                .spawn(move || self.help(index));
            match spawned {
                Ok(handle) => st.helpers.push(handle),
                // Out of threads: run the job on the helpers there are.
                Err(_) => break,
            }
        }
        Some(st.helpers.len().min(threads - 1))
    }

    /// Post `job` to helpers `0..width`, run the caller's share, retract
    /// the job, wait for the helpers to leave and release the pool.
    fn run(&'static self, job: JobRef, width: usize) {
        {
            let mut st = lock(&self.state);
            st.job = Some(job);
            st.epoch += 1;
            st.width = width;
            for helper in &st.helpers[..width] {
                helper.thread().unpark();
            }
        }
        let was_worker = IN_WORKER.with(|w| w.replace(true));
        // SAFETY: the job outlives this call (it is the caller's).
        unsafe { (job.participate)(job.job) };
        IN_WORKER.with(|w| w.set(was_worker));
        let mut st = lock(&self.state);
        st.job = None;
        while st.active > 0 {
            st = self.left.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.busy = false;
    }
}

/// Run `f` over `items` with dynamic (grain-1) chunking, preserving input
/// order positionally: result `i` always lands in output slot `i`,
/// regardless of which participant computed it.
fn execute<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if n <= 1 || IN_WORKER.with(Cell::get) {
        return items.into_iter().map(f).collect();
    }
    let threads = current_num_threads().min(n);
    let width = if threads > 1 { POOL.acquire(threads) } else { None };
    let Some(width) = width else {
        return items.into_iter().map(f).collect();
    };
    let mut input: Vec<Option<T>> = items.into_iter().map(Some).collect();
    let mut output: Vec<Option<R>> = Vec::with_capacity(n);
    output.resize_with(n, || None);
    let job = Job {
        n,
        cursor: AtomicUsize::new(0),
        input: input.as_mut_ptr(),
        output: output.as_mut_ptr(),
        f: &f,
        panic: Mutex::new(None),
    };
    let job_ref = JobRef {
        job: (&job as *const Job<T, R, F>).cast(),
        participate: participate_erased::<T, R, F>,
    };
    POOL.run(job_ref, width);
    if let Some(payload) = job.panic.into_inner().unwrap_or_else(|e| e.into_inner()) {
        std::panic::resume_unwind(payload);
    }
    output.into_iter().map(|slot| slot.expect("every index was claimed and computed")).collect()
}

/// An eager "parallel iterator": a materialized, ordered batch of items.
pub struct ParIter<I> {
    items: Vec<I>,
}

impl<I: Send> ParIter<I> {
    /// Apply `f` to every item in parallel, preserving order.
    pub fn map<R: Send, F: Fn(I) -> R + Sync>(self, f: F) -> ParIter<R> {
        ParIter { items: execute(self.items, f) }
    }

    /// Pair each item with its index.
    pub fn enumerate(self) -> ParIter<(usize, I)> {
        ParIter { items: self.items.into_iter().enumerate().collect() }
    }

    /// Pair items with another equally sized parallel batch (rayon's
    /// `IndexedParallelIterator::zip`). Used to write two disjoint output
    /// buffers (e.g. maxpool values and argmax indices) from one dispatch.
    pub fn zip<J: Send>(self, other: ParIter<J>) -> ParIter<(I, J)> {
        assert_eq!(
            self.items.len(),
            other.items.len(),
            "zip requires equal-length parallel iterators"
        );
        ParIter { items: self.items.into_iter().zip(other.items).collect() }
    }

    /// Run `f` on every item in parallel.
    pub fn for_each<F: Fn(I) + Sync>(self, f: F) {
        execute(self.items, f);
    }

    /// Sum the items.
    pub fn sum<S: std::iter::Sum<I>>(self) -> S {
        self.items.into_iter().sum()
    }

    /// Collect the items in order.
    pub fn collect<C: FromIterator<I>>(self) -> C {
        self.items.into_iter().collect()
    }
}

/// Conversion into a [`ParIter`] (rayon's `IntoParallelIterator`).
pub trait IntoParallelIterator {
    /// Item type produced.
    type Item: Send;
    /// Materialize the source as a parallel batch.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter { items: self.collect() }
    }
}

impl IntoParallelIterator for std::ops::Range<u64> {
    type Item = u64;
    fn into_par_iter(self) -> ParIter<u64> {
        ParIter { items: self.collect() }
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

/// Parallel mutable-chunk access on slices (rayon's `ParallelSliceMut`).
pub trait ParallelSliceMut<T: Send> {
    /// Split into mutable chunks of `chunk_size` (last may be shorter).
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<&mut [T]>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<&mut [T]> {
        ParIter { items: self.chunks_mut(chunk_size).collect() }
    }
}

/// Parallel shared-chunk access on slices (rayon's `ParallelSlice`).
pub trait ParallelSlice<T: Sync> {
    /// Split into shared chunks of `chunk_size` (last may be shorter).
    fn par_chunks(&self, chunk_size: usize) -> ParIter<&[T]>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, chunk_size: usize) -> ParIter<&[T]> {
        ParIter { items: self.chunks(chunk_size).collect() }
    }
}

/// The rayon prelude: the traits that put `into_par_iter` and
/// `par_chunks_mut` in scope.
pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelSlice, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_sum_matches_sequential() {
        let par: usize = (0..100usize).into_par_iter().map(|i| i * i).sum();
        let seq: usize = (0..100usize).map(|i| i * i).sum();
        assert_eq!(par, seq);
    }

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<usize> = (0..37usize).into_par_iter().map(|i| i + 1).collect();
        assert_eq!(v, (1..38).collect::<Vec<_>>());
    }

    #[test]
    fn chunks_mut_sees_every_element_once() {
        let mut data = [0u32; 25];
        data.par_chunks_mut(4).enumerate().for_each(|(i, chunk)| {
            for v in chunk.iter_mut() {
                *v += 1 + i as u32;
            }
        });
        assert!(data.iter().all(|&v| v >= 1));
        assert_eq!(data[0], 1);
        assert_eq!(data[24], 7);
    }

    #[test]
    fn zip_pairs_in_order() {
        let mut a = [0u32; 10];
        let mut b = [0u32; 10];
        a.par_chunks_mut(3).zip(b.par_chunks_mut(3)).enumerate().for_each(|(i, (ca, cb))| {
            for v in ca.iter_mut() {
                *v = i as u32;
            }
            for v in cb.iter_mut() {
                *v = 10 + i as u32;
            }
        });
        assert_eq!(a[0], 0);
        assert_eq!(a[9], 3);
        assert_eq!(b[0], 10);
        assert_eq!(b[9], 13);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn zip_rejects_length_mismatch() {
        let mut a = [0u32; 10];
        let mut b = [0u32; 7];
        a.par_chunks_mut(3).zip(b.par_chunks_mut(3)).for_each(|_| {});
    }

    #[test]
    fn current_num_threads_is_positive() {
        assert!(super::current_num_threads() >= 1);
    }

    #[test]
    fn nested_parallelism_does_not_deadlock() {
        let total: usize = (0..8usize)
            .into_par_iter()
            .map(|_| (0..8usize).into_par_iter().map(|j| j).sum::<usize>())
            .sum();
        assert_eq!(total, 8 * 28);
    }
}
