//! The deterministic persistent-worker thread pool.
//!
//! Workers are long-lived OS threads fed from a shared task queue, so the
//! per-call cost of a parallel map is an enqueue + wakeup instead of a
//! thread spawn/join cycle (~0.1 ms saved per 15 Hz label tick on
//! multi-core serving hosts). Determinism is unchanged from the scoped
//! implementation this replaced: items are claimed through an atomic
//! cursor but results land in input order, so thread count and scheduling
//! never change outputs.
//!
//! # Blocking and nesting
//!
//! The calling thread always participates in its own task, which makes the
//! pool safe under *nested* parallelism: a worker that calls
//! [`ExecPool::par_map`] from inside a task (e.g. a serving session running
//! ensemble inference on the pool that also runs the session) drives its
//! inner task to completion itself, so a saturated pool can never deadlock
//! a parallel map. The waits-for graph follows the call stack, which is
//! acyclic.
//!
//! # Panics
//!
//! A panicking work item neither hangs the map nor kills a worker: on a
//! multi-thread pool the map finishes every other claimed item, then
//! re-raises the first panic's payload on the calling thread (a one-thread
//! map runs inline, so the panic unwinds from the item at once). A caller
//! that must outlive a faulty item (the serving layer, which poisons one
//! session instead of failing the fleet) catches the unwind around its own
//! call.

use std::any::Any;
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::num::NonZeroUsize;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Environment variable overriding the shared pool's thread count.
pub const THREADS_ENV: &str = "COGARM_THREADS";

/// A lifetime-erased work item: run index `i` of the current parallel map.
type Job = dyn Fn(usize) + Sync;

/// Completion accounting for one parallel map, updated under a lock so the
/// caller's wakeup observes every result write (the unlock/lock pair is the
/// happens-before edge between workers writing result slots and the caller
/// reading them).
struct Progress {
    /// Items not yet finished (claimed or unclaimed).
    unfinished: usize,
    /// First panic payload caught from the map closure, if any.
    panic: Option<Box<dyn Any + Send>>,
}

/// One in-flight parallel map: the erased closure, the claim cursor, and
/// the completion latch. Workers and the submitting caller share it behind
/// an `Arc`; whoever claims an index runs it.
struct TaskState {
    /// The work closure. The `'static` is a lie told by [`ExecPool::run`]:
    /// the referent lives on the submitting caller's stack, which is valid
    /// because the caller blocks until `unfinished == 0` and no execution
    /// path calls `job` after that point (claims are gated by
    /// `cursor < len`, and every claimed index is finished by then).
    job: &'static Job,
    /// Total items in the map.
    len: usize,
    /// Next unclaimed index (values ≥ `len` mean exhausted).
    cursor: AtomicUsize,
    progress: Mutex<Progress>,
    done: Condvar,
}

impl TaskState {
    /// Claims and runs items until the cursor is exhausted. Panics from the
    /// job are caught and recorded so every claimed item still decrements
    /// the completion count — a panicking map must wake its caller, not
    /// hang it.
    fn run_to_exhaustion(&self) {
        loop {
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= self.len {
                break;
            }
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| (self.job)(i)));
            let mut progress = self.progress.lock().expect("pool progress lock");
            if let Err(payload) = outcome {
                progress.panic.get_or_insert(payload);
            }
            progress.unfinished -= 1;
            if progress.unfinished == 0 {
                drop(progress);
                self.done.notify_all();
            }
        }
    }

    /// Blocks until every item has finished, returning the first caught
    /// panic payload (if any) for the caller to re-raise.
    fn wait(&self) -> Option<Box<dyn Any + Send>> {
        let mut progress = self.progress.lock().expect("pool progress lock");
        while progress.unfinished > 0 {
            progress = self.done.wait(progress).expect("pool progress wait");
        }
        progress.panic.take()
    }
}

/// The queue workers feed from.
struct TaskQueue {
    tasks: VecDeque<Arc<TaskState>>,
    shutdown: bool,
}

/// State shared between the pool handle and its workers.
struct PoolShared {
    queue: Mutex<TaskQueue>,
    work_ready: Condvar,
}

/// A worker's main loop: take the front task with unclaimed work, help
/// drain it, repeat; park on the condvar when the queue is idle.
fn worker_loop(shared: &PoolShared) {
    loop {
        let task = {
            let mut q = shared.queue.lock().expect("pool queue lock");
            loop {
                if q.shutdown {
                    return;
                }
                // Exhausted tasks are only *discovery* entries — completion
                // is tracked on the TaskState itself — so drop them here.
                while q
                    .tasks
                    .front()
                    .is_some_and(|t| t.cursor.load(Ordering::Relaxed) >= t.len)
                {
                    q.tasks.pop_front();
                }
                if let Some(front) = q.tasks.front() {
                    break Arc::clone(front);
                }
                q = shared.work_ready.wait(q).expect("pool queue wait");
            }
        };
        task.run_to_exhaustion();
    }
}

struct Inner {
    threads: usize,
    shared: Arc<PoolShared>,
    /// Worker handles, spawned lazily on first parallel use so that
    /// constructing a pool (or a sequential one) costs nothing.
    workers: OnceLock<Vec<JoinHandle<()>>>,
}

impl Inner {
    /// Spawns the `threads - 1` worker threads once (the submitting caller
    /// is the remaining executor, so a parallel map runs on exactly
    /// `threads` threads).
    fn ensure_workers(&self) {
        self.workers.get_or_init(|| {
            (0..self.threads.saturating_sub(1))
                .map(|i| {
                    let shared = Arc::clone(&self.shared);
                    std::thread::Builder::new()
                        .name(format!("cogarm-exec-{i}"))
                        .spawn(move || worker_loop(&shared))
                        .expect("spawn exec worker")
                })
                .collect()
        });
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        if let Some(workers) = self.workers.take() {
            {
                let mut q = self.shared.queue.lock().expect("pool queue lock");
                q.shutdown = true;
            }
            self.shared.work_ready.notify_all();
            for handle in workers {
                let _ = handle.join();
            }
        }
    }
}

/// A deterministic persistent-worker thread pool: parallel maps over
/// slices whose results are collected in input order, so output is
/// bit-identical for any thread count.
///
/// Cloning is cheap and shares the same workers; the threads shut down
/// when the last handle drops.
#[derive(Clone)]
pub struct ExecPool {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for ExecPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecPool")
            .field("threads", &self.inner.threads)
            .field("workers_spawned", &self.inner.workers.get().is_some())
            .finish()
    }
}

/// A write-once result slot. Each parallel-map index is claimed by exactly
/// one executor (the atomic cursor), which is the sole writer of its slot;
/// the caller reads only after the completion latch, so the unsafe `Sync`
/// is sound.
struct ResultCell<R>(UnsafeCell<MaybeUninit<R>>);

// SAFETY: see the type docs — disjoint writes, ordered read.
unsafe impl<R: Send> Sync for ResultCell<R> {}

impl ExecPool {
    /// Creates a pool running work on `threads` workers (clamped to ≥ 1).
    /// Worker threads are spawned lazily on first parallel use.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self {
            inner: Arc::new(Inner {
                threads: threads.max(1),
                shared: Arc::new(PoolShared {
                    queue: Mutex::new(TaskQueue {
                        tasks: VecDeque::new(),
                        shutdown: false,
                    }),
                    work_ready: Condvar::new(),
                }),
                workers: OnceLock::new(),
            }),
        }
    }

    /// Sizes the pool from [`THREADS_ENV`], falling back to
    /// `std::thread::available_parallelism` when unset or unparsable.
    #[must_use]
    pub fn from_env() -> Self {
        Self::new(parse_threads(std::env::var(THREADS_ENV).ok().as_deref()))
    }

    /// A single-threaded pool (work runs inline on the caller).
    #[must_use]
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// The configured worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.inner.threads
    }

    /// Maps `f` over `items` in parallel, returning results in input order.
    ///
    /// # Panics
    ///
    /// Propagates panics from `f`.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.run(items.len(), |i| f(&items[i]))
    }

    /// Like [`ExecPool::par_map`], but `f` also receives the item's index —
    /// the hook for per-index seed splits (see [`crate::split_seed`]).
    ///
    /// # Panics
    ///
    /// Propagates panics from `f`.
    pub fn par_map_indexed<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.run(items.len(), |i| f(i, &items[i]))
    }

    /// Maps `f` over an index range in parallel, in order — for work that is
    /// naturally indexed (channels, trees) rather than sliced.
    ///
    /// # Panics
    ///
    /// Propagates panics from `f`.
    pub fn par_map_range<R, F>(&self, range: std::ops::Range<usize>, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let start = range.start;
        self.run(range.len(), |i| f(start + i))
    }

    /// Maps `f` over mutable items in parallel, returning results in input
    /// order. Each item is visited by exactly one executor, so `f` gets
    /// genuine exclusive access — the hook for multiplexing many stateful
    /// sessions over one pool.
    ///
    /// # Panics
    ///
    /// Propagates panics from `f`.
    pub fn par_map_mut<T, R, F>(&self, items: &mut [T], f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(&mut T) -> R + Sync,
    {
        /// Shares the slice's base pointer with the workers; indexing is
        /// disjoint because the claim cursor hands out each index once.
        struct ItemsPtr<T>(*mut T);
        // SAFETY: disjoint per-index access, slice outlives the blocking map.
        unsafe impl<T: Send> Sync for ItemsPtr<T> {}
        impl<T> ItemsPtr<T> {
            /// Pointer to `items[i]`; in bounds because `run` only hands
            /// out indices below the slice length.
            fn slot(&self, i: usize) -> *mut T {
                // SAFETY: `i` is below the slice length, so the offset
                // stays inside the slice's one allocation.
                unsafe { self.0.add(i) }
            }
        }

        let len = items.len();
        if self.threads().min(len) <= 1 {
            return items.iter_mut().map(f).collect();
        }
        let base = ItemsPtr(items.as_mut_ptr());
        self.run(len, move |i| {
            // SAFETY: index `i` is claimed exactly once (atomic cursor), so
            // this is the only live reference into items[i]; `items` is
            // mutably borrowed for the whole blocking call.
            let item = unsafe { &mut *base.slot(i) };
            f(item)
        })
    }

    /// The ordered fan-out core: computes `produce(i)` for `i in 0..len`,
    /// sharing the claim cursor with the persistent workers, and returns
    /// results indexed `0..len`. The caller participates and then blocks
    /// until every item is finished.
    fn run<R, F>(&self, len: usize, produce: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if self.threads().min(len) <= 1 {
            return (0..len).map(produce).collect();
        }
        self.inner.ensure_workers();

        let results: Vec<ResultCell<R>> = (0..len)
            .map(|_| ResultCell(UnsafeCell::new(MaybeUninit::uninit())))
            .collect();
        let run_item = |i: usize| {
            let value = produce(i);
            // SAFETY: sole writer of slot `i` (see ResultCell docs).
            unsafe {
                (*results[i].0.get()).write(value);
            }
        };
        let job: &(dyn Fn(usize) + Sync) = &run_item;
        // SAFETY: lifetime erasure so the stack-borrowing closure can sit in
        // the 'static TaskState. Sound because this frame blocks in
        // `task.wait()` until all `len` items are finished, and no execution
        // path invokes `job` afterwards (claims require `cursor < len`).
        let job: &'static Job = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static Job>(job)
        };
        let task = Arc::new(TaskState {
            job,
            len,
            cursor: AtomicUsize::new(0),
            progress: Mutex::new(Progress {
                unfinished: len,
                panic: None,
            }),
            done: Condvar::new(),
        });

        {
            let mut q = self.inner.shared.queue.lock().expect("pool queue lock");
            q.tasks.push_back(Arc::clone(&task));
        }
        self.inner.shared.work_ready.notify_all();

        // Participate, then wait out items claimed by other workers.
        task.run_to_exhaustion();
        let panic = task.wait();

        // Workers clean exhausted tasks lazily; make sure ours does not
        // linger in the queue after its results are dead.
        {
            let mut q = self.inner.shared.queue.lock().expect("pool queue lock");
            q.tasks.retain(|t| !Arc::ptr_eq(t, &task));
        }

        if let Some(payload) = panic {
            // Results produced before the panic are leaked inside their
            // MaybeUninit slots — acceptable on the unwinding path.
            std::panic::resume_unwind(payload);
        }
        results
            .into_iter()
            // SAFETY: completion latch passed with no panic recorded, so
            // every slot was written exactly once.
            .map(|cell| unsafe { cell.0.into_inner().assume_init() })
            .collect()
    }
}

/// Parses a [`THREADS_ENV`]-style override, falling back to
/// `available_parallelism`. Split from [`ExecPool::from_env`] so the logic
/// is testable without mutating the process environment (concurrent
/// `setenv`/`getenv` from test threads is undefined behaviour on glibc).
fn parse_threads(value: Option<&str>) -> usize {
    value
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        })
}

static SHARED: OnceLock<Arc<ExecPool>> = OnceLock::new();

/// The process-wide default pool, built once from [`ExecPool::from_env`].
///
/// Components that are not handed an explicit pool run on this one, so a
/// single `COGARM_THREADS=N` controls every parallel path in the workspace.
#[must_use]
pub fn shared() -> Arc<ExecPool> {
    Arc::clone(SHARED.get_or_init(|| Arc::new(ExecPool::from_env())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split_seed;

    #[test]
    fn results_are_in_input_order() {
        let items: Vec<usize> = (0..257).collect();
        for threads in [1, 2, 3, 4, 8, 64] {
            let pool = ExecPool::new(threads);
            let out = pool.par_map(&items, |&x| x * 2);
            let expected: Vec<usize> = items.iter().map(|&x| x * 2).collect();
            assert_eq!(out, expected, "threads={threads}");
        }
    }

    #[test]
    fn indexed_map_sees_correct_indices() {
        let items = vec!["a", "b", "c", "d", "e"];
        let out = ExecPool::new(4).par_map_indexed(&items, |i, &s| format!("{i}{s}"));
        assert_eq!(out, vec!["0a", "1b", "2c", "3d", "4e"]);
    }

    #[test]
    fn range_map_offsets_correctly() {
        let out = ExecPool::new(3).par_map_range(10..15, |i| i);
        assert_eq!(out, vec![10, 11, 12, 13, 14]);
    }

    #[test]
    fn mut_map_gives_exclusive_access_in_order() {
        for threads in [1, 2, 4] {
            let pool = ExecPool::new(threads);
            let mut items: Vec<Vec<u64>> = (0..37).map(|i| vec![i]).collect();
            let out = pool.par_map_mut(&mut items, |v| {
                v.push(v[0] * 10);
                v[0]
            });
            assert_eq!(out, (0..37).collect::<Vec<u64>>(), "threads={threads}");
            for (i, v) in items.iter().enumerate() {
                assert_eq!(v, &vec![i as u64, i as u64 * 10], "threads={threads}");
            }
        }
    }

    #[test]
    fn seeded_work_is_bit_identical_for_any_thread_count() {
        // Each item mixes a per-index seed through some float math; the
        // reduction must not depend on scheduling.
        let items: Vec<u64> = (0..100).collect();
        let work = |i: usize, &base: &u64| -> u64 {
            let mut s = split_seed(base, i as u64);
            for _ in 0..50 {
                s = split_seed(s, 1);
            }
            s
        };
        let reference = ExecPool::new(1).par_map_indexed(&items, work);
        for threads in [2, 4, 7] {
            let got = ExecPool::new(threads).par_map_indexed(&items, work);
            assert_eq!(got, reference, "threads={threads}");
        }
    }

    #[test]
    fn pool_is_reusable_across_many_maps() {
        // Persistent workers must survive (and stay correct over) a long
        // sequence of submissions on one pool instance.
        let pool = ExecPool::new(4);
        for round in 0..100usize {
            let items: Vec<usize> = (0..round % 17).collect();
            let out = pool.par_map(&items, |&x| x + round);
            assert_eq!(out, items.iter().map(|&x| x + round).collect::<Vec<_>>());
        }
    }

    #[test]
    fn nested_maps_on_one_pool_do_not_deadlock() {
        // A task body that itself fans out on the same pool (the serving
        // engine's shape: sessions on the pool run ensemble inference on
        // the pool). The caller-participates design must drive the inner
        // maps to completion even with every worker busy.
        let pool = ExecPool::new(2);
        let outer: Vec<u64> = (0..8).collect();
        let out = pool.par_map(&outer, |&o| {
            let inner: Vec<u64> = (0..50).collect();
            pool.par_map(&inner, |&i| split_seed(o, i))
                .into_iter()
                .fold(0u64, u64::wrapping_add)
        });
        let expected: Vec<u64> = outer
            .iter()
            .map(|&o| {
                (0..50u64)
                    .map(|i| split_seed(o, i))
                    .fold(0u64, u64::wrapping_add)
            })
            .collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn concurrent_callers_share_one_pool() {
        // Several OS threads submitting to the same pool at once (the
        // SessionManager shape) must each get their own correct, ordered
        // results.
        let pool = ExecPool::new(3);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..6u64)
                .map(|caller| {
                    let pool = pool.clone();
                    scope.spawn(move || {
                        let items: Vec<u64> = (0..40).collect();
                        let out = pool.par_map(&items, |&x| split_seed(caller, x));
                        let expected: Vec<u64> =
                            items.iter().map(|&x| split_seed(caller, x)).collect();
                        assert_eq!(out, expected, "caller={caller}");
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("caller thread");
            }
        });
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u8> = ExecPool::new(4).par_map(&[] as &[u8], |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(ExecPool::new(0).threads(), 1);
        assert_eq!(ExecPool::sequential().threads(), 1);
    }

    #[test]
    fn clones_share_workers_and_drop_cleanly() {
        let pool = ExecPool::new(4);
        let clone = pool.clone();
        let items: Vec<usize> = (0..64).collect();
        assert_eq!(
            pool.par_map(&items, |&x| x + 1),
            clone.par_map(&items, |&x| x + 1)
        );
        drop(pool);
        // The clone keeps the workers alive.
        assert_eq!(clone.par_map(&items, |&x| x * 3).len(), 64);
    }

    #[test]
    #[should_panic(expected = "worker boom")]
    fn worker_panics_propagate() {
        let items: Vec<usize> = (0..16).collect();
        let _ = ExecPool::new(4).par_map(&items, |&x| {
            assert!(x != 7, "worker boom");
            x
        });
    }

    #[test]
    fn pool_survives_a_panicked_map() {
        let pool = ExecPool::new(4);
        let items: Vec<usize> = (0..32).collect();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.par_map(&items, |&x| {
                assert!(x != 9, "one bad item");
                x
            })
        }));
        assert!(result.is_err(), "panic must propagate");
        // The same workers must keep serving maps afterwards.
        let out = pool.par_map(&items, |&x| x + 1);
        assert_eq!(out, (1..33).collect::<Vec<_>>());
    }

    #[test]
    fn thread_override_parsing() {
        // The env-var path itself is exercised by CI's COGARM_THREADS=1/4
        // matrix; mutating the environment from a test thread would race
        // other tests reading it.
        assert_eq!(parse_threads(Some("3")), 3);
        assert_eq!(parse_threads(Some(" 2 ")), 2);
        assert!(parse_threads(Some("not-a-number")) >= 1);
        assert!(parse_threads(Some("0")) >= 1);
        assert!(parse_threads(None) >= 1);
    }

    #[test]
    fn shared_pool_is_a_singleton() {
        let a = shared();
        let b = shared();
        assert!(Arc::ptr_eq(&a, &b));
    }
}
