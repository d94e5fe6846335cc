//! # xtuml-pool — scoped fork-join parallelism for the toolchain
//!
//! A tiny, dependency-free work-distribution layer (the offline
//! `xtuml-prop` precedent: no external crates, deterministic behaviour).
//! Everything parallel in the workspace goes through this crate so the
//! determinism story lives in one place:
//!
//! * **scoped fork-join** over `std::thread::scope` — borrowed data in,
//!   no `'static` bounds, no detached threads;
//! * **ordered result collection** — results come back indexed by input
//!   position regardless of which worker ran them or in what order they
//!   finished, so a parallel map is a drop-in replacement for a serial
//!   loop;
//! * **per-worker PRNG streams** — [`stream_seed`] derives statistically
//!   independent SplitMix64 streams from one base seed, so seeded work
//!   items never share generator state across workers;
//! * **panic propagation** — a panicking work item aborts the whole
//!   fork-join and re-raises the payload on the caller's thread;
//! * **nested-scope rejection** — starting a *parallel* fork-join from
//!   inside a worker would deadlock a fixed-width pool, so it is
//!   detected and refused up front. Serial calls (`jobs == 1`, or one
//!   item or fewer) run on the calling thread without spawning anything
//!   and are therefore allowed anywhere, workers included.
//!
//! With `jobs == 1` every entry point degenerates to a plain serial loop
//! on the caller's thread — no worker threads are spawned at all — which
//! is what guarantees `--jobs 1` always takes the sequential code path.

#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use xtuml_obs::Sink;

thread_local! {
    /// True while the current thread is a pool worker; used to refuse
    /// nested fork-joins (which would deadlock a fixed-width pool).
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Derives the seed of worker/shard stream `index` from a base seed.
///
/// Uses one SplitMix64 step over `base ^ golden·index`, the same
/// derivation `xtuml-prop` uses for per-case seeds: streams are
/// statistically independent and `stream_seed(base, 0) != base`, so a
/// sharded run never accidentally replays the unsharded schedule.
pub const fn stream_seed(base: u64, index: u64) -> u64 {
    let s = base ^ index.wrapping_mul(0xA076_1D64_78BD_642F);
    let s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let z = (s ^ (s >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The number of workers to use when the user does not say: available
/// parallelism, capped at 8 (the bench's largest measured configuration).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(8)
}

/// A fixed-width scoped fork-join pool.
///
/// The pool owns no threads between calls: each [`Pool::map`] /
/// [`Pool::try_map_mut`] spawns up to `jobs` scoped workers, distributes the
/// items over them through a shared queue (dynamic load balancing), and
/// joins them all before returning. Results are collected **in item
/// order**.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    jobs: usize,
}

impl Pool {
    /// Creates a pool that runs at most `jobs` work items concurrently.
    /// `jobs` is clamped to at least 1.
    pub fn new(jobs: usize) -> Pool {
        Pool { jobs: jobs.max(1) }
    }

    /// A pool sized by [`default_jobs`].
    pub fn with_default_jobs() -> Pool {
        Pool::new(default_jobs())
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Applies `f` to every item, in parallel across up to
    /// [`Pool::jobs`] workers, returning the results in item order.
    ///
    /// `f(i, &items[i])` may run on any worker in any temporal order;
    /// the output `Vec` is always ordered by `i`. With `jobs == 1` this
    /// is exactly `items.iter().enumerate().map(..).collect()` on the
    /// calling thread.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic raised by any work item, and panics if
    /// a parallel map (`jobs > 1` with two or more items) is started
    /// from inside another fork-join of this crate (nested scopes are
    /// rejected, see [`Pool::try_map`]; serial maps are exempt).
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.try_map(items, f).expect("nested Pool fork-join")
    }

    /// Like [`Pool::map`], but reports nested-scope misuse as an error
    /// instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::Nested`] when a parallel map is started from
    /// inside a pool worker. The serial path (`jobs == 1`, or fewer than
    /// two items) spawns no threads, cannot deadlock, and is allowed
    /// from anywhere.
    pub fn try_map<T, R, F>(&self, items: &[T], f: F) -> Result<Vec<R>, PoolError>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.run(items.len(), |i| f(i, &items[i]))
    }

    /// Parallel map over **mutable** items: each worker takes exclusive
    /// ownership of one item at a time, so `f` may freely mutate it.
    /// Results are collected in item order.
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::Nested`] when a parallel map is started from
    /// inside a pool worker (serial maps are exempt, as in
    /// [`Pool::try_map`]).
    pub fn try_map_mut<T, R, F>(&self, items: &mut [T], f: F) -> Result<Vec<R>, PoolError>
    where
        T: Send,
        R: Send,
        F: Fn(usize, &mut T) -> R + Sync,
    {
        // Hand out disjoint `&mut` items through a locked queue; each
        // worker pops one at a time. Exclusivity comes from the queue,
        // not from unsafe slice splitting.
        let queue: Mutex<Vec<(usize, &mut T)>> =
            Mutex::new(items.iter_mut().enumerate().rev().collect());
        self.run_queued(&queue, &f)
    }

    /// [`Pool::try_map_mut`] with telemetry: records one
    /// [`Counter::PoolScopes`](xtuml_obs::Counter) per fork-join, one
    /// [`Counter::PoolTasks`](xtuml_obs::Counter) per item, and (when the
    /// sink has spans enabled) a `pool.fork_join` span on the sink's own
    /// track covering the whole scope lifetime. Counts depend only on the
    /// item count, never on `jobs`, so snapshots stay jobs-invariant.
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`Pool::try_map_mut`].
    pub fn try_map_mut_obs<T, R, F>(
        &self,
        sink: &mut dyn Sink,
        label: &str,
        items: &mut [T],
        f: F,
    ) -> Result<Vec<R>, PoolError>
    where
        T: Send,
        R: Send,
        F: Fn(usize, &mut T) -> R + Sync,
    {
        if sink.enabled() {
            sink.count(xtuml_obs::Counter::PoolScopes, 1);
            sink.count(xtuml_obs::Counter::PoolTasks, items.len() as u64);
        }
        let span = sink.spans_enabled();
        let track = sink.track();
        if span {
            sink.span_begin(track, "pool", &format!("pool.fork_join {label}"));
        }
        let out = self.try_map_mut(items, f);
        if span {
            sink.span_end(track);
        }
        out
    }

    /// The common driver: `n` indexed work items, dynamic distribution.
    fn run<R, F>(&self, n: usize, f: F) -> Result<Vec<R>, PoolError>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if self.jobs == 1 || n <= 1 {
            // Sequential path: the caller's thread, no queue, no spawn.
            // Taken before the nested-scope check — a serial fork-join
            // spawns no threads and cannot deadlock, so it is legal even
            // from inside a worker (e.g. a serial seed sweep invoked
            // from a fuzz worker).
            return Ok((0..n).map(f).collect());
        }
        if IN_WORKER.with(Cell::get) {
            return Err(PoolError::Nested);
        }
        let next = AtomicUsize::new(0);
        let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..self.jobs.min(n) {
                scope.spawn(|| {
                    IN_WORKER.with(|w| w.set(true));
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let r = f(i);
                        *results[i].lock().expect("result slot poisoned") = Some(r);
                    }
                });
            }
            // scope joins all workers here; a worker panic propagates.
        });
        Ok(results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("every index was claimed exactly once")
            })
            .collect())
    }

    /// Driver for the `&mut` variant: items live in a shared pop queue.
    fn run_queued<T, R, F>(
        &self,
        queue: &Mutex<Vec<(usize, &mut T)>>,
        f: &F,
    ) -> Result<Vec<R>, PoolError>
    where
        T: Send,
        R: Send,
        F: Fn(usize, &mut T) -> R + Sync,
    {
        let n = queue.lock().expect("queue poisoned").len();
        if self.jobs == 1 || n <= 1 {
            // As in `run`: serial execution is nesting-safe.
            let mut out: Vec<(usize, R)> = Vec::with_capacity(n);
            while let Some((i, item)) = queue.lock().expect("queue poisoned").pop() {
                out.push((i, f(i, item)));
            }
            out.sort_by_key(|(i, _)| *i);
            return Ok(out.into_iter().map(|(_, r)| r).collect());
        }
        if IN_WORKER.with(Cell::get) {
            return Err(PoolError::Nested);
        }
        let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..self.jobs.min(n) {
                scope.spawn(|| {
                    IN_WORKER.with(|w| w.set(true));
                    loop {
                        let popped = queue.lock().expect("queue poisoned").pop();
                        let Some((i, item)) = popped else { break };
                        let r = f(i, item);
                        *results[i].lock().expect("result slot poisoned") = Some(r);
                    }
                });
            }
        });
        Ok(results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("every queued item was processed")
            })
            .collect())
    }
}

/// Misuse reported by the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolError {
    /// A fork-join was started from inside a pool worker. Nested scopes
    /// would deadlock a fixed-width pool, so they are refused.
    Nested,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::Nested => write!(f, "nested Pool fork-join (called from a pool worker)"),
        }
    }
}

impl std::error::Error for PoolError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_returns_results_in_item_order() {
        for jobs in [1, 2, 4, 8] {
            let pool = Pool::new(jobs);
            let items: Vec<u64> = (0..100).collect();
            let out = pool.map(&items, |i, v| {
                // Perturb completion order a little.
                if i % 7 == 0 {
                    std::thread::yield_now();
                }
                v * 2
            });
            assert_eq!(
                out,
                (0..100).map(|v| v * 2).collect::<Vec<_>>(),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn map_mut_mutates_every_item_exactly_once() {
        for jobs in [1, 3, 8] {
            let pool = Pool::new(jobs);
            let mut items: Vec<u64> = vec![0; 57];
            let idx = pool
                .try_map_mut(&mut items, |i, v| {
                    *v += 1;
                    i
                })
                .unwrap();
            assert!(items.iter().all(|&v| v == 1), "jobs={jobs}");
            assert_eq!(idx, (0..57).collect::<Vec<_>>(), "jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_single_item_inputs_work() {
        let pool = Pool::new(4);
        let out: Vec<u64> = pool.map(&[] as &[u64], |_, v| *v);
        assert!(out.is_empty());
        assert_eq!(pool.map(&[9u64], |_, v| v + 1), vec![10]);
    }

    #[test]
    fn jobs_are_clamped_and_reported() {
        assert_eq!(Pool::new(0).jobs(), 1);
        assert_eq!(Pool::new(5).jobs(), 5);
        assert!(Pool::with_default_jobs().jobs() >= 1);
        assert!(default_jobs() <= 8);
    }

    #[test]
    fn panic_in_a_work_item_propagates_to_the_caller() {
        let pool = Pool::new(2);
        let items: Vec<u64> = (0..16).collect();
        let res = std::panic::catch_unwind(|| {
            pool.map(&items, |_, v| {
                assert!(*v != 11, "injected failure");
                *v
            })
        });
        assert!(res.is_err(), "worker panic must reach the caller");
    }

    #[test]
    fn nested_fork_join_is_rejected_not_deadlocked() {
        let pool = Pool::new(2);
        let items: Vec<u64> = (0..4).collect();
        let inner: Vec<Result<Vec<u64>, PoolError>> = pool.map(&items, |_, _| {
            let inner_pool = Pool::new(2);
            inner_pool.try_map(&[1u64, 2], |_, v| *v)
        });
        assert!(
            inner.iter().all(|r| r == &Err(PoolError::Nested)),
            "{inner:?}"
        );
        // After the fork-join the caller's thread is not a worker: a new
        // top-level fork-join still works.
        assert_eq!(pool.map(&[1u64], |_, v| *v), vec![1]);
    }

    #[test]
    fn serial_fork_join_inside_a_worker_is_allowed() {
        // A strictly serial pool spawns no threads, so wrapping one
        // (e.g. explore_seeds delegating to explore_seeds_jobs(.., 1))
        // must keep working even when invoked from a parallel worker.
        let pool = Pool::new(2);
        let items: Vec<u64> = (0..6).collect();
        let out = pool.map(&items, |_, v| {
            let serial = Pool::new(1);
            let mut pair = [*v, *v + 1];
            let mapped = serial.map(&pair, |_, x| x * 2);
            let mutated = serial.try_map_mut(&mut pair, |_, x| {
                *x += 1;
                *x
            });
            (mapped, mutated)
        });
        for (i, (mapped, mutated)) in out.into_iter().enumerate() {
            let v = i as u64;
            assert_eq!(mapped, vec![v * 2, (v + 1) * 2]);
            assert_eq!(mutated, Ok(vec![v + 1, v + 2]));
        }
    }

    #[test]
    fn stream_seeds_are_distinct_and_deterministic() {
        let a: Vec<u64> = (0..64).map(|i| stream_seed(42, i)).collect();
        let b: Vec<u64> = (0..64).map(|i| stream_seed(42, i)).collect();
        assert_eq!(a, b);
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 64, "stream seeds must not collide");
        assert_ne!(stream_seed(42, 0), 42, "stream 0 must not replay the base");
        assert_ne!(stream_seed(1, 3), stream_seed(2, 3));
    }

    #[test]
    fn sequential_path_spawns_no_threads() {
        // jobs == 1 must run on the caller's thread (observable through
        // the worker flag staying false and thread ids matching).
        let caller = std::thread::current().id();
        let pool = Pool::new(1);
        let ids = pool.map(&[0u64; 8], |_, _| std::thread::current().id());
        assert!(ids.iter().all(|id| *id == caller));
    }
}
