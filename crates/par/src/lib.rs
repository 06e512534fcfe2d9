//! Dependency-free data parallelism on one persistent helper pool.
//!
//! This crate replaces the external `rayon` dependency so the
//! workspace builds with `--offline`. It provides the three shapes the
//! pipeline actually uses — ordered parallel map, indexed parallel
//! iteration over mutable chunks, and the chunk/element zip the NN
//! backward passes need — with dynamic hand-out (one atomic cursor per
//! call) so heterogeneous items (different grid sizes, different
//! solvers) don't serialise behind the slowest static partition.
//!
//! # Threads
//!
//! `SFN_THREADS` (clamped to ≥ 1, read once per process) overrides
//! [`std::thread::available_parallelism`] as the [`thread_count`]. A
//! parallel call runs on the **caller plus up to `thread_count() - 1`
//! helpers** from a lazily started, process-wide pool of parked
//! threads (`pool.rs`): nothing is spawned per call, an idle pool uses
//! no CPU, and a helper that wakes after the caller has finished costs
//! the caller nothing. A call runs **inline on the caller** when
//!
//! * `SFN_THREADS=1` (the deterministic-replay configuration) or the
//!   call has a single item / chunk;
//! * a chunked call's `est_ns` — the caller's estimate of the whole
//!   call's single-thread run time — is under [`MIN_FAN_OUT_NS`]: each
//!   kernel knows its own speed, the pool knows what a wake-up costs;
//! * it is nested inside another `sfn-par` call, or another thread's
//!   call owns the pool — e.g. the second `sfn-serve` worker. One
//!   fan-out at a time keeps the process at `thread_count()` busy
//!   threads however many callers there are.
//!
//! Every entry point returns only after all participants have left the
//! closure, and a panic in any of them is re-raised on the caller; the
//! pool stays usable afterwards. Results never depend on which thread
//! ran which index.

mod pool;
pub mod simd;

pub use pool::MIN_FAN_OUT_NS;

use std::sync::atomic::{AtomicUsize, Ordering};

/// `est_ns` for work that is coarse by construction (a simulation, a
/// training run per item): always worth the pool.
pub const COARSE: u64 = u64::MAX;

/// Cached [`thread_count`]; 0 = not resolved yet.
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// Number of threads a parallel call may use (caller included).
///
/// `SFN_THREADS` is parsed once, on the first call; later calls are a
/// single relaxed load.
#[inline]
pub fn thread_count() -> usize {
    // Relaxed: the value publishes nothing else, and racing resolvers
    // compute the same number.
    match THREADS.load(Ordering::Relaxed) {
        0 => {
            let n = std::env::var("SFN_THREADS")
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .or_else(|| std::thread::available_parallelism().ok().map(|n| n.get()))
                .unwrap_or(1)
                .max(1);
            THREADS.store(n, Ordering::Relaxed);
            n
        }
        n => n,
    }
}

/// Runs `f` with [`thread_count`] pinned to `n` (≥ 1), restoring the
/// previous value afterwards (panic-safe); the pool grows to `n - 1`
/// helpers on demand. For tests: real helpers on a 1-core runner, a
/// thread-count sweep in one process. Serialise callers externally —
/// the count is process-global, like [`simd::with_level`].
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREADS.store(self.0, Ordering::Relaxed);
        }
    }
    let _restore = Restore(THREADS.swap(n.max(1), Ordering::Relaxed));
    f()
}

/// An exclusively borrowed slice cut into `chunk_len`-sized chunks
/// (the last may be shorter) that different threads may take by index.
struct Chunks<'a, T> {
    ptr: *mut T,
    len: usize,
    chunk_len: usize,
    _borrow: std::marker::PhantomData<&'a mut [T]>,
}

// SAFETY: a `Chunks` only ever hands out disjoint `&mut [T]` pieces of
// the `&'a mut [T]` it was built from, one per index, so sharing it is
// sharing that borrow piecewise: the `&mut [T]: Send` rule, `T: Send`.
unsafe impl<T: Send> Sync for Chunks<'_, T> {}

impl<'a, T> Chunks<'a, T> {
    fn new(data: &'a mut [T], chunk_len: usize) -> Self {
        assert!(chunk_len > 0, "chunk_len must be positive");
        let (ptr, len) = (data.as_mut_ptr(), data.len());
        Chunks {
            ptr,
            len,
            chunk_len,
            _borrow: std::marker::PhantomData,
        }
    }

    fn count(&self) -> usize {
        self.len.div_ceil(self.chunk_len)
    }

    /// Chunk `i`.
    ///
    /// # Safety
    /// `i < self.count()`, and no two live results may share an `i`.
    unsafe fn get(&self, i: usize) -> &'a mut [T] {
        let start = i * self.chunk_len;
        // SAFETY: `i < count()` puts `start..start + n` inside the
        // borrowed slice; distinct `i` give disjoint ranges, and the
        // caller keeps each `i` unique.
        unsafe {
            std::slice::from_raw_parts_mut(
                self.ptr.add(start),
                self.chunk_len.min(self.len - start),
            )
        }
    }
}

/// Ordered parallel map: `out[i] = f(&items[i])`, computed across the
/// pool with dynamic hand-out.
pub fn map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    map_range(items.len(), |i| f(&items[i]))
}

/// Ordered parallel map over an index range: `out[i] = f(i)` for
/// `i in 0..n`. `f` should be coarse (a matrix row, a simulation, a
/// chunk — not a single float).
pub fn map_range<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    if thread_count().min(n) <= 1 {
        return (0..n).map(f).collect();
    }
    let mut out: Vec<Option<U>> = (0..n).map(|_| None).collect();
    for_each_chunk_mut(&mut out, 1, COARSE, |i, slot| slot[0] = Some(f(i)));
    out.into_iter()
        .map(|v| v.expect("every index produced exactly once"))
        .collect()
}

/// Parallel iteration over `chunk_len`-sized mutable chunks of `data`
/// (the last chunk may be shorter). `f` receives the chunk index and
/// the chunk, exactly like `par_chunks_mut(..).enumerate()`. `est_ns`
/// is the caller's estimate of the whole call's single-thread run time
/// ([`COARSE`] if every chunk is coarse): under [`MIN_FAN_OUT_NS`] the
/// chunks run inline.
pub fn for_each_chunk_mut<T, F>(data: &mut [T], chunk_len: usize, est_ns: u64, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let chunks = Chunks::new(data, chunk_len);
    let n = chunks.count();
    // SAFETY: `fan_out` calls the closure once per `i < n`, and returns
    // (ending the chunks' use) before the borrow of `data` does.
    pool::fan_out(n, thread_count().min(n), est_ns, &|i| {
        f(i, unsafe { chunks.get(i) })
    });
}

/// Parallel iteration over mutable chunks of `a` zipped with mutable
/// elements of `b`: chunk `i` of `a` is processed together with
/// `b[i]`. Mirrors `a.par_chunks_mut(n).zip(b.par_iter_mut())`;
/// `est_ns` as for [`for_each_chunk_mut`].
///
/// # Panics
/// Panics unless `b.len()` equals the number of chunks.
pub fn for_each_chunk_zip_mut<T, U, F>(
    a: &mut [T],
    chunk_len: usize,
    b: &mut [U],
    est_ns: u64,
    f: F,
) where
    T: Send,
    U: Send,
    F: Fn(usize, &mut [T], &mut U) + Sync,
{
    let (ca, cb) = (Chunks::new(a, chunk_len), Chunks::new(b, 1));
    let n = ca.count();
    assert_eq!(n, cb.count(), "one element of b per chunk of a");
    // SAFETY: as in `for_each_chunk_mut`, for both slices.
    pool::fan_out(n, thread_count().min(n), est_ns, &|i| unsafe {
        f(i, ca.get(i), &mut cb.get(i)[0])
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::{Barrier, Mutex};

    /// The pool and the thread count are process-global: every test
    /// that fans out holds this, so "the pool was free" is a fact and
    /// not a race with the neighbouring test.
    static POOL_LOCK: Mutex<()> = Mutex::new(());

    fn hold() -> std::sync::MutexGuard<'static, ()> {
        POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Fans `items` out on `threads` threads; the first `threads` items
    /// meet at a barrier, so the call only completes with the caller
    /// and `threads - 1` helpers inside it at once. Returns how many
    /// distinct threads ran items.
    fn participants(threads: usize, items: usize) -> usize {
        let barrier = Barrier::new(threads);
        let ids = with_threads(threads, || {
            map_range(items, |i| {
                if i < threads {
                    barrier.wait();
                }
                std::thread::current().id()
            })
        });
        ids.into_iter().collect::<HashSet<_>>().len()
    }

    #[test]
    fn map_preserves_order() {
        let _g = hold();
        let items: Vec<usize> = (0..1000).collect();
        let out = map(&items, |&x| x * 2);
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn map_range_matches_serial() {
        let _g = hold();
        let out = map_range(257, |i| i * i);
        assert_eq!(out, (0..257).map(|i| i * i).collect::<Vec<_>>());
        assert!(map_range(0, |i| i).is_empty());
    }

    #[test]
    fn chunks_cover_every_element_once() {
        let _g = hold();
        let mut data = vec![0u32; 1003];
        with_threads(4, || {
            for_each_chunk_mut(&mut data, 10, COARSE, |idx, chunk| {
                assert_eq!(chunk.len(), if idx == 100 { 3 } else { 10 });
                chunk.iter_mut().for_each(|v| *v += 1 + idx as u32 % 2);
            })
        });
        // Every element touched exactly once, by its own chunk index.
        assert!(data
            .iter()
            .enumerate()
            .all(|(i, &v)| v == 1 + (i / 10) as u32 % 2));
    }

    #[test]
    fn zip_pairs_chunk_with_element() {
        let _g = hold();
        let mut a = vec![1.0f64; 12];
        let mut b = vec![0.0f64; 4];
        with_threads(3, || {
            for_each_chunk_zip_mut(&mut a, 3, &mut b, COARSE, |i, chunk, acc| {
                *acc = chunk.iter().sum::<f64>() + i as f64;
            })
        });
        assert_eq!(b, vec![3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "one element of b per chunk")]
    fn zip_rejects_mismatched_lengths() {
        let mut a = vec![0u8; 10];
        let mut b = vec![0u8; 2];
        for_each_chunk_zip_mut(&mut a, 3, &mut b, COARSE, |_, _, _| {});
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(thread_count() >= 1);
    }

    #[test]
    fn short_jobs_stay_on_the_caller() {
        let _g = hold();
        let me = std::thread::current().id();
        let mut ran_on = vec![None; 64];
        let mut run = |est_ns| {
            with_threads(4, || {
                for_each_chunk_mut(&mut ran_on, 1, est_ns, |_, slot| {
                    slot[0] = Some(std::thread::current().id());
                    std::thread::sleep(std::time::Duration::from_micros(200));
                })
            });
            ran_on.iter().filter(|id| **id != Some(me)).count()
        };
        // Under the threshold no helper is woken, however long the
        // chunks turn out to take; at it, three of them have 12 ms.
        assert_eq!(run(MIN_FAN_OUT_NS - 1), 0);
        assert!(run(MIN_FAN_OUT_NS) > 0);
    }

    #[test]
    fn pool_grows_on_demand_and_helpers_never_exceed_thread_count_minus_one() {
        let _g = hold();
        let before = thread_count();
        assert_eq!(
            (with_threads(7, thread_count), with_threads(0, thread_count)),
            (7, 1)
        );
        assert_eq!(thread_count(), before);
        assert_eq!(participants(6, 6), 6);
        let helpers = pool::state().helpers;
        assert!(helpers >= 5);
        // 5+ parked helpers, 3 threads allowed: the caller and two.
        assert_eq!(participants(3, 64), 3);
        assert_eq!(participants(1, 64), 1);
        // A warm pool serves any number of fan-outs without a spawn
        // (the pool's own count: libtest starts OS threads of its own).
        let total: usize = with_threads(4, || {
            (0..10_000).map(|r| map_range(4, |i| i + r).len()).sum()
        });
        assert_eq!((total, pool::state().helpers), (40_000, helpers));
    }

    #[test]
    fn nested_fan_out_runs_inline_and_matches_serial() {
        let _g = hold();
        let serial: Vec<usize> = (0..16).map(|i| (0..100).map(|j| i * j).sum()).collect();
        let nested = with_threads(4, || {
            map_range(16, |i| {
                let me = std::thread::current().id();
                // The inner call finds the pool owned: same thread.
                let inner = map_range(100, |j| (std::thread::current().id(), i * j));
                assert!(inner.iter().all(|(id, _)| *id == me));
                inner.iter().map(|(_, v)| v).sum::<usize>()
            })
        });
        assert_eq!(nested, serial);
    }

    #[test]
    fn concurrent_callers_both_complete() {
        let _g = hold();
        let start = Barrier::new(2);
        let run = || {
            start.wait();
            (0..200).all(|round| {
                let mut data = vec![0usize; 4096];
                for_each_chunk_mut(&mut data, 64, COARSE, |c, chunk| {
                    chunk
                        .iter_mut()
                        .enumerate()
                        .for_each(|(k, v)| *v = round + c * 64 + k);
                });
                data.iter().enumerate().all(|(i, &v)| v == round + i)
            })
        };
        let (a, b) = with_threads(4, || {
            std::thread::scope(|s| {
                let other = s.spawn(run);
                (run(), other.join().expect("second caller"))
            })
        });
        assert!(a && b);
    }

    #[test]
    fn helper_and_caller_panics_propagate_and_the_pool_survives() {
        let _g = hold();
        let caller = std::thread::current().id();
        for on_caller in [false, true] {
            // Two items, two participants, one barrier: the panic is
            // raised while the other participant is inside the closure.
            let barrier = Barrier::new(2);
            let res = std::panic::catch_unwind(|| {
                with_threads(2, || {
                    map_range(2, |_| {
                        barrier.wait();
                        if (std::thread::current().id() == caller) == on_caller {
                            panic!("poison item");
                        }
                    })
                })
            });
            let payload = res.expect_err("panic must reach the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"poison item"));
            // Usable afterwards, helpers included.
            assert_eq!(participants(2, 2), 2);
        }
    }
}
