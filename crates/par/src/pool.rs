//! The persistent helper pool behind every `sfn-par` entry point.
//!
//! One fan-out is one [`Job`] on the caller's stack: a closure over an
//! index range plus an atomic cursor. The caller publishes a pointer to
//! it, wakes parked helpers, and works the cursor itself; helpers that
//! wake in time take a seat and pull indices off the same cursor. When
//! the caller's loop runs dry it withdraws the job and waits only for
//! helpers that took a seat — one that wakes late finds no job and
//! parks again, having cost the caller nothing.
//!
//! Helpers are detached, process-lifetime threads parked on a condvar
//! (no spinning: an idle pool uses no CPU), started lazily; the pool
//! only grows, to the largest helper count any fan-out has asked for.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

/// One fan-out: `f(i)` for every `i in 0..n`, each index handed out
/// exactly once by `cursor`.
struct Job<'a> {
    f: &'a (dyn Fn(usize) + Sync),
    n: usize,
    cursor: AtomicUsize,
    /// First panic payload raised by any participant.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Job<'_> {
    /// Pulls indices until the cursor runs dry. A panic in `f` stops
    /// the hand-out for everyone and is kept for the caller to re-raise.
    fn work(&self) {
        let run = || loop {
            // Relaxed: the cursor only hands out indices; results are
            // published by the pool mutex (helper leave → caller close).
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                break;
            }
            (self.f)(i);
        };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(run)) {
            self.cursor.store(self.n, Ordering::Relaxed);
            self.panic
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .get_or_insert(payload);
        }
    }
}

pub(crate) struct State {
    /// The published job (lifetime erased); null between fan-outs.
    job: *const Job<'static>,
    /// Bumped per job so a helper never re-joins one it already left.
    generation: u64,
    /// Helpers still allowed to join the published job.
    seats: usize,
    /// Helpers currently inside the published job's closure.
    active: usize,
    /// Helper threads started so far (the pool never shrinks).
    pub(crate) helpers: usize,
}

// SAFETY: `job` points at a `Job`, which is `Sync` (a `Sync` closure,
// atomics, a mutex), so the pointer may be read from any thread; it is
// only dereferenced while published (see `helper_loop`, `fan_out`).
unsafe impl Send for State {}

/// Set while a fan-out owns the pool (Acquire on take, Release on
/// drop: one owner's use of `STATE` follows the previous owner's).
static BUSY: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<State> = Mutex::new(State {
    job: std::ptr::null(),
    generation: 0,
    seats: 0,
    active: 0,
    helpers: 0,
});
/// Helpers park here between jobs.
static WAKE: Condvar = Condvar::new();
/// The caller waits here for seated helpers to leave.
static DONE: Condvar = Condvar::new();

/// Every update under the lock leaves `State` valid, and no user code
/// runs while it is held, so a poisoned guard is safe to recover.
pub(crate) fn state() -> MutexGuard<'static, State> {
    STATE.lock().unwrap_or_else(|e| e.into_inner())
}

fn helper_loop() {
    let mut seen = 0;
    let mut st = state();
    loop {
        let job = st.job;
        if job.is_null() || st.seats == 0 || st.generation == seen {
            st = WAKE.wait(st).unwrap_or_else(|e| e.into_inner());
            continue;
        }
        st.seats -= 1;
        st.active += 1;
        seen = st.generation;
        drop(st);
        // SAFETY: the job was published and this helper counted itself
        // `active` under the lock; `fan_out` does not return (so the
        // `Job` stays alive on its stack) until it has seen
        // `active == 0` under the same lock.
        unsafe { (*job).work() };
        st = state();
        st.active -= 1;
        if st.active == 0 {
            DONE.notify_one();
        }
    }
}

/// Starts helpers until `want` exist (best effort: a failed spawn just
/// leaves the pool smaller).
fn grow(st: &mut State, want: usize) {
    while st.helpers < want {
        let name = format!("sfn-par-{}", st.helpers);
        // Detached on purpose: helpers live as long as the process and
        // never unwind (`Job::work` catches every panic).
        if std::thread::Builder::new()
            .name(name)
            .spawn(helper_loop)
            .is_err()
        {
            break;
        }
        st.helpers += 1;
    }
}

/// Single-thread run time under which a call stays inline. Waking a
/// parked helper and waiting out its last chunk costs the caller
/// ~10–30 µs (`kernels` bench on the 2-vCPU reference VM, inline →
/// fanned out: `par_overhead/16k` 2.8 → 11 µs, `conv2d/64` 30 → 61 µs;
/// `conv2d/128` at 115 µs breaks even and `advect/128` 233 → 155 µs
/// gains).
pub const MIN_FAN_OUT_NS: u64 = 80_000;

/// Runs `f(i)` for every `i in 0..n` on the caller plus up to
/// `workers - 1` pool helpers — inline when the caller's `est_ns` is
/// under [`MIN_FAN_OUT_NS`] or the pool is already owned (by an
/// enclosing fan-out on this thread, by the job this helper is serving,
/// or by another caller). Returns once every participant has left `f`;
/// a panic in any of them is re-raised here.
pub(crate) fn fan_out(n: usize, workers: usize, est_ns: u64, f: &(dyn Fn(usize) + Sync)) {
    if workers <= 1 || est_ns < MIN_FAN_OUT_NS || BUSY.swap(true, Ordering::Acquire) {
        (0..n).for_each(f);
        return;
    }
    let job = Job {
        f,
        n,
        cursor: AtomicUsize::new(0),
        panic: Mutex::new(None),
    };
    let seats = {
        let mut st = state();
        grow(&mut st, workers - 1);
        st.job = (&job as *const Job<'_>).cast();
        st.generation += 1;
        st.seats = (workers - 1).min(st.helpers);
        st.seats
    };
    for _ in 0..seats {
        WAKE.notify_one();
    }
    job.work();
    // Close the job: no helper can take a seat from here on, and the
    // ones that did are waited for before `job` goes away.
    let mut st = state();
    st.job = std::ptr::null();
    while st.active > 0 {
        st = DONE.wait(st).unwrap_or_else(|e| e.into_inner());
    }
    drop(st);
    // Nothing since the swap can unwind (`Job::work` catches), so this
    // store is reached on every path.
    BUSY.store(false, Ordering::Release);
    if let Some(payload) = job.panic.into_inner().unwrap_or_else(|e| e.into_inner()) {
        resume_unwind(payload);
    }
}
