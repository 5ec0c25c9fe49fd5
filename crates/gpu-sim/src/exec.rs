//! Host-side parallelism for the functional executor: the worker policy,
//! the process-wide worker pool every host fan-out runs on, and the
//! poison-recovering lock helpers.
//!
//! ## Policy
//!
//! The worker count is tunable at two levels:
//!
//! * **`TFNO_THREADS`** (environment): process-wide worker count. Setting
//!   it also bypasses the block-count gate — `TFNO_THREADS=1` forces the
//!   serial path everywhere, `TFNO_THREADS=8` parallelizes even small
//!   grids. Non-numeric or zero values fall back to the default.
//! * **`GpuDevice::with_workers` / `set_workers`** (per device): an
//!   explicit worker count that overrides both the env var and the gate.
//!
//! The same policy feeds every host-parallel loop in the stack (block
//! execution, write application, planner evaluation, the model's
//! `pointwise` and `add_gelu`), so one knob tunes the whole engine. A
//! count of `n` workers means the caller plus `n - 1` pool threads.
//!
//! ## The pool
//!
//! [`broadcast`]`(n, f)` runs `f(0)` on the caller and `f(1)..f(n - 1)` on
//! persistent pool threads, and returns once every share has finished.
//! The threads start on first use, grow to the largest `n` ever asked for
//! (named `tfno-pool-<i>`) and never exit; with `n = 1` nothing starts.
//! After a job each thread spins for `SPIN` polling for the next one,
//! then parks on a condvar, so a launch right after another costs about a
//! microsecond to hand off instead of an OS thread spawn and join. One job
//! runs at a time: a call made while the pool runs another — from another
//! thread, or nested inside a share — runs all its shares inline on its
//! own thread, in order, so nothing ever blocks on the pool. A share that
//! panics is caught, the other shares still run to completion, and the
//! first panicking share's payload (lowest index) resumes on the caller
//! with its own message. [`for_each_mut`] hands each share a disjoint
//! chunk of a mutable slice, for the loops that write their outputs in
//! place.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Lock a mutex, recovering the guard when a previous holder panicked.
///
/// Process-wide state (the launch memo, the FFT plan/trace cache, the
/// worker pool) must survive *caught* panics: the
/// documented aliasing/conflict panics unwind through these locks, and
/// `.lock().unwrap()` would turn one caught panic into a cascade of
/// unrelated `PoisonError` failures. The guarded data is always left
/// consistent by its critical sections (plain inserts/lookups/counter
/// bumps), so recovering the guard is sound.
pub fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Grids below this size stay serial under the *default* policy: a pool
/// round trip (about 1 µs while its threads spin, 7–58 µs once they have
/// parked; see `SPIN`) can cost more than a handful of blocks. Explicit
/// overrides ignore it.
pub const PAR_BLOCK_THRESHOLD: usize = 16;

/// Worker count configured for this process: `TFNO_THREADS` when set to a
/// positive integer, otherwise `available_parallelism`.
pub fn configured_workers() -> usize {
    match env_workers() {
        Some(n) => n,
        None => default_workers(),
    }
}

/// `TFNO_THREADS` as a positive integer, if set and valid.
pub(crate) fn env_workers() -> Option<usize> {
    parse_workers(std::env::var("TFNO_THREADS").ok().as_deref())
}

/// Parse a `TFNO_THREADS`-style value: positive integers only.
pub(crate) fn parse_workers(v: Option<&str>) -> Option<usize> {
    v.and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
}

fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Workers for a host-parallel loop over `items` independent tasks under
/// the default policy (no per-device override in play).
pub fn workers_for(items: usize) -> usize {
    if items == 0 {
        return 1;
    }
    match env_workers() {
        Some(n) => n.min(items),
        None if items >= PAR_BLOCK_THRESHOLD => default_workers().min(items),
        None => 1,
    }
}

/// How long a pool thread polls for the next job after finishing one (and
/// the caller polls for the last share) before parking on a condvar.
///
/// On a 2-vCPU host a round trip to a spinning thread takes about 1 µs.
/// To a parked one it takes 7–8 µs after a 30–100 µs idle gap, 17 µs
/// after 300 µs, and about 55 µs after milliseconds, when the host must
/// wake an idle CPU; a two-thread `std::thread::scope` took 51–57 µs. A
/// sweep of 5-s fnobench rollout-3d runs (median ops/s of 4 runs on one
/// seed / 5 on another) read 149 / 126 with no spin, 160 / 130 at 20 µs,
/// 147 / 140 at 50 µs, 143 at 100 µs and 146 at 300 µs, against 115 /
/// 112 with a thread scope per launch; 10-s runs on a third seed read 153
/// at 20 µs, 153 at 50 µs and 149 at 300 µs (5 runs each). Some spin
/// beats none, and longer spins show no clear order, so this is the
/// shortest that kept the gain in pairs.
const SPIN: Duration = Duration::from_micros(20);

/// Run `f(0)`, .., `f(n - 1)`: share 0 on the caller, the others on the
/// process-wide pool (see the [module docs](self)). Returns after every
/// share has finished; if any panicked, the payload of the lowest
/// panicking share resumes here. A call made while the pool runs another
/// job runs all its shares inline, in order.
pub fn broadcast<F: Fn(usize) + Sync>(n: usize, f: F) {
    let f: &(dyn Fn(usize) + Sync) = &f;
    let panicked = if n > 1 && POOL.start_job(n, f) {
        let own = panic::catch_unwind(AssertUnwindSafe(|| f(0))).err();
        let others = POOL.wait_idle();
        own.or(others)
    } else {
        (0..n).fold(None, |first, i| {
            let r = panic::catch_unwind(AssertUnwindSafe(|| f(i)));
            first.or(r.err())
        })
    };
    if let Some(payload) = panicked {
        panic::resume_unwind(payload);
    }
}

/// Run `f` on every item of `items`, split into at most `n` contiguous
/// chunks, one [`broadcast`] share per chunk.
pub fn for_each_mut<T: Send>(items: &mut [T], n: usize, f: impl Fn(&mut T) + Sync) {
    let per = items.len().div_ceil(n.max(1)).max(1);
    let chunks: Vec<Mutex<&mut [T]>> = items.chunks_mut(per).map(Mutex::new).collect();
    broadcast(chunks.len(), |i| {
        lock_unpoisoned(&chunks[i]).iter_mut().for_each(&f)
    });
}

/// The job a pool thread runs: `f(share)` for every share `< n`.
#[derive(Clone, Copy)]
struct Job {
    f: *const (dyn Fn(usize) + Sync + 'static),
    n: usize,
}

// SAFETY: `f` points at a `Sync` closure, and `broadcast` returns only
// after every share has finished, so another thread calls it only while
// it is alive; no thread touches `f` after finishing its share.
unsafe impl Send for Job {}

struct State {
    /// Pool threads started so far.
    threads: usize,
    /// The running job, `None` between jobs; read together with `seq`.
    job: Option<Job>,
    /// Sequence number of the newest job; a thread runs a job only when
    /// it has not yet seen this number.
    seq: u64,
    /// Threads parked on `Pool::work`.
    sleepers: usize,
    /// Payload of the lowest panicking pool share of the running job.
    panic: Option<(usize, Box<dyn Any + Send>)>,
}

struct Pool {
    state: Mutex<State>,
    /// Parked pool threads wait here for a new job.
    work: Condvar,
    /// A caller parked in `wait_idle` waits here for the last share.
    idle: Condvar,
    /// Mirror of `State::seq` that spinning threads poll without the lock;
    /// a hint only (the job is read under the lock), so `Relaxed`.
    seq: AtomicU64,
    /// Pool shares of the running job not yet finished. A thread's
    /// `Release` decrement after its last use of the job pairs with the
    /// caller's `Acquire` load that lets `broadcast` return.
    pending: AtomicUsize,
}

static POOL: Pool = Pool {
    state: Mutex::new(State {
        threads: 0,
        job: None,
        seq: 0,
        sleepers: 0,
        panic: None,
    }),
    work: Condvar::new(),
    idle: Condvar::new(),
    seq: AtomicU64::new(0),
    pending: AtomicUsize::new(0),
};

impl Pool {
    /// Publish `f` as a job of `n` shares, starting threads up to `n - 1`.
    /// Returns false, publishing nothing, when another job is running or
    /// a thread cannot be started; the caller then runs every share.
    fn start_job(&'static self, n: usize, f: &(dyn Fn(usize) + Sync)) -> bool {
        let mut st = lock_unpoisoned(&self.state);
        if st.job.is_some() {
            return false;
        }
        while st.threads < n - 1 {
            let (index, seen) = (st.threads, st.seq);
            let spawned = std::thread::Builder::new()
                .name(format!("tfno-pool-{index}"))
                .spawn(move || self.serve(index, seen));
            if spawned.is_err() {
                return false;
            }
            st.threads += 1;
        }
        // SAFETY: only the lifetime is erased; `broadcast` returns only
        // after every share has finished and `wait_idle` cleared the job,
        // so no call through the pointer outlives `f`.
        let f: *const (dyn Fn(usize) + Sync + 'static) = unsafe { std::mem::transmute(f) };
        self.pending.store(n - 1, Ordering::Relaxed);
        st.job = Some(Job { f, n });
        st.seq += 1;
        self.seq.store(st.seq, Ordering::Relaxed);
        if st.sleepers > 0 {
            self.work.notify_all();
        }
        true
    }

    /// Wait for every pool share of the running job, clear it, and return
    /// its lowest panicking pool share's payload.
    fn wait_idle(&self) -> Option<Box<dyn Any + Send>> {
        let deadline = Instant::now() + SPIN;
        while self.pending.load(Ordering::Acquire) != 0 && Instant::now() < deadline {
            std::hint::spin_loop();
        }
        let mut st = lock_unpoisoned(&self.state);
        while self.pending.load(Ordering::Acquire) != 0 {
            st = self
                .idle
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        st.job = None;
        st.panic.take().map(|(_, payload)| payload)
    }

    /// Body of pool thread `index`: run share `index + 1` of every job
    /// wide enough to have one.
    fn serve(&self, index: usize, mut seen: u64) {
        let share = index + 1;
        loop {
            let deadline = Instant::now() + SPIN;
            while self.seq.load(Ordering::Relaxed) == seen && Instant::now() < deadline {
                std::hint::spin_loop();
            }
            let job = {
                let mut st = lock_unpoisoned(&self.state);
                while st.seq == seen {
                    st.sleepers += 1;
                    st = self
                        .work
                        .wait(st)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    st.sleepers -= 1;
                }
                seen = st.seq;
                st.job
            };
            let Some(job) = job.filter(|job| share < job.n) else {
                continue;
            };
            // SAFETY: `broadcast` returns only after every share has
            // finished; this one has not, so the closure is alive.
            let r = panic::catch_unwind(AssertUnwindSafe(|| unsafe { (*job.f)(share) }));
            if let Err(payload) = r {
                let mut st = lock_unpoisoned(&self.state);
                if st.panic.as_ref().is_none_or(|(first, _)| share < *first) {
                    st.panic = Some((share, payload));
                }
            }
            if self.pending.fetch_sub(1, Ordering::Release) == 1 {
                let _st = lock_unpoisoned(&self.state);
                self.idle.notify_one();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configured_workers_is_positive() {
        assert!(configured_workers() >= 1);
    }

    #[test]
    fn workers_never_exceed_items() {
        assert_eq!(workers_for(0), 1);
        assert!(workers_for(1) <= 1);
        assert!(workers_for(1000) <= 1000);
    }

    /// A panic while the lock is held must not wedge later lockers: the
    /// recovery helper hands back the guard instead of propagating
    /// `PoisonError`.
    #[test]
    fn poisoned_locks_recover() {
        let m = Mutex::new(7usize);
        let _ = std::thread::scope(|s| {
            s.spawn(|| {
                let _g = m.lock().unwrap();
                panic!("poison the mutex");
            })
            .join()
        });
        assert!(m.lock().is_err(), "the mutex must actually be poisoned");
        assert_eq!(*lock_unpoisoned(&m), 7, "data written before the panic survives");
        *lock_unpoisoned(&m) = 9;
        assert_eq!(*lock_unpoisoned(&m), 9);
    }

    fn counters(n: usize) -> Vec<AtomicUsize> {
        (0..n).map(|_| AtomicUsize::new(0)).collect()
    }

    fn all_once(counts: &[AtomicUsize]) -> bool {
        counts.iter().all(|c| c.load(Ordering::SeqCst) == 1)
    }

    #[test]
    fn broadcast_runs_every_share_exactly_once() {
        for n in [0, 1, 2, 3, 8] {
            let counts = counters(n);
            broadcast(n, |i| {
                counts[i].fetch_add(1, Ordering::SeqCst);
            });
            assert!(all_once(&counts), "n = {n}");
        }
    }

    #[test]
    fn share_zero_runs_on_the_caller() {
        let caller = std::thread::current().id();
        let first = Mutex::new(None);
        broadcast(3, |i| {
            if i == 0 {
                *lock_unpoisoned(&first) = Some(std::thread::current().id());
            }
        });
        assert_eq!(*lock_unpoisoned(&first), Some(caller));
    }

    /// A broadcast from inside a share that runs on a pool thread finds
    /// the pool busy with the outer job and runs all its shares inline on
    /// that thread. When another test holds the pool, the outer call runs
    /// inline on the caller and an inner call may find the pool free, so
    /// only pool-thread shares are held to inline execution; every inner
    /// and outer share runs exactly once either way.
    #[test]
    fn nested_broadcast_completes_inline() {
        let outer = counters(2);
        let inner: Vec<Vec<AtomicUsize>> = (0..2).map(|_| counters(3)).collect();
        broadcast(2, |i| {
            let me = std::thread::current();
            let ran_on: Vec<Mutex<Option<std::thread::ThreadId>>> =
                (0..3).map(|_| Mutex::new(None)).collect();
            broadcast(3, |j| {
                inner[i][j].fetch_add(1, Ordering::SeqCst);
                *lock_unpoisoned(&ran_on[j]) = Some(std::thread::current().id())
            });
            if me.name().is_some_and(|n| n.starts_with("tfno-pool-")) {
                assert!(ran_on.iter().all(|t| *lock_unpoisoned(t) == Some(me.id())));
            }
            outer[i].fetch_add(1, Ordering::SeqCst);
        });
        assert!(all_once(&outer));
        assert!(inner.iter().all(|shares| all_once(shares)));
    }

    /// Share 2 finishes only after share 1 has started to panic, so the
    /// caller sees both other shares finished when the payload reaches
    /// it — with share 1's own message — and the next call still works.
    #[test]
    fn a_share_panic_resumes_on_the_caller_after_the_other_shares() {
        let panicking = std::sync::atomic::AtomicBool::new(false);
        let finished = AtomicUsize::new(0);
        let r = panic::catch_unwind(AssertUnwindSafe(|| {
            broadcast(3, |i| {
                if i == 1 {
                    panicking.store(true, Ordering::SeqCst);
                    panic!("share one failed");
                }
                if i == 2 {
                    while !panicking.load(Ordering::SeqCst) {
                        std::hint::spin_loop();
                    }
                }
                finished.fetch_add(1, Ordering::SeqCst);
            })
        }));
        let payload = r.expect_err("the share's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"share one failed"));
        assert_eq!(
            finished.load(Ordering::SeqCst),
            2,
            "shares 0 and 2 finished first"
        );

        let counts = counters(3);
        broadcast(3, |i| {
            counts[i].fetch_add(1, Ordering::SeqCst);
        });
        assert!(all_once(&counts), "the pool serves after a panic");
    }

    #[test]
    fn concurrent_broadcasts_from_two_threads_both_complete() {
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for t in 0..2 {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    for _ in 0..200 {
                        let sums = counters(3);
                        broadcast(3, |i| {
                            sums[i].fetch_add(i + t, Ordering::SeqCst);
                        });
                        for (i, sum) in sums.iter().enumerate() {
                            assert_eq!(sum.load(Ordering::SeqCst), i + t);
                        }
                    }
                });
            }
        });
    }

    /// A pool thread that sits out a narrow job must not run the next
    /// wide job twice: it reads each job with its sequence number.
    #[test]
    fn alternating_widths_never_run_a_share_twice() {
        for round in 0..2000 {
            let n = if round % 2 == 0 { 3 } else { 2 };
            let counts = counters(n);
            broadcast(n, |i| {
                counts[i].fetch_add(1, Ordering::SeqCst);
            });
            assert!(all_once(&counts), "round {round}, n = {n}");
        }
    }

    #[test]
    fn for_each_mut_visits_every_item_once() {
        for (len, n) in [(0, 2), (1, 3), (5, 2), (7, 7), (4, 0)] {
            let mut items = vec![0u32; len];
            for_each_mut(&mut items, n, |x| *x += 1);
            assert!(items.iter().all(|&x| x == 1), "len {len}, n {n}");
        }
    }

    /// The env-var parsing is tested through the pure function — tests
    /// must not mutate `TFNO_THREADS` itself (concurrent `setenv` while
    /// other tests' executors call `getenv` is UB on glibc).
    #[test]
    fn env_value_parsing() {
        assert_eq!(parse_workers(None), None);
        assert_eq!(parse_workers(Some("3")), Some(3));
        assert_eq!(parse_workers(Some(" 8 ")), Some(8));
        assert_eq!(parse_workers(Some("0")), None);
        assert_eq!(parse_workers(Some("not-a-number")), None);
        assert_eq!(parse_workers(Some("")), None);
    }
}
