//! Host-side parallelism policy for the functional executor, plus the
//! poison-recovering lock helpers.
//!
//! The pre-PR executor hard-coded `available_parallelism` behind a
//! `>= 16 blocks` gate. The policy is now tunable at two levels:
//!
//! * **`TFNO_THREADS`** (environment): process-wide worker count. Setting
//!   it also bypasses the block-count gate — `TFNO_THREADS=1` forces the
//!   serial path everywhere, `TFNO_THREADS=8` parallelizes even small
//!   grids. Non-numeric or zero values fall back to the default.
//! * **`GpuDevice::with_workers` / `set_workers`** (per device): an
//!   explicit worker count that overrides both the env var and the gate.
//!
//! The same policy feeds every host-parallel loop in the stack (block
//! execution, write application, planner evaluation, the model's pointwise
//! path), so one knob tunes the whole engine.

use std::sync::{Mutex, MutexGuard};

/// Lock a mutex, recovering the guard when a previous holder panicked.
///
/// Process-wide state (the launch memo, the FFT plan/trace cache, the
/// verifier's disjointness memo) must survive *caught* panics: the
/// documented aliasing/conflict panics unwind through these locks, and
/// `.lock().unwrap()` would turn one caught panic into a cascade of
/// unrelated `PoisonError` failures. The guarded data is always left
/// consistent by its critical sections (plain inserts/lookups/counter
/// bumps), so recovering the guard is sound.
pub fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Grids below this size stay serial under the *default* policy (thread
/// spawn overhead beats stealing a handful of blocks). Explicit overrides
/// ignore it.
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
