//! Analytical launch memo.
//!
//! Analytical launches execute one representative block per equivalence
//! class to derive the launch's [`KernelStats`]. Sweeps and planners launch
//! the *same shapes* over and over (a `TurboBest` plan simulates four
//! pipeline variants; an L-layer model used to do that L times), so the
//! stats of a structurally-identical launch are pure recomputation.
//!
//! The memo caches `KernelStats` process-wide, keyed by a **signature**:
//! a name-independent structural hash of the kernel's
//! [`fingerprint`](crate::kernel::Kernel::fingerprint) (covering every
//! parameter that shapes its access pattern), its [`LaunchDims`], and its
//! block classes. Kernels opt in by returning `Some` from `fingerprint`;
//! the contract is that two kernels with equal signatures record identical
//! stats from an analytical launch. Functional launches attach the same
//! memoized stats (see the metering docs in `kernel.rs`), so the contract
//! decides their records too; every launch checks its structural counts
//! against them, and debug builds check every counter. Modeled *time* is
//! still computed per launch from the dims, so the memo never changes any
//! figure.
//!
//! This is the only memo of analytical results: nothing caches a whole
//! launch sequence, so a warm `turbofno::Session::measure` issues its
//! launches again and each one is answered here.

use crate::kernel::LaunchDims;
use crate::stats::KernelStats;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use crate::exec::lock_unpoisoned;
use std::sync::{Mutex, OnceLock};

/// Hit/miss counters of the process-wide memo.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoStats {
    pub hits: u64,
    pub misses: u64,
    pub entries: u64,
}

static TABLE: OnceLock<Mutex<HashMap<u64, KernelStats>>> = OnceLock::new();
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

fn table() -> &'static Mutex<HashMap<u64, KernelStats>> {
    TABLE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Counters plus current entry count.
pub fn launch_memo_stats() -> MemoStats {
    MemoStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        entries: lock_unpoisoned(table()).len() as u64,
    }
}

/// Build the launch signature; `None` when the kernel opted out.
pub(crate) fn signature(
    fingerprint: Option<u64>,
    dims: &LaunchDims,
    classes: &[(usize, u64)],
) -> Option<u64> {
    let fp = fingerprint?;
    let mut h = DefaultHasher::new();
    fp.hash(&mut h);
    dims.grid_blocks.hash(&mut h);
    dims.threads_per_block.hash(&mut h);
    dims.shared_bytes.hash(&mut h);
    dims.regs_per_thread.hash(&mut h);
    dims.l1_hit_rate.to_bits().hash(&mut h);
    dims.serialization.to_bits().hash(&mut h);
    classes.hash(&mut h);
    Some(h.finish())
}

pub(crate) fn lookup(key: u64) -> Option<KernelStats> {
    let got = lock_unpoisoned(table()).get(&key).copied();
    match got {
        Some(_) => HITS.fetch_add(1, Ordering::Relaxed),
        None => MISSES.fetch_add(1, Ordering::Relaxed),
    };
    got
}

/// Entry cap: at the cap the table resets wholesale (epoch eviction) so a
/// shape-diverse long-running process cannot grow it without bound while
/// steady-state serving workloads stay fully cached.
const MEMO_CAP: usize = 1 << 16;

pub(crate) fn insert(key: u64, stats: KernelStats) {
    let mut table = lock_unpoisoned(table());
    if table.len() >= MEMO_CAP {
        table.clear();
    }
    table.insert(key, stats);
}

/// Helper for `Kernel::fingerprint` implementations: hash a type tag (so
/// kernels of different families never share a signature) plus every
/// structural field the closure feeds in. Buffer *identities* must stay
/// out; buffer-relative address patterns (strides, bases, lengths) go in.
pub fn structural_fingerprint(type_tag: &str, fill: impl FnOnce(&mut DefaultHasher)) -> u64 {
    let mut h = DefaultHasher::new();
    type_tag.hash(&mut h);
    fill(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signature_requires_fingerprint() {
        let dims = LaunchDims::new(4, 128);
        assert!(signature(None, &dims, &[(0, 4)]).is_none());
        assert!(signature(Some(7), &dims, &[(0, 4)]).is_some());
    }

    #[test]
    fn signature_distinguishes_dims_and_classes() {
        let d1 = LaunchDims::new(4, 128);
        let d2 = LaunchDims::new(8, 128);
        let s1 = signature(Some(7), &d1, &[(0, 4)]).unwrap();
        let s2 = signature(Some(7), &d2, &[(0, 8)]).unwrap();
        let s3 = signature(Some(7), &d1, &[(0, 3), (3, 1)]).unwrap();
        assert_ne!(s1, s2);
        assert_ne!(s1, s3);
    }

    #[test]
    fn structural_fingerprint_separates_type_tags() {
        let a = structural_fingerprint("fft", |h| 42usize.hash(h));
        let b = structural_fingerprint("gemm", |h| 42usize.hash(h));
        assert_ne!(a, b);
    }

    /// Regression: a panic that unwinds while the process-wide table lock
    /// is held (any caught kernel/aliasing panic can do this) used to
    /// poison the memo and cascade `PoisonError` failures into every
    /// unrelated later launch. The memo must keep serving after it.
    #[test]
    fn caught_panic_while_holding_the_table_lock_does_not_wedge_the_memo() {
        let _ = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = table().lock().unwrap_or_else(|e| e.into_inner());
                panic!("unwind while holding the memo table lock");
            })
            .join()
        });
        // Every public entry point must still work on the poisoned lock.
        let key = structural_fingerprint("memo-poison-key", |h| 2usize.hash(h));
        assert!(lookup(key).is_none());
        insert(key, KernelStats::ZERO);
        assert_eq!(lookup(key), Some(KernelStats::ZERO));
        let stats = launch_memo_stats();
        assert!(stats.entries >= 1);
    }

    #[test]
    fn lookup_counts_hits_and_misses() {
        let key = structural_fingerprint("memo-test-key", |h| 1usize.hash(h));
        let before = launch_memo_stats();
        assert!(lookup(key).is_none());
        insert(key, KernelStats::ZERO);
        assert!(lookup(key).is_some());
        let after = launch_memo_stats();
        assert!(after.hits > before.hits);
        assert!(after.misses > before.misses);
    }
}
