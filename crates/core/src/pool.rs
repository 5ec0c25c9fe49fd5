//! Size-class buffer pooling for pipeline scratch.
//!
//! Every pipeline variant, the PyTorch baseline included, needs
//! intermediate device buffers (the truncated spectra `xf_t`/`yf_t`, the
//! outer-axis stage tensors, the baseline's full-size FFT temporaries).
//! Allocated fresh per call, that is an allocation per stage per layer per
//! forward, and the simulated global memory never frees, so the buffer
//! table would grow without bound in a serving loop.
//!
//! [`BufferPool`] recycles them: buffers are keyed by `(length,
//! virtualness)` size class, leased for the duration of one pipeline run
//! and returned afterwards. Reuse is numerically safe because every
//! pipeline stage fully overwrites its scratch output before any stage
//! reads it (the kernels write whole pencils/tiles, never read-modify),
//! so stale contents are unobservable; the tests in `tests/session_api.rs`
//! pin bitwise equality between pooled and fresh-buffer runs.
//!
//! The pool's lease ledger is the engine's only one. A buffer sitting in
//! a free list has no lessee, so the plan check (`verify.rs`) rejects a
//! launch that names it. `Session` diffs the leased set around each unit
//! of work: it releases every lease the work left behind and, with
//! verification on, fails a successful run that left any. Buffers enter
//! the pool only through a lease: [`BufferPool::release`] refuses an id
//! it never handed out.

use std::collections::{HashMap, HashSet};
use crate::backend::{BufferId, GpuDevice, LaunchError};

/// Counters of one [`BufferPool`] (see [`BufferPool::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Leases served by recycling a pooled buffer (no device allocation).
    pub hits: u64,
    /// Leases that had to allocate a new device buffer.
    pub misses: u64,
    /// Buffers currently leased out.
    pub leased: u64,
    /// Buffers currently sitting in the free lists.
    pub pooled: u64,
}

/// A size-class pool of simulated device buffers.
///
/// Owned by a [`Session`](crate::Session); not tied to a specific
/// device — the device is passed per call so the pool can live next
/// to it in one struct without borrow cycles. Handing buffers from one
/// device to a pool used with another is a logic error (buffer ids are
/// per-device indices).
#[derive(Debug, Default)]
pub struct BufferPool {
    free: HashMap<(usize, bool), Vec<BufferId>>,
    /// Ids currently sitting in `free` — O(1) double-release detection.
    free_ids: HashSet<BufferId>,
    /// Ids currently leased out. `release` only accepts members.
    leased_ids: HashSet<BufferId>,
    stats: PoolStats,
    seq: u64,
}

impl BufferPool {
    pub fn new() -> Self {
        Self::default()
    }

    /// Lease/recycle counters so callers can prove reuse (a warm
    /// same-shape pipeline run must report `hits > 0`).
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Number of `(length, virtualness)` size classes currently holding
    /// free buffers. Bounded by the number of *pooled* buffers, not by the
    /// number of shapes ever served: classes are pruned when they empty.
    pub fn size_classes(&self) -> usize {
        self.free.len()
    }

    /// Lease a real (value-carrying) buffer of `len` complex elements.
    pub fn acquire(&mut self, dev: &mut GpuDevice, len: usize) -> BufferId {
        self.try_acquire(dev, len)
            .unwrap_or_else(|e| panic!("pool allocation failed: {e}; use try_acquire"))
    }

    /// [`BufferPool::acquire`] through the device's typed fault path:
    /// pooled hits never fault, a fresh allocation can report a simulated
    /// OOM. A failed lease changes no pool state.
    pub fn try_acquire(&mut self, dev: &mut GpuDevice, len: usize) -> Result<BufferId, LaunchError> {
        self.try_acquire_class(dev, len, false)
    }

    /// Lease a storage-free virtual buffer (analytical sweeps).
    pub fn acquire_virtual(&mut self, dev: &mut GpuDevice, len: usize) -> BufferId {
        self.try_acquire_class(dev, len, true)
            .expect("virtual allocations are never faulted")
    }

    /// Lease a buffer matching the virtualness of `reference` (analytical
    /// sweeps run entirely on virtual buffers), through the device's typed
    /// fault path.
    pub fn try_acquire_like(
        &mut self,
        dev: &mut GpuDevice,
        reference: BufferId,
        len: usize,
    ) -> Result<BufferId, LaunchError> {
        let virt = dev.memory.is_virtual(reference);
        self.try_acquire_class(dev, len, virt)
    }

    fn try_acquire_class(
        &mut self,
        dev: &mut GpuDevice,
        len: usize,
        virt: bool,
    ) -> Result<BufferId, LaunchError> {
        if let std::collections::hash_map::Entry::Occupied(mut e) = self.free.entry((len, virt)) {
            let id = e.get_mut().pop().expect("free lists are never left empty");
            // Prune the class when it empties, or a shape-diverse serving
            // loop grows the map by one dead entry per size ever seen.
            if e.get().is_empty() {
                e.remove();
            }
            self.free_ids.remove(&id);
            self.leased_ids.insert(id);
            self.stats.hits += 1;
            self.stats.leased += 1;
            self.stats.pooled -= 1;
            return Ok(id);
        }
        self.seq += 1;
        let name = format!("pool.{}{}", if virt { "v" } else { "b" }, self.seq);
        let id = if virt {
            dev.memory.alloc_virtual(&name, len)
        } else {
            // A faulted allocation must leave the pool untouched (the
            // caller may retry), so the device call precedes every
            // counter/set mutation; the burned `seq` only affects the
            // debug name of the next allocation.
            dev.try_alloc(&name, len)?
        };
        self.stats.misses += 1;
        self.stats.leased += 1;
        self.leased_ids.insert(id);
        Ok(id)
    }

    /// Snapshot of the ids currently leased out: `Session`'s basis for
    /// releasing the leases a unit of work leaked (diff the snapshots
    /// taken before and after the work).
    pub(crate) fn leased_snapshot(&self) -> HashSet<BufferId> {
        self.leased_ids.clone()
    }

    /// Whether `id` sits in a free list: released, and not leased again.
    pub(crate) fn is_pooled(&self, id: BufferId) -> bool {
        self.free_ids.contains(&id)
    }

    /// Return a leased buffer to its size class. Contents are left as-is —
    /// the next lessee must fully overwrite before reading, which every
    /// pipeline stage does.
    ///
    /// # Panics
    /// * On a double release: handing the same id back twice would let two
    ///   later leases alias one buffer and silently corrupt results.
    /// * On an id this pool never leased (a caller-allocated buffer, or
    ///   one leased from another pool): silently accepting it used to
    ///   skew the `leased`/`pooled` counters (the decrement saturated
    ///   against leases that never happened).
    pub fn release(&mut self, dev: &GpuDevice, id: BufferId) {
        assert!(
            !self.free_ids.contains(&id),
            "double release of pooled buffer {id:?} ({} elements)",
            dev.memory.len(id)
        );
        assert!(
            self.leased_ids.remove(&id),
            "released buffer {id:?} was never leased from this pool"
        );
        let key = (dev.memory.len(id), dev.memory.is_virtual(id));
        self.free.entry(key).or_default().push(id);
        self.free_ids.insert(id);
        self.stats.pooled += 1;
        self.stats.leased -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SimBackend;

    #[test]
    fn reuse_is_by_exact_size_class() {
        let mut dev = SimBackend::a100();
        let mut pool = BufferPool::new();
        let a = pool.acquire(&mut dev, 64);
        let b = pool.acquire(&mut dev, 64);
        assert_ne!(a, b, "two live leases must be distinct buffers");
        assert_eq!(pool.stats().misses, 2);
        pool.release(&dev, a);
        pool.release(&dev, b);
        // same class -> recycled; different length -> fresh allocation
        let c = pool.acquire(&mut dev, 64);
        let d = pool.acquire(&mut dev, 128);
        assert!(c == a || c == b);
        assert_eq!(pool.stats().hits, 1);
        assert_eq!(pool.stats().misses, 3);
        let _ = d;
    }

    #[test]
    fn virtual_and_real_classes_never_mix() {
        let mut dev = SimBackend::a100();
        let mut pool = BufferPool::new();
        let v = pool.acquire_virtual(&mut dev, 32);
        pool.release(&dev, v);
        let r = pool.acquire(&mut dev, 32);
        assert_ne!(v, r, "a virtual buffer must not satisfy a real lease");
        assert!(dev.memory.is_virtual(v));
        assert!(!dev.memory.is_virtual(r));
    }

    #[test]
    fn acquire_like_follows_reference_virtualness() {
        let mut dev = SimBackend::a100();
        let mut pool = BufferPool::new();
        let real = dev.alloc("x", 16);
        let virt = dev.memory.alloc_virtual("xv", 16);
        let like_real = pool.try_acquire_like(&mut dev, real, 8).expect("no fault plan");
        let like_virt = pool.try_acquire_like(&mut dev, virt, 8).expect("no fault plan");
        assert!(!dev.memory.is_virtual(like_real));
        assert!(dev.memory.is_virtual(like_virt));
    }

    #[test]
    #[should_panic(expected = "double release")]
    fn double_release_is_rejected() {
        let mut dev = SimBackend::a100();
        let mut pool = BufferPool::new();
        let a = pool.acquire(&mut dev, 8);
        pool.release(&dev, a);
        pool.release(&dev, a);
    }

    #[test]
    fn leased_and_pooled_counters_track() {
        let mut dev = SimBackend::a100();
        let mut pool = BufferPool::new();
        let a = pool.acquire(&mut dev, 8);
        assert_eq!((pool.stats().leased, pool.stats().pooled), (1, 0));
        pool.release(&dev, a);
        assert_eq!((pool.stats().leased, pool.stats().pooled), (0, 1));
    }

    /// Regression: releasing a buffer the pool never leased used to be
    /// silently absorbed (with `leased` saturating toward zero and `pooled`
    /// inflating). It must be rejected loudly.
    #[test]
    #[should_panic(expected = "never leased from this pool")]
    fn releasing_a_foreign_buffer_is_rejected() {
        let mut dev = SimBackend::a100();
        let mut pool = BufferPool::new();
        let foreign = dev.alloc("foreign", 32);
        pool.release(&dev, foreign);
    }

    /// Regression: a shape-diverse serving loop must not grow the free map
    /// by one empty `Vec` per size class ever seen — emptied classes are
    /// pruned, so the map tracks *pooled buffers*, not history.
    #[test]
    fn empty_size_classes_are_pruned() {
        let mut dev = SimBackend::a100();
        let mut pool = BufferPool::new();
        for len in (1..=64).map(|i| i * 17) {
            let a = pool.acquire(&mut dev, len);
            pool.release(&dev, a);
            let b = pool.acquire(&mut dev, len); // re-lease empties the class
            assert_eq!(a, b);
            assert_eq!(
                pool.size_classes(),
                0,
                "emptied class for len {len} must be pruned"
            );
            pool.release(&dev, b);
            assert_eq!(pool.size_classes(), 1);
            let _ = pool.acquire(&mut dev, len);
        }
        assert_eq!(pool.size_classes(), 0);
        assert_eq!(pool.stats().leased, 64, "every final lease is live");
    }
}
