//! Static access-set declarations for kernels (`tfno-verify` level 1).
//!
//! A kernel that implements [`Kernel::access`](crate::Kernel::access)
//! declares, without executing a single block, every global-memory element
//! it will read and write: reads as launch-level [`AccessSpan`]s, writes
//! partitioned per block. The launch-plan verifier in the core crate uses
//! these sets to *prove* plan-level safety properties before a launch is
//! issued — cross-block write disjointness, in-bounds accesses and lease
//! discipline — instead of detecting violations from write journals after
//! the damage would already be visible.
//!
//! The contract mirrors [`Kernel::fingerprint`]: the declared sets must be
//! *exact* (the verifier promises zero false positives on well-formed
//! plans, so over-approximating reads or writes is a bug just like
//! under-approximating them), and they are pure functions of the kernel's
//! structure — same shape, same spans, only the [`BufferId`]s differ.
//!
//! [`Kernel::fingerprint`]: crate::Kernel::fingerprint

use crate::memory::BufferId;

/// A strided set of element runs in one buffer: the elements
/// `start + k*stride .. start + k*stride + run` for `k in 0..count`.
///
/// `count == 1` describes a single contiguous run; `run == 1` with
/// `count > 1` describes a constant-stride gather/scatter. Runs of one
/// span may touch each other (e.g. `stride == run`), which the verifier
/// normalizes away; runs *within one span* belong to one block or one
/// launch-level read set, so internal overlap is not itself a hazard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessSpan {
    pub buf: BufferId,
    /// First element of the first run.
    pub start: usize,
    /// Elements per run.
    pub run: usize,
    /// Distance between consecutive run starts.
    pub stride: usize,
    /// Number of runs.
    pub count: usize,
}

impl AccessSpan {
    /// One contiguous run of `len` elements at `start`.
    pub fn contiguous(buf: BufferId, start: usize, len: usize) -> Self {
        AccessSpan {
            buf,
            start,
            run: len,
            stride: len.max(1),
            count: 1,
        }
    }

    /// `count` runs of `run` elements, `stride` apart.
    pub fn strided(buf: BufferId, start: usize, run: usize, stride: usize, count: usize) -> Self {
        AccessSpan {
            buf,
            start,
            run,
            stride,
            count,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.run == 0 || self.count == 0
    }

    /// One-past-the-last element this span can touch.
    pub fn end(&self) -> usize {
        if self.is_empty() {
            self.start
        } else {
            self.start + (self.count - 1) * self.stride + self.run
        }
    }

    /// The span's runs as half-open `(lo, hi)` element intervals.
    pub fn runs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let (start, run, stride) = (self.start, self.run, self.stride);
        (0..if self.run == 0 { 0 } else { self.count })
            .map(move |k| (start + k * stride, start + k * stride + run))
    }
}

/// The declared global-memory footprint of one launch.
///
/// Reads are launch-level (blocks may freely share read elements — every
/// weight tile is read by many blocks); writes are partitioned per block
/// because cross-block write disjointness is exactly the property the
/// verifier proves.
#[derive(Clone, Debug, Default)]
pub struct KernelAccess {
    /// Every element any block of the launch reads.
    pub reads: Vec<AccessSpan>,
    /// Per-block write partitions: `(block_id, spans)`. Blocks that write
    /// nothing may be omitted.
    pub block_writes: Vec<(usize, Vec<AccessSpan>)>,
}

impl KernelAccess {
    pub fn new() -> Self {
        KernelAccess::default()
    }

    /// Record a launch-level read span.
    pub fn read(&mut self, span: AccessSpan) {
        if !span.is_empty() {
            self.reads.push(span);
        }
    }

    /// Record a write span owned by `block`.
    pub fn write(&mut self, block: usize, span: AccessSpan) {
        if span.is_empty() {
            return;
        }
        match self.block_writes.last_mut() {
            Some((b, spans)) if *b == block => spans.push(span),
            _ => self.block_writes.push((block, vec![span])),
        }
    }

    /// Every write span across all blocks.
    pub fn write_spans(&self) -> impl Iterator<Item = &AccessSpan> {
        self.block_writes.iter().flat_map(|(_, s)| s.iter())
    }

    /// Every span (reads then writes).
    pub fn all_spans(&self) -> impl Iterator<Item = &AccessSpan> {
        self.reads.iter().chain(self.write_spans())
    }

    /// Every distinct buffer the launch touches.
    pub fn buffers(&self) -> Vec<BufferId> {
        let mut ids: Vec<BufferId> = self.all_spans().map(|s| s.buf).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

/// Sort half-open `(lo, hi)` intervals and coalesce overlapping or
/// touching neighbours in place.
pub fn merge_runs(runs: &mut Vec<(usize, usize)>) {
    runs.retain(|&(lo, hi)| lo < hi);
    runs.sort_unstable();
    let mut out = 0;
    for i in 0..runs.len() {
        if out > 0 && runs[i].0 <= runs[out - 1].1 {
            runs[out - 1].1 = runs[out - 1].1.max(runs[i].1);
        } else {
            runs[out] = runs[i];
            out += 1;
        }
    }
    runs.truncate(out);
}

/// Whether any interval of `a` intersects any interval of `b`. Both lists
/// must be sorted and non-overlapping (see [`merge_runs`]).
pub fn runs_overlap(a: &[(usize, usize)], b: &[(usize, usize)]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i].1 <= b[j].0 {
            i += 1;
        } else if b[j].1 <= a[i].0 {
            j += 1;
        } else {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf(i: usize) -> BufferId {
        // Tests in this module only need distinct ids; the constructor is
        // crate-private on purpose (callers can't forge device buffers).
        BufferId(i)
    }

    #[test]
    fn span_runs_and_end() {
        let s = AccessSpan::strided(buf(0), 10, 3, 8, 2);
        assert_eq!(s.runs().collect::<Vec<_>>(), vec![(10, 13), (18, 21)]);
        assert_eq!(s.end(), 21);
        let c = AccessSpan::contiguous(buf(0), 4, 5);
        assert_eq!(c.runs().collect::<Vec<_>>(), vec![(4, 9)]);
        assert_eq!(c.end(), 9);
        assert!(AccessSpan::contiguous(buf(0), 7, 0).is_empty());
        assert_eq!(AccessSpan::contiguous(buf(0), 7, 0).runs().count(), 0);
    }

    #[test]
    fn merge_coalesces_and_sorts() {
        let mut r = vec![(5, 9), (0, 2), (8, 12), (2, 3), (20, 20)];
        merge_runs(&mut r);
        assert_eq!(r, vec![(0, 3), (5, 12)]);
    }

    #[test]
    fn overlap_detection() {
        assert!(runs_overlap(&[(0, 4), (10, 12)], &[(11, 13)]));
        assert!(!runs_overlap(&[(0, 4), (10, 12)], &[(4, 10), (12, 14)]));
        assert!(!runs_overlap(&[], &[(0, 1)]));
    }

    #[test]
    fn access_groups_writes_by_block() {
        let mut a = KernelAccess::new();
        a.write(0, AccessSpan::contiguous(buf(1), 0, 4));
        a.write(0, AccessSpan::contiguous(buf(1), 4, 4));
        a.write(1, AccessSpan::contiguous(buf(1), 8, 4));
        a.read(AccessSpan::contiguous(buf(2), 0, 16));
        a.read(AccessSpan::contiguous(buf(2), 0, 0)); // dropped
        assert_eq!(a.block_writes.len(), 2);
        assert_eq!(a.block_writes[0].1.len(), 2);
        assert_eq!(a.reads.len(), 1);
        assert_eq!(a.buffers(), vec![buf(1), buf(2)]);
        assert_eq!(a.write_spans().count(), 3);
    }
}
