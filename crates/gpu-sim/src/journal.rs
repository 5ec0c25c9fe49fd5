//! Per-worker write journals with run-length compression, plus the
//! launch-completion machinery that validates and applies them.
//!
//! The functional executor buffers every global store until the launch
//! completes (CUDA visibility semantics). Buffering each lane as an
//! individual `(buffer, element, value)` tuple — the pre-PR representation —
//! costs 24 bytes and one `Vec` push per element, and applying them costs a
//! bounds-checked scalar store each. Almost all kernel stores are warp
//! transactions over *contiguous* elements, so the journal compresses them
//! into runs: one header per maximal contiguous span plus a flat value pool.
//! Application then becomes `copy_from_slice` per run, conflict validation
//! becomes interval-overlap scanning per buffer (instead of a per-element
//! hash set), and both parallelize across buffers — the "shards" — because
//! buffers are disjoint address ranges.

use crate::memory::{BufferData, BufferId, GlobalMemory};
use tfno_num::C32;

/// One maximal contiguous span of buffered writes. Values live in the
/// journal's shared pool at `val_off .. val_off + len`.
#[derive(Clone, Copy, Debug)]
struct WriteRun {
    buf: BufferId,
    start: usize,
    len: usize,
    val_off: usize,
}

/// Buffered global writes of one executor worker (possibly spanning many
/// blocks — blocks of one launch may not write the same element, so no
/// per-block boundary needs to be kept).
#[derive(Debug, Default)]
pub struct WriteJournal {
    runs: Vec<WriteRun>,
    vals: Vec<C32>,
}

impl WriteJournal {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Number of compressed runs (diagnostics/tests).
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Number of buffered element writes.
    pub fn element_count(&self) -> usize {
        self.vals.len()
    }

    /// Append one element write, extending the last run when contiguous.
    #[inline]
    pub fn push(&mut self, buf: BufferId, elem: usize, v: C32) {
        if let Some(last) = self.runs.last_mut() {
            if last.buf == buf && last.start + last.len == elem {
                last.len += 1;
                self.vals.push(v);
                return;
            }
        }
        self.runs.push(WriteRun {
            buf,
            start: elem,
            len: 1,
            val_off: self.vals.len(),
        });
        self.vals.push(v);
    }
}

/// Reference to one run of one journal, used by the per-buffer index.
type RunRef = (u32, u32);

struct BufferTask<'a> {
    name: &'a str,
    /// `None` for virtual buffers: writes vanish but still validate.
    data: Option<&'a mut [C32]>,
    refs: Vec<RunRef>,
}

/// Validate (optionally) and apply all journals of a completed launch.
///
/// Validation rejects any element written twice in the launch — the same
/// contract the pre-PR per-element hash set enforced, now as an
/// interval-overlap scan over the sorted runs of each buffer. Both
/// validation and application shard naturally per buffer and run on up to
/// `workers` shares of the [worker pool](crate::exec).
pub(crate) fn apply_journals(
    gmem: &mut GlobalMemory,
    journals: &[WriteJournal],
    validate: bool,
    workers: usize,
    kernel_name: &str,
) {
    // Index runs by destination buffer (the shards).
    let mut per_buf: Vec<Vec<RunRef>> = vec![Vec::new(); gmem.buffer_count()];
    for (ji, j) in journals.iter().enumerate() {
        for (ri, r) in j.runs.iter().enumerate() {
            per_buf[r.buf.0].push((ji as u32, ri as u32));
        }
    }

    let mut tasks: Vec<BufferTask<'_>> = gmem
        .buffers_mut()
        .iter_mut()
        .enumerate()
        .filter_map(|(id, buf)| {
            let refs = std::mem::take(&mut per_buf[id]);
            if refs.is_empty() {
                return None;
            }
            let data = match &mut buf.data {
                BufferData::Real(v) => Some(&mut v[..]),
                BufferData::Virtual { .. } => None,
            };
            Some(BufferTask {
                name: &buf.name,
                data,
                refs,
            })
        })
        .collect();

    let run_task = |task: &mut BufferTask<'_>| {
        if validate {
            validate_no_overlap(journals, &task.refs, task.name, kernel_name);
        }
        if let Some(data) = &mut task.data {
            for &(ji, ri) in &task.refs {
                let j = &journals[ji as usize];
                let r = j.runs[ri as usize];
                data[r.start..r.start + r.len]
                    .copy_from_slice(&j.vals[r.val_off..r.val_off + r.len]);
            }
        }
    };

    crate::exec::for_each_mut(&mut tasks, workers, run_task);
}

/// Panic if any element of this buffer is covered by two runs.
fn validate_no_overlap(
    journals: &[WriteJournal],
    refs: &[RunRef],
    buf_name: &str,
    kernel_name: &str,
) {
    let mut intervals: Vec<(usize, usize)> = refs
        .iter()
        .map(|&(ji, ri)| {
            let r = journals[ji as usize].runs[ri as usize];
            (r.start, r.start + r.len)
        })
        .collect();
    intervals.sort_unstable();
    for pair in intervals.windows(2) {
        let (prev, next) = (pair[0], pair[1]);
        assert!(
            prev.1 <= next.0,
            "write conflict: two blocks of kernel '{kernel_name}' wrote element {} of buffer '{buf_name}'",
            next.0
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf(i: usize) -> BufferId {
        BufferId(i)
    }

    #[test]
    fn contiguous_writes_compress_into_one_run() {
        let mut j = WriteJournal::new();
        for i in 0..64 {
            j.push(buf(0), i, C32::real(i as f32));
        }
        assert_eq!(j.run_count(), 1);
        assert_eq!(j.element_count(), 64);
    }

    #[test]
    fn strided_writes_stay_separate_runs() {
        let mut j = WriteJournal::new();
        for i in 0..8 {
            j.push(buf(0), i * 5, C32::ONE);
        }
        assert_eq!(j.run_count(), 8);
    }

    #[test]
    fn buffer_switch_breaks_runs() {
        let mut j = WriteJournal::new();
        j.push(buf(0), 0, C32::ONE);
        j.push(buf(1), 1, C32::ONE);
        j.push(buf(0), 1, C32::ONE);
        assert_eq!(j.run_count(), 3);
    }

    #[test]
    fn apply_moves_values_and_skips_virtual() {
        let mut gm = GlobalMemory::new();
        let a = gm.alloc("a", 32);
        let v = gm.alloc_virtual("v", 32);
        let mut j = WriteJournal::new();
        for i in 0..8 {
            j.push(a, i, C32::real(1.0 + i as f32));
            j.push(v, i, C32::ONE);
        }
        apply_journals(&mut gm, &[j], true, 1, "t");
        let out = gm.download(a);
        assert_eq!(out[3], C32::real(4.0));
        assert_eq!(out[8], C32::ZERO);
    }

    #[test]
    #[should_panic(expected = "write conflict")]
    fn overlapping_runs_rejected() {
        let mut gm = GlobalMemory::new();
        let a = gm.alloc("a", 32);
        let mut j0 = WriteJournal::new();
        let mut j1 = WriteJournal::new();
        for i in 0..4 {
            j0.push(a, i, C32::ONE);
            j1.push(a, 3 + i, C32::ONE);
        }
        apply_journals(&mut gm, &[j0, j1], true, 1, "t");
    }

    #[test]
    fn parallel_apply_matches_serial() {
        let mut gm_s = GlobalMemory::new();
        let mut gm_p = GlobalMemory::new();
        let ids_s: Vec<_> = (0..4).map(|i| gm_s.alloc(&format!("b{i}"), 128)).collect();
        let ids_p: Vec<_> = (0..4).map(|i| gm_p.alloc(&format!("b{i}"), 128)).collect();
        let mut journals = Vec::new();
        for w in 0..3 {
            let mut j = WriteJournal::new();
            for (bi, _) in ids_s.iter().enumerate() {
                for i in 0..32 {
                    j.push(buf(bi), w * 32 + i, C32::real((w * 100 + bi * 10 + i) as f32));
                }
            }
            journals.push(j);
        }
        apply_journals(&mut gm_s, &journals, true, 1, "t");
        apply_journals(&mut gm_p, &journals, true, 4, "t");
        for (s, p) in ids_s.iter().zip(&ids_p) {
            assert_eq!(gm_s.download(*s), gm_p.download(*p));
        }
    }
}
