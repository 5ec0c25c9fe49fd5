//! Per-worker write journals of contiguous runs, plus the
//! launch-completion machinery that validates and applies them.
//!
//! The functional executor buffers every global store until the launch
//! completes (CUDA visibility semantics). Kernel bodies store whole runs
//! ([`BlockCtx::global_store_run`](crate::BlockCtx::global_store_run)):
//! one header per maximal contiguous span plus a flat value pool, where a
//! run that starts at the end of the previous one on the same buffer
//! extends it instead of opening a new header. Application is one
//! `copy_from_slice` per run, conflict validation is an interval-overlap
//! scan per buffer, and both parallelize across buffers — the "shards" —
//! because buffers are disjoint address ranges.

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

    /// Append the writes of elements `start..start + vals.len()`,
    /// extending the last run when this one starts where it ends.
    #[inline]
    pub fn push_run(
        &mut self,
        buf: BufferId,
        start: usize,
        vals: impl ExactSizeIterator<Item = C32>,
    ) {
        let len = vals.len();
        if len == 0 {
            return;
        }
        match self.runs.last_mut() {
            Some(last) if last.buf == buf && last.start + last.len == start => last.len += len,
            _ => self.runs.push(WriteRun {
                buf,
                start,
                len,
                val_off: self.vals.len(),
            }),
        }
        self.vals.extend(vals);
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
/// Validation rejects any element written twice in the launch, as an
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
    use std::iter::once;

    fn buf(i: usize) -> BufferId {
        BufferId(i)
    }

    #[test]
    fn contiguous_writes_compress_into_one_run() {
        let mut j = WriteJournal::new();
        for i in 0..64 {
            j.push_run(buf(0), i, once(C32::real(i as f32)));
        }
        assert_eq!(j.run_count(), 1);
        assert_eq!(j.element_count(), 64);
    }

    #[test]
    fn strided_writes_stay_separate_runs() {
        let mut j = WriteJournal::new();
        for i in 0..8 {
            j.push_run(buf(0), i * 5, once(C32::ONE));
        }
        assert_eq!(j.run_count(), 8);
    }

    /// A run that starts where the last one ends extends it; any other
    /// start opens a new run, and an empty run leaves the journal alone.
    #[test]
    fn contiguous_push_runs_extend_the_last_run() {
        let mut j = WriteJournal::new();
        j.push_run(buf(0), 0, [C32::ONE; 4].into_iter());
        j.push_run(buf(0), 4, [C32::ONE; 4].into_iter());
        j.push_run(buf(0), 8, std::iter::empty());
        assert_eq!((j.run_count(), j.element_count()), (1, 8));
        j.push_run(buf(0), 16, [C32::ONE; 2].into_iter());
        j.push_run(buf(1), 18, [C32::ONE; 2].into_iter());
        assert_eq!((j.run_count(), j.element_count()), (3, 12));
    }

    #[test]
    fn buffer_switch_breaks_runs() {
        let mut j = WriteJournal::new();
        j.push_run(buf(0), 0, once(C32::ONE));
        j.push_run(buf(1), 1, once(C32::ONE));
        j.push_run(buf(0), 1, once(C32::ONE));
        assert_eq!(j.run_count(), 3);
    }

    #[test]
    fn apply_moves_values_and_skips_virtual() {
        let mut gm = GlobalMemory::new();
        let a = gm.alloc("a", 32);
        let v = gm.alloc_virtual("v", 32);
        let mut j = WriteJournal::new();
        for i in 0..8 {
            j.push_run(a, i, once(C32::real(1.0 + i as f32)));
            j.push_run(v, i, once(C32::ONE));
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
            j0.push_run(a, i, once(C32::ONE));
            j1.push_run(a, 3 + i, once(C32::ONE));
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
                    j.push_run(
                        buf(bi),
                        w * 32 + i,
                        once(C32::real((w * 100 + bi * 10 + i) as f32)),
                    );
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
