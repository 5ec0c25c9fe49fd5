//! Static launch-plan check (`tfno-verify` level 1).
//!
//! Every kernel in the suite declares its global-memory footprint through
//! [`Kernel::access`] — per-buffer read spans plus per-block write
//! partitions (declared in the simulator's access module). [`check_launch`]
//! consumes those declarations to *prove*, without executing a block, that
//! a launch is hazard-free:
//!
//! * **Block-write disjointness** — no two blocks of one launch write the
//!   same element (the static counterpart of the device's journal-time
//!   `validate_writes`, caught before the launch instead of after).
//! * **Bounds** — every declared read and write span lies inside its
//!   buffer.
//! * **No pooled buffer** — no launch names a buffer that sits in the
//!   session's [`BufferPool`] free list: its lease was released, and the
//!   next lessee may overwrite it.
//!
//! The check is a pure function of the device, the pool and the kernel. It
//! keeps no state between calls, and the pool's lease ledger is the only
//! one. The fifth hazard class, a lease left at the end of a run
//! ([`PlanHazard::UnreleasedLease`]), is reconciled by `Session`, which
//! diffs the pool's leases around every unit of work it runs. Queue
//! aliasing is an admission rule of `Session`, not a launch hazard.
//!
//! The declared access sets are exact, so the check holds a zero
//! false-positive contract: a plan the engine would execute correctly is
//! never rejected (`tests/verify.rs` pins this across every variant and
//! the mutation suite).
//!
//! Verification runs by default in debug builds; `TFNO_VERIFY=1` forces
//! it on in release, `TFNO_VERIFY=0` forces it off, and
//! [`set_verify_override`] takes precedence over both (the env var is
//! read once per process).

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

use crate::error::TfnoError;
use crate::backend::{merge_runs, runs_overlap, BufferId, GpuDevice, Kernel};
use crate::pool::BufferPool;

/// A provable defect in a launch plan. Each variant is one hazard class
/// the check detects; `Display` produces the human-readable reason
/// embedded in [`TfnoError::Validation`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanHazard {
    /// Two blocks of one launch write overlapping elements.
    BlockWriteOverlap { kernel: String, buf: String },
    /// A declared read span ends past the end of its buffer.
    ReadOutOfBounds {
        kernel: String,
        buf: String,
        end: usize,
        len: usize,
    },
    /// A declared write span ends past the end of its buffer.
    WriteOutOfBounds {
        kernel: String,
        buf: String,
        end: usize,
        len: usize,
    },
    /// The launch names a buffer whose pool lease was released: it sits
    /// in the pool's free list.
    UseAfterRelease { kernel: String, buf: String },
    /// A run finished with leases its work took still outstanding.
    UnreleasedLease { count: usize },
}

impl fmt::Display for PlanHazard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanHazard::BlockWriteOverlap { kernel, buf } => write!(
                f,
                "blocks of kernel '{kernel}' write overlapping elements of {buf}"
            ),
            PlanHazard::ReadOutOfBounds {
                kernel,
                buf,
                end,
                len,
            } => write!(
                f,
                "kernel '{kernel}' reads {buf} up to element {end} but the buffer holds {len}"
            ),
            PlanHazard::WriteOutOfBounds {
                kernel,
                buf,
                end,
                len,
            } => write!(
                f,
                "kernel '{kernel}' writes {buf} up to element {end} but the buffer holds {len}"
            ),
            PlanHazard::UseAfterRelease { kernel, buf } => write!(
                f,
                "kernel '{kernel}' touches {buf} after its pool lease was released"
            ),
            PlanHazard::UnreleasedLease { count } => {
                write!(f, "run finished with {count} unreleased pool lease(s)")
            }
        }
    }
}

impl From<PlanHazard> for TfnoError {
    fn from(h: PlanHazard) -> Self {
        TfnoError::Validation(format!("plan verifier: {h}"))
    }
}

// ---------------------------------------------------------------------------
// Gating
// ---------------------------------------------------------------------------

/// Programmatic override: 0 = none, 1 = forced off, 2 = forced on.
static VERIFY_OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Force verification on/off for this process (`Some(true)` / `Some(false)`)
/// or restore the environment/default policy (`None`). Takes precedence
/// over `TFNO_VERIFY` and build profile — the bench harness and the
/// on-vs-off equivalence tests toggle within one process, where the
/// env var has already been cached.
pub fn set_verify_override(v: Option<bool>) {
    let raw = match v {
        None => 0,
        Some(false) => 1,
        Some(true) => 2,
    };
    VERIFY_OVERRIDE.store(raw, Ordering::Relaxed);
}

/// Should launch plans be verified? Override > `TFNO_VERIFY` env
/// (`1` on, `0` off; read once per process) > on in debug builds.
pub fn verifier_enabled() -> bool {
    match VERIFY_OVERRIDE.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => {
            static ENV: OnceLock<Option<bool>> = OnceLock::new();
            let env = ENV.get_or_init(|| match std::env::var("TFNO_VERIFY").as_deref() {
                Ok("1") => Some(true),
                Ok("0") => Some(false),
                _ => None,
            });
            env.unwrap_or(cfg!(debug_assertions))
        }
    }
}

// ---------------------------------------------------------------------------
// The check
// ---------------------------------------------------------------------------

/// Prove a launch safe before it issues: bounds, no buffer sitting in
/// `pool`'s free list, and cross-block write disjointness. A kernel that
/// declares no access set is opaque and passes.
pub fn check_launch(
    dev: &GpuDevice,
    pool: &BufferPool,
    kernel: &dyn Kernel,
) -> Result<(), PlanHazard> {
    let Some(access) = kernel.access() else {
        return Ok(());
    };
    let name = |buf: BufferId| format!("'{}'", dev.memory.name(buf));

    // Bounds: cheap (O(spans)) and a precondition for everything else.
    for span in &access.reads {
        if span.end() > dev.memory.len(span.buf) {
            return Err(PlanHazard::ReadOutOfBounds {
                kernel: kernel.name(),
                buf: name(span.buf),
                end: span.end(),
                len: dev.memory.len(span.buf),
            });
        }
    }
    for span in access.write_spans() {
        if span.end() > dev.memory.len(span.buf) {
            return Err(PlanHazard::WriteOutOfBounds {
                kernel: kernel.name(),
                buf: name(span.buf),
                end: span.end(),
                len: dev.memory.len(span.buf),
            });
        }
    }

    // Use after release: a pooled buffer belongs to the next lessee.
    if let Some(buf) = access.buffers().into_iter().find(|&b| pool.is_pooled(b)) {
        return Err(PlanHazard::UseAfterRelease {
            kernel: kernel.name(),
            buf: name(buf),
        });
    }

    // Cross-block write disjointness.
    let mut seen: HashMap<BufferId, Vec<(usize, usize)>> = HashMap::new();
    for (_, spans) in &access.block_writes {
        let mut per_buf: HashMap<BufferId, Vec<(usize, usize)>> = HashMap::new();
        for span in spans {
            per_buf.entry(span.buf).or_default().extend(span.runs());
        }
        for (buf, mut runs) in per_buf {
            merge_runs(&mut runs);
            let earlier = seen.entry(buf).or_default();
            if runs_overlap(earlier, &runs) {
                return Err(PlanHazard::BlockWriteOverlap {
                    kernel: kernel.name(),
                    buf: name(buf),
                });
            }
            earlier.extend(runs);
            merge_runs(earlier);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SimBackend;
    use tfno_culib::copy::{CopySegment, SegmentedCopyKernel};

    fn dev_with(lens: &[usize]) -> (SimBackend, Vec<BufferId>) {
        let mut dev = SimBackend::a100();
        let ids = lens
            .iter()
            .enumerate()
            .map(|(i, &l)| dev.alloc(&format!("b{i}"), l))
            .collect();
        (dev, ids)
    }

    #[test]
    fn disjoint_copy_passes_and_overlap_is_rejected() {
        let (dev, ids) = dev_with(&[64, 64]);
        let (src, dst) = (ids[0], ids[1]);
        let pool = BufferPool::new();
        let ok = SegmentedCopyKernel::new(
            "ok",
            vec![
                CopySegment { src, src_base: 0, dst, dst_base: 0, len: 32 },
                CopySegment { src, src_base: 32, dst, dst_base: 32, len: 32 },
            ],
        );
        check_launch(&dev, &pool, &ok).expect("disjoint plan accepted");

        let bad = SegmentedCopyKernel::new(
            "bad",
            vec![
                CopySegment { src, src_base: 0, dst, dst_base: 0, len: 32 },
                CopySegment { src, src_base: 32, dst, dst_base: 16, len: 32 },
            ],
        );
        let err = check_launch(&dev, &pool, &bad).unwrap_err();
        assert!(matches!(err, PlanHazard::BlockWriteOverlap { .. }), "{err}");
    }

    /// Regression from when disjointness proofs were memoized by kernel
    /// fingerprint: two copies with the same structure (bases, lengths)
    /// but different buffer aliasing. Two distinct outputs are disjoint,
    /// one shared output overlaps, and the first proof must not excuse
    /// the second kernel.
    #[test]
    fn memoized_disjointness_distinguishes_buffer_aliasing() {
        let (dev, ids) = dev_with(&[64, 64, 64]);
        let (src, d0, d1) = (ids[0], ids[1], ids[2]);
        let pool = BufferPool::new();
        let seg = |dst, dst_base| CopySegment { src, src_base: 0, dst, dst_base, len: 32 };
        let distinct =
            SegmentedCopyKernel::new("distinct", vec![seg(d0, 0), seg(d1, 0)]);
        check_launch(&dev, &pool, &distinct).expect("distinct outputs accepted");
        let shared = SegmentedCopyKernel::new("shared", vec![seg(d0, 0), seg(d0, 0)]);
        let err = check_launch(&dev, &pool, &shared).unwrap_err();
        assert!(matches!(err, PlanHazard::BlockWriteOverlap { .. }), "{err}");
    }

    #[test]
    fn bounds_are_checked() {
        let (dev, ids) = dev_with(&[64, 16]);
        let k = SegmentedCopyKernel::new(
            "oob",
            vec![CopySegment { src: ids[0], src_base: 0, dst: ids[1], dst_base: 0, len: 32 }],
        );
        let err = check_launch(&dev, &BufferPool::new(), &k).unwrap_err();
        assert!(matches!(err, PlanHazard::WriteOutOfBounds { .. }), "{err}");
    }

    /// The pool's ledger is the only one: a caller-allocated buffer and a
    /// live lease pass, a released lease (pooled) is rejected, and
    /// re-leasing it (pool recycling) makes it live again.
    #[test]
    fn lease_discipline() {
        let mut dev = SimBackend::a100();
        let mut pool = BufferPool::new();
        let src = dev.alloc("src", 64);
        let a = pool.acquire(&mut dev, 64);
        let k = SegmentedCopyKernel::new(
            "uar",
            vec![CopySegment { src, src_base: 0, dst: a, dst_base: 0, len: 8 }],
        );
        check_launch(&dev, &pool, &k).expect("a live lease passes");
        pool.release(&dev, a);
        let err = check_launch(&dev, &pool, &k).unwrap_err();
        assert!(matches!(err, PlanHazard::UseAfterRelease { .. }), "{err}");
        assert_eq!(pool.acquire(&mut dev, 64), a, "the class recycles the buffer");
        check_launch(&dev, &pool, &k).expect("recycled lease is live");
    }

    #[test]
    fn hazard_display_names_every_class() {
        let cases: Vec<(PlanHazard, &str)> = vec![
            (
                PlanHazard::BlockWriteOverlap { kernel: "k".into(), buf: "b".into() },
                "overlapping",
            ),
            (
                PlanHazard::ReadOutOfBounds { kernel: "k".into(), buf: "b".into(), end: 9, len: 8 },
                "reads",
            ),
            (
                PlanHazard::WriteOutOfBounds { kernel: "k".into(), buf: "b".into(), end: 9, len: 8 },
                "writes",
            ),
            (
                PlanHazard::UseAfterRelease { kernel: "k".into(), buf: "b".into() },
                "after its pool lease",
            ),
            (PlanHazard::UnreleasedLease { count: 2 }, "unreleased"),
        ];
        for (h, needle) in cases {
            assert!(h.to_string().contains(needle), "{h}");
            let e: TfnoError = h.into();
            assert!(matches!(e, TfnoError::Validation(_)));
        }
    }
}
