//! Static launch-plan verifier (`tfno-verify` level 1).
//!
//! Every kernel in the suite declares its global-memory footprint through
//! [`Kernel::access`] — per-buffer read spans plus per-block write
//! partitions (declared in the simulator's access module). [`PlanVerifier`] consumes
//! those declarations to *prove*, without executing a block, that a
//! launch plan is hazard-free:
//!
//! * **Block-write disjointness** — no two blocks of one launch write the
//!   same element (the static counterpart of the device's journal-time
//!   `validate_writes`, caught before the launch instead of after).
//! * **Bounds** — every declared read and write span lies inside its
//!   buffer.
//! * **Lease discipline** — every pool lease a sequence takes is released
//!   exactly once, and no launch touches a buffer after its release.
//!
//! The declared access sets are exact, so the verifier holds a zero
//! false-positive contract: a plan the engine would execute correctly is
//! never rejected (`tests/verify.rs` pins this across every variant and
//! the mutation suite).
//!
//! Verification runs by default in debug builds; `TFNO_VERIFY=1` forces
//! it on in release, `TFNO_VERIFY=0` forces it off, and
//! [`set_verify_override`] takes precedence over both (the env var is
//! read once per process).

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::error::TfnoError;
use crate::backend::{
    lock_unpoisoned, merge_runs, runs_overlap, Backend, BufferId, Kernel, KernelAccess,
    LaunchError,
};

/// A provable defect in a launch plan. Each variant is one hazard class
/// the verifier detects; `Display` produces the human-readable reason
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
    /// The launch touches a buffer after its pool lease was released.
    UseAfterRelease { kernel: String, buf: String },
    /// A lease was released twice.
    DoubleRelease { buf: String },
    /// A release of a buffer the sequence never acquired.
    ReleaseUnleased { buf: String },
    /// The sequence finished with leases still outstanding.
    UnreleasedLease { count: usize },
    /// A queued request's output aliases one of its own operands.
    SelfAlias { index: usize, operand: String },
    /// A queued request's output is an operand (or the output) of another
    /// request in the same group-reordered queue.
    CrossAlias { writer: usize, reader: usize },
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
            PlanHazard::DoubleRelease { buf } => {
                write!(f, "lease of {buf} released twice")
            }
            PlanHazard::ReleaseUnleased { buf } => {
                write!(f, "release of {buf}, which this sequence never acquired")
            }
            PlanHazard::UnreleasedLease { count } => {
                write!(f, "sequence finished with {count} unreleased pool lease(s)")
            }
            PlanHazard::SelfAlias { index, operand } => {
                write!(f, "request {index} is self-aliased (y == {operand})")
            }
            PlanHazard::CrossAlias { writer, reader } => write!(
                f,
                "request {writer}'s output is an operand of request {reader}"
            ),
        }
    }
}

impl From<PlanHazard> for TfnoError {
    fn from(h: PlanHazard) -> Self {
        TfnoError::Validation(format!("plan verifier: {h}"))
    }
}

impl PlanHazard {
    /// Wrap the hazard in the device-level typed error for a specific
    /// kernel, which [`From<LaunchError>`](TfnoError) then surfaces as
    /// [`TfnoError::Validation`] — one conversion path for every choke
    /// point that has a kernel in hand.
    pub fn rejecting(self, kernel: &dyn Kernel) -> TfnoError {
        LaunchError::PlanRejected {
            kernel: kernel.name(),
            reason: self.to_string(),
        }
        .into()
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
// The verifier
// ---------------------------------------------------------------------------

/// Tracks one execution sequence (an `ExecCtx` lifetime) and proves each
/// launch hazard-free before it issues.
#[derive(Debug, Default)]
pub struct PlanVerifier {
    leased: HashSet<BufferId>,
    released: HashSet<BufferId>,
}

/// Process-wide memo of write-partition disjointness proofs, keyed by
/// kernel fingerprint + write-buffer aliasing pattern (success only).
/// Disjointness is a pure function of that key: fingerprints are invariant
/// under buffer ids by convention, so the aliasing pattern (which write
/// spans share a buffer) is folded in to keep the memo sound for
/// multi-output kernels like the segmented copy.
fn disjoint_memo() -> &'static Mutex<HashSet<u64>> {
    static MEMO: OnceLock<Mutex<HashSet<u64>>> = OnceLock::new();
    MEMO.get_or_init(|| Mutex::new(HashSet::new()))
}

fn disjoint_key(kernel: &dyn Kernel, access: &KernelAccess) -> Option<u64> {
    let fp = kernel.fingerprint()?;
    let mut h = DefaultHasher::new();
    fp.hash(&mut h);
    let mut labels: HashMap<BufferId, usize> = HashMap::new();
    for span in access.write_spans() {
        let next = labels.len();
        (*labels.entry(span.buf).or_insert(next)).hash(&mut h);
    }
    Some(h.finish())
}

impl PlanVerifier {
    pub fn new() -> Self {
        Self::default()
    }

    /// Note a pool lease taken by this sequence. Re-acquiring a buffer
    /// that was released earlier in the sequence (pool recycling) makes
    /// it live again.
    pub fn acquire(&mut self, buf: BufferId) {
        self.released.remove(&buf);
        self.leased.insert(buf);
    }

    /// Note a lease release. Rejects double releases and releases of
    /// buffers this sequence never acquired.
    pub fn release(&mut self, buf: BufferId) -> Result<(), PlanHazard> {
        if self.released.contains(&buf) {
            return Err(PlanHazard::DoubleRelease {
                buf: format!("{buf:?}"),
            });
        }
        if !self.leased.remove(&buf) {
            return Err(PlanHazard::ReleaseUnleased {
                buf: format!("{buf:?}"),
            });
        }
        self.released.insert(buf);
        Ok(())
    }

    /// Prove a launch safe before it issues: bounds, use after release,
    /// and cross-block write disjointness. A kernel that declares no
    /// access set is opaque and passes.
    pub fn check_launch(&mut self, dev: &dyn Backend, kernel: &dyn Kernel) -> Result<(), PlanHazard> {
        let Some(access) = kernel.access() else {
            return Ok(());
        };
        let name = |buf: BufferId| format!("'{}'", dev.memory().name(buf));

        // Bounds: cheap (O(spans)) and a precondition for everything else.
        for span in &access.reads {
            if span.end() > dev.memory().len(span.buf) {
                return Err(PlanHazard::ReadOutOfBounds {
                    kernel: kernel.name(),
                    buf: name(span.buf),
                    end: span.end(),
                    len: dev.memory().len(span.buf),
                });
            }
        }
        for span in access.write_spans() {
            if span.end() > dev.memory().len(span.buf) {
                return Err(PlanHazard::WriteOutOfBounds {
                    kernel: kernel.name(),
                    buf: name(span.buf),
                    end: span.end(),
                    len: dev.memory().len(span.buf),
                });
            }
        }

        // Use-after-release of pool leases.
        for buf in access.buffers() {
            if self.released.contains(&buf) {
                return Err(PlanHazard::UseAfterRelease {
                    kernel: kernel.name(),
                    buf: name(buf),
                });
            }
        }

        // Cross-block write disjointness, memoized per structure.
        let key = disjoint_key(kernel, &access);
        let proven = key
            .map(|k| lock_unpoisoned(disjoint_memo()).contains(&k))
            .unwrap_or(false);
        if !proven {
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
            if let Some(k) = key {
                lock_unpoisoned(disjoint_memo()).insert(k);
            }
        }
        Ok(())
    }

    /// End-of-sequence check: every lease must have been released.
    pub fn finish(&self) -> Result<(), PlanHazard> {
        if !self.leased.is_empty() {
            return Err(PlanHazard::UnreleasedLease {
                count: self.leased.len(),
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Queue aliasing (satellite of the Session submit path)
// ---------------------------------------------------------------------------

/// The buffer-level operand sets of one queued request, labeled so alias
/// rejections can name the offending operand. Derived by `Session` from
/// the same buffers its plans' access sets will name.
#[derive(Clone, Debug)]
pub struct QueueAccess {
    /// `(label, buffer)` operand reads, e.g. `[("x", x), ("w", w)]`.
    pub reads: Vec<(&'static str, BufferId)>,
    /// Buffers the request writes (its output).
    pub writes: Vec<BufferId>,
}

/// Prove a group-reorderable queue alias-free: no request's output is one
/// of its own operands ([`PlanHazard::SelfAlias`]) and no request's
/// output is an operand or output of any other request
/// ([`PlanHazard::CrossAlias`]). Queues are executed group-reordered, so
/// aliasing either way breaks the sequential-equivalence contract.
pub fn check_queue_aliasing(reqs: &[QueueAccess]) -> Result<(), PlanHazard> {
    // Scan order is part of the contract: for each request, its self-alias
    // is reported before any cross-alias it participates in, and pairs are
    // found writer-major — `Session` formats its pinned messages from the
    // first hazard, so this must match the historical scan exactly.
    for (i, a) in reqs.iter().enumerate() {
        for w in &a.writes {
            if let Some((label, _)) = a.reads.iter().find(|(_, b)| b == w) {
                return Err(PlanHazard::SelfAlias {
                    index: i,
                    operand: (*label).to_string(),
                });
            }
        }
        for (j, b) in reqs.iter().enumerate() {
            if i == j {
                continue;
            }
            let aliased = a.writes.iter().any(|w| {
                b.reads.iter().any(|(_, r)| r == w) || b.writes.contains(w)
            });
            if aliased {
                return Err(PlanHazard::CrossAlias {
                    writer: i,
                    reader: j,
                });
            }
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
        let ok = SegmentedCopyKernel::new(
            "ok",
            vec![
                CopySegment { src, src_base: 0, dst, dst_base: 0, len: 32 },
                CopySegment { src, src_base: 32, dst, dst_base: 32, len: 32 },
            ],
        );
        let mut v = PlanVerifier::new();
        v.check_launch(&dev, &ok).expect("disjoint plan accepted");

        let bad = SegmentedCopyKernel::new(
            "bad",
            vec![
                CopySegment { src, src_base: 0, dst, dst_base: 0, len: 32 },
                CopySegment { src, src_base: 32, dst, dst_base: 16, len: 32 },
            ],
        );
        let err = v.check_launch(&dev, &bad).unwrap_err();
        assert!(matches!(err, PlanHazard::BlockWriteOverlap { .. }), "{err}");
    }

    #[test]
    fn memoized_disjointness_distinguishes_buffer_aliasing() {
        // Same structural fingerprint (bases/lengths), different buffer
        // aliasing: two distinct outputs are disjoint, one shared output
        // overlaps. The memo must not let the first proof excuse the
        // second kernel.
        let (dev, ids) = dev_with(&[64, 64, 64]);
        let (src, d0, d1) = (ids[0], ids[1], ids[2]);
        let seg = |dst, dst_base| CopySegment { src, src_base: 0, dst, dst_base, len: 32 };
        let distinct =
            SegmentedCopyKernel::new("distinct", vec![seg(d0, 0), seg(d1, 0)]);
        let mut v = PlanVerifier::new();
        v.check_launch(&dev, &distinct).expect("distinct outputs accepted");
        let shared = SegmentedCopyKernel::new("shared", vec![seg(d0, 0), seg(d0, 0)]);
        let err = v.check_launch(&dev, &shared).unwrap_err();
        assert!(matches!(err, PlanHazard::BlockWriteOverlap { .. }), "{err}");
    }

    #[test]
    fn bounds_are_checked() {
        let (dev, ids) = dev_with(&[64, 16]);
        let k = SegmentedCopyKernel::new(
            "oob",
            vec![CopySegment { src: ids[0], src_base: 0, dst: ids[1], dst_base: 0, len: 32 }],
        );
        let err = PlanVerifier::new().check_launch(&dev, &k).unwrap_err();
        assert!(matches!(err, PlanHazard::WriteOutOfBounds { .. }), "{err}");
    }

    #[test]
    fn lease_discipline() {
        let (dev, ids) = dev_with(&[64, 64]);
        let (a, b) = (ids[0], ids[1]);
        let mut v = PlanVerifier::new();
        v.acquire(a);
        assert!(matches!(
            v.release(b),
            Err(PlanHazard::ReleaseUnleased { .. })
        ));
        v.release(a).expect("first release");
        assert!(matches!(v.release(a), Err(PlanHazard::DoubleRelease { .. })));
        let k = SegmentedCopyKernel::new(
            "uar",
            vec![CopySegment { src: b, src_base: 0, dst: a, dst_base: 0, len: 8 }],
        );
        let err = v.check_launch(&dev, &k).unwrap_err();
        assert!(matches!(err, PlanHazard::UseAfterRelease { .. }), "{err}");
        // Re-acquiring (pool recycling) makes the buffer live again.
        v.acquire(a);
        v.check_launch(&dev, &k).expect("recycled lease is live");
        v.release(a).expect("balanced");
        v.finish().expect("no outstanding leases");
        v.acquire(b);
        assert!(matches!(
            v.finish(),
            Err(PlanHazard::UnreleasedLease { count: 1 })
        ));
    }

    #[test]
    fn queue_aliasing_typed_hazards() {
        let (_, ids) = dev_with(&[8, 8, 8, 8]);
        let req = |x, w, y| QueueAccess {
            reads: vec![("x", x), ("w", w)],
            writes: vec![y],
        };
        check_queue_aliasing(&[req(ids[0], ids[1], ids[2]), req(ids[0], ids[1], ids[3])])
            .expect("shared operands are fine");
        let err =
            check_queue_aliasing(&[req(ids[0], ids[1], ids[0])]).unwrap_err();
        assert_eq!(
            err,
            PlanHazard::SelfAlias { index: 0, operand: "x".into() }
        );
        let err = check_queue_aliasing(&[
            req(ids[0], ids[1], ids[2]),
            req(ids[2], ids[1], ids[3]),
        ])
        .unwrap_err();
        assert_eq!(err, PlanHazard::CrossAlias { writer: 0, reader: 1 });
    }

    #[test]
    fn override_beats_env_and_default() {
        set_verify_override(Some(true));
        assert!(verifier_enabled());
        set_verify_override(Some(false));
        assert!(!verifier_enabled());
        set_verify_override(None);
        let _ = verifier_enabled(); // env/profile default; just must not panic
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
            (PlanHazard::DoubleRelease { buf: "b".into() }, "twice"),
            (PlanHazard::ReleaseUnleased { buf: "b".into() }, "never acquired"),
            (PlanHazard::UnreleasedLease { count: 2 }, "unreleased"),
            (PlanHazard::SelfAlias { index: 0, operand: "x".into() }, "self-aliased"),
            (PlanHazard::CrossAlias { writer: 0, reader: 1 }, "operand of request"),
        ];
        for (h, needle) in cases {
            assert!(h.to_string().contains(needle), "{h}");
            let e: TfnoError = h.into();
            assert!(matches!(e, TfnoError::Validation(_)));
        }
    }
}
