//! Static launch-plan verifier: acceptance and mutation suites.
//!
//! **Acceptance** (zero false positives): with verification forced on, every
//! pipeline variant in 1D and 2D, stacked same-weight and mixed-weight
//! queues, warm calls, and property-sampled shapes must all run clean —
//! and produce output bitwise-identical to a verifier-off session. The
//! verifier is a proof pass, not a transformation.
//!
//! **Mutation** (no false negatives): a seeded defect from every hazard
//! class the verifier knows must be rejected, surfacing as
//! [`TfnoError::Validation`] before anything launches.
//!
//! The verify override is process-global, so every test that toggles it
//! runs under one mutex and restores the environment policy on exit
//! (including on panic).

use std::sync::Mutex;

use proptest::prelude::*;
use turbofno_suite::core::{
    check_queue_aliasing, set_verify_override, verifier_enabled, PlanHazard, PlanVerifier,
    QueueAccess, SpectralShape,
};
use turbofno_suite::culib::copy::{CopySegment, SegmentedCopyKernel};
use turbofno_suite::gpu_sim::{GpuDevice, Kernel};
use turbofno_suite::num::C32;
use turbofno_suite::{LayerSpec, Request, Session, TfnoError, Variant};

static OVERRIDE_GUARD: Mutex<()> = Mutex::new(());

/// Run `f` with the verifier forced to `mode`, serialized against every
/// other override-touching test, restoring the default policy afterwards
/// even if `f` panics.
fn with_override<R>(mode: Option<bool>, f: impl FnOnce() -> R) -> R {
    let _g = OVERRIDE_GUARD
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    set_verify_override(mode);
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    set_verify_override(None);
    match out {
        Ok(r) => r,
        Err(p) => std::panic::resume_unwind(p),
    }
}

fn rand_vec(len: usize, seed: f32) -> Vec<C32> {
    (0..len)
        .map(|i| {
            C32::new(
                ((i as f32) * 0.173 + seed).sin(),
                ((i as f32) * 0.307 - seed).cos(),
            )
        })
        .collect()
}

/// One full layer through a fresh session, returning the downloaded output.
fn run_once_1d(p: &SpectralShape, v: Variant) -> Vec<C32> {
    let mut sess = Session::a100();
    let x = sess.alloc("x", p.input_len());
    let w = sess.alloc("w", p.weight_len());
    let y = sess.alloc("y", p.output_len());
    sess.upload(x, &rand_vec(p.input_len(), 0.4));
    sess.upload(w, &rand_vec(p.weight_len(), 0.9));
    sess.run(&LayerSpec::from_shape(*p).variant(v), x, w, y);
    sess.download(y)
}

fn run_once_2d(p: &SpectralShape, v: Variant) -> Vec<C32> {
    let mut sess = Session::a100();
    let x = sess.alloc("x", p.input_len());
    let w = sess.alloc("w", p.weight_len());
    let y = sess.alloc("y", p.output_len());
    sess.upload(x, &rand_vec(p.input_len(), 0.2));
    sess.upload(w, &rand_vec(p.weight_len(), 0.7));
    sess.run(&LayerSpec::from_shape(*p).variant(v), x, w, y);
    sess.download(y)
}

// ---------------------------------------------------------------------------
// Acceptance: zero false positives, verifier-on ≡ verifier-off bitwise
// ---------------------------------------------------------------------------

#[test]
fn override_controls_gating() {
    with_override(Some(true), || assert!(verifier_enabled()));
    with_override(Some(false), || assert!(!verifier_enabled()));
}

/// Every concrete variant, 1D and 2D: the verified run completes (no false
/// positive) and is bitwise-identical to the unverified run — proving the
/// verifier observes without perturbing.
#[test]
fn all_variants_verified_match_unverified_bitwise() {
    let p1 = SpectralShape::d1(2, 9, 12, 128).with_modes(&[32]);
    let p2 = SpectralShape::d2(2, 10, 12, 32, 32).with_modes(&[16, 32]);
    for v in Variant::CONCRETE {
        let on_1d = with_override(Some(true), || run_once_1d(&p1, v));
        let off_1d = with_override(Some(false), || run_once_1d(&p1, v));
        assert_eq!(on_1d, off_1d, "{v:?} 1D: verifier changed the output");
        let on_2d = with_override(Some(true), || run_once_2d(&p2, v));
        let off_2d = with_override(Some(false), || run_once_2d(&p2, v));
        assert_eq!(on_2d, off_2d, "{v:?} 2D: verifier changed the output");
    }
}

/// Stacked queues under verification: same-weight and mixed-weight groups
/// coalesce into one gather, one pipeline and one scatter — the verifier
/// must accept both shapes clean.
#[test]
fn stacked_queues_verified_match_unverified_bitwise() {
    let run_queue = |mixed: bool| {
        let mut sess = Session::a100();
        let shape = SpectralShape::d1(2, 8, 12, 128).with_modes(&[32]);
        let spec = LayerSpec::from_shape(shape).variant(Variant::FullyFused);
        let shared_w = sess.alloc("w", spec.weight_len());
        sess.upload(shared_w, &rand_vec(spec.weight_len(), 0.9));
        let reqs: Vec<Request> = (0..3)
            .map(|i| {
                let x = sess.alloc(&format!("x{i}"), spec.input_len());
                let y = sess.alloc(&format!("y{i}"), spec.output_len());
                sess.upload(x, &rand_vec(spec.input_len(), 0.1 + i as f32));
                let w = if mixed {
                    let w = sess.alloc(&format!("w{i}"), spec.weight_len());
                    sess.upload(w, &rand_vec(spec.weight_len(), 0.5 + i as f32));
                    w
                } else {
                    shared_w
                };
                Request { spec, x, w, y }
            })
            .collect();
        sess.run_many(&reqs);
        reqs.iter()
            .flat_map(|r| sess.download(r.y))
            .collect::<Vec<C32>>()
    };
    for mixed in [false, true] {
        let on = with_override(Some(true), || run_queue(mixed));
        let off = with_override(Some(false), || run_queue(mixed));
        assert_eq!(on, off, "mixed={mixed}: verifier changed queue output");
    }
}

/// A warm call under verification: the second call is proven again on
/// recycled pool scratch, allocates nothing and is bitwise-equal.
#[test]
fn warm_replay_verified() {
    with_override(Some(true), || {
        // Rank 2, so the fused middle runs between pooled outer-axis stages.
        let p = SpectralShape::d2(1, 8, 8, 32, 64).with_modes(&[8, 32]);
        let spec = LayerSpec::from_shape(p).variant(Variant::FullyFused);
        let mut sess = Session::a100();
        let x = sess.alloc("x", spec.input_len());
        let w = sess.alloc("w", spec.weight_len());
        let y = sess.alloc("y", spec.output_len());
        sess.upload(x, &rand_vec(spec.input_len(), 0.4));
        sess.upload(w, &rand_vec(spec.weight_len(), 0.9));
        let cold_run = sess.run(&spec, x, w, y);
        let cold = sess.download(y);
        let pool = sess.pool_stats();
        sess.upload(y, &vec![C32::ZERO; spec.output_len()]);
        let warm_run = sess.run(&spec, x, w, y);
        let warm = sess.pool_stats();
        assert_eq!(warm.misses, pool.misses, "verified warm call allocated");
        assert!(warm.hits > pool.hits, "verified warm call ran on fresh scratch");
        assert_eq!(warm_run.total_stats(), cold_run.total_stats());
        assert_eq!(cold, sess.download(y), "warm call diverged from cold run");
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Property-sampled shapes: the verifier must accept every plan the
    /// engine itself produces — zero false positives across random
    /// batch/width/mode configurations.
    #[test]
    fn prop_verified_shapes_run_clean(
        batch in 1usize..4,
        k_in in 1usize..20,
        k_out in 1usize..20,
        n_pow in 6u32..8,
        nf_sel in 0usize..2,
    ) {
        let n = 1usize << n_pow;
        let nf = [32usize, 64][nf_sel].min(n);
        let p = SpectralShape::d1(batch, k_in, k_out, n).with_modes(&[nf]);
        let out = with_override(Some(true), || run_once_1d(&p, Variant::FullyFused));
        prop_assert!(out.iter().all(|c| c.re.is_finite() && c.im.is_finite()));
    }
}

// ---------------------------------------------------------------------------
// Mutation suite: every hazard class must be rejected as Validation
// ---------------------------------------------------------------------------

fn dev_with(lens: &[usize]) -> (GpuDevice, Vec<turbofno_suite::gpu_sim::BufferId>) {
    let mut dev = GpuDevice::a100();
    let ids = lens
        .iter()
        .enumerate()
        .map(|(i, &l)| dev.alloc(&format!("b{i}"), l))
        .collect();
    (dev, ids)
}

fn copy_kernel(
    tag: &str,
    segs: Vec<CopySegment>,
) -> SegmentedCopyKernel {
    SegmentedCopyKernel::new(tag, segs)
}

/// Assert the hazard surfaces as `TfnoError::Validation` through the
/// kernel-rejection path (the same conversion every run choke point uses).
fn assert_validation(hazard: PlanHazard, kernel: &dyn Kernel) {
    let err = hazard.rejecting(kernel);
    match err {
        TfnoError::Validation(msg) => {
            assert!(
                msg.contains("plan verifier rejected kernel"),
                "unexpected message: {msg}"
            );
        }
        other => panic!("hazard must surface as Validation, got {other:?}"),
    }
}

/// Hazard class 1: two blocks of one launch write overlapping elements.
#[test]
fn mutation_block_write_overlap() {
    let (dev, ids) = dev_with(&[64, 64]);
    let (src, dst) = (ids[0], ids[1]);
    let bad = copy_kernel(
        "overlap",
        vec![
            CopySegment { src, src_base: 0, dst, dst_base: 0, len: 40 },
            CopySegment { src, src_base: 8, dst, dst_base: 24, len: 40 },
        ],
    );
    let err = PlanVerifier::new().check_launch(&dev, &bad).unwrap_err();
    assert!(matches!(err, PlanHazard::BlockWriteOverlap { .. }), "{err}");
    assert_validation(err, &bad);
}

/// Hazard class 2: a write span past the end of its buffer.
#[test]
fn mutation_write_out_of_bounds() {
    let (dev, ids) = dev_with(&[64, 32]);
    let (src, dst) = (ids[0], ids[1]);
    let bad = copy_kernel(
        "oob-write",
        vec![CopySegment { src, src_base: 0, dst, dst_base: 16, len: 32 }],
    );
    let err = PlanVerifier::new().check_launch(&dev, &bad).unwrap_err();
    assert!(matches!(err, PlanHazard::WriteOutOfBounds { .. }), "{err}");
    assert_validation(err, &bad);
}

/// Hazard class 3: a read span past the end of its buffer.
#[test]
fn mutation_read_out_of_bounds() {
    let (dev, ids) = dev_with(&[32, 64]);
    let (src, dst) = (ids[0], ids[1]);
    let bad = copy_kernel(
        "oob-read",
        vec![CopySegment { src, src_base: 16, dst, dst_base: 0, len: 32 }],
    );
    let err = PlanVerifier::new().check_launch(&dev, &bad).unwrap_err();
    assert!(matches!(err, PlanHazard::ReadOutOfBounds { .. }), "{err}");
    assert_validation(err, &bad);
}

/// Hazard class 4: touching a buffer after its pool lease was released.
#[test]
fn mutation_use_after_release() {
    let (dev, ids) = dev_with(&[64, 64]);
    let (src, dst) = (ids[0], ids[1]);
    let mut v = PlanVerifier::new();
    v.acquire(dst);
    v.release(dst).expect("balanced release");
    let bad = copy_kernel(
        "use-after-release",
        vec![CopySegment { src, src_base: 0, dst, dst_base: 0, len: 16 }],
    );
    let err = v.check_launch(&dev, &bad).unwrap_err();
    assert!(matches!(err, PlanHazard::UseAfterRelease { .. }), "{err}");
    assert_validation(err, &bad);

    // Re-acquiring (pool recycling) revives the buffer.
    v.acquire(dst);
    v.check_launch(&dev, &bad).expect("recycled lease is live again");
}

/// Hazard classes 5–7: lease-ledger defects (double release, unleased
/// release, leaked lease at finish).
#[test]
fn mutation_lease_ledger_defects() {
    let (_, ids) = dev_with(&[64]);
    let b = ids[0];

    let mut v = PlanVerifier::new();
    v.acquire(b);
    v.release(b).expect("first release balanced");
    let err = v.release(b).unwrap_err();
    assert!(matches!(err, PlanHazard::DoubleRelease { .. }), "{err}");
    assert!(matches!(TfnoError::from(err), TfnoError::Validation(_)));

    let mut v = PlanVerifier::new();
    let err = v.release(b).unwrap_err();
    assert!(matches!(err, PlanHazard::ReleaseUnleased { .. }), "{err}");

    let mut v = PlanVerifier::new();
    v.acquire(b);
    let err = v.finish().unwrap_err();
    assert!(matches!(err, PlanHazard::UnreleasedLease { count: 1 }), "{err}");
    v.release(b).expect("balanced");
    v.finish().expect("balanced sequence finishes clean");
}

/// Hazard class 8: a queued request whose output aliases its own operand —
/// both directly and end-to-end through `try_run_many`, where the pinned
/// message must survive the delegation to the verifier.
#[test]
fn mutation_self_alias() {
    let (_, ids) = dev_with(&[64, 64]);
    let (x, w) = (ids[0], ids[1]);
    let err = check_queue_aliasing(&[QueueAccess {
        reads: vec![("x", x), ("w", w)],
        writes: vec![x],
    }])
    .unwrap_err();
    assert!(
        matches!(err, PlanHazard::SelfAlias { index: 0, ref operand } if operand == "x"),
        "{err}"
    );

    let mut sess = Session::a100();
    let shape = SpectralShape::d1(1, 8, 8, 64).with_modes(&[32]);
    let spec = LayerSpec::from_shape(shape).variant(Variant::FftOpt);
    let x = sess.alloc("x", spec.input_len().max(spec.output_len()));
    let w = sess.alloc("w", spec.weight_len());
    let err = sess
        .try_run_many(&[Request { spec, x, w, y: x }])
        .unwrap_err();
    match err {
        TfnoError::Validation(msg) => assert!(
            msg.contains("request 0 is self-aliased (y == x)"),
            "pinned message lost: {msg}"
        ),
        other => panic!("expected Validation, got {other:?}"),
    }
}

/// Hazard class 9: chained queue requests (one request's output is another
/// request's operand), rejected end-to-end with the pinned message.
#[test]
fn mutation_cross_alias() {
    let err = check_queue_aliasing(&[
        QueueAccess {
            reads: vec![],
            writes: vec![dev_buf(0)],
        },
        QueueAccess {
            reads: vec![("x", dev_buf(0))],
            writes: vec![dev_buf(1)],
        },
    ])
    .unwrap_err();
    assert!(
        matches!(err, PlanHazard::CrossAlias { writer: 0, reader: 1 }),
        "{err}"
    );

    let mut sess = Session::a100();
    let shape = SpectralShape::d1(1, 8, 8, 64).with_modes(&[32]);
    let spec = LayerSpec::from_shape(shape).variant(Variant::FftOpt);
    let x = sess.alloc("x", spec.input_len());
    let w = sess.alloc("w", spec.weight_len());
    let y = sess.alloc("y", spec.output_len().max(spec.input_len()));
    let y2 = sess.alloc("y2", spec.output_len());
    let err = sess
        .try_run_many(&[
            Request { spec, x, w, y },
            Request { spec, x: y, w, y: y2 },
        ])
        .unwrap_err();
    match err {
        TfnoError::Validation(msg) => assert!(
            msg.contains("must not alias outputs")
                && msg.contains("request 0's y is an operand of request 1"),
            "pinned message lost: {msg}"
        ),
        other => panic!("expected Validation, got {other:?}"),
    }
}

/// A stable fake BufferId for pure `check_queue_aliasing` calls (no device
/// needed — the check is purely structural).
fn dev_buf(i: usize) -> turbofno_suite::gpu_sim::BufferId {
    static IDS: Mutex<Option<Vec<turbofno_suite::gpu_sim::BufferId>>> = Mutex::new(None);
    let mut slot = IDS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let ids = slot.get_or_insert_with(|| {
        let mut dev = GpuDevice::a100();
        (0..4).map(|k| dev.alloc(&format!("q{k}"), 8)).collect()
    });
    ids[i]
}
