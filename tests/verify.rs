//! Static launch-plan check: acceptance and mutation suites.
//!
//! **Acceptance** (zero false positives): with verification forced on, every
//! pipeline variant at ranks 1-3, stacked same-weight and mixed-weight
//! queues, warm calls, and property-sampled shapes must all run clean —
//! and produce output bitwise-identical to a verifier-off session. The
//! check is a proof pass, not a transformation.
//!
//! **Mutation** (no false negatives): a seeded defect from every hazard
//! class `check_launch` knows must be rejected, and through a `Session`
//! it surfaces as [`TfnoError::Validation`] before anything launches.
//! The queue aliasing rules are admission checks; their end-to-end
//! messages are pinned here too.
//!
//! The verify override is process-global, so every test that toggles it
//! runs under one mutex and restores the environment policy on exit
//! (including on panic).

use std::sync::Mutex;

use proptest::prelude::*;
use turbofno_suite::core::{
    check_launch, set_verify_override, verifier_enabled, PlanHazard, SpectralShape,
};
use turbofno_suite::culib::copy::{CopySegment, SegmentedCopyKernel};
use turbofno_suite::gpu_sim::GpuDevice;
use turbofno_suite::num::C32;
use turbofno_suite::{BufferPool, LayerSpec, Request, Session, TfnoError, Variant};

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

/// [`run_once_1d`] with the seeds the multi-axis shapes use.
fn run_once_nd(p: &SpectralShape, v: Variant) -> Vec<C32> {
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

/// Every concrete variant, ranks 1-3: the verified run completes (no false
/// positive) and is bitwise-identical to the unverified run — proving the
/// verifier observes without perturbing. The PyTorch baseline's launches
/// (full FFTs along every axis, the corner copies) go through the same
/// verifier as the Turbo stages.
#[test]
fn all_variants_verified_match_unverified_bitwise() {
    let p1 = SpectralShape::d1(2, 9, 12, 128).with_modes(&[32]);
    let p2 = SpectralShape::d2(2, 10, 12, 32, 32).with_modes(&[16, 32]);
    let p3 = SpectralShape::d3(1, 4, 6, 8, 16, 64).with_modes(&[4, 8, 32]);
    for v in Variant::CONCRETE {
        let on_1d = with_override(Some(true), || run_once_1d(&p1, v));
        let off_1d = with_override(Some(false), || run_once_1d(&p1, v));
        assert_eq!(on_1d, off_1d, "{v:?} 1D: verifier changed the output");
        for (rank, p) in [(2, &p2), (3, &p3)] {
            let on = with_override(Some(true), || run_once_nd(p, v));
            let off = with_override(Some(false), || run_once_nd(p, v));
            assert_eq!(on, off, "{v:?} {rank}D: verifier changed the output");
        }
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
// Mutation suite: every hazard class must be rejected
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
    let err = check_launch(&dev, &BufferPool::new(), &bad).unwrap_err();
    assert!(matches!(err, PlanHazard::BlockWriteOverlap { .. }), "{err}");
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
    let err = check_launch(&dev, &BufferPool::new(), &bad).unwrap_err();
    assert!(matches!(err, PlanHazard::WriteOutOfBounds { .. }), "{err}");
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
    let err = check_launch(&dev, &BufferPool::new(), &bad).unwrap_err();
    assert!(matches!(err, PlanHazard::ReadOutOfBounds { .. }), "{err}");
}

/// Hazard class 4: a launch naming a buffer whose pool lease was
/// released (it sits in the pool's free list).
#[test]
fn mutation_use_after_release() {
    let mut dev = GpuDevice::a100();
    let mut pool = BufferPool::new();
    let src = dev.alloc("src", 64);
    let dst = pool.acquire(&mut dev, 64);
    pool.release(&dev, dst);
    let bad = copy_kernel(
        "use-after-release",
        vec![CopySegment { src, src_base: 0, dst, dst_base: 0, len: 16 }],
    );
    let err = check_launch(&dev, &pool, &bad).unwrap_err();
    assert!(matches!(err, PlanHazard::UseAfterRelease { .. }), "{err}");

    // Re-leasing (pool recycling) revives the buffer.
    assert_eq!(pool.acquire(&mut dev, 64), dst);
    check_launch(&dev, &pool, &bad).expect("recycled lease is live again");
}

/// Hazard class 4 end to end: a `run` that names a lease the caller
/// already released is rejected as `Validation` before anything launches.
/// `FftOpt` at rank 1 with fewer modes than points leases scratch of other
/// lengths, so no scratch class recycles the released buffer.
#[test]
fn run_on_a_released_lease_is_rejected_before_launch() {
    with_override(Some(true), || {
        let shape = SpectralShape::d1(1, 8, 8, 64).with_modes(&[32]);
        let spec = LayerSpec::from_shape(shape).variant(Variant::FftOpt);
        let mut sess = Session::a100();
        let x = sess.acquire(spec.input_len());
        let w = sess.alloc("w", spec.weight_len());
        let y = sess.alloc("y", spec.output_len());
        sess.release(x);
        match sess.try_run(&spec, x, w, y) {
            Err(TfnoError::Validation(msg)) => assert!(
                msg.contains("plan verifier rejected kernel")
                    && msg.contains("after its pool lease was released"),
                "unexpected message: {msg}"
            ),
            other => panic!("expected Validation, got {other:?}"),
        }
        assert!(sess.device().launches().is_empty(), "nothing may launch");
        assert_eq!(sess.pool_stats().leased, 0, "the rejected run leaked a lease");
    });
}

/// Admission rule: a queued request whose output aliases its own operand
/// is rejected end-to-end through `try_run_many` with the pinned message.
#[test]
fn mutation_self_alias() {
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

/// Admission rule: chained queue requests (one request's output is
/// another request's operand), rejected end-to-end with the pinned
/// message.
#[test]
fn mutation_cross_alias() {
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
