//! Async layer dispatch: the overlapped `forward_device` schedule (device
//! launches in flight while the host runs the pointwise bypass) must be
//! **bitwise**-equal to the strictly sequential `forward_device_sync`
//! schedule — across every concrete pipeline variant, `TurboBest`, and
//! both dimensionalities — and the lockstep `forward_device_batch` queue
//! must reproduce solo forwards bitwise.
//!
//! CI additionally runs this file under `TFNO_THREADS=1`, pinning the
//! equality when every host-parallel loop (executor, pointwise, planner
//! fan-out) is forced serial and the only remaining concurrency is the
//! dispatch thread itself.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tfno_model::{Fno1d, Fno2d};
use tfno_num::{CTensor, C32};
use turbofno::{LayerSpec, Session, TurboOptions, Variant};

const ALL_VARIANTS: [Variant; 6] = [
    Variant::Pytorch,
    Variant::FftOpt,
    Variant::FusedFftGemm,
    Variant::FusedGemmIfft,
    Variant::FullyFused,
    Variant::TurboBest,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// 1D: for random model/input shapes, every variant's overlapped
    /// forward equals its synchronous forward bit for bit — same output
    /// data, same launch sequence length.
    #[test]
    fn prop_overlapped_1d_forward_is_bitwise_equal(
        seed in 0u64..1000,
        batch in 1usize..3,
        width_sel in 0usize..2,
        layers in 1usize..3,
    ) {
        let width = [4usize, 8][width_sel];
        let mut rng = StdRng::seed_from_u64(seed);
        let model = Fno1d::random(&mut rng, 2, width, 1, layers, 128, 32);
        let x = CTensor::random(&mut rng, &[batch, 2, 128]);
        let opts = TurboOptions::default();
        let mut sess = Session::a100();
        for v in ALL_VARIANTS {
            let (want, run_sync) = model.forward_device_sync(&mut sess, v, &opts, &x);
            let (got, run_over) = model.forward_device(&mut sess, v, &opts, &x);
            prop_assert_eq!(
                got.data(),
                want.data(),
                "overlapped 1D forward diverged for {:?}",
                v
            );
            prop_assert_eq!(run_over.kernel_count(), run_sync.kernel_count());
        }
        prop_assert_eq!(sess.pool_stats().leased, 0, "leases leaked across schedules");
    }

    /// 2D: same property over the 2D forward paths.
    #[test]
    fn prop_overlapped_2d_forward_is_bitwise_equal(
        seed in 0u64..1000,
        batch in 1usize..3,
        layers in 1usize..3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let model = Fno2d::random(&mut rng, 1, 8, 1, layers, 32, 64, 8, 32);
        let x = CTensor::random(&mut rng, &[batch, 1, 32, 64]);
        let opts = TurboOptions::default();
        let mut sess = Session::a100();
        for v in ALL_VARIANTS {
            let (want, run_sync) = model.forward_device_sync(&mut sess, v, &opts, &x);
            let (got, run_over) = model.forward_device(&mut sess, v, &opts, &x);
            prop_assert_eq!(
                got.data(),
                want.data(),
                "overlapped 2D forward diverged for {:?}",
                v
            );
            prop_assert_eq!(run_over.kernel_count(), run_sync.kernel_count());
        }
        prop_assert_eq!(sess.pool_stats().leased, 0, "leases leaked across schedules");
    }

    /// The lockstep batch queue (stacked spectral launches + overlapped
    /// host pointwise) reproduces each solo synchronous forward bitwise,
    /// for any queue length.
    #[test]
    fn prop_batch_forward_matches_solo_forwards(
        seed in 0u64..1000,
        k in 1usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let model = Fno1d::random(&mut rng, 1, 8, 1, 2, 128, 32);
        let xs: Vec<CTensor> = (0..k).map(|_| CTensor::random(&mut rng, &[1, 1, 128])).collect();
        let opts = TurboOptions::default();
        let mut sess = Session::a100();
        let solo: Vec<CTensor> = xs
            .iter()
            .map(|x| model.forward_device_sync(&mut sess, Variant::TurboBest, &opts, x).0)
            .collect();
        let batch = model.forward_device_batch(&mut sess, Variant::TurboBest, &opts, &xs);
        prop_assert_eq!(batch.len(), k);
        for (j, ((got, _), want)) in batch.iter().zip(&solo).enumerate() {
            prop_assert_eq!(got.data(), want.data(), "batched forward {} diverged", j);
        }
        prop_assert_eq!(sess.pool_stats().leased, 0, "batch forward leaked leases");
    }
}

/// The 2D batch path gets one pinned (non-property) equality check — its
/// request shapes exercise the 2D stacking geometry.
#[test]
fn batch_forward_2d_matches_solo_forwards() {
    let mut rng = StdRng::seed_from_u64(77);
    let model = Fno2d::random(&mut rng, 1, 8, 1, 2, 32, 64, 8, 32);
    let xs: Vec<CTensor> = (0..3).map(|_| CTensor::random(&mut rng, &[1, 1, 32, 64])).collect();
    let opts = TurboOptions::default();
    let mut sess = Session::a100();
    let solo: Vec<CTensor> = xs
        .iter()
        .map(|x| model.forward_device_sync(&mut sess, Variant::TurboBest, &opts, x).0)
        .collect();
    let batch = model.forward_device_batch(&mut sess, Variant::TurboBest, &opts, &xs);
    for (j, ((got, _), want)) in batch.iter().zip(&solo).enumerate() {
        assert_eq!(got.data(), want.data(), "2D batched forward {j} diverged");
    }
    assert_eq!(sess.pool_stats().leased, 0);
}

/// Interleaving independent host work between submit and wait is the
/// intended usage pattern; the session serializes everything else. This
/// pins the user-visible contract: a dispatch is pending until a
/// synchronizing call, `&mut` access is always safe, and results are
/// parked across interleaved synchronous work.
#[test]
fn dispatch_interleaving_contract() {
    let mut rng = StdRng::seed_from_u64(78);
    let model = Fno1d::random(&mut rng, 1, 8, 1, 1, 128, 32);
    let x = CTensor::random(&mut rng, &[1, 1, 128]);
    let opts = TurboOptions::default();
    let mut sess = Session::a100();
    let h = tfno_model::pointwise(&x, &model.lift);

    let pending = model.layers[0]
        .spectral
        .submit_device(&mut sess, Variant::FftOpt, &opts, &h);
    assert!(sess.pending(), "spectral dispatch must be in flight");
    // Independent host work while the launches execute.
    let p = tfno_model::pointwise(&h, &model.layers[0].bypass);
    let (s, run) = pending.finish(&mut sess);
    assert!(!sess.pending());
    assert_eq!(run.kernel_count(), 3, "FftOpt is FFT + CGEMM + iFFT");
    let joined = tfno_model::add_gelu(&s, &p);

    // The layer-level overlapped path is exactly that composition.
    let (want, _) = model.layers[0].forward_device_sync(&mut sess, Variant::FftOpt, &opts, &h);
    assert_eq!(joined.data(), want.data());
}

fn seeded(len: usize, seed: f32) -> Vec<C32> {
    (0..len)
        .map(|i| {
            C32::new(
                ((i as f32) * 0.131 + seed).sin(),
                ((i as f32) * 0.229 - seed).cos(),
            )
        })
        .collect()
}

/// Satellite regression: a session runs ONE long-lived dispatch thread,
/// reused across every submit — an earlier implementation spawned (and
/// joined) a fresh OS thread per submit.
#[test]
fn submits_reuse_one_dispatch_thread() {
    let spec = LayerSpec::d1(1, 8, 8, 128).modes(32).variant(Variant::FftOpt);
    let mut sess = Session::a100();
    let x = sess.alloc("x", spec.input_len());
    let w = sess.alloc("w", spec.weight_len());
    sess.upload(x, &seeded(spec.input_len(), 0.4));
    sess.upload(w, &seeded(spec.weight_len(), 0.7));
    let ys: Vec<_> = (0..8).map(|_| sess.alloc("y", spec.output_len())).collect();

    for &y in &ys {
        let h = sess.submit(&spec, x, w, y);
        let run = sess.wait(h);
        assert!(run.kernel_count() > 0);
    }
    let stats = sess.dispatch_stats();
    assert_eq!(
        stats.threads_spawned, 1,
        "every submit must reuse the session's one dispatch thread"
    );
    assert_eq!(stats.jobs_dispatched, 8);
    // Each submit used a distinct y; all outputs agree.
    let want = sess.download(ys[0]);
    for &y in &ys[1..] {
        assert_eq!(sess.download(y), want);
    }
}

/// Deep pipelining: with depth D, up to D submits ride the in-order queue
/// concurrently, submits past that apply backpressure instead of
/// reordering, and the results are bitwise-equal to synchronous runs.
#[test]
fn deep_pipeline_keeps_submits_in_flight_and_bitwise_equal() {
    let spec = LayerSpec::d1(1, 8, 8, 128).modes(32).variant(Variant::FftOpt);

    let mut sync = Session::a100();
    let sx = sync.alloc("x", spec.input_len());
    let sw = sync.alloc("w", spec.weight_len());
    let sy = sync.alloc("y", spec.output_len());
    sync.upload(sx, &seeded(spec.input_len(), 1.2));
    sync.upload(sw, &seeded(spec.weight_len(), 2.1));
    sync.run(&spec, sx, sw, sy);
    let want = sync.download(sy);

    let mut sess = Session::a100();
    sess.set_pipeline_depth(4);
    assert_eq!(sess.pipeline_depth(), 4);
    let x = sess.alloc("x", spec.input_len());
    let w = sess.alloc("w", spec.weight_len());
    sess.upload(x, &seeded(spec.input_len(), 1.2));
    sess.upload(w, &seeded(spec.weight_len(), 2.1));
    let ys: Vec<_> = (0..6).map(|_| sess.alloc("y", spec.output_len())).collect();

    // Six submits against depth 4: the last two must wait for a slot, and
    // none of it drains the session.
    let handles: Vec<_> = ys.iter().map(|&y| sess.submit(&spec, x, w, y)).collect();
    assert!(sess.pending(), "submits must leave the pipeline in flight");
    let stats = sess.dispatch_stats();
    assert!(
        stats.max_in_flight <= 4,
        "backpressure must cap the in-flight depth at 4 (saw {})",
        stats.max_in_flight
    );
    assert!(
        stats.max_in_flight >= 3,
        "six eager submits should actually fill the pipeline (saw {})",
        stats.max_in_flight
    );
    for h in handles {
        sess.wait(h);
    }
    assert!(!sess.pending());
    for &y in &ys {
        assert_eq!(sess.download(y), want, "pipelined submit diverged");
    }
    assert_eq!(sess.dispatch_stats().threads_spawned, 1);
}

/// Depth 1 degenerates to the PR 5 contract — at most one job in flight —
/// without changing results.
#[test]
fn depth_one_serializes_submits() {
    let spec = LayerSpec::d1(1, 6, 6, 64).modes(32).variant(Variant::FullyFused);
    let mut sess = Session::a100();
    sess.set_pipeline_depth(1);
    let x = sess.alloc("x", spec.input_len());
    let w = sess.alloc("w", spec.weight_len());
    sess.upload(x, &seeded(spec.input_len(), 0.9));
    sess.upload(w, &seeded(spec.weight_len(), 0.2));
    let y1 = sess.alloc("y1", spec.output_len());
    let y2 = sess.alloc("y2", spec.output_len());
    let h1 = sess.submit(&spec, x, w, y1);
    let h2 = sess.submit(&spec, x, w, y2);
    assert_eq!(sess.dispatch_stats().max_in_flight, 1);
    sess.wait(h1);
    sess.wait(h2);
    assert_eq!(sess.download(y1), sess.download(y2));
}
