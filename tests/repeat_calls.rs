//! Repeated calls on one session: the second call of a request must be
//! **bitwise**-equal to the first and to a fresh session's, for every
//! variant and dimensionality, and must report equal launch records. It
//! must re-read operand buffers (warm state is plans, pooled scratch and
//! shared kernel structure, never outputs), and recycled pool scratch
//! must never leak one call's values into another when the shape, the
//! variant, the stack depth or the weight-stacking layout changes.
//!
//! CI additionally runs this file under `TFNO_THREADS=1`.

use proptest::prelude::*;
use std::collections::HashMap;
use tfno_gpu_sim::{BufferId, LaunchRecord};
use tfno_num::C32;
use turbofno::{AnyBackend, LayerSpec, Request, Session, SimBackend, Variant};

fn rand_vec(len: usize, seed: f32) -> Vec<C32> {
    (0..len)
        .map(|i| {
            C32::new(
                ((i as f32) * 0.157 + seed).sin(),
                ((i as f32) * 0.283 - seed).cos(),
            )
        })
        .collect()
}

/// Run `spec` cold and warm in one session (same operands), proving the
/// warm call allocated nothing, planned nothing and rewrote the output;
/// returns the agreed output bits.
fn cold_then_warm(sess: &mut Session<AnyBackend>, spec: &LayerSpec, x_seed: f32, w_seed: f32) -> Vec<C32> {
    let x = sess.alloc("x", spec.input_len());
    let w = sess.alloc("w", spec.weight_len());
    let y = sess.alloc("y", spec.output_len());
    sess.upload(x, &rand_vec(spec.input_len(), x_seed));
    sess.upload(w, &rand_vec(spec.weight_len(), w_seed));

    let cold = sess.run(spec, x, w, y);
    let cold_out = sess.download(y);

    // Clobber the output so a warm call that failed to re-execute the
    // scatter/epilogue would be caught bitwise.
    sess.upload(y, &vec![C32::ZERO; spec.output_len()]);

    let (pool, plans) = (sess.pool_stats(), sess.planner_stats());
    let warm = sess.run(spec, x, w, y);
    let warm_out = sess.download(y);

    assert_eq!(cold_out, warm_out, "warm run diverged from cold run");
    assert_eq!(warm.kernel_count(), cold.kernel_count());
    assert_eq!(warm.total_stats(), cold.total_stats());
    assert_eq!(
        sess.pool_stats().misses,
        pool.misses,
        "{:?}: warm call allocated",
        spec.variant
    );
    assert_eq!(
        sess.planner_stats().simulated_launches,
        plans.simulated_launches,
        "{:?}: warm call planned",
        spec.variant
    );
    cold_out
}

/// Acceptance bar: for every concrete variant × {1D, 2D} (plus
/// `TurboBest`), the second forward is bitwise-equal to the first and to
/// a fresh session's forward.
#[test]
fn warm_replay_is_bitwise_equal_all_variants() {
    let mut variants = Variant::CONCRETE.to_vec();
    variants.push(Variant::TurboBest);
    for v in variants {
        let spec1 = LayerSpec::d1(2, 8, 8, 128).modes(32).variant(v);
        let spec2 = LayerSpec::d2(1, 6, 8, 32, 64).modes_xy(8, 32).variant(v);
        for spec in [spec1, spec2] {
            let mut warm_sess = Session::a100();
            let agreed = cold_then_warm(&mut warm_sess, &spec, 0.3, 0.8);

            let mut fresh = Session::a100();
            let x = fresh.alloc("x", spec.input_len());
            let w = fresh.alloc("w", spec.weight_len());
            let y = fresh.alloc("y", spec.output_len());
            fresh.upload(x, &rand_vec(spec.input_len(), 0.3));
            fresh.upload(w, &rand_vec(spec.weight_len(), 0.8));
            fresh.run(&spec, x, w, y);
            assert_eq!(
                fresh.download(y),
                agreed,
                "{v:?}: warm session != fresh session"
            );
        }
    }
}

/// A warm call re-reads operands at launch time: uploading new input
/// between calls must produce the new answer, not the previous call's.
#[test]
fn replay_reads_current_operand_values() {
    let spec = LayerSpec::d1(1, 8, 8, 128).modes(32).variant(Variant::FullyFused);
    let mut sess = Session::a100();
    let x = sess.alloc("x", spec.input_len());
    let w = sess.alloc("w", spec.weight_len());
    let y = sess.alloc("y", spec.output_len());
    sess.upload(w, &rand_vec(spec.weight_len(), 0.5));
    for round in 0..3 {
        let xd = rand_vec(spec.input_len(), 1.0 + round as f32);
        sess.upload(x, &xd);
        sess.run(&spec, x, w, y);

        let mut fresh = Session::a100();
        let fx = fresh.alloc("x", spec.input_len());
        let fw = fresh.alloc("w", spec.weight_len());
        let fy = fresh.alloc("y", spec.output_len());
        fresh.upload(fx, &xd);
        fresh.upload(fw, &rand_vec(spec.weight_len(), 0.5));
        fresh.run(&spec, fx, fw, fy);
        assert_eq!(
            sess.download(y),
            fresh.download(fy),
            "round {round}: warm call served stale values"
        );
    }
}

/// Clearing the planner drops its cached `TurboBest` decision: the next
/// call plans again (one more planner miss) and writes the same output.
#[test]
fn planner_clear_invalidates_turbo_best_artifacts() {
    let spec = LayerSpec::d1(2, 8, 8, 128).modes(32); // TurboBest default
    let mut sess = Session::a100();
    let x = sess.alloc("x", spec.input_len());
    let w = sess.alloc("w", spec.weight_len());
    let y = sess.alloc("y", spec.output_len());
    sess.upload(x, &rand_vec(spec.input_len(), 0.9));
    sess.upload(w, &rand_vec(spec.weight_len(), 0.1));

    sess.run(&spec, x, w, y);
    sess.run(&spec, x, w, y);
    let want = sess.download(y);
    let misses = sess.planner_stats().misses;

    sess.planner().clear();
    sess.upload(y, &vec![C32::ZERO; spec.output_len()]);
    sess.run(&spec, x, w, y);
    assert_eq!(
        sess.planner_stats().misses,
        misses + 1,
        "planner clear must re-plan"
    );
    assert_eq!(sess.download(y), want);
}

/// Per-iteration operand slots for the queue property: reused across
/// iterations so identical queue layouts recycle the same pooled scratch.
struct Slots {
    sess: Session<AnyBackend>,
    x: Vec<BufferId>,
    w: Vec<BufferId>,
    y: Vec<BufferId>,
    shared_w: BufferId,
}

impl Slots {
    fn new(spec: &LayerSpec, cap: usize) -> Self {
        let mut sess = Session::a100();
        let shared_w = sess.alloc("w_shared", spec.weight_len());
        let x = (0..cap).map(|_| sess.alloc("x", spec.input_len())).collect();
        let w = (0..cap).map(|_| sess.alloc("w", spec.weight_len())).collect();
        let y = (0..cap).map(|_| sess.alloc("y", spec.output_len())).collect();
        Slots {
            sess,
            x,
            w,
            y,
            shared_w,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Property: over a random sequence of serving calls that mutate the
    /// stack depth and the weight-stacking layout between warm calls —
    /// with fresh operand values every iteration — every output is
    /// bitwise-equal to a fresh session running that request alone, and
    /// every pooled staging lease comes back.
    #[test]
    fn prop_queue_mutations_never_serve_stale(
        // Each element encodes a (stack depth 1..=3, mixed-weights) pair.
        rounds in proptest::collection::vec(0usize..6, 2..6),
    ) {
        let spec = LayerSpec::d1(1, 6, 6, 64).modes(32).variant(Variant::FftOpt);
        let mut slots = Slots::new(&spec, 3);
        for (round, code) in rounds.into_iter().enumerate() {
            let (depth, mixed) = (code % 3 + 1, code >= 3);
            let base = 10.0 * round as f32;
            slots.sess.upload(slots.shared_w, &rand_vec(spec.weight_len(), base + 9.0));
            let reqs: Vec<Request> = (0..depth)
                .map(|i| {
                    let (x, y) = (slots.x[i], slots.y[i]);
                    slots.sess.upload(x, &rand_vec(spec.input_len(), base + i as f32));
                    let w = if mixed {
                        slots.sess.upload(
                            slots.w[i],
                            &rand_vec(spec.weight_len(), base + 20.0 + i as f32),
                        );
                        slots.w[i]
                    } else {
                        slots.shared_w
                    };
                    Request { spec, x, w, y }
                })
                .collect();
            slots.sess.run_many(&reqs);

            for (i, r) in reqs.iter().enumerate() {
                let mut fresh = Session::a100();
                let fx = fresh.alloc("x", spec.input_len());
                let fw = fresh.alloc("w", spec.weight_len());
                let fy = fresh.alloc("y", spec.output_len());
                fresh.upload(fx, &rand_vec(spec.input_len(), base + i as f32));
                let w_seed = if mixed { base + 20.0 + i as f32 } else { base + 9.0 };
                fresh.upload(fw, &rand_vec(spec.weight_len(), w_seed));
                fresh.run(&spec, fx, fw, fy);
                prop_assert_eq!(
                    slots.sess.download(r.y),
                    fresh.download(fy),
                    "round {} request {} (depth {}, mixed {}) diverged",
                    round, i, depth, mixed
                );
            }
        }
        prop_assert_eq!(slots.sess.pool_stats().leased, 0);
    }

    /// Property: a random interleaving of single-layer calls that mutate
    /// shape and variant between warm calls never serves stale — each call
    /// is bitwise-equal to a fresh session's answer, warm or cold.
    #[test]
    fn prop_spec_mutations_never_serve_stale(
        ops in proptest::collection::vec(0usize..4, 3..10),
    ) {
        let specs = [
            LayerSpec::d1(1, 6, 6, 64).modes(32).variant(Variant::FftOpt),
            LayerSpec::d1(1, 6, 6, 64).modes(16).variant(Variant::FftOpt),
            LayerSpec::d1(2, 6, 6, 64).modes(32).variant(Variant::FftOpt),
            LayerSpec::d1(1, 6, 6, 64).modes(32).variant(Variant::FullyFused),
        ];
        let mut sess = Session::a100();
        // One operand set per spec, created lazily and reused across repeats.
        let mut bufs: HashMap<usize, (BufferId, BufferId, BufferId)> = HashMap::new();
        for (call, sel) in ops.into_iter().enumerate() {
            let spec = specs[sel];
            let (x, w, y) = *bufs.entry(sel).or_insert_with(|| {
                let x = sess.alloc("x", spec.input_len());
                let w = sess.alloc("w", spec.weight_len());
                let y = sess.alloc("y", spec.output_len());
                (x, w, y)
            });
            let base = 5.0 * call as f32;
            sess.upload(x, &rand_vec(spec.input_len(), base));
            sess.upload(w, &rand_vec(spec.weight_len(), base + 0.5));
            sess.run(&spec, x, w, y);

            let mut fresh = Session::a100();
            let fx = fresh.alloc("x", spec.input_len());
            let fw = fresh.alloc("w", spec.weight_len());
            let fy = fresh.alloc("y", spec.output_len());
            fresh.upload(fx, &rand_vec(spec.input_len(), base));
            fresh.upload(fw, &rand_vec(spec.weight_len(), base + 0.5));
            fresh.run(&spec, fx, fw, fy);
            prop_assert_eq!(
                sess.download(y),
                fresh.download(fy),
                "call {} (spec {}) diverged", call, sel
            );
        }
    }
}

/// Worker-count parity: a warm forward on a single-worker device is
/// bitwise-equal to one on a multi-worker device (the executor is
/// deterministic on every call, not just the first).
#[test]
fn replay_is_bitwise_equal_across_worker_counts() {
    let spec = LayerSpec::d1(2, 8, 8, 128).modes(32).variant(Variant::FullyFused);
    let warm_out = |workers: Option<usize>| {
        let mut dev = SimBackend::a100();
        if let Some(n) = workers {
            dev.set_workers(Some(n));
        }
        let mut sess = Session::new(dev);
        let x = sess.alloc("x", spec.input_len());
        let w = sess.alloc("w", spec.weight_len());
        let y = sess.alloc("y", spec.output_len());
        sess.upload(x, &rand_vec(spec.input_len(), 0.7));
        sess.upload(w, &rand_vec(spec.weight_len(), 0.4));
        sess.run(&spec, x, w, y);
        sess.upload(y, &vec![C32::ZERO; spec.output_len()]);
        sess.run(&spec, x, w, y); // warm
        sess.download(y)
    };
    let single = warm_out(Some(1));
    let multi = warm_out(Some(4));
    let default = warm_out(None);
    assert_eq!(single, multi, "workers=1 warm call != workers=4 warm call");
    assert_eq!(
        single, default,
        "workers=1 warm call != default-workers warm call"
    );
}

/// Field-for-field equality of two launch sequences (`time_us` by bits).
fn assert_same_records(cold: &[LaunchRecord], warm: &[LaunchRecord], what: &str) {
    assert_eq!(cold.len(), warm.len(), "{what}: launch count");
    for (i, (c, w)) in cold.iter().zip(warm).enumerate() {
        assert_eq!(c.name, w.name, "{what}: launch {i} name");
        assert_eq!(c.dims_grid, w.dims_grid, "{what}: launch {i} grid");
        assert_eq!(c.stats, w.stats, "{what}: launch {i} ({}) stats", c.name);
        assert_eq!(
            c.time_us.to_bits(),
            w.time_us.to_bits(),
            "{what}: launch {i} ({}) time_us",
            c.name
        );
    }
}

/// A sim session with the metered launch cross-check on or off.
fn sim_session(validate_writes: bool) -> Session<SimBackend> {
    let mut dev = SimBackend::a100();
    dev.validate_writes = validate_writes;
    Session::new(dev)
}

/// Record-equality pin: for every concrete variant plus `TurboBest` at
/// ranks 1-3, the warm call's launch records equal the cold call's, with
/// the launch cross-check both off (memoized counts attached unmetered)
/// and on (blocks metered and compared against those counts).
#[test]
fn warm_replay_records_equal_cold_records() {
    let shapes = [
        LayerSpec::d1(2, 8, 8, 128).modes(32),
        LayerSpec::d2(1, 6, 8, 32, 64).modes_xy(8, 32),
        LayerSpec::d3(1, 6, 4, 8, 16, 32).modes_xyz(4, 8, 32),
    ];
    let mut variants = Variant::CONCRETE.to_vec();
    variants.push(Variant::TurboBest);
    for validate in [false, true] {
        for base in shapes {
            for &v in &variants {
                let spec = base.variant(v);
                let what = format!("{v:?} rank {} validate_writes={validate}", spec.shape().rank);
                let mut sess = sim_session(validate);
                let x = sess.alloc("x", spec.input_len());
                let w = sess.alloc("w", spec.weight_len());
                let y = sess.alloc("y", spec.output_len());
                sess.upload(x, &rand_vec(spec.input_len(), 0.6));
                sess.upload(w, &rand_vec(spec.weight_len(), 0.2));
                let cold = sess.run(&spec, x, w, y);
                let cold_out = sess.download(y);
                sess.upload(y, &vec![C32::ZERO; spec.output_len()]);
                let warm = sess.run(&spec, x, w, y);
                assert_eq!(sess.download(y), cold_out, "{what}: output");
                assert_same_records(&cold.launches, &warm.launches, &what);
                // The device history holds the same records the run returned.
                let history = sess.device().launches();
                assert_same_records(&warm.launches, &history[history.len() - warm.kernel_count()..], &what);
            }
        }
    }
}

/// The same pin over a serving queue: a mixed-weight stack (gather,
/// stacked pipeline, scatter) followed by a second shape group.
#[test]
fn warm_replay_records_equal_cold_records_stacked_queue() {
    let a = LayerSpec::d1(1, 6, 6, 64).modes(32).variant(Variant::FullyFused);
    let b = LayerSpec::d2(1, 4, 4, 16, 32).modes_xy(4, 32);
    for validate in [false, true] {
        let mut sess = sim_session(validate);
        let mut reqs = Vec::new();
        for (i, spec) in [a, a, a, b].into_iter().enumerate() {
            let x = sess.alloc("x", spec.input_len());
            let w = sess.alloc("w", spec.weight_len());
            let y = sess.alloc("y", spec.output_len());
            sess.upload(x, &rand_vec(spec.input_len(), i as f32));
            sess.upload(w, &rand_vec(spec.weight_len(), 7.0 + i as f32));
            reqs.push(Request { spec, x, w, y });
        }
        let cold = sess.run_many(&reqs);
        let warm = sess.run_many(&reqs);
        assert!(cold[0].launches.iter().any(|l| l.name == "serve.scatter"));
        for (i, (c, w)) in cold.iter().zip(&warm).enumerate() {
            let what = format!("request {i} validate_writes={validate}");
            assert_same_records(&c.launches, &w.launches, &what);
        }
    }
}
