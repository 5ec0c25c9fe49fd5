//! Workspace integration tests of the throughput engine: work-stealing
//! executor determinism, analytical launch memoization, and the cached
//! `TurboBest` planner — all through the `Session` execution surface.

use tfno_gpu_sim::{seq_memo_stats, ExecMode, GpuDevice};
use tfno_num::C32;
use turbofno::{
    FnoProblem1d, FnoProblem2d, LayerSpec, Planner, Session, SpectralShape, TurboOptions, Variant,
};

fn rand_vec(len: usize, seed: f32) -> Vec<C32> {
    (0..len)
        .map(|i| {
            C32::new(
                ((i as f32) * 0.113 + seed).sin(),
                ((i as f32) * 0.271 - seed).cos(),
            )
        })
        .collect()
}

/// Run one functional 1D pipeline on a session over a configured device;
/// returns the output bits and the total stats.
fn run_functional_1d(
    p: &FnoProblem1d,
    v: Variant,
    configure: impl FnOnce(&mut GpuDevice),
) -> (Vec<C32>, tfno_gpu_sim::KernelStats) {
    let mut dev = GpuDevice::a100();
    configure(&mut dev);
    let mut sess = Session::new(dev);
    let x = sess.alloc("x", p.input_len());
    let w = sess.alloc("w", p.weight_len());
    let y = sess.alloc("y", p.output_len());
    sess.upload(x, &rand_vec(p.input_len(), 0.3));
    sess.upload(w, &rand_vec(p.weight_len(), 0.8));
    let run = sess.run(&LayerSpec::from_problem_1d(p).variant(v), x, w, y);
    (sess.download(y), run.total_stats())
}

/// The work-stealing executor must be bitwise-deterministic and identical
/// to the serial path, for every concrete variant.
#[test]
fn parallel_executor_is_bitwise_deterministic() {
    let p = FnoProblem1d::new(2, 12, 16, 128, 32);
    for v in Variant::CONCRETE {
        let (serial, stats_serial) = run_functional_1d(&p, v, |d| d.parallel = false);
        let (par_a, stats_a) = run_functional_1d(&p, v, |d| d.set_workers(Some(4)));
        let (par_b, stats_b) = run_functional_1d(&p, v, |d| d.set_workers(Some(4)));
        assert_eq!(serial, par_a, "{v:?}: parallel != serial");
        assert_eq!(par_a, par_b, "{v:?}: parallel run not deterministic");
        assert_eq!(stats_serial, stats_a, "{v:?}: stats differ");
        assert_eq!(stats_a, stats_b, "{v:?}: stats not deterministic");
    }
}

/// Memoized analytical launches must return exactly the stats a fresh
/// (memo-disabled) analytical run records, across all five variants.
#[test]
fn memoized_analytical_equals_fresh_all_variants() {
    let p = FnoProblem1d::new(3, 16, 24, 128, 32);
    for v in Variant::CONCRETE {
        let run_analytical = |memo: bool| {
            let mut dev = GpuDevice::a100();
            dev.analytical_memo = memo;
            let mut sess = Session::new(dev);
            let x = sess.acquire_virtual(p.input_len());
            let w = sess.acquire_virtual(p.weight_len());
            let y = sess.acquire_virtual(p.output_len());
            let spec = LayerSpec::from_problem_1d(&p)
                .variant(v)
                .exec(ExecMode::Analytical);
            sess.run(&spec, x, w, y).total_stats()
        };
        let fresh = run_analytical(false);
        let memo_cold = run_analytical(true); // may or may not hit, depending on test order
        let memo_warm = run_analytical(true); // guaranteed warm after the previous call
        assert_eq!(fresh, memo_cold, "{v:?}: memoized != fresh");
        assert_eq!(fresh, memo_warm, "{v:?}: warm memoized != fresh");
    }
}

/// A warm repeat of an identical analytical measurement must be served
/// from the process-wide *sequence* memo — one lookup answers the whole
/// pipeline, zero launches issued (the per-kernel launch memo underneath
/// is pinned by the gpu-sim crate's own tests).
#[test]
fn repeated_analytical_launch_hits_memo() {
    let p = FnoProblem2d::new(1, 8, 8, 32, 64, 8, 32);
    let spec = LayerSpec::from_problem_2d(&p).variant(Variant::FullyFused);
    let launch = || Session::a100().measure(&spec).total_stats();
    let first = launch();
    let before = seq_memo_stats();
    let second = launch();
    let after = seq_memo_stats();
    assert_eq!(first, second);
    assert!(
        after.hits > before.hits,
        "pipeline repeat must hit the sequence memo: {before:?} -> {after:?}"
    );
}

/// Acceptance: the second `TurboBest` plan of an identical shape performs
/// zero simulated launches — a pure cache hit — and returns the same
/// variant a cold `pick_best` computes.
#[test]
fn second_turbo_best_plan_simulates_nothing() {
    let cfg = tfno_gpu_sim::DeviceConfig::a100();
    let opts = TurboOptions::default();
    let p1 = SpectralShape::from(&FnoProblem1d::new(2, 16, 16, 256, 64));
    let p2 = SpectralShape::from(&FnoProblem2d::new(1, 8, 8, 32, 64, 8, 32));

    let planner = Planner::new();
    let first_1d = planner.plan_shape(&cfg, &p1, &opts);
    let first_2d = planner.plan_shape(&cfg, &p2, &opts);
    let after_cold = planner.stats();
    assert_eq!(after_cold.misses, 2);
    assert!(after_cold.simulated_launches > 0);

    let second_1d = planner.plan_shape(&cfg, &p1, &opts);
    let second_2d = planner.plan_shape(&cfg, &p2, &opts);
    let after_warm = planner.stats();
    assert_eq!((second_1d, second_2d), (first_1d, first_2d));
    assert_eq!(after_warm.hits, 2);
    assert_eq!(
        after_warm.simulated_launches, after_cold.simulated_launches,
        "cache hits must not simulate any launch"
    );

    assert_eq!(first_1d, Planner::pick_best_shape(&cfg, &p1, &opts));
    assert_eq!(first_2d, Planner::pick_best_shape(&cfg, &p2, &opts));
}

/// `TurboBest` dispatches share the session's planner: an L-layer model
/// plans once per shape, not L times, and repeated forwards replan nothing.
#[test]
fn turbo_best_dispatch_uses_session_planner_cache() {
    let p = FnoProblem1d::new(2, 8, 8, 64, 32);
    let spec = LayerSpec::from_problem_1d(&p).variant(Variant::TurboBest);
    let mut sess = Session::a100();
    let x = sess.alloc("x", p.input_len());
    let w = sess.alloc("w", p.weight_len());
    let y = sess.alloc("y", p.output_len());
    sess.upload(x, &rand_vec(p.input_len(), 0.3));
    sess.upload(w, &rand_vec(p.weight_len(), 0.8));

    sess.run(&spec, x, w, y);
    let out_a = sess.download(y);
    let mid = sess.planner_stats();
    assert_eq!(mid.misses, 1);
    assert!(mid.simulated_launches > 0);

    sess.run(&spec, x, w, y);
    let out_b = sess.download(y);
    let after = sess.planner_stats();
    assert_eq!(out_a, out_b);
    assert_eq!(
        after.simulated_launches, mid.simulated_launches,
        "second dispatch of the same shape must not replan"
    );
    assert_eq!(
        after.hits,
        mid.hits + 1,
        "an identical call is a planner cache hit"
    );

    // A different output buffer, same shape: the planner answers from its
    // cache again without simulating anything.
    let y2 = sess.alloc("y2", p.output_len());
    sess.run(&spec, x, w, y2);
    let third = sess.planner_stats();
    assert_eq!(
        third.simulated_launches, mid.simulated_launches,
        "same shape must never replan"
    );
    assert_eq!(
        third.hits,
        after.hits + 1,
        "new buffers, same shape: planner cache hit"
    );
    assert_eq!(sess.download(y2), out_a);
}
