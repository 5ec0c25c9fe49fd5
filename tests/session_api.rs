//! Integration tests of the `Session` execution surface: batched
//! `run_many` semantics, planner/pool reuse guarantees, coalesced stacked
//! launches (same-weight *and* mixed-weight), the admission rules, and
//! the repo benchmark's delegating calls.

use proptest::prelude::*;
use tfno_num::{CTensor, C32};
use turbofno::{
    Backend, BufferPool, LayerSpec, NativeBackend, PipelineRun, Request, Session, SimBackend,
    SpectralShape, TfnoError, TurboOptions, Variant,
};
use turbofno_suite::gpu_sim::{BufferId, ExecMode, GpuDevice, KernelStats, LaunchRecord};
use turbofno_suite::model::SpectralConvNd;

fn rand_vec(len: usize, seed: f32) -> Vec<C32> {
    (0..len)
        .map(|i| {
            C32::new(
                ((i as f32) * 0.149 + seed).sin(),
                ((i as f32) * 0.257 - seed).cos(),
            )
        })
        .collect()
}

/// Allocate + upload the operands of `spec`, with data derived from `seed`.
fn operands(sess: &mut Session<impl Backend>, spec: &LayerSpec, seed: f32) -> (BufferId, BufferId, BufferId) {
    let x = sess.alloc("x", spec.input_len());
    let w = sess.alloc("w", spec.weight_len());
    let y = sess.alloc("y", spec.output_len());
    sess.upload(x, &rand_vec(spec.input_len(), seed));
    sess.upload(w, &rand_vec(spec.weight_len(), seed + 0.5));
    (x, w, y)
}

/// Run `spec` alone in a fresh session with the given input/weight seeds
/// and return the output values — the reference every coalescing test
/// compares against bitwise.
fn solo_output(spec: &LayerSpec, x_seed: f32, w_seed: f32) -> Vec<C32> {
    let mut solo = Session::a100();
    let x = solo.alloc("x", spec.input_len());
    let w = solo.alloc("w", spec.weight_len());
    let y = solo.alloc("y", spec.output_len());
    solo.upload(x, &rand_vec(spec.input_len(), x_seed));
    solo.upload(w, &rand_vec(spec.weight_len(), w_seed));
    solo.run(spec, x, w, y);
    solo.download(y)
}

/// Acceptance: `run_many` over a mixed-shape queue is bitwise-equal to
/// issuing the same requests through sequential `run` calls, N same-shape
/// requests cost exactly one plan, and re-serving the queue recycles the
/// pooled staging/scratch buffers.
#[test]
fn run_many_matches_sequential_runs_bitwise() {
    let spec1 = LayerSpec::d1(2, 12, 16, 128).modes(32).variant(Variant::TurboBest);
    let spec2 = LayerSpec::d2(1, 8, 8, 32, 64)
        .modes_xy(8, 32)
        .variant(Variant::FftOpt);
    let seeds = [0.1f32, 0.7, 1.3, 0.4, 2.2];
    let specs = [spec1, spec1, spec1, spec2, spec2];

    let mut batch_sess = Session::a100();
    let reqs: Vec<Request> = specs
        .iter()
        .zip(seeds)
        .map(|(spec, seed)| {
            let (x, w, y) = operands(&mut batch_sess, spec, seed);
            Request { spec: *spec, x, w, y }
        })
        .collect();
    let runs = batch_sess.run_many(&reqs);
    assert_eq!(runs.len(), reqs.len());

    // Exactly one plan for the three TurboBest requests of spec1 (spec2 is
    // concrete and plans nothing).
    let plans = batch_sess.planner_stats();
    assert_eq!(
        (plans.misses, plans.hits),
        (1, 0),
        "same-shape group must plan exactly once"
    );
    // Re-serving the same queue: the pool serves every lease (nothing new
    // is allocated), the planner answers the spec1 group from its cache,
    // and the outputs and launch records repeat exactly.
    let cold_out: Vec<Vec<C32>> = reqs.iter().map(|r| batch_sess.download(r.y)).collect();
    let (cold, cold_plans) = (batch_sess.pool_stats(), batch_sess.planner_stats());
    for r in &reqs {
        batch_sess.upload(r.y, &vec![C32::ZERO; r.spec.output_len()]);
    }
    let warm_runs = batch_sess.run_many(&reqs);
    let (warm, warm_plans) = (batch_sess.pool_stats(), batch_sess.planner_stats());
    assert_eq!(
        warm.misses, cold.misses,
        "second pass over the queue must allocate nothing new"
    );
    assert_eq!(
        warm.hits - cold.hits,
        cold.hits + cold.misses,
        "the pool must serve every lease of the second pass"
    );
    assert_eq!(
        warm_plans.hits,
        cold_plans.hits + 1,
        "spec1 is a planner cache hit"
    );
    assert_eq!(warm_plans.simulated_launches, cold_plans.simulated_launches);
    for (i, (c, w)) in runs.iter().zip(&warm_runs).enumerate() {
        assert_eq!(
            record_keys(c),
            record_keys(w),
            "request {i}: launch records"
        );
        assert_eq!(
            batch_sess.download(reqs[i].y),
            cold_out[i],
            "request {i}: output"
        );
    }

    // Sequential reference: same data through `run`, one call at a time.
    let mut seq_sess = Session::a100();
    for (i, (spec, seed)) in specs.iter().zip(seeds).enumerate() {
        let (x, w, y) = operands(&mut seq_sess, spec, seed);
        seq_sess.run(spec, x, w, y);
        assert_eq!(
            seq_sess.download(y),
            batch_sess.download(reqs[i].y),
            "request {i} diverged from the sequential path"
        );
    }
}

/// A session reused across many runs must produce bitwise-identical
/// outputs to a fresh session per run — pooled scratch reuse is
/// unobservable in the numerics — and its second run of each variant
/// leases only pooled scratch and repeats the first run's launch records.
#[test]
fn reused_session_is_bitwise_identical_to_fresh() {
    let p = SpectralShape::d1(2, 9, 16, 128).with_modes(&[32]);
    let mut warm = Session::a100();
    for v in Variant::CONCRETE {
        let spec = LayerSpec::from_shape(p).variant(v);
        let (wx, ww, wy) = operands(&mut warm, &spec, 0.3);
        let before = warm.pool_stats();
        let first = warm.run(&spec, wx, ww, wy);
        let mid = warm.pool_stats();
        // drive the warm session a second time into the same buffers
        let second = warm.run(&spec, wx, ww, wy);
        let after = warm.pool_stats();
        let warm_out = warm.download(wy);

        let leases = (mid.hits + mid.misses) - (before.hits + before.misses);
        assert_eq!(after.misses, mid.misses, "{v:?}: second run allocated");
        assert_eq!(
            after.hits - mid.hits,
            leases,
            "{v:?}: second run bypassed the pool"
        );
        assert_eq!(
            record_keys(&first),
            record_keys(&second),
            "{v:?}: launch records"
        );

        let mut fresh = Session::a100();
        let (fx, fw, fy) = operands(&mut fresh, &spec, 0.3);
        fresh.run(&spec, fx, fw, fy);
        assert_eq!(warm_out, fresh.download(fy), "{v:?}: warm != fresh");
    }
}

/// The second same-shape call allocates nothing: it leases the two
/// scratch buffers the first call released back to the pool.
#[test]
fn pool_reports_hits_on_second_same_shape_call() {
    let spec = LayerSpec::d1(2, 8, 8, 128).modes(32).variant(Variant::FftOpt);
    let mut sess = Session::a100();
    let (x, w, y) = operands(&mut sess, &spec, 0.9);
    sess.run(&spec, x, w, y);
    let cold = sess.pool_stats();
    assert_eq!(cold.hits, 0);
    assert_eq!(cold.misses, 2, "variant A leases xf_t and yf_t");
    assert_eq!(
        (cold.leased, cold.pooled),
        (0, 2),
        "both leases are back in the pool"
    );
    sess.run(&spec, x, w, y);
    let warm = sess.pool_stats();
    assert_eq!(warm.hits, 2, "the warm call recycles both scratch buffers");
    assert_eq!(warm.misses, cold.misses, "no new allocations when warm");
    assert_eq!((warm.leased, warm.pooled), (0, 2));
}

/// Planner/memo acceptance: the second same-shape `TurboBest` request
/// through a session performs zero simulated planning launches — the
/// planner answers it from its cache.
#[test]
fn second_request_plans_nothing() {
    let spec = LayerSpec::d1(2, 16, 16, 128).modes(32);
    assert_eq!(spec.variant, Variant::TurboBest, "default variant");
    let mut sess = Session::a100();
    let (x, w, y) = operands(&mut sess, &spec, 1.7);
    sess.run(&spec, x, w, y);
    let cold = sess.planner_stats();
    assert!(cold.simulated_launches > 0, "first plan is a cold evaluation");
    sess.run(&spec, x, w, y);
    let warm = sess.planner_stats();
    assert_eq!(warm.simulated_launches, cold.simulated_launches);
    assert_eq!(warm.misses, cold.misses);
    assert_eq!(warm.hits, cold.hits + 1, "the warm call is a planner cache hit");
}

/// Requests sharing spec *and* weight buffer coalesce into one stacked
/// batched launch sequence (gather, pipeline, scatter): bitwise-equal
/// outputs, strictly fewer kernel launches than sequential execution.
#[test]
fn same_weight_requests_coalesce_into_one_stacked_launch() {
    let spec = LayerSpec::d1(2, 8, 12, 128).modes(32).variant(Variant::FftOpt);
    let mut sess = Session::a100();
    let w = sess.alloc("w", spec.weight_len());
    sess.upload(w, &rand_vec(spec.weight_len(), 0.8));
    let reqs: Vec<Request> = (0..3)
        .map(|i| {
            let x = sess.alloc("x", spec.input_len());
            let y = sess.alloc("y", spec.output_len());
            sess.upload(x, &rand_vec(spec.input_len(), 0.2 + i as f32));
            Request { spec, x, w, y }
        })
        .collect();
    let runs = sess.run_many(&reqs);

    // One launch sequence for the whole stack — device-side gather, the
    // 3-kernel FftOpt pipeline, device-side scatter — attributed to the
    // first request of the coalesced group.
    let counts: Vec<usize> = runs.iter().map(|r| r.kernel_count()).collect();
    assert_eq!(counts, vec![5, 0, 0], "stack must run as one launch sequence");

    // Bitwise-equal to running each request alone.
    for (i, r) in reqs.iter().enumerate() {
        assert_eq!(
            sess.download(r.y),
            solo_output(&spec, 0.2 + i as f32, 0.8),
            "request {i}: stacked result != solo result"
        );
    }
}

/// Tentpole acceptance: a same-shape group whose requests use K distinct
/// weight buffers still executes as ONE stacked launch sequence — the
/// launch count equals the same-weight stacked case exactly — and the
/// outputs stay bitwise-equal to sequential `run` calls.
#[test]
fn mixed_weight_requests_coalesce_into_one_stacked_launch() {
    let spec = LayerSpec::d1(2, 8, 12, 128).modes(32).variant(Variant::FftOpt);
    let mut sess = Session::a100();
    let reqs: Vec<Request> = (0..3)
        .map(|i| {
            let (x, w, y) = operands(&mut sess, &spec, 0.2 + i as f32);
            Request { spec, x, w, y }
        })
        .collect();
    assert!(
        reqs.iter().skip(1).all(|r| r.w != reqs[0].w),
        "precondition: every request brings its own weight buffer"
    );
    let runs = sess.run_many(&reqs);
    let counts: Vec<usize> = runs.iter().map(|r| r.kernel_count()).collect();
    assert_eq!(
        counts,
        vec![5, 0, 0],
        "K distinct weights must stack exactly like the same-weight case"
    );
    for (i, r) in reqs.iter().enumerate() {
        assert_eq!(
            sess.download(r.y),
            solo_output(&spec, 0.2 + i as f32, 0.7 + i as f32),
            "request {i}: mixed-weight stacked result != solo result"
        );
    }
}

/// The launch-count parity pinned directly: for every concrete Turbo
/// variant, a mixed-weight queue coalesces into exactly as many launches
/// as the same-weight queue of the same shape.
#[test]
fn mixed_weight_launch_count_equals_same_weight_for_all_variants() {
    for v in [
        Variant::Pytorch,
        Variant::FftOpt,
        Variant::FusedFftGemm,
        Variant::FusedGemmIfft,
        Variant::FullyFused,
    ] {
        let spec = LayerSpec::d1(1, 8, 8, 128).modes(32).variant(v);
        let count_with = |mixed: bool| {
            let mut sess = Session::a100();
            let shared_w = sess.alloc("w", spec.weight_len());
            sess.upload(shared_w, &rand_vec(spec.weight_len(), 0.5));
            let reqs: Vec<Request> = (0..3)
                .map(|i| {
                    let x = sess.alloc("x", spec.input_len());
                    let y = sess.alloc("y", spec.output_len());
                    sess.upload(x, &rand_vec(spec.input_len(), i as f32));
                    let w = if mixed {
                        let w = sess.alloc("w_i", spec.weight_len());
                        sess.upload(w, &rand_vec(spec.weight_len(), 3.0 + i as f32));
                        w
                    } else {
                        shared_w
                    };
                    Request { spec, x, w, y }
                })
                .collect();
            sess.run_many(&reqs)
                .iter()
                .map(|r| r.kernel_count())
                .sum::<usize>()
        };
        assert_eq!(
            count_with(true),
            count_with(false),
            "{v:?}: mixed-weight stack must cost the same launches as same-weight"
        );
    }
}

/// 2D mixed-weight stacking through the fully fused kernel follows the
/// same contract (this exercises the strided weight operand inside the
/// fused FFT-GEMM-iFFT kernel, not just the standalone CGEMM).
#[test]
fn stacked_launch_is_bitwise_equal_2d() {
    let spec = LayerSpec::d2(1, 6, 8, 32, 64)
        .modes_xy(8, 32)
        .variant(Variant::FullyFused);
    let mut sess = Session::a100();
    let reqs: Vec<Request> = (0..2)
        .map(|i| {
            let (x, w, y) = operands(&mut sess, &spec, 0.6 + i as f32);
            Request { spec, x, w, y }
        })
        .collect();
    let runs = sess.run_many(&reqs);
    assert_eq!(
        runs[0].kernel_count(),
        5,
        "gather + fully fused 2D (3 kernels) + scatter"
    );
    assert_eq!(runs[1].kernel_count(), 0, "second request coalesced");
    for (i, r) in reqs.iter().enumerate() {
        assert_eq!(
            sess.download(r.y),
            solo_output(&spec, 0.6 + i as f32, 1.1 + i as f32),
            "request {i} diverged"
        );
    }
}

/// Analytical `run_many` on virtual buffers must never try to stack
/// (values cannot move through the gather/scatter copies) and still share
/// planning.
#[test]
fn analytical_virtual_requests_run_unstacked() {
    let spec = LayerSpec::d1(2, 8, 8, 128)
        .modes(32)
        .variant(Variant::FftOpt)
        .exec(ExecMode::Analytical);
    let mut sess = Session::a100();
    let w = sess.acquire_virtual(spec.weight_len());
    let reqs: Vec<Request> = (0..3)
        .map(|_| Request {
            spec,
            x: sess.acquire_virtual(spec.input_len()),
            w,
            y: sess.acquire_virtual(spec.output_len()),
        })
        .collect();
    let runs = sess.run_many(&reqs);
    for r in &runs {
        assert_eq!(r.kernel_count(), 3, "each analytical request runs alone");
    }
    let a = runs[0].total_stats();
    for r in &runs[1..] {
        assert_eq!(r.total_stats(), a, "same shape -> same modeled stats");
    }
}

/// A same-spec group mixing real- and virtual-buffer requests must stack
/// only the real members; the virtual one runs sequentially (stacking
/// moves values, which virtual buffers cannot do).
#[test]
fn mixed_real_virtual_group_stacks_only_real_members() {
    let spec = LayerSpec::d1(1, 6, 6, 128).modes(32).variant(Variant::FftOpt);
    let mut sess = Session::a100();
    let mut reqs: Vec<Request> = (0..2)
        .map(|i| {
            let (x, w, y) = operands(&mut sess, &spec, 1.0 + i as f32);
            Request { spec, x, w, y }
        })
        .collect();
    reqs.push(Request {
        spec,
        x: sess.acquire_virtual(spec.input_len()),
        w: sess.acquire_virtual(spec.weight_len()),
        y: sess.acquire_virtual(spec.output_len()),
    });
    let runs = sess.run_many(&reqs);
    let counts: Vec<usize> = runs.iter().map(|r| r.kernel_count()).collect();
    assert_eq!(
        counts,
        vec![5, 0, 3],
        "two real requests stack; the virtual one runs alone"
    );
    for (i, r) in reqs.iter().take(2).enumerate() {
        assert_eq!(
            sess.download(r.y),
            solo_output(&spec, 1.0 + i as f32, 1.5 + i as f32),
            "request {i} diverged"
        );
    }
}

/// `run_many` is a parallel batch: a request whose output feeds another
/// request's input must be rejected, not silently reordered.
#[test]
#[should_panic(expected = "must not alias outputs")]
fn run_many_rejects_chained_buffers() {
    let spec = LayerSpec::d1(1, 4, 4, 64).variant(Variant::FftOpt);
    let mut sess = Session::a100();
    let (x, w, y) = operands(&mut sess, &spec, 0.2);
    let y2 = sess.alloc("y2", spec.output_len());
    let reqs = [
        Request { spec, x, w, y },
        Request { spec, x: y, w, y: y2 }, // chained: consumes the first output
    ];
    sess.run_many(&reqs);
}

/// Satellite regression: a self-aliased request (`y == x`) used to slip
/// through the aliasing validation because the scan skipped `i == j`; it
/// must be rejected like any other aliasing.
#[test]
#[should_panic(expected = "self-aliased (y == x)")]
fn run_many_rejects_self_aliased_input() {
    let spec = LayerSpec::d1(1, 4, 4, 64).variant(Variant::FftOpt);
    let mut sess = Session::a100();
    // square layer: input_len == output_len, so y = x validates lengths
    let (x, w, _) = operands(&mut sess, &spec, 0.4);
    sess.run_many(&[Request { spec, x, w, y: x }]);
}

/// The two ways to issue one request.
#[derive(Clone, Copy, Debug)]
enum Entry {
    Run,
    RunMany,
}

/// One launch record as a comparable tuple (`time_us` by bits).
type RecordKey = (String, usize, KernelStats, u64);

fn record_key(r: &LaunchRecord) -> RecordKey {
    (r.name.clone(), r.dims_grid, r.stats, r.time_us.to_bits())
}

fn record_keys(run: &PipelineRun) -> Vec<RecordKey> {
    run.launches.iter().map(record_key).collect()
}

/// A cold and a warm call of `spec` through `entry` on a fresh simulator
/// session (same operands, output cleared before each call); returns each
/// call's launch records and output.
fn cold_and_warm(entry: Entry, spec: &LayerSpec) -> Vec<(Vec<RecordKey>, Vec<C32>)> {
    let mut sess = Session::new(SimBackend::a100());
    let (x, w, y) = operands(&mut sess, spec, 0.3);
    let req = Request {
        spec: *spec,
        x,
        w,
        y,
    };
    (0..2)
        .map(|_| {
            sess.upload(y, &vec![C32::ZERO; spec.output_len()]);
            let run = match entry {
                Entry::Run => sess.run(spec, x, w, y),
                Entry::RunMany => sess.run_many(&[req]).remove(0),
            };
            (record_keys(&run), sess.download(y))
        })
        .collect()
}

/// A single call is a queue of one: for every concrete variant plus
/// `TurboBest` at ranks 1-3, `run` and `run_many(&[req])` produce
/// bitwise-equal outputs and equal launch records, cold and warm.
#[test]
fn single_calls_match_queues_of_one() {
    let shapes = [
        LayerSpec::d1(1, 4, 4, 64).modes(32),
        LayerSpec::d2(1, 4, 4, 8, 32).modes_xy(4, 32),
        LayerSpec::d3(1, 4, 4, 4, 8, 32).modes_xyz(2, 4, 32),
    ];
    let mut variants = Variant::CONCRETE.to_vec();
    variants.push(Variant::TurboBest);
    for base in shapes {
        for &v in &variants {
            let spec = base.variant(v);
            let want = cold_and_warm(Entry::Run, &spec);
            assert!(!want[0].0.is_empty(), "{v:?}: the call launched nothing");
            let got = cold_and_warm(Entry::RunMany, &spec);
            for (call, (g, w)) in ["cold", "warm"].iter().zip(got.iter().zip(&want)) {
                let what = format!("{v:?} rank {} run_many {call}", spec.shape().rank);
                assert_eq!(g.0, w.0, "{what}: launch records");
                assert_eq!(g.1, w.1, "{what}: output");
            }
        }
    }
}

/// A single `run` may update in place (`y == x`): the result is bitwise
/// the out-of-place output. (`run_many` rejects the same request, see
/// `run_many_rejects_self_aliased_input`.)
#[test]
fn single_calls_allow_in_place_updates() {
    let shapes = [
        LayerSpec::d1(1, 4, 4, 64),
        LayerSpec::d2(1, 4, 4, 8, 32).modes_xy(4, 16),
        LayerSpec::d3(1, 4, 4, 4, 8, 32).modes_xyz(2, 4, 16),
    ];
    for base in shapes {
        let spec = base.variant(Variant::FftOpt);
        let want = solo_output(&spec, 0.4, 0.9);
        let mut sess = Session::a100();
        let (x, w, _) = operands(&mut sess, &spec, 0.4);
        sess.run(&spec, x, w, x);
        assert_eq!(sess.download(x), want, "{:?}", spec.shape());
    }
}

/// Self-aliasing against the weight buffer is rejected too.
#[test]
#[should_panic(expected = "self-aliased (y == w)")]
fn run_many_rejects_self_aliased_weight() {
    // k_out * n == k_in * k_out so the weight length matches the output
    let spec = LayerSpec::d1(1, 64, 1, 64).variant(Variant::FftOpt);
    let mut sess = Session::a100();
    let (x, w, _) = operands(&mut sess, &spec, 0.4);
    sess.run_many(&[Request { spec, x, w, y: w }]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property: any mix of same/mixed weights and real/virtual members in
    /// a same-shape group coalesces to the pinned launch count, and every
    /// real functional request's output is bitwise-equal to its solo run.
    #[test]
    fn prop_group_compositions_coalesce_and_match(
        n_real in 0usize..4,
        n_virtual in 0usize..2,
        weight_sel in 0usize..4,
    ) {
        let spec = LayerSpec::d1(1, 6, 6, 64).modes(32).variant(Variant::FftOpt);
        let mut sess = Session::a100();
        // Weight pool: weight_sel encodes which of the real requests share
        // weight buffer 0 (bit i => request i brings its own).
        let shared_w = sess.alloc("w", spec.weight_len());
        sess.upload(shared_w, &rand_vec(spec.weight_len(), 9.0));
        let mut reqs: Vec<Request> = Vec::new();
        let mut expect: Vec<(usize, Vec<C32>)> = Vec::new();
        for i in 0..n_real {
            let x = sess.alloc("x", spec.input_len());
            let y = sess.alloc("y", spec.output_len());
            sess.upload(x, &rand_vec(spec.input_len(), i as f32));
            let own = weight_sel & (1 << i) != 0;
            let (w, w_seed) = if own {
                let w = sess.alloc("wi", spec.weight_len());
                sess.upload(w, &rand_vec(spec.weight_len(), 20.0 + i as f32));
                (w, 20.0 + i as f32)
            } else {
                (shared_w, 9.0)
            };
            expect.push((reqs.len(), solo_output(&spec, i as f32, w_seed)));
            reqs.push(Request { spec, x, w, y });
        }
        for _ in 0..n_virtual {
            reqs.push(Request {
                spec,
                x: sess.acquire_virtual(spec.input_len()),
                w: sess.acquire_virtual(spec.weight_len()),
                y: sess.acquire_virtual(spec.output_len()),
            });
        }
        if !reqs.is_empty() {
            let runs = sess.run_many(&reqs);

            // Launch-count ceiling: the real members stack (gather +
            // 3-kernel FftOpt + scatter) when there are >= 2 of them;
            // every other member runs its own 3-kernel pipeline.
            let stacked = n_real >= 2;
            let expected: usize = if stacked { 5 } else { 3 * n_real } + 3 * n_virtual;
            let total: usize = runs.iter().map(|r| r.kernel_count()).sum();
            prop_assert_eq!(total, expected);

            for (idx, want) in &expect {
                prop_assert_eq!(
                    &sess.download(reqs[*idx].y),
                    want,
                    "request {} diverged from its solo run", idx
                );
            }
        }
    }
}

/// A standalone `BufferPool` is usable outside a session (custom
/// executors drive it directly).
#[test]
fn standalone_pool_round_trip() {
    let mut dev = GpuDevice::a100();
    let mut pool = BufferPool::new();
    let a = pool.acquire(&mut dev, 256);
    pool.release(&dev, a);
    let b = pool.acquire(&mut dev, 256);
    assert_eq!(a, b, "size-class match must recycle the same buffer");
    assert_eq!(pool.stats().hits, 1);
}

/// Buffer ids are per-device indices: an id from another session's
/// device that this device never allocated is a `Validation` error from
/// every entry point, before anything indexes the buffer table (it used to
/// panic with an index out of bounds). An in-range foreign id names one of
/// this device's own buffers and cannot be told apart.
#[test]
fn foreign_buffer_ids_out_of_range_are_validation_errors() {
    let spec = LayerSpec::d1(1, 4, 4, 64).variant(Variant::FftOpt);
    let mut sess = Session::a100();
    let (x, w, y) = operands(&mut sess, &spec, 0.2);
    let mut other = Session::a100();
    let (_, _, _) = operands(&mut other, &spec, 0.2);
    let foreign = other.alloc("foreign", spec.output_len());
    let never_allocated = |r: Result<Vec<PipelineRun>, TfnoError>| match r {
        Err(TfnoError::Validation(msg)) => msg.contains("never allocated"),
        _ => false,
    };
    assert!(never_allocated(sess.try_run(&spec, x, w, foreign).map(|r| vec![r])), "try_run");
    assert!(never_allocated(sess.try_run(&spec, foreign, w, y).map(|r| vec![r])), "try_run x");
    let reqs = [Request { spec, x, w, y }, Request { spec, x, w: foreign, y: foreign }];
    assert!(never_allocated(sess.try_run_many(&reqs)), "try_run_many");
    assert!(sess.device().launches().is_empty(), "nothing may launch");
}

/// An operand that is a pool lease the caller already released is a
/// `Validation` error from `try_run` and `try_run_many`, before anything
/// is leased or launched. Accepted, it could come back from the pool as
/// the run's own scratch and be overwritten mid-run: this `FftOpt`
/// layer's 256-element weight has the length of its truncated-spectrum
/// scratch. A clean request queued ahead of the bad one does not run
/// either.
#[test]
fn released_operands_are_validation_errors() {
    let spec = LayerSpec::d1(1, 8, 32, 64).modes(32).variant(Variant::FftOpt);
    let lens = [spec.input_len(), spec.weight_len(), spec.output_len()];
    for (released, name) in ["x", "w", "y"].into_iter().enumerate() {
        for queue in [false, true] {
            let what = format!("released {name}, queue {queue}");
            let mut sess = Session::a100();
            let ops: Vec<BufferId> = (0..3)
                .map(|i| {
                    let id = if i == released {
                        sess.acquire(lens[i])
                    } else {
                        sess.alloc("operand", lens[i])
                    };
                    sess.upload(id, &rand_vec(lens[i], 0.3 + i as f32));
                    id
                })
                .collect();
            sess.release(ops[released]);
            let (x, w, y) = (ops[0], ops[1], ops[2]);
            let y_before = sess.download(y);
            let got = if queue {
                let (x0, w0, y0) = operands(&mut sess, &spec, 0.9);
                let reqs = [Request { spec, x: x0, w: w0, y: y0 }, Request { spec, x, w, y }];
                sess.try_run_many(&reqs).map(drop)
            } else {
                sess.try_run(&spec, x, w, y).map(drop)
            };
            match got {
                Err(TfnoError::Validation(msg)) => {
                    assert!(msg.contains(&format!("{name} is buffer")), "{what}: {msg}");
                    assert!(msg.contains("already released"), "{what}: {msg}");
                }
                other => panic!("{what}: expected Validation, got {other:?}"),
            }
            assert!(sess.device().launches().is_empty(), "{what}: nothing may launch");
            assert_eq!(sess.download(y), y_before, "{what}: y must be untouched");
            assert_eq!(sess.pool_stats().leased, 0, "{what}: no lease may be held");
        }
    }
}

/// The four calls the repo benchmark makes are delegations:
/// `try_submit_many` + `try_wait_many` give `try_run_many`'s outputs and
/// launch records, and `submit_device` + `try_finish` give
/// `try_forward_device`'s, bitwise, with no lease held afterwards.
#[test]
fn benchmark_delegations_match_the_run_calls() {
    let a = LayerSpec::d1(1, 4, 4, 64).modes(32);
    let b = LayerSpec::d2(1, 4, 4, 8, 32).modes_xy(4, 32);
    // Two same-shape requests stack into one launch sequence.
    let queue = |sess: &mut Session| -> Vec<Request> {
        [a, a, b]
            .into_iter()
            .enumerate()
            .map(|(i, spec)| {
                let (x, w, y) = operands(sess, &spec, 0.2 + i as f32);
                Request { spec, x, w, y }
            })
            .collect()
    };
    let mut direct = Session::new(SimBackend::a100());
    let reqs = queue(&mut direct);
    let want = direct.try_run_many(&reqs).expect("the queue runs");
    let mut delegated = Session::new(SimBackend::a100());
    let reqs2 = queue(&mut delegated);
    let got = delegated
        .try_submit_many(&reqs2)
        .and_then(|runs| delegated.try_wait_many(runs))
        .expect("the queue runs");
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(record_keys(g), record_keys(w), "request {i}: launch records");
        assert_eq!(delegated.download(reqs2[i].y), direct.download(reqs[i].y), "request {i}");
    }
    assert_eq!(delegated.pool_stats().leased, 0, "try_submit_many left a lease");

    let (k, dims, modes) = (4, [8, 32], [4, 32]);
    let weight = CTensor::from_vec(rand_vec(k * k, 0.7), &[k, k]);
    let layer = SpectralConvNd::new(k, k, dims.to_vec(), modes.to_vec(), weight);
    let x = CTensor::from_vec(rand_vec(k * 8 * 32, 0.1), &[1, k, 8, 32]);
    let opts = TurboOptions::default();
    let mut direct = Session::new(SimBackend::a100());
    let (want_y, want_run) = layer
        .try_forward_device(&mut direct, Variant::TurboBest, &opts, &x)
        .expect("the layer runs");
    let mut delegated = Session::new(SimBackend::a100());
    let (got_y, got_run) = layer
        .submit_device(&mut delegated, Variant::TurboBest, &opts, &x)
        .try_finish(&mut delegated)
        .expect("the layer runs");
    assert_eq!(got_y.data(), want_y.data(), "submit_device output");
    assert_eq!(record_keys(&got_run), record_keys(&want_run), "submit_device records");
    assert_eq!(delegated.pool_stats().leased, 0, "submit_device left a lease");
}

/// One shape per rank whose innermost retained modes (16) do not fill a
/// 32-row warp tile, so no fused kernel can be built for it.
fn unfusable_specs() -> [LayerSpec; 3] {
    [
        LayerSpec::d1(1, 8, 8, 64).modes(16),
        LayerSpec::d2(1, 4, 4, 8, 32).modes_xy(4, 16),
        LayerSpec::d3(1, 4, 4, 4, 8, 32).modes_xyz(2, 4, 16),
    ]
}

/// Regression: `TurboBest` on such a shape used to panic inside the
/// planner's fused probes. It now plans onto `FftOpt` through every entry
/// point, bitwise-equal to asking for `FftOpt` outright.
#[test]
fn turbo_best_plans_unfusable_shapes_onto_fft_opt() {
    for spec in unfusable_specs() {
        let want = solo_output(&spec.variant(Variant::FftOpt), 0.4, 0.9);
        let mut sess = Session::a100();
        let (x, w, y) = operands(&mut sess, &spec, 0.4);
        sess.try_run(&spec, x, w, y).expect("TurboBest must run");
        assert_eq!(sess.download(y), want, "{:?}: try_run", spec.shape());

        let (x2, w2, y2) = operands(&mut sess, &spec, 0.4);
        let reqs = [Request { spec, x, w, y }, Request { spec, x: x2, w: w2, y: y2 }];
        sess.try_run_many(&reqs).expect("TurboBest queue must run");
        assert_eq!(sess.download(y2), want, "{:?}: try_run_many", spec.shape());
    }
}

/// `measure` runs the shape admission check too: an explicit fused variant
/// on an unfusable shape panics with the validation message, which names
/// the fix, not deep inside kernel assembly.
#[test]
#[should_panic(expected = "use FftOpt or TurboBest")]
fn measure_rejects_fused_variant_on_unfusable_shape() {
    let mut sess = Session::a100();
    sess.measure(&unfusable_specs()[1].variant(Variant::FullyFused));
}

/// An explicit fused variant on an unfusable shape is a typed validation
/// error from every `try_*` entry point, and nothing runs.
#[test]
fn explicit_fused_variant_on_unfusable_shape_is_a_validation_error() {
    for base in unfusable_specs() {
        for v in Variant::CONCRETE.into_iter().filter(|v| v.is_fused()) {
            let spec = base.variant(v);
            let mut sess = Session::a100();
            let (x, w, y) = operands(&mut sess, &spec, 0.2);
            let is_validation = |r: Result<(), TfnoError>| match r {
                Err(TfnoError::Validation(msg)) => msg.contains("multiple of 32"),
                _ => false,
            };
            let shape = spec.shape();
            assert!(is_validation(sess.try_run(&spec, x, w, y).map(drop)), "{v:?} {shape:?}: try_run");
            let reqs = [Request { spec, x, w, y }];
            assert!(is_validation(sess.try_run_many(&reqs).map(drop)), "{v:?} {shape:?}: try_run_many");
            assert!(sess.device().launches().is_empty(), "{v:?} {shape:?}: nothing may launch");
        }
    }
}

/// Shapes that pass `SpectralShape::try_validate` but whose kernels ask
/// for more shared memory per block than the A100 allows: a 2048-point
/// axis at every rank (every variant transforms it in one block), and a
/// 1024-point, 128-mode, 64-channel layer whose fused-iFFT kernels
/// overflow while `FftOpt`, `FusedFftGemm` and `FullyFused` fit.
fn oversized_specs() -> [LayerSpec; 5] {
    [
        LayerSpec::d1(1, 2, 2, 2048).modes(32),
        LayerSpec::d2(1, 2, 2, 2048, 64).modes_xy(8, 32),
        LayerSpec::d2(1, 2, 2, 64, 2048).modes_xy(8, 32),
        LayerSpec::d3(1, 2, 2, 8, 8, 2048).modes_xyz(4, 4, 32),
        LayerSpec::d1(1, 64, 64, 1024).modes(128),
    ]
}

/// Admission derives fit from the kernels' own shared-memory arithmetic:
/// every variant of every oversized shape, on both backends, returns `Ok`
/// or `Validation` — never a panic, in the planner or in a launch — and
/// leaves no scratch leased. A 2048-point axis fits no variant at all; the
/// 1024-point layer runs on everything but the fused-iFFT-with-global-A
/// variant, and `TurboBest` plans among the ones that fit.
#[test]
fn oversized_shapes_are_admitted_or_rejected_never_panic() {
    fn check<B: Backend>(mut sess: Session<B>, backend: &str) {
        let mut variants = Variant::CONCRETE.to_vec();
        variants.push(Variant::TurboBest);
        for (i, base) in oversized_specs().into_iter().enumerate() {
            for &v in &variants {
                let spec = base.variant(v);
                let what = format!("{backend} {v:?} {:?}", spec.shape());
                let (x, w, y) = operands(&mut sess, &spec, 0.3);
                let got = sess.try_run(&spec, x, w, y);
                let long_axis = i < 4;
                let fits = !long_axis && v != Variant::FusedGemmIfft;
                match got {
                    Ok(_) => assert!(fits, "{what}: must be rejected"),
                    Err(TfnoError::Validation(msg)) => {
                        assert!(!fits, "{what}: must run, got {msg}");
                        assert!(msg.contains("shared memory"), "{what}: {msg}");
                    }
                    Err(e) => panic!("{what}: expected Ok or Validation, got {e}"),
                }
                assert_eq!(sess.pool_stats().leased, 0, "{what}: leaked a lease");
            }
        }
    }
    check(Session::new(SimBackend::a100()), "sim");
    check(Session::new(NativeBackend::a100()), "native");
}
