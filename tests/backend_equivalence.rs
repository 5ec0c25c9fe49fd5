//! Cross-backend equivalence: the same `LayerSpec` run through the
//! simulator (`SimBackend`) and its release configuration
//! (`NativeBackend`) must produce bitwise-equal outputs and equal launch
//! records — name, grid, every `KernelStats` field and the modeled time —
//! across every variant, every rank (1D/2D/3D), stacked mixed-weight
//! queues, and storms of runs. Both run the simulator's one block
//! executor: in debug builds the simulator meters its blocks and checks
//! every count, while native runs them unmetered and attaches the
//! memoized counts of each launch's structure, so the records must match
//! exactly. Capabilities a backend does not advertise must surface as
//! typed `TfnoError::Validation` errors, never panics. Kernels of one
//! structure share their FFT plan and butterfly traces across backends.

use proptest::prelude::*;
use std::sync::Arc;
use tfno_num::C32;
use turbofno_suite::fft::{
    BatchedFftKernel, ButterflyTrace, FftBlockConfig, FftBlockEngine, FftDirection, FftKernelConfig, FftPlan,
    RowPencils,
};
use turbofno_suite::gpu_sim::{BufferId, ExecMode, LaunchRecord};
use turbofno_suite::{
    Backend, FaultPlan, LayerSpec, NativeBackend, Request, Session, SimBackend, TfnoError, Variant,
};

fn data(len: usize, seed: f32) -> Vec<C32> {
    (0..len)
        .map(|i| {
            let t = i as f32;
            C32::new((t * 0.17 + seed).sin(), (t * 0.23 - seed).cos())
        })
        .collect()
}

/// What a session's work leaves behind: the downloaded outputs and the
/// device's launch records.
type Outcome = (Vec<Vec<C32>>, Vec<LaunchRecord>);

fn outcome<B: Backend>(sess: &Session<B>, ys: &[BufferId]) -> Outcome {
    let outs = ys.iter().map(|&y| sess.download(y)).collect();
    (outs, sess.device().launches().to_vec())
}

/// Bitwise-equal outputs and launch records equal field by field (the
/// modeled time compared by its bits).
fn assert_same(what: &str, sim: &Outcome, native: &Outcome) {
    let bits = |v: &[C32]| v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect::<Vec<_>>();
    assert_eq!(sim.0.len(), native.0.len(), "{what}: output count");
    for (i, (s, n)) in sim.0.iter().zip(&native.0).enumerate() {
        assert!(bits(s) == bits(n), "{what}: output {i} differs between backends");
    }
    assert_eq!(sim.1.len(), native.1.len(), "{what}: launch count");
    for (s, n) in sim.1.iter().zip(&native.1) {
        assert_eq!((&s.name, s.dims_grid), (&n.name, n.dims_grid), "{what}");
        assert_eq!(s.stats, n.stats, "{what}: stats of '{}'", s.name);
        assert_eq!(s.time_us.to_bits(), n.time_us.to_bits(), "{what}: time of '{}'", s.name);
    }
}

/// Upload operands for `spec` (derived deterministically from `seed`),
/// run it, and collect its outcome. Works on any backend.
fn run_on<B: Backend>(sess: &mut Session<B>, spec: &LayerSpec, seed: f32) -> Outcome {
    let x = sess.alloc("x", spec.input_len());
    let w = sess.alloc("w", spec.weight_len());
    let y = sess.alloc("y", spec.output_len());
    sess.upload(x, &data(spec.input_len(), seed));
    sess.upload(w, &data(spec.weight_len(), seed + 0.5));
    sess.run(spec, x, w, y);
    outcome(sess, &[y])
}

/// The same spec on a fresh session per backend: bitwise outputs, equal
/// launch records.
fn assert_backends_agree(spec: &LayerSpec, seed: f32) {
    let sim = run_on(&mut Session::new(SimBackend::a100()), spec, seed);
    let native = run_on(&mut Session::new(NativeBackend::a100()), spec, seed);
    assert_same(&format!("{:?} {:?}", spec.variant, spec.shape()), &sim, &native);
}

/// Build and launch, against `sess`'s buffers, a 12-row truncated FFT:
/// one full block of 8 pencils and a remainder block of 4.
fn fft_kernel_on<B: Backend>(sess: &mut Session<B>) -> BatchedFftKernel<RowPencils> {
    let (n, keep, rows) = (128, 32, 12);
    let x = sess.alloc("x", rows * n);
    let y = sess.alloc("y", rows * keep);
    sess.upload(x, &data(rows * n, 0.1));
    let k = BatchedFftKernel::new(
        "share.fft",
        FftKernelConfig::new(FftBlockConfig::for_len(n)),
        FftPlan::shared(n, FftDirection::Forward, n, keep),
        RowPencils { count: rows, in_row_len: n, out_row_len: keep },
        x,
        y,
    );
    sess.device_mut().launch(&k, ExecMode::Functional);
    k
}

/// Kernels of one structure hold the process-wide plan and butterfly
/// traces whichever backend they run on, instead of a copy each.
#[test]
fn kernels_of_one_structure_share_plans_and_traces_across_backends() {
    let on_sim = fft_kernel_on(&mut Session::new(SimBackend::a100()));
    let on_native = fft_kernel_on(&mut Session::new(NativeBackend::a100()));
    assert!(Arc::ptr_eq(&on_sim.plan, &on_native.plan), "one plan");
    // The engine layout `run_block` uses for a block of `active` pencils.
    fn trace(k: &BatchedFftKernel<RowPencils>, active: usize) -> &ButterflyTrace {
        k.traces.get(&FftBlockEngine {
            plan: &k.plan,
            active_pencils: active,
            bs_layout: 8,
            ping_base: 0,
            pong_base: 128 * 8,
            reg_group_bits: k.cfg.block.n_thread.trailing_zeros() as usize,
        })
    }
    for active in [8, 4] {
        let (a, b) = (trace(&on_sim, active), trace(&on_native, active));
        assert!(std::ptr::eq(a, b), "one trace for {active} active pencils");
    }
}

#[test]
fn all_variants_agree_1d() {
    for v in Variant::CONCRETE {
        let spec = LayerSpec::d1(2, 6, 6, 128).modes(32).variant(v);
        assert_backends_agree(&spec, 0.3);
    }
}

#[test]
fn all_variants_agree_2d() {
    for v in Variant::CONCRETE {
        let spec = LayerSpec::d2(1, 5, 4, 32, 64).modes_xy(8, 32).variant(v);
        assert_backends_agree(&spec, 0.7);
    }
}

#[test]
fn all_variants_agree_3d() {
    for v in Variant::CONCRETE {
        let spec = LayerSpec::d3(1, 4, 4, 8, 16, 32).modes_xyz(4, 8, 32).variant(v);
        assert_backends_agree(&spec, 0.5);
    }
}

/// With the launch memo off, a functional launch on the release device
/// runs every block unmetered and then the metered representative blocks
/// of the same kernel object. The kernels' bank-phase caches must come
/// out of that exactly as from metered blocks alone: every record equals
/// the analytical one of a fresh simulator, whose kernels only ever run
/// metered blocks. The rank-1 shape's `k_out` of 20 adds an n-edge tile.
#[test]
fn unmetered_blocks_leave_metered_counts_unchanged() {
    let shapes = [
        LayerSpec::d1(2, 6, 20, 128).modes(32),
        LayerSpec::d2(1, 5, 4, 32, 64).modes_xy(8, 32),
        LayerSpec::d3(1, 4, 4, 8, 16, 32).modes_xyz(4, 8, 32),
    ];
    for shape in shapes {
        for v in Variant::CONCRETE {
            let spec = shape.variant(v);
            let mut native = NativeBackend::a100();
            native.device_mut().analytical_memo = false;
            let (_, records) = run_on(&mut Session::new(native), &spec, 0.4);
            let mut sim = SimBackend::a100();
            sim.analytical_memo = false;
            let measured = Session::new(sim).measure(&spec).launches;
            let what = format!("{v:?} {:?}", spec.shape());
            assert_eq!(records.len(), measured.len(), "{what}: launch count");
            for (r, m) in records.iter().zip(&measured) {
                let at = format!("{what}: '{}'", r.name);
                assert_eq!(r.name, m.name, "{at}");
                assert_eq!(r.stats, m.stats, "{at}: stats");
                assert_eq!(r.time_us.to_bits(), m.time_us.to_bits(), "{at}: time");
            }
        }
    }
}

#[test]
fn stacked_mixed_weight_queue_agrees() {
    // K same-shape requests with K distinct weight buffers: the engine
    // packs them into one stacked launch sequence (strided weights,
    // device-side gather/scatter) on both backends.
    fn queue_on<B: Backend>(sess: &mut Session<B>, spec: &LayerSpec, k: usize) -> Outcome {
        let reqs: Vec<Request> = (0..k)
            .map(|i| {
                let x = sess.alloc("qx", spec.input_len());
                let w = sess.alloc("qw", spec.weight_len());
                let y = sess.alloc("qy", spec.output_len());
                sess.upload(x, &data(spec.input_len(), 0.1 + i as f32));
                sess.upload(w, &data(spec.weight_len(), 0.6 + i as f32));
                Request { spec: *spec, x, w, y }
            })
            .collect();
        sess.run_many(&reqs);
        let ys: Vec<BufferId> = reqs.iter().map(|r| r.y).collect();
        outcome(sess, &ys)
    }

    let spec = LayerSpec::d1(1, 8, 8, 128).modes(32).variant(Variant::TurboBest);
    let sim = queue_on(&mut Session::new(SimBackend::a100()), &spec, 6);
    let native = queue_on(&mut Session::new(NativeBackend::a100()), &spec, 6);
    assert_same("stacked queue", &sim, &native);
}

#[test]
fn run_storm_agrees() {
    // Back-to-back runs of mixed shapes and variants on one session, on
    // both backends.
    fn storm_on<B: Backend>(sess: &mut Session<B>, specs: &[LayerSpec]) -> Outcome {
        let slots: Vec<(BufferId, BufferId, BufferId)> = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let x = sess.alloc("ax", spec.input_len());
                let w = sess.alloc("aw", spec.weight_len());
                let y = sess.alloc("ay", spec.output_len());
                sess.upload(x, &data(spec.input_len(), 0.2 + i as f32));
                sess.upload(w, &data(spec.weight_len(), 0.9 + i as f32));
                (x, w, y)
            })
            .collect();
        for (spec, &(x, w, y)) in specs.iter().zip(&slots) {
            sess.run(spec, x, w, y);
        }
        let ys: Vec<BufferId> = slots.iter().map(|&(_, _, y)| y).collect();
        outcome(sess, &ys)
    }

    // A mixed storm: different shapes and variants interleaved.
    let specs: Vec<LayerSpec> = (0..8)
        .map(|i| {
            let v = Variant::CONCRETE[i % Variant::CONCRETE.len()];
            if i % 2 == 0 {
                LayerSpec::d1(1 + i % 3, 4, 4, 128).modes(32).variant(v)
            } else {
                LayerSpec::d1(1, 6, 4, 128).modes(64).variant(v)
            }
        })
        .collect();
    let sim = storm_on(&mut Session::new(SimBackend::a100()), &specs);
    let native = storm_on(&mut Session::new(NativeBackend::a100()), &specs);
    assert_same("run storm", &sim, &native);
}

/// `Session::a100()` takes its profile from `TFNO_BACKEND`: it runs the
/// release profile, which refuses fault plans, exactly when the variable
/// selects `native`, so the native CI leg really runs that profile.
#[test]
fn a100_session_runs_the_profile_tfno_backend_selects() {
    let native = std::env::var("TFNO_BACKEND")
        .is_ok_and(|v| matches!(v.trim().to_ascii_lowercase().as_str(), "native" | "host"));
    let sess = Session::a100();
    assert_eq!(sess.device().supports_fault_injection(), !native);
}

#[test]
fn unsupported_capability_is_typed_not_a_panic() {
    let mut native = Session::new(NativeBackend::a100());
    assert!(!native.device().supports_fault_injection());
    // Arming a fault plan on a backend without fault injection reports
    // Validation (a request error — check caps first), never panics.
    let err = native
        .try_set_fault_plan(Some(FaultPlan::seeded(0xD15C0)))
        .unwrap_err();
    assert!(matches!(err, TfnoError::Validation(_)), "{err:?}");
    // Clearing is a no-op everywhere: a session teardown path must not
    // have to know which backend it is running on.
    native.try_set_fault_plan(None).unwrap();
    // The simulator advertises and accepts the same call.
    let mut sim = Session::new(SimBackend::a100());
    assert!(sim.device().supports_fault_injection());
    sim.try_set_fault_plan(Some(FaultPlan::seeded(0xD15C0))).unwrap();
    sim.try_set_fault_plan(None).unwrap();
}

#[test]
fn native_session_still_serves_faultless_runs_after_rejection() {
    // A rejected capability request must leave the session fully usable.
    let mut sess = Session::new(NativeBackend::a100());
    let spec = LayerSpec::d1(1, 4, 4, 128).modes(32).variant(Variant::FullyFused);
    assert!(sess.try_set_fault_plan(Some(FaultPlan::seeded(1))).is_err());
    let (outs, _) = run_on(&mut sess, &spec, 0.4);
    assert!(outs[0].iter().all(|c| c.re.is_finite() && c.im.is_finite()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random shapes, every variant, 1D: sim and native agree bitwise.
    #[test]
    fn prop_backends_agree_1d(
        batch in 1usize..3,
        k in 1usize..10,
        nf_sel in 0usize..2,
        variant_sel in 0usize..Variant::CONCRETE.len(),
    ) {
        let nf = [32usize, 64][nf_sel];
        let spec = LayerSpec::d1(batch, k, k, 128)
            .modes(nf)
            .variant(Variant::CONCRETE[variant_sel]);
        assert_backends_agree(&spec, 0.3);
    }

    /// Random shapes, every variant, 2D: sim and native agree bitwise.
    #[test]
    fn prop_backends_agree_2d(
        batch in 1usize..3,
        k in 1usize..6,
        ny_sel in 0usize..2,
        variant_sel in 0usize..Variant::CONCRETE.len(),
    ) {
        let ny = [64usize, 128][ny_sel];
        let spec = LayerSpec::d2(batch, k, k, 32, ny)
            .modes_xy(8, 32)
            .variant(Variant::CONCRETE[variant_sel]);
        assert_backends_agree(&spec, 0.6);
    }
}
