//! Chaos suite: deterministic fault injection against mixed workloads.
//!
//! Every soak installs a seeded [`FaultPlan`] on a live [`Session`] and
//! drives the public typed API, asserting the robustness contract end to
//! end:
//!
//! * **no wedged sessions** — whatever mix of transient launch failures,
//!   OOMs, stalls and worker panics was injected, lifting the plan yields
//!   clean, correct runs on the same session;
//! * **success is bitwise-trustworthy** — every call that reports `Ok` left
//!   outputs bitwise-equal to a fault-free reference: the same variant's,
//!   or the unfused `FftOpt` reference when the degradation ladder
//!   re-planned a persistently failing fused pipeline;
//! * **no stale warm state** — warm calls after faulted runs still produce
//!   the reference output (a faulted launch writes nothing, and recycled
//!   pool scratch is fully overwritten before it is read);
//! * **no leaked leases** — the pool's lease count returns to zero;
//! * **accounted recovery** — when real failures were injected, the
//!   retry/degradation counters are non-zero.
//!
//! Schedules are pure functions of the plan seed, so every soak is exactly
//! reproducible. `TFNO_FAULT_SEED` offsets all of them: CI pins one value,
//! a local run can sweep others.

use std::time::Duration;

use proptest::prelude::*;
use tfno_num::C32;
use turbofno_suite::{
    FaultPlan, FaultStats, LayerSpec, Request, RetryPolicy, Session, SimBackend, Variant,
};

/// All five concrete pipeline variants (TurboBest is a planner alias).
const VARIANTS: [Variant; 5] = [
    Variant::Pytorch,
    Variant::FftOpt,
    Variant::FusedFftGemm,
    Variant::FusedGemmIfft,
    Variant::FullyFused,
];

/// Index of `FftOpt` in [`VARIANTS`] — the degradation ladder's target.
const FFT_OPT: usize = 1;

/// Per-case plan seed, offset by `TFNO_FAULT_SEED` when set.
fn fault_seed(case_seed: u64) -> u64 {
    let base: u64 = std::env::var("TFNO_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE);
    base.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ case_seed
}

/// The probability mix every soak uses: frequent-enough transients to
/// exercise retries, rarer panics/OOMs, and short stalls.
fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed)
        .transient(0.12)
        .worker_panic(0.04)
        .stall(0.04)
        .stall_us(20)
        .oom(0.08)
}

fn seeded_values(len: usize, seed: f32) -> Vec<C32> {
    (0..len)
        .map(|i| {
            C32::new(
                ((i as f32) * 0.137 + seed).sin(),
                ((i as f32) * 0.291 - seed).cos(),
            )
        })
        .collect()
}

/// The mixed single-run soak: all five variants x 1D/2D, three rounds of
/// typed runs under a seeded schedule, then a clean sweep.
fn soak_single_runs(case_seed: u64) {
    let mut sess = Session::new(SimBackend::a100());
    let d1 = LayerSpec::d1(1, 4, 4, 64).modes(32);
    let d2 = LayerSpec::d2(1, 4, 4, 32, 64).modes_xy(8, 32);
    let dims = [d1, d2];

    // Shared inputs/weights per dimensionality, one output buffer per
    // (variant, dim) — reused across rounds so warm calls on recycled
    // pool scratch are chaos-tested too.
    let mut x = Vec::new();
    let mut w = Vec::new();
    for (di, base) in dims.iter().enumerate() {
        let xb = sess.alloc(&format!("x{di}"), base.input_len());
        let wb = sess.alloc(&format!("w{di}"), base.weight_len());
        sess.upload(xb, &seeded_values(base.input_len(), 0.4 + di as f32));
        sess.upload(wb, &seeded_values(base.weight_len(), 0.9 - di as f32));
        x.push(xb);
        w.push(wb);
    }
    let mut y = Vec::new();
    let mut refs = Vec::new();
    for (vi, v) in VARIANTS.iter().enumerate() {
        let mut y_row = Vec::new();
        let mut ref_row = Vec::new();
        for (di, base) in dims.iter().enumerate() {
            let yb = sess.alloc(&format!("y{vi}_{di}"), base.output_len());
            sess.run(&base.variant(*v), x[di], w[di], yb);
            y_row.push(yb);
            ref_row.push(sess.download(yb));
        }
        y.push(y_row);
        refs.push(ref_row);
    }

    sess.set_retry_policy(RetryPolicy {
        max_attempts: 3,
        backoff: Duration::ZERO,
    });
    sess.set_fault_plan(Some(chaos_plan(fault_seed(case_seed))));

    for _round in 0..3 {
        for (vi, v) in VARIANTS.iter().enumerate() {
            for (di, base) in dims.iter().enumerate() {
                let degraded_before = sess.recovery_stats().degraded;
                match sess.try_run(&base.variant(*v), x[di], w[di], y[vi][di]) {
                    Ok(_) => {
                        let degraded = sess.recovery_stats().degraded > degraded_before;
                        let want = if degraded {
                            &refs[FFT_OPT][di]
                        } else {
                            &refs[vi][di]
                        };
                        assert_eq!(
                            &sess.download(y[vi][di]),
                            want,
                            "case {case_seed}: successful {v:?} dim{di} run diverged \
                             (degraded: {degraded})"
                        );
                    }
                    Err(e) => assert!(
                        e.is_transient(),
                        "case {case_seed}: only transient exhaustion may surface, got {e}"
                    ),
                }
            }
        }
    }

    // Lifting the plan must leave a fully serviceable session: every warm
    // call writes the reference output.
    sess.set_fault_plan(None);
    for (vi, v) in VARIANTS.iter().enumerate() {
        for (di, base) in dims.iter().enumerate() {
            sess.run(&base.variant(*v), x[di], w[di], y[vi][di]);
            assert_eq!(
                &sess.download(y[vi][di]),
                &refs[vi][di],
                "case {case_seed}: clean {v:?} dim{di} run after chaos diverged"
            );
        }
    }
    assert_eq!(sess.pool_stats().leased, 0, "case {case_seed}: leaked leases");

    let f = sess.fault_stats();
    let r = sess.recovery_stats();
    if f.injected() > 0 {
        assert!(
            r.transient_retries + r.degraded + r.exhausted > 0,
            "case {case_seed}: {} faults injected but no recovery activity recorded",
            f.injected()
        );
    }
}

/// The serving-queue soak: a coalescible queue (stacked same-spec pair,
/// mixed weights, an unfused member, a 2D member) under the same schedule.
fn soak_queue(case_seed: u64) {
    let mut sess = Session::new(SimBackend::a100());
    let fused = LayerSpec::d1(2, 4, 4, 64).modes(32).variant(Variant::FullyFused);
    let plain = LayerSpec::d1(2, 4, 4, 64).modes(32).variant(Variant::FftOpt);
    let two_d = LayerSpec::d2(1, 4, 4, 32, 64).modes_xy(8, 32).variant(Variant::FusedFftGemm);

    let mk = |sess: &mut Session, spec: &LayerSpec, tag: &str, seed: f32| {
        let x = sess.alloc(&format!("x_{tag}"), spec.input_len());
        let w = sess.alloc(&format!("w_{tag}"), spec.weight_len());
        sess.upload(x, &seeded_values(spec.input_len(), seed));
        sess.upload(w, &seeded_values(spec.weight_len(), seed + 0.31));
        (x, w)
    };
    let (xa, wa) = mk(&mut sess, &fused, "a", 0.1);
    let (xb, wb) = mk(&mut sess, &fused, "b", 0.5);
    let (xc, wc) = mk(&mut sess, &plain, "c", 0.7);
    let (xd, wd) = mk(&mut sess, &two_d, "d", 0.2);
    let reqs_with = |sess: &mut Session, tag: &str| {
        let mut reqs = Vec::new();
        for (spec, x, w, i) in [
            (fused, xa, wa, 0),
            (fused, xb, wb, 1), // same spec as above: stacks, mixed weights
            (plain, xc, wc, 2),
            (two_d, xd, wd, 3),
        ] {
            let y = sess.alloc(&format!("y_{tag}{i}"), spec.output_len());
            reqs.push(Request { spec, x, w, y });
        }
        reqs
    };

    // Fault-free references: the exact queue, and its fully-degraded twin
    // (every fused spec rewritten to FftOpt) — a degraded queue attempt
    // must match the latter bitwise.
    let reqs_ref = reqs_with(&mut sess, "ref");
    sess.run_many(&reqs_ref);
    let refs_exact: Vec<Vec<C32>> = reqs_ref.iter().map(|r| sess.download(r.y)).collect();
    let mut reqs_deg = reqs_ref.clone();
    for r in &mut reqs_deg {
        if r.spec.variant != Variant::Pytorch && r.spec.variant != Variant::FftOpt {
            r.spec = r.spec.variant(Variant::FftOpt);
        }
    }
    sess.run_many(&reqs_deg);
    let refs_degraded: Vec<Vec<C32>> = reqs_deg.iter().map(|r| sess.download(r.y)).collect();

    let reqs = reqs_with(&mut sess, "chaos");
    sess.set_retry_policy(RetryPolicy {
        max_attempts: 2,
        backoff: Duration::ZERO,
    });
    sess.set_fault_plan(Some(chaos_plan(fault_seed(case_seed) ^ 0x9E3779)));

    for _round in 0..3 {
        let degraded_before = sess.recovery_stats().degraded;
        match sess.try_run_many(&reqs) {
            Ok(runs) => {
                assert_eq!(runs.len(), reqs.len());
                let degraded = sess.recovery_stats().degraded > degraded_before;
                let want = if degraded { &refs_degraded } else { &refs_exact };
                for (i, r) in reqs.iter().enumerate() {
                    assert_eq!(
                        &sess.download(r.y),
                        &want[i],
                        "case {case_seed}: queue output {i} diverged (degraded: {degraded})"
                    );
                }
            }
            Err(e) => assert!(e.is_transient(), "case {case_seed}: {e}"),
        }
    }

    sess.set_fault_plan(None);
    sess.run_many(&reqs);
    for (i, r) in reqs.iter().enumerate() {
        assert_eq!(
            &sess.download(r.y),
            &refs_exact[i],
            "case {case_seed}: clean queue output {i} after chaos diverged"
        );
    }
    assert_eq!(sess.pool_stats().leased, 0);
}

/// The async soak: a storm of `try_submit`s redeemed with `try_wait`,
/// including handles deliberately dropped without waiting.
fn soak_submits(case_seed: u64) {
    let mut sess = Session::new(SimBackend::a100());
    let fused = LayerSpec::d1(1, 4, 4, 64).modes(32).variant(Variant::FullyFused);
    let plain = LayerSpec::d2(1, 4, 4, 32, 64).modes_xy(8, 32).variant(Variant::FftOpt);
    let specs = [fused, plain];

    let mut x = Vec::new();
    let mut w = Vec::new();
    let mut refs = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let xb = sess.alloc(&format!("x{i}"), spec.input_len());
        let wb = sess.alloc(&format!("w{i}"), spec.weight_len());
        sess.upload(xb, &seeded_values(spec.input_len(), 0.3 + i as f32));
        sess.upload(wb, &seeded_values(spec.weight_len(), 0.8 + i as f32));
        let yb = sess.alloc(&format!("yref{i}"), spec.output_len());
        sess.run(spec, xb, wb, yb);
        x.push(xb);
        w.push(wb);
        refs.push(sess.download(yb));
    }
    // The degraded twin of the fused 1D spec.
    let yd = sess.alloc("ydeg", fused.output_len());
    sess.run(&fused.variant(Variant::FftOpt), x[0], w[0], yd);
    let ref_degraded = sess.download(yd);

    // Output buffers are allocated before the plan is armed: user-level
    // `Session::alloc` is a legacy panicking API and would eat an injected
    // OOM; the soak targets the resilient execution engine instead.
    let slots: Vec<(usize, _)> = (0..6)
        .map(|j| {
            let si = j % specs.len();
            (si, sess.alloc(&format!("y{j}"), specs[si].output_len()))
        })
        .collect();

    sess.set_fault_plan(Some(chaos_plan(fault_seed(case_seed) ^ 0x5AB317)));

    let mut jobs = Vec::new();
    for (si, y) in slots {
        let handle = sess
            .try_submit(&specs[si], x[si], w[si], y)
            .expect("admission is validation-only, never faulted");
        jobs.push((si, y, handle));
    }
    // Drop one handle unredeemed: the result must be discarded at the
    // next synchronizing call, not stranded.
    let (_, _, dropped) = jobs.remove(3);
    drop(dropped);

    for (si, y, handle) in jobs {
        match sess.try_wait(handle) {
            Ok(_) => {
                let got = sess.download(y);
                assert!(
                    got == refs[si] || (si == 0 && got == ref_degraded),
                    "case {case_seed}: successful submit output diverged"
                );
            }
            Err(e) => assert!(e.is_transient(), "case {case_seed}: {e}"),
        }
    }
    assert!(sess.recovery_stats().abandoned_handles >= 1);

    sess.set_fault_plan(None);
    for (i, spec) in specs.iter().enumerate() {
        let y = sess.alloc(&format!("yclean{i}"), spec.output_len());
        let h = sess.submit(spec, x[i], w[i], y);
        sess.wait(h);
        assert_eq!(&sess.download(y), &refs[i]);
    }
    assert!(!sess.pending());
    assert_eq!(sess.pool_stats().leased, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn chaos_single_runs(seed in 0u64..1000) {
        soak_single_runs(seed);
    }

    #[test]
    fn chaos_queue(seed in 0u64..1000) {
        soak_queue(seed);
    }

    #[test]
    fn chaos_submits(seed in 0u64..1000) {
        soak_submits(seed);
    }
}

/// Fault schedules are pure functions of the seed: identical plans over
/// identical workloads inject identical faults and leave identical state.
#[test]
fn fault_schedules_are_deterministic_per_seed() {
    let run = || {
        let mut sess = Session::new(SimBackend::a100());
        let spec = LayerSpec::d1(1, 4, 4, 64).modes(32).variant(Variant::FullyFused);
        let x = sess.alloc("x", spec.input_len());
        let w = sess.alloc("w", spec.weight_len());
        let y = sess.alloc("y", spec.output_len());
        sess.upload(x, &seeded_values(spec.input_len(), 0.4));
        sess.upload(w, &seeded_values(spec.weight_len(), 0.9));
        sess.set_fault_plan(Some(chaos_plan(1234)));
        for _ in 0..4 {
            let _ = sess.try_run(&spec, x, w, y);
        }
        let out = sess.try_download(y).expect("synchronous session");
        (sess.fault_stats(), sess.recovery_stats(), out)
    };
    let (fa, ra, ya) = run();
    let (fb, rb, yb) = run();
    assert_eq!(fa, fb, "fault schedules must be deterministic");
    assert_eq!(ra, rb, "recovery paths must be deterministic");
    assert_eq!(ya, yb, "outputs must be deterministic");
}

/// The fault hooks pinned by structure instead of by a throughput ratio:
/// over the same forwards, a session with no plan installed consults no
/// plan at all, and one armed with an all-zero plan consults it exactly
/// once per functional launch, injects nothing, stalls nothing, and leaves
/// every output bitwise equal to the unarmed run.
#[test]
fn fault_hooks_unarmed_consult_nothing_and_armed_zero_injects_nothing() {
    const FORWARDS: usize = 3;
    let specs = [
        LayerSpec::d1(2, 4, 4, 64).modes(32),
        LayerSpec::d1(1, 4, 4, 64)
            .modes(32)
            .variant(Variant::Pytorch),
        LayerSpec::d2(1, 4, 4, 32, 64)
            .modes_xy(8, 32)
            .variant(Variant::FullyFused),
    ];
    let run_all = |sess: &mut Session<SimBackend>| {
        let mut outs = Vec::new();
        let mut launches = 0u64;
        for (i, spec) in specs.iter().enumerate() {
            let x = sess.alloc("x", spec.input_len());
            let w = sess.alloc("w", spec.weight_len());
            let y = sess.alloc("y", spec.output_len());
            sess.upload(x, &seeded_values(spec.input_len(), 0.3 + i as f32));
            sess.upload(w, &seeded_values(spec.weight_len(), 0.7 + i as f32));
            for _ in 0..FORWARDS {
                launches += sess.run(spec, x, w, y).kernel_count() as u64;
                outs.push(sess.download(y));
            }
        }
        (outs, launches)
    };

    let mut unarmed = Session::new(SimBackend::a100());
    let (want, _) = run_all(&mut unarmed);
    assert_eq!(
        unarmed.fault_stats(),
        FaultStats::default(),
        "an unarmed session must consult no plan"
    );

    let mut armed = Session::new(SimBackend::a100());
    armed.set_fault_plan(Some(FaultPlan::seeded(fault_seed(0x2E20))));
    let (got, launches) = run_all(&mut armed);
    let st = armed.fault_stats();
    assert_eq!(
        st.launches_checked, launches,
        "one consultation per functional launch"
    );
    assert_eq!(
        (st.injected(), st.stalls),
        (0, 0),
        "an all-zero plan must never fire"
    );
    assert!(got == want, "an all-zero plan must not perturb any output");
}
