//! End-to-end model throughput: functional-mode FNO forwards per second.
//!
//! The `1d`/`2d`/`3d` `turbo` cases measure the whole forward pass —
//! lifting, every Fourier layer through the simulated device
//! (`Variant::TurboBest`), pointwise bypasses, GELU, projection — on one
//! long-lived `turbofno::Session` (work-stealing executor, journaled
//! writes, memoized analytical launches, warm per-session `Planner`
//! cache, pooled operand/scratch buffers) serving every forward. Each
//! model's device forward is checked against its host forward before
//! timing. These cases are reported, not gated: the structural tests
//! (`second_request_plans_nothing`,
//! `pool_reports_hits_on_second_same_shape_call`,
//! `turbo_best_dispatch_uses_session_planner_cache`,
//! `parallel_executor_is_bitwise_deterministic`,
//! `unmetered_functional_launch_attaches_analytical_counts`) pin the
//! properties that make them fast.
//!
//! A full run writes `BENCH_throughput.json` at the workspace root, the
//! tracked file every future perf PR compares against. `--smoke` shrinks
//! shapes and the measuring window for CI and writes
//! `target/BENCH_throughput.smoke.json` instead, so a smoke run never
//! touches the tracked file. `TFNO_BENCH_OUT` overrides either path.
//!
//! The `batch-stacking` scenario compares a queue of K independent
//! forwards run one by one (`forward_device` per input) against
//! `forward_device_batch` (per layer, the K spectral convs as one stacked
//! launch sequence).
//!
//! The `warm-session` scenario pins what a long-lived session buys: a
//! steady-state forward on one session (planner cache and buffer pool
//! warm, so a forward plans nothing and allocates nothing) against the
//! same forward on a fresh session per call (cold planner cache, cold
//! pool).
//!
//! The `fault-overhead` scenario reports the cost of the fault-injection
//! hooks (every functional launch and real allocation consults the
//! device's `FaultPlan`): an armed zero-probability plan against the
//! unarmed production path. The ratio is reported, not gated: one 0.3-s
//! smoke window cannot resolve a 1% floor, and what the floor protected
//! is pinned exactly through `FaultStats` by
//! `fault_hooks_unarmed_consult_nothing_and_armed_zero_injects_nothing`
//! in `tests/chaos.rs`.
//!
//! The `verify-overhead` scenario reports the cost of the static
//! launch-plan verifier (see `turbofno::verify`): verification forced on
//! vs forced off, both on the steady-state forward. The verifier proves
//! every launch of every forward, so the ratio is reported, not gated;
//! release builds run it only when asked (`TFNO_VERIFY=1` or the
//! override, pinned by `override_controls_gating`).
//!
//! `--check-floors` turns `speedup_warm_session` into a regression gate:
//! the process exits nonzero when its pinned floor is broken, so CI's
//! smoke run fails loudly instead of uploading a quietly regressed JSON.
//! The `1d`/`2d`/`3d` forwards/s, `fault_overhead` and `verify_overhead`
//! are reported without floors (see above), and so are
//! the `serve-mixed`, `batch-stacking` and `backend-*` ratios: since
//! simulated launches attach memoized counts instead of metering every
//! access, their baselines are about as fast as the paths they are
//! compared with on the smoke shapes.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use tfno_gpu_sim::FaultPlan;
use tfno_model::FnoNd;
use tfno_num::error::rel_l2_error;
use tfno_num::CTensor;
use turbofno::{
    set_verify_override, LayerSpec, NativeBackend, Request, Session, TurboOptions, Variant,
};

struct Case {
    dim: &'static str,
    shape: String,
    engine: &'static str,
    forwards_per_sec: f64,
    iters: u64,
    elapsed_s: f64,
}

/// Warm up once, then run until the window closes; returns (iters, secs).
fn measure(min_secs: f64, mut f: impl FnMut()) -> (u64, f64) {
    f();
    let start = Instant::now();
    let mut iters = 0u64;
    loop {
        f();
        iters += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= min_secs && iters >= 3 {
            return (iters, elapsed);
        }
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Regression floor for `--check-floors` (CI smoke). Deliberately far
/// below the build-host number: shared CI runners are noisy, and the gate
/// exists to catch a *collapsed* optimization, not a few percent of
/// jitter.
const FLOOR_SPEEDUP_WARM_SESSION: f64 = 1.3;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let check_floors = std::env::args().any(|a| a == "--check-floors");
    let min_secs = if smoke { 0.3 } else { 2.0 };
    let opts = TurboOptions::default();
    let mut rng = StdRng::seed_from_u64(42);
    let mut cases: Vec<Case> = Vec::new();

    println!("== tfno-bench throughput ({}) ==", if smoke { "smoke" } else { "full" });

    // ------------------------------------------------------------ 1D ----
    let (layers1, n1, nf1, width1, batch1) =
        if smoke { (2, 128, 32, 8, 1) } else { (4, 256, 64, 16, 2) };
    let model1 = FnoNd::random(&mut rng, 1, width1, 1, layers1, &[n1], &[nf1]);
    let x1 = CTensor::random(&mut rng, &[batch1, 1, n1]);
    let shape1 = format!(
        "batch={batch1} width={width1} layers={layers1} n={n1} nf={nf1}"
    );

    // ------------------------------------------------------------ 2D ----
    let (layers2, nx2, ny2, nfx2, nfy2, width2, batch2) =
        if smoke { (2, 16, 32, 4, 32, 8, 1) } else { (4, 32, 64, 8, 32, 8, 1) };
    let model2 = FnoNd::random(&mut rng, 1, width2, 1, layers2, &[nx2, ny2], &[nfx2, nfy2]);
    let x2 = CTensor::random(&mut rng, &[batch2, 1, nx2, ny2]);
    let shape2 = format!(
        "batch={batch2} width={width2} layers={layers2} nx={nx2} ny={ny2} nfx={nfx2} nfy={nfy2}"
    );

    // ------------------------------------------------------------ 3D ----
    // The rank-3 workload the rank-generic engine opened. The innermost
    // mode count is a multiple of the fused kernels' warp M-tile so
    // `TurboBest` may pick any fusion level.
    let (layers3, nx3, ny3, nz3, nfx3, nfy3, nfz3, width3, batch3) =
        if smoke { (2, 8, 8, 32, 2, 4, 32, 4, 1) } else { (2, 8, 16, 32, 4, 8, 32, 8, 1) };
    let model3 = FnoNd::random(
        &mut rng,
        1,
        width3,
        1,
        layers3,
        &[nx3, ny3, nz3],
        &[nfx3, nfy3, nfz3],
    );
    let x3 = CTensor::random(&mut rng, &[batch3, 1, nx3, ny3, nz3]);
    let shape3 = format!(
        "batch={batch3} width={width3} layers={layers3} nx={nx3} ny={ny3} nz={nz3} \
         nfx={nfx3} nfy={nfy3} nfz={nfz3}"
    );

    // One session serves every turbo forward of the bench: planner cache
    // and buffer pool warm up once and stay warm across the whole run.
    // Cross-check each device forward against the host forward before
    // timing.
    let mut turbo_sess = Session::a100();
    let (y1_turbo, _) = model1.forward_device(&mut turbo_sess, Variant::TurboBest, &opts, &x1);
    let (y2_turbo, _) = model2.forward_device(&mut turbo_sess, Variant::TurboBest, &opts, &x2);
    let (y3_turbo, _) = model3.forward_device(&mut turbo_sess, Variant::TurboBest, &opts, &x3);
    let err1 = rel_l2_error(y1_turbo.data(), model1.forward_host(&x1).data());
    let err2 = rel_l2_error(y2_turbo.data(), model2.forward_host(&x2).data());
    let err3 = rel_l2_error(y3_turbo.data(), model3.forward_host(&x3).data());
    assert!(err1 < 1e-5, "1D device and host forwards diverge: rel l2 {err1}");
    assert!(err2 < 1e-5, "2D device and host forwards diverge: rel l2 {err2}");
    assert!(err3 < 1e-5, "3D device and host forwards diverge: rel l2 {err3}");
    println!("host cross-check: 1D rel_l2 {err1:.2e}, 2D rel_l2 {err2:.2e}, 3D rel_l2 {err3:.2e}");

    // ------------------------------------------------- measurements ----
    let mut run_case = |dim: &'static str,
                        shape: &str,
                        engine: &'static str,
                        f: &mut dyn FnMut()| {
        let (iters, elapsed) = measure(min_secs, f);
        let fps = iters as f64 / elapsed;
        println!("{dim:>3} {engine:<7} {fps:>9.2} forwards/s  ({iters} iters in {elapsed:.2}s)");
        cases.push(Case {
            dim,
            shape: shape.to_string(),
            engine,
            forwards_per_sec: fps,
            iters,
            elapsed_s: elapsed,
        });
    };

    run_case("1d", &shape1, "turbo", &mut || {
        model1.forward_device(&mut turbo_sess, Variant::TurboBest, &opts, &x1);
    });
    run_case("2d", &shape2, "turbo", &mut || {
        model2.forward_device(&mut turbo_sess, Variant::TurboBest, &opts, &x2);
    });
    run_case("3d", &shape3, "turbo", &mut || {
        model3.forward_device(&mut turbo_sess, Variant::TurboBest, &opts, &x3);
    });

    // -------------------------------------------- mixed-weight serving ----
    // A multi-tenant queue: K same-shape layer requests, each from a
    // different model (K distinct weight buffers). "per-weight" is the
    // pre-PR coalescing rule — requests only stacked when they shared a
    // weight buffer, so this queue degenerates to K sequential launch
    // sequences. "mixed-stacked" packs the weights into one strided
    // buffer and serves the whole queue as a single stacked launch
    // sequence (device-side gather/scatter, one weight slice per
    // stacked sub-batch).
    let (serve_k, serve_n, serve_nf, serve_width) =
        if smoke { (4usize, 128, 32, 8) } else { (8usize, 256, 64, 16) };
    let serve_spec = LayerSpec::d1(1, serve_width, serve_width, serve_n)
        .modes(serve_nf)
        .variant(Variant::TurboBest);
    let serve_shape = format!(
        "k={serve_k} batch=1 width={serve_width} n={serve_n} nf={serve_nf} distinct_weights={serve_k}"
    );
    let mut serve_sess = Session::a100();
    let serve_reqs: Vec<Request> = (0..serve_k)
        .map(|i| {
            let x = serve_sess.alloc("sx", serve_spec.input_len());
            let w = serve_sess.alloc("sw", serve_spec.weight_len());
            let y = serve_sess.alloc("sy", serve_spec.output_len());
            let xd: Vec<tfno_num::C32> = (0..serve_spec.input_len())
                .map(|j| {
                    let t = (i * serve_spec.input_len() + j) as f32;
                    tfno_num::C32::new((t * 0.13).sin(), (t * 0.29).cos())
                })
                .collect();
            let wd: Vec<tfno_num::C32> = (0..serve_spec.weight_len())
                .map(|j| {
                    let t = (i * serve_spec.weight_len() + j) as f32;
                    tfno_num::C32::new((t * 0.41).cos(), (t * 0.07).sin())
                })
                .collect();
            serve_sess.upload(x, &xd);
            serve_sess.upload(w, &wd);
            Request { spec: serve_spec, x, w, y }
        })
        .collect();
    // Cross-check: the stacked path must reproduce the sequential results
    // bitwise before any timing.
    let seq_out: Vec<Vec<tfno_num::C32>> = serve_reqs
        .iter()
        .map(|r| {
            serve_sess.run(&serve_spec, r.x, r.w, r.y);
            serve_sess.download(r.y)
        })
        .collect();
    serve_sess.run_many(&serve_reqs);
    for (i, r) in serve_reqs.iter().enumerate() {
        assert_eq!(
            serve_sess.download(r.y),
            seq_out[i],
            "serve-mixed: stacked request {i} diverged from sequential"
        );
    }
    run_case("serve-mixed", &serve_shape, "per-weight", &mut || {
        for r in &serve_reqs {
            serve_sess.run(&serve_spec, r.x, r.w, r.y);
        }
    });
    run_case("serve-mixed", &serve_shape, "mixed-stacked", &mut || {
        serve_sess.run_many(&serve_reqs);
    });

    // -------------------------------------------- batch stacking ----
    // A queue of K independent batch-1 model forwards — the online-serving
    // shape, where each request is one sample. "per-input" runs them one
    // by one through `forward_device`. "stacked" runs
    // `forward_device_batch`: per layer, all K spectral convs coalesce
    // into ONE stacked launch sequence, then the host computes the K
    // pointwise bypasses. Outputs are bitwise-identical. Batch-1 requests
    // are where stacking pays: the gather/scatter staging is small
    // relative to the per-sequence launch costs it removes (fat-batch
    // offline forwards already amortize their launches).
    let stack_k = if smoke { 4usize } else { 8 };
    let stack_shape = format!(
        "k={stack_k} batch=1 width={width1} layers={layers1} n={n1} nf={nf1}"
    );
    let mut stack_rng = StdRng::seed_from_u64(7);
    let stack_xs: Vec<CTensor> = (0..stack_k)
        .map(|_| CTensor::random(&mut stack_rng, &[1, 1, n1]))
        .collect();
    let mut stack_sess = Session::a100();
    // Cross-check bitwise equality before any timing.
    let stack_want: Vec<CTensor> = stack_xs
        .iter()
        .map(|x| model1.forward_device(&mut stack_sess, Variant::TurboBest, &opts, x).0)
        .collect();
    let stack_got =
        model1.forward_device_batch(&mut stack_sess, Variant::TurboBest, &opts, &stack_xs);
    for (i, ((got, _), want)) in stack_got.iter().zip(&stack_want).enumerate() {
        assert_eq!(
            got.data(),
            want.data(),
            "batch-stacking: stacked forward {i} diverged from its solo forward"
        );
    }
    run_case("batch-stacking", &stack_shape, "per-input", &mut || {
        for x in &stack_xs {
            model1.forward_device(&mut stack_sess, Variant::TurboBest, &opts, x);
        }
    });
    run_case("batch-stacking", &stack_shape, "stacked", &mut || {
        model1.forward_device_batch(&mut stack_sess, Variant::TurboBest, &opts, &stack_xs);
    });

    // --------------------------------------------------- warm session ----
    // Steady-state serving vs cold start on the same 1D model. The warm
    // engine is the bench's long-lived session: its planner answers every
    // layer from its cache and its pool hands back the buffers of the
    // previous forward. The cold engine builds a fresh session per
    // forward — cold planner cache, cold pool.
    let (pool_before, plans_before) = (turbo_sess.pool_stats(), turbo_sess.planner_stats());
    let (y_warm, _) = model1.forward_device(&mut turbo_sess, Variant::TurboBest, &opts, &x1);
    assert_eq!(
        y_warm.data(),
        y1_turbo.data(),
        "warm-session: steady-state forward diverged from the cross-checked output"
    );
    assert_eq!(
        turbo_sess.pool_stats().misses,
        pool_before.misses,
        "warm-session: steady-state forward must allocate nothing"
    );
    assert_eq!(
        turbo_sess.planner_stats().simulated_launches,
        plans_before.simulated_launches,
        "warm-session: steady-state forward must plan nothing"
    );
    run_case("warm-session", &shape1, "cold-session", &mut || {
        let mut sess = Session::a100();
        model1.forward_device(&mut sess, Variant::TurboBest, &opts, &x1);
    });
    run_case("warm-session", &shape1, "long-lived", &mut || {
        model1.forward_device(&mut turbo_sess, Variant::TurboBest, &opts, &x1);
    });

    // ---------------------------------------------- fault-hook overhead ----
    // The fault-injection layer is compiled into every functional launch
    // and every real allocation (see `tfno_gpu_sim::fault`). This
    // scenario reports its hot-path cost on the steady-state 1D forward:
    // "unarmed" is the production configuration (no FaultPlan installed —
    // each event checks an Option and moves on), "armed-zero" installs a
    // seeded plan with every probability at zero, so every event runs the
    // full splitmix64 decision and still injects nothing. The armed cost
    // is a strict superset of the unarmed hook cost, so the ratio
    // armed/unarmed staying at ~1 bounds the production overhead too.
    let fault_probe = FaultPlan::seeded(0xBE11C0DE);
    turbo_sess.set_fault_plan(Some(fault_probe.clone()));
    let (y_armed, _) = model1.forward_device(&mut turbo_sess, Variant::TurboBest, &opts, &x1);
    assert_eq!(
        y_armed.data(),
        y1_turbo.data(),
        "fault-overhead: a zero-probability plan must not perturb the forward"
    );
    assert_eq!(
        turbo_sess.fault_stats().injected(),
        0,
        "fault-overhead: a zero-probability plan must never fire"
    );
    turbo_sess.set_fault_plan(None);
    run_case("fault-overhead", &shape1, "unarmed", &mut || {
        model1.forward_device(&mut turbo_sess, Variant::TurboBest, &opts, &x1);
    });
    turbo_sess.set_fault_plan(Some(fault_probe));
    run_case("fault-overhead", &shape1, "armed-zero", &mut || {
        model1.forward_device(&mut turbo_sess, Variant::TurboBest, &opts, &x1);
    });
    turbo_sess.set_fault_plan(None);

    // ---------------------------------------------- verifier overhead ----
    // The launch-plan verifier proves every launch hazard-free before it
    // issues. Both arms run the warm 1D forward: "off" forces verification
    // off, "on" forces it on (override > TFNO_VERIFY > build profile).
    set_verify_override(Some(true));
    let (y_verified, _) = model1.forward_device(&mut turbo_sess, Variant::TurboBest, &opts, &x1);
    assert_eq!(
        y_verified.data(),
        y1_turbo.data(),
        "verify-overhead: verification must not perturb the forward"
    );
    set_verify_override(Some(false));
    run_case("verify-overhead", &shape1, "off", &mut || {
        model1.forward_device(&mut turbo_sess, Variant::TurboBest, &opts, &x1);
    });
    set_verify_override(Some(true));
    run_case("verify-overhead", &shape1, "on", &mut || {
        model1.forward_device(&mut turbo_sess, Variant::TurboBest, &opts, &x1);
    });
    set_verify_override(None);

    // ---------------------------------------------- backend comparison ----
    // The same TurboBest forwards on the two execution backends behind the
    // `Backend` trait. "sim" is the default simulated device (modeled
    // counts and memory system); "native" is the eager host
    // executor — each kernel's functional body runs immediately, with no
    // event modeling. Outputs are held to the
    // functional contract (float tolerance, not bitwise): both backends
    // run the same kernel bodies, but the native path skips the
    // simulator's launch machinery.
    let mut native_sess = Session::with_backend(NativeBackend::a100());
    let (y1_native, _) = model1.forward_device(&mut native_sess, Variant::TurboBest, &opts, &x1);
    let (y2_native, _) = model2.forward_device(&mut native_sess, Variant::TurboBest, &opts, &x2);
    let err1n = rel_l2_error(y1_native.data(), y1_turbo.data());
    let err2n = rel_l2_error(y2_native.data(), y2_turbo.data());
    assert!(err1n < 1e-5, "backend-native: 1D backends diverge: rel l2 {err1n}");
    assert!(err2n < 1e-5, "backend-native: 2D backends diverge: rel l2 {err2n}");
    run_case("backend-1d", &shape1, "sim", &mut || {
        model1.forward_device(&mut turbo_sess, Variant::TurboBest, &opts, &x1);
    });
    run_case("backend-1d", &shape1, "native", &mut || {
        model1.forward_device(&mut native_sess, Variant::TurboBest, &opts, &x1);
    });
    run_case("backend-2d", &shape2, "sim", &mut || {
        model2.forward_device(&mut turbo_sess, Variant::TurboBest, &opts, &x2);
    });
    run_case("backend-2d", &shape2, "native", &mut || {
        model2.forward_device(&mut native_sess, Variant::TurboBest, &opts, &x2);
    });

    let (pool, plans) = (turbo_sess.pool_stats(), turbo_sess.planner_stats());
    println!(
        "session state after the run: pool {} hits / {} misses, planner {} hits / {} misses",
        pool.hits, pool.misses, plans.hits, plans.misses
    );

    let fps_of = |dim: &str, engine: &str| {
        cases
            .iter()
            .find(|c| c.dim == dim && c.engine == engine)
            .map(|c| c.forwards_per_sec)
            .unwrap_or(f64::NAN)
    };
    let speedup_serve =
        fps_of("serve-mixed", "mixed-stacked") / fps_of("serve-mixed", "per-weight");
    let speedup_stacking =
        fps_of("batch-stacking", "stacked") / fps_of("batch-stacking", "per-input");
    let speedup_warm =
        fps_of("warm-session", "long-lived") / fps_of("warm-session", "cold-session");
    let fault_overhead = fps_of("fault-overhead", "armed-zero") / fps_of("fault-overhead", "unarmed");
    let verify_overhead = fps_of("verify-overhead", "on") / fps_of("verify-overhead", "off");
    let speedup_backend_1d = fps_of("backend-1d", "native") / fps_of("backend-1d", "sim");
    let speedup_backend_2d = fps_of("backend-2d", "native") / fps_of("backend-2d", "sim");
    println!("mixed-weight serving: stacked vs per-weight queues {speedup_serve:.2}x");
    println!("batch stacking: stacked batch forward vs per-input forwards {speedup_stacking:.2}x");
    println!("warm session: long-lived session vs a fresh session per forward {speedup_warm:.2}x");
    println!("fault hooks: armed-zero plan vs unarmed session {fault_overhead:.3}x");
    println!("plan verifier: verification on vs off, steady state {verify_overhead:.3}x");
    println!("native backend vs sim: 1D {speedup_backend_1d:.2}x, 2D {speedup_backend_2d:.2}x");

    // --------------------------------------------------------- JSON ----
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"throughput\",\n");
    json.push_str(&format!("  \"mode\": \"{}\",\n", if smoke { "smoke" } else { "full" }));
    json.push_str(&format!(
        "  \"host_cores\": {},\n  \"workers\": {},\n",
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1),
        tfno_gpu_sim::configured_workers()
    ));
    json.push_str("  \"cases\": [\n");
    for (i, c) in cases.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"dim\": \"{}\", \"engine\": \"{}\", \"shape\": \"{}\", \"forwards_per_sec\": {:.4}, \"iters\": {}, \"elapsed_s\": {:.4}}}{}\n",
            c.dim,
            c.engine,
            json_escape(&c.shape),
            c.forwards_per_sec,
            c.iters,
            c.elapsed_s,
            if i + 1 < cases.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"speedup_serve_mixed\": {speedup_serve:.4},\n  \"speedup_batch_stacking\": {speedup_stacking:.4},\n  \"speedup_warm_session\": {speedup_warm:.4},\n  \"fault_overhead\": {fault_overhead:.4},\n  \"verify_overhead\": {verify_overhead:.4},\n  \"speedup_backend_native_1d\": {speedup_backend_1d:.4},\n  \"speedup_backend_native_2d\": {speedup_backend_2d:.4}\n}}\n"
    ));

    // Paths are relative to the workspace root (cargo runs benches with
    // the package dir as CWD); a smoke run stays out of the tracked file.
    let out_path = std::env::var("TFNO_BENCH_OUT").unwrap_or_else(|_| {
        let file = if smoke { "target/BENCH_throughput.smoke.json" } else { "BENCH_throughput.json" };
        format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"))
    });
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(dir).expect("create the throughput output directory");
    }
    std::fs::write(&out_path, &json).expect("write the throughput JSON");
    println!("wrote {out_path}");

    if check_floors {
        let floors = [
            ("speedup_warm_session", speedup_warm, FLOOR_SPEEDUP_WARM_SESSION),
        ];
        let mut broken = false;
        for (name, got, floor) in floors {
            // NaN (a missing case) must break the floor too.
            if got < floor || got.is_nan() {
                eprintln!("FLOOR BROKEN: {name} = {got:.4} < pinned floor {floor}");
                broken = true;
            } else {
                println!("floor ok: {name} = {got:.4} >= {floor}");
            }
        }
        if broken {
            eprintln!("throughput regression floors broken; failing the run");
            std::process::exit(1);
        }
    }
}

