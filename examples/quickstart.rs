//! Quickstart: the `Session` API — one FNO Fourier layer through every
//! pipeline variant, then a batched multi-request queue.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! A [`turbofno::Session`] owns the simulated A100, the memoized
//! `TurboBest` planner, and a scratch buffer pool; layers are described by
//! a [`turbofno::LayerSpec`] builder and executed with `session.run` (or
//! queued through `session.run_many`). This example builds a 1D spectral
//! convolution (the paper's Fig. 1 pipeline), executes it at every
//! TurboFNO fusion level, verifies all outputs against the host reference,
//! and prints the modeled timing comparison plus the session's cache
//! counters — the second run of every shape plans nothing and allocates
//! nothing.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tfno_model::SpectralConvNd;
use tfno_num::error::rel_l2_error;
use tfno_num::CTensor;
use turbofno::{LayerSpec, Request, Session, Variant};

fn main() {
    // One Fourier layer: 64 hidden channels, 128-point signals, keep 32 modes.
    let (batch, width, n, nf) = (8usize, 64usize, 128usize, 32usize);
    let mut rng = StdRng::seed_from_u64(2026);
    let layer = SpectralConvNd::random(&mut rng, width, width, &[n], &[nf]);
    let x = CTensor::random(&mut rng, &[batch, width, n]);

    println!("FNO Fourier layer: [batch={batch}, k={width}, n={n}], {nf} retained modes");
    println!("reference: host Stockham FFT + shared-weight CGEMM + padded iFFT\n");
    let reference = layer.forward_host(&x);

    // One session serves everything below: device + planner + buffer pool.
    let mut sess = Session::a100();

    println!(
        "{:<24} {:>9} {:>9} {:>12} {:>12}",
        "variant", "kernels", "time(us)", "vs PyTorch", "rel L2 err"
    );
    let mut pytorch_us = None;
    for variant in [
        Variant::Pytorch,
        Variant::FftOpt,
        Variant::FusedFftGemm,
        Variant::FusedGemmIfft,
        Variant::FullyFused,
        Variant::TurboBest,
    ] {
        let (y, run) = layer.forward_device(&mut sess, variant, &Default::default(), &x);
        let err = rel_l2_error(y.data(), reference.data());
        assert!(err < 1e-4, "{variant:?} diverged: {err}");
        let t = run.total_us();
        let pt = *pytorch_us.get_or_insert(t);
        println!(
            "{:<24} {:>9} {:>9.1} {:>11.1}% {:>12.2e}",
            variant.label(),
            run.kernel_count(),
            t,
            100.0 * pt / t,
            err
        );
    }

    // The same layer through the bare-buffer API: describe it with a
    // LayerSpec, hand the session three device buffers.
    let spec = LayerSpec::d1(batch, width, width, n)
        .modes(nf)
        .variant(Variant::TurboBest);
    let xb = sess.alloc("demo.x", spec.input_len());
    let wb = sess.alloc("demo.w", spec.weight_len());
    let yb = sess.alloc("demo.y", spec.output_len());
    sess.upload(xb, x.data());
    sess.upload(wb, layer.weight.data());
    sess.run(&spec, xb, wb, yb);
    let err = rel_l2_error(&sess.download(yb), reference.data());
    assert!(err < 1e-4, "LayerSpec path diverged: {err}");

    // Batched serving: queue four same-shape requests sharing the weight
    // buffer — run_many plans once and coalesces them into one stacked
    // launch sequence.
    let reqs: Vec<Request> = (0..4)
        .map(|_| Request {
            spec,
            x: xb,
            w: wb,
            y: sess.acquire(spec.output_len()),
        })
        .collect();
    let runs = sess.run_many(&reqs);
    let coalesced: usize = runs.iter().map(|r| r.kernel_count()).sum();
    for r in &reqs {
        let err = rel_l2_error(&sess.download(r.y), reference.data());
        assert!(err < 1e-4, "run_many diverged: {err}");
    }
    println!("\nrun_many: 4 queued same-shape requests -> {coalesced} kernel launches total");

    // Mixed-weight serving: four requests from four *different* models
    // (distinct weight buffers) still coalesce into one stacked launch
    // sequence — the weights are packed into a pooled strided buffer and
    // each stacked sub-batch reads its own slice.
    let mixed: Vec<Request> = (0..4)
        .map(|_| {
            let w = sess.alloc("demo.w_i", spec.weight_len());
            sess.upload(w, layer.weight.data());
            Request {
                spec,
                x: xb,
                w,
                y: sess.acquire(spec.output_len()),
            }
        })
        .collect();
    let mixed_runs = sess.run_many(&mixed);
    let mixed_coalesced: usize = mixed_runs.iter().map(|r| r.kernel_count()).sum();
    assert_eq!(
        mixed_coalesced, coalesced,
        "mixed weights must stack exactly like a shared weight"
    );
    for r in &mixed {
        let err = rel_l2_error(&sess.download(r.y), reference.data());
        assert!(err < 1e-4, "mixed-weight run_many diverged: {err}");
    }
    println!("run_many: 4 distinct-weight requests -> {mixed_coalesced} launches (same stack)");

    let (pool, plans) = (sess.pool_stats(), sess.planner_stats());
    println!(
        "session caches: planner {} hits / {} misses, pool {} hits / {} misses",
        plans.hits, plans.misses, pool.hits, pool.misses
    );
    assert!(pool.hits > 0, "warm shapes must recycle pooled buffers");

    println!("\nAll variants agree with the reference. The fused pipeline needs a");
    println!("single kernel launch where the baseline needs five (FFT, truncate-");
    println!("copy, CGEMM, pad-copy, iFFT); a warm Session re-plans and");
    println!("re-allocates nothing.");
}
