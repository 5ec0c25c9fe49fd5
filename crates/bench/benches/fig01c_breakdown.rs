//! Fig. 1(c) — per-stage time breakdown: PyTorch's five-stage pipeline
//! (FFT, memcopy, CGEMM, memcopy, iFFT) versus the fused kernel.
//!
//! The paper's bar chart makes the motivation visual: the copies and
//! intermediate round trips vanish under fusion.

use tfno_bench::{measure, problem_1d, report};
use tfno_gpu_sim::DeviceConfig;
use turbofno::{TurboOptions, Variant};

fn main() {
    report::header(
        "Fig 1(c)",
        "Fusion speedup: stage breakdown, PyTorch vs TurboFNO (1D layer, K=64, M=2^18, 128-pt, Nf=32)",
    );
    let cfg = DeviceConfig::a100();
    let p = problem_1d(64, 1 << 18, 128, 32);

    let opts = TurboOptions::default();
    let pt = measure(&cfg, &p, Variant::Pytorch, &opts);
    println!("\nPyTorch pipeline:");
    let mut pt_total = 0.0;
    for l in &pt.launches {
        println!("  {:<14} {:>9.1} us", l.name, l.time_us);
        pt_total += l.time_us;
    }
    println!("  {:<14} {pt_total:>9.1} us", "TOTAL");

    let fused = measure(&cfg, &p, Variant::FullyFused, &opts);
    println!("\nTurboFNO fused FFT-GEMM-iFFT:");
    let mut f_total = 0.0;
    for l in &fused.launches {
        println!("  {:<28} {:>9.1} us", l.name, l.time_us);
        f_total += l.time_us;
    }
    println!("  {:<28} {f_total:>9.1} us", "TOTAL");

    let speedup = 100.0 * (pt_total / f_total - 1.0);
    println!("\nfused speedup vs PyTorch: {speedup:+.1}%");
    report::paper_vs_measured(
        "Fig 1c fused vs 5-stage pipeline",
        "fused clearly faster",
        &format!("{speedup:+.1}% (1 kernel vs 5)"),
        if speedup > 0.0 { "SHAPE MATCH" } else { "MISMATCH" },
    );
}
