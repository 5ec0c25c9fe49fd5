//! Calibration probe: prints the key figure shapes in compact form so the
//! cost-model constants can be audited quickly. Not part of the paper's
//! figure set — see `benches/` for the real harness.

use tfno_bench::{measure, perf_pct, problem_1d, problem_2d, sweep};
use tfno_gpu_sim::DeviceConfig;
use turbofno::{SpectralShape, TurboOptions, Variant};

/// A K sweep: PyTorch's modeled time and each Turbo variant's performance
/// relative to it, one row per `(K, shape)` point.
fn k_sweep(cfg: &DeviceConfig, title: &str, points: impl Iterator<Item = (usize, SpectralShape)>) {
    println!("{title}");
    println!(
        "{:>5} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "K", "pt_us", "A%", "B%", "C%", "D%"
    );
    for (k, p) in points {
        let t = sweep(cfg, &p);
        println!(
            "{:>5} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
            k,
            t.pytorch,
            perf_pct(t.pytorch, t.fft_opt),
            perf_pct(t.pytorch, t.fused_fft_gemm),
            perf_pct(t.pytorch, t.fused_gemm_ifft),
            perf_pct(t.pytorch, t.fully_fused)
        );
    }
}

fn main() {
    let cfg = DeviceConfig::a100();
    let opts = TurboOptions::default();

    k_sweep(
        &cfg,
        "--- 1D: K sweep at M=2^20 (fig 10/11/12/13a shape) ---",
        [16usize, 32, 48, 64, 96, 128, 136]
            .into_iter()
            .map(|k| (k, problem_1d(k, 1 << 20, 128, 32))),
    );

    println!("\n--- 1D: M sweep at K=64 (fig 10c shape) ---");
    println!("{:>9} {:>10} {:>10} {:>10}", "M", "pt_us", "A%", "D%");
    for m in [64usize, 256, 1024, 4096, 16384, 65536, 262144] {
        let p = problem_1d(64, m, 128, 32);
        let pt = measure(&cfg, &p, Variant::Pytorch, &opts).total_us();
        let a = measure(&cfg, &p, Variant::FftOpt, &opts).total_us();
        let d = measure(&cfg, &p, Variant::FullyFused, &opts).total_us();
        println!(
            "{:>9} {:>10.1} {:>10.1} {:>10.1}",
            m,
            pt,
            perf_pct(pt, a),
            perf_pct(pt, d)
        );
    }

    println!("\n--- 1D heatmap corners (fig 14 shape: small M + large K should be blue) ---");
    for (k, logm) in [(8usize, 6u32), (128, 6), (8, 20), (128, 20)] {
        let t = sweep(&cfg, &problem_1d(k, 1usize << logm, 128, 64));
        println!(
            "K={k:>4} log2(M)={logm:>2}: speedup {:>7.1}%",
            perf_pct(t.pytorch, t.best_turbo()) - 100.0
        );
    }

    k_sweep(
        &cfg,
        "\n--- 2D: K sweep at BS=8, 256x128, Nf=64 (fig 15-18a shape) ---",
        [16usize, 32, 64, 128]
            .into_iter()
            .map(|k| (k, problem_2d(k, 8, 256, 128, 64))),
    );
}
