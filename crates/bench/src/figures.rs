//! Shared drivers for the paper's line figures and heatmaps.

use crate::report::{self, summarize};
use crate::{perf_pct, problem_1d, problem_2d, speedup_pct, sweep, VariantTimes};
use tfno_gpu_sim::DeviceConfig;
use turbofno::Variant;

/// Figures 10–13: 1D line plots. Subplot (a) sweeps K at `M = 2^20`;
/// (b)–(d) sweep the batch axis at `K ∈ {32, 64, 128}`.
/// All use the 128-point FFT with 25% truncation (`nf = 32`).
pub fn line_1d(fig: &str, caption: &str, variants: &[Variant], m_axis: &[usize]) {
    report::header(fig, caption);
    let cfg = DeviceConfig::a100();
    let (n, nf) = (128usize, 32usize);

    // (a) K sweep
    let ks: Vec<usize> = (16..=136).step_by(8).collect();
    let points: Vec<VariantTimes> = ks
        .iter()
        .map(|&k| sweep(&cfg, &problem_1d(k, 1 << 20, n, nf)))
        .collect();
    println!("\n(a) Performance vs PyTorch (%), changing K, fix M=2^20:");
    let xs: Vec<String> = ks.iter().map(|k| k.to_string()).collect();
    let series: Vec<(&str, Vec<f64>)> = variants
        .iter()
        .map(|v| {
            (
                v.label(),
                points.iter().map(|t| perf_pct(t.pytorch, t.of(*v))).collect(),
            )
        })
        .collect();
    report::series_table("K", &xs, &series);

    // (b)-(d) batch sweeps
    for k in [32usize, 64, 128] {
        let points: Vec<VariantTimes> = m_axis
            .iter()
            .map(|&m| sweep(&cfg, &problem_1d(k, m, n, nf)))
            .collect();
        println!("\nPerformance vs PyTorch (%), changing M, fix K={k}:");
        let xs: Vec<String> = m_axis.iter().map(|m| m.to_string()).collect();
        let series: Vec<(&str, Vec<f64>)> = variants
            .iter()
            .map(|v| {
                (
                    v.label(),
                    points.iter().map(|t| perf_pct(t.pytorch, t.of(*v))).collect(),
                )
            })
            .collect();
        report::series_table("M", &xs, &series);
    }
}

/// Figures 15–18: 2D line plots at resolution 256x128 with `Nf = 64`.
pub fn line_2d(fig: &str, caption: &str, variants: &[Variant], bs_axis: &[usize]) {
    report::header(fig, caption);
    let cfg = DeviceConfig::a100();
    let (nx, ny, nf) = (256usize, 128usize, 64usize);

    let ks: Vec<usize> = (16..=136).step_by(8).collect();
    let points: Vec<VariantTimes> = ks
        .iter()
        .map(|&k| sweep(&cfg, &problem_2d(k, 8, nx, ny, nf)))
        .collect();
    println!("\n(a) Performance vs PyTorch (%), changing K, fix BS=8 (256x128, Nf=64):");
    let xs: Vec<String> = ks.iter().map(|k| k.to_string()).collect();
    let series: Vec<(&str, Vec<f64>)> = variants
        .iter()
        .map(|v| {
            (
                v.label(),
                points.iter().map(|t| perf_pct(t.pytorch, t.of(*v))).collect(),
            )
        })
        .collect();
    report::series_table("K", &xs, &series);

    for k in [32usize, 64, 128] {
        let points: Vec<VariantTimes> = bs_axis
            .iter()
            .map(|&bs| sweep(&cfg, &problem_2d(k, bs, nx, ny, nf)))
            .collect();
        println!("\nPerformance vs PyTorch (%), changing BS, fix K={k}:");
        let xs: Vec<String> = bs_axis.iter().map(|b| b.to_string()).collect();
        let series: Vec<(&str, Vec<f64>)> = variants
            .iter()
            .map(|v| {
                (
                    v.label(),
                    points.iter().map(|t| perf_pct(t.pytorch, t.of(*v))).collect(),
                )
            })
            .collect();
        report::series_table("BS", &xs, &series);
    }
}

/// Fig. 14: 1D heatmaps of TurboFNO (best-of) speedup vs PyTorch over
/// (K, log2 M) for {128, 256}-pt FFTs and filter sizes {64, 128}.
/// Returns all speedup values for the summary.
pub fn heatmap_1d() -> Vec<f64> {
    let cfg = DeviceConfig::a100();
    let ks: Vec<usize> = (8..=120).step_by(16).collect();
    let logms: Vec<u32> = (6..=20).step_by(2).collect();
    let mut all = Vec::new();
    for (n, nf) in [(128usize, 64usize), (128, 128), (256, 64), (256, 128)] {
        let mut rows = Vec::new();
        for &logm in &logms {
            let mut row = Vec::new();
            for &k in &ks {
                let t = sweep(&cfg, &problem_1d(k, 1usize << logm, n, nf));
                let s = speedup_pct(t.pytorch, t.best_turbo());
                row.push(s);
                all.push(s);
            }
            rows.push(row);
        }
        let xs: Vec<String> = ks.iter().map(|k| k.to_string()).collect();
        let ys: Vec<String> = logms.iter().map(|m| format!("2^{m}")).collect();
        report::heatmap(
            &format!("{n}-pt FFT, N={nf}: TurboFNO speedup vs PyTorch (%)"),
            "M \\ K",
            &xs,
            &ys,
            &rows,
        );
    }
    all
}

/// Fig. 19: 2D heatmaps over (K, batch) for {256x128, 256x256} and filter
/// sizes {64, 128}.
pub fn heatmap_2d() -> Vec<f64> {
    let cfg = DeviceConfig::a100();
    let ks: Vec<usize> = (8..=120).step_by(16).collect();
    let bss: Vec<usize> = vec![1, 16, 32, 48, 64, 80, 96, 112, 128];
    let mut all = Vec::new();
    for (nx, ny, nf) in [
        (256usize, 128usize, 64usize),
        (256, 128, 128),
        (256, 256, 64),
        (256, 256, 128),
    ] {
        let mut rows = Vec::new();
        for &bs in &bss {
            let mut row = Vec::new();
            for &k in &ks {
                let t = sweep(&cfg, &problem_2d(k, bs, nx, ny, nf));
                let s = speedup_pct(t.pytorch, t.best_turbo());
                row.push(s);
                all.push(s);
            }
            rows.push(row);
        }
        let xs: Vec<String> = ks.iter().map(|k| k.to_string()).collect();
        let ys: Vec<String> = bss.iter().map(|b| b.to_string()).collect();
        report::heatmap(
            &format!("{nx}x{ny} 2D FFT, N={nf}: TurboFNO speedup vs PyTorch (%)"),
            "BS \\ K",
            &xs,
            &ys,
            &rows,
        );
    }
    all
}

/// Print the avg/max/min summary with a paper comparison.
pub fn speedup_summary(fig: &str, values: &[f64], paper_avg: &str, paper_max: &str) {
    let (avg, max, min) = summarize(values);
    println!("\nsummary: avg {avg:+.1}%  max {max:+.1}%  min {min:+.1}%");
    report::paper_vs_measured(
        &format!("{fig} average speedup"),
        paper_avg,
        &format!("{avg:+.1}%"),
        "SHAPE",
    );
    report::paper_vs_measured(
        &format!("{fig} max speedup"),
        paper_max,
        &format!("{max:+.1}%"),
        "SHAPE",
    );
}
