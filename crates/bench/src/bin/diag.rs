//! Per-launch diagnostic dump for calibration.
use tfno_bench::{measure, problem_1d, problem_2d};
use tfno_gpu_sim::DeviceConfig;
use turbofno::{TurboOptions, Variant};

fn dump(label: &str, run: &turbofno::PipelineRun) {
    println!("== {label}: total {:.1} us", run.total_us());
    for l in &run.launches {
        println!(
            "   {:<28} grid {:>8} t={:>9.1}us flops={:>12} ld={:>12} st={:>12} ldsec={:>10} shact={:>10} sync={:>8}",
            l.name, l.dims_grid, l.time_us, l.stats.flops,
            l.stats.global_load_bytes, l.stats.global_store_bytes,
            l.stats.global_load_sectors, l.stats.shared_actual_cycles, l.stats.syncthreads
        );
    }
}

fn main() {
    let cfg = DeviceConfig::a100();
    let opts = TurboOptions::default();
    let p2 = problem_2d(16, 8, 256, 128, 64);
    for v in [Variant::Pytorch, Variant::FftOpt, Variant::FusedFftGemm, Variant::FullyFused] {
        dump(&format!("2D K=16 {:?}", v), &measure(&cfg, &p2, v, &opts));
    }
    let p1 = problem_1d(64, 1 << 20, 128, 32);
    for v in [Variant::Pytorch, Variant::FftOpt, Variant::FusedGemmIfft, Variant::FullyFused] {
        dump(&format!("1D K=64 nf=32 {:?}", v), &measure(&cfg, &p1, v, &opts));
    }
}
