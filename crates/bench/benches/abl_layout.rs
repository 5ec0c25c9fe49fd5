//! Ablation: shared-memory layout and swizzling inside the fused kernel.
//!
//! Runs the fully fused 1D kernel with (a) the paper's thread-to-data
//! layout + both swizzles, and (b) the VkFFT-style strided layout with
//! swizzles disabled, and reports bank-conflict replay cycles, modeled
//! shared-memory time, and end-to-end impact. This quantifies the paper's
//! swizzle design (Figs. 7/8) applied end to end, beyond the per-pattern
//! bank utilization `fig07_swizzle_a`/`fig08_swizzle_c` report.

use tfno_bench::{measure, problem_1d, report};
use tfno_gpu_sim::DeviceConfig;
use turbofno::{ForwardLayout, TurboOptions, Variant};

fn main() {
    report::header(
        "Ablation: layouts",
        "Fused kernel with vs without the Figs. 7/8 shared-memory swizzles",
    );
    let cfg = DeviceConfig::a100();

    println!(
        "\n{:>5} {:>7} | {:>14} {:>14} {:>9} | {:>14} {:>14} {:>9}",
        "K", "M", "swz cycles", "raw cycles", "extra%", "swz us", "raw us", "slowdown%"
    );
    for (k, m) in [(32usize, 1usize << 16), (64, 1 << 18), (128, 1 << 20)] {
        let p = problem_1d(k, m, 128, 32);
        let good = measure(&cfg, &p, Variant::FullyFused, &TurboOptions::default());
        let bad_opts = TurboOptions {
            forward_layout: ForwardLayout::VkFftStrided,
            epilogue_swizzle: false,
            ..Default::default()
        };
        let bad = measure(&cfg, &p, Variant::FullyFused, &bad_opts);
        let gs = good.total_stats();
        let bs = bad.total_stats();
        let extra =
            100.0 * (bs.shared_actual_cycles as f64 / gs.shared_actual_cycles as f64 - 1.0);
        let slowdown = 100.0 * (bad.total_us() / good.total_us() - 1.0);
        println!(
            "{k:>5} {m:>7} | {:>14} {:>14} {extra:>8.1}% | {:>13.1} {:>13.1} {slowdown:>8.2}%",
            gs.shared_actual_cycles,
            bs.shared_actual_cycles,
            good.total_us(),
            bad.total_us(),
        );
        assert!(bs.shared_actual_cycles > gs.shared_actual_cycles);
    }
    report::paper_vs_measured(
        "swizzled layouts remove bank replays",
        "25% -> 100% utilization on the forwarding paths",
        "replay cycles strictly lower with swizzles at every size",
        "MATCH",
    );
}
