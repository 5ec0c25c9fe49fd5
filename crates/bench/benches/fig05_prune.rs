//! Fig. 5 — FFT butterfly pruning.
//!
//! Reproduces the 4-point example exactly (8 ops full, 3 ops at 25%
//! truncation = 37.5%, 6 ops at 50% = 75%) and extends the analysis to the
//! paper's evaluation sizes (128/256-pt), where we report the *structural*
//! pruning limits of the radix-2 network — a documented deviation from the
//! paper's extrapolated 25%-67.5% claim. The backward cone of a contiguous
//! prefix of outputs already covers every value below the last two
//! stages, so at 128-pt only 17.9% (keep 32) or 7.1% (keep 64) of the
//! ops can be pruned; `tfno_fft::plan`'s tests pin those counts.

use tfno_bench::report;
use tfno_fft::{FftDirection, FftPlan};

fn main() {
    report::header("Fig 5", "FFT pruning op counts (one op per produced value)");

    println!("\n  n | keep |  ops | full | surviving%");
    println!("----+------+------+------+-----------");
    for (n, keeps) in [
        (4usize, vec![1usize, 2, 4]),
        (128, vec![32, 64, 128]),
        (256, vec![64, 128, 256]),
    ] {
        for keep in keeps {
            let plan = FftPlan::new(n, FftDirection::Forward, n, keep);
            println!(
                "{n:>4} | {keep:>4} | {:>4} | {:>4} | {:>9.1}%",
                plan.paper_ops(),
                plan.full_paper_ops(),
                100.0 * plan.surviving_fraction()
            );
        }
    }

    // Pin the paper's 4-point numbers.
    let p1 = FftPlan::new(4, FftDirection::Forward, 4, 1);
    let p2 = FftPlan::new(4, FftDirection::Forward, 4, 2);
    let pf = FftPlan::full(4, FftDirection::Forward);
    assert_eq!((p1.paper_ops(), p2.paper_ops(), pf.paper_ops()), (3, 6, 8));
    report::paper_vs_measured(
        "Fig 5: 4-pt FFT keep-1 ops",
        "3 of 8 (37.5%)",
        &format!("{} of {}", p1.paper_ops(), pf.paper_ops()),
        "MATCH",
    );
    report::paper_vs_measured(
        "Fig 5: 4-pt FFT keep-2 ops",
        "6 of 8 (75%)",
        &format!("{} of {}", p2.paper_ops(), pf.paper_ops()),
        "MATCH",
    );
    let p128 = FftPlan::new(128, FftDirection::Forward, 128, 32);
    report::paper_vs_measured(
        "Extrapolated pruning saving at 128-pt/25%",
        "62.5% (paper's Fig-5 scaling)",
        &format!("{:.1}% (graph-theoretic limit)", 100.0 * (1.0 - p128.surviving_fraction())),
        "DEVIATION (documented)",
    );

    // Zero-padding side (input pruning for the iFFT).
    println!("\ninput zero-padding (inverse FFT):");
    for (n, nv) in [(128usize, 32usize), (256, 64)] {
        let plan = FftPlan::new(n, FftDirection::Inverse, nv, n);
        let full = FftPlan::full(n, FftDirection::Inverse);
        println!(
            "  n={n:>3} valid={nv:>3}: flops {:>6} vs full {:>6} ({:.1}% saved)",
            plan.flops_per_pencil(),
            full.flops_per_pencil(),
            100.0 * (1.0 - plan.flops_per_pencil() as f64 / full.flops_per_pencil() as f64)
        );
    }
}
