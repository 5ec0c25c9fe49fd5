//! Integration tests of the event-accounting invariants the reproduction's
//! claims rest on: analytical == functional, traffic strictly ordered by
//! fusion level, launch counts per variant, and Table-2 structure.

use proptest::prelude::*;
use tfno_num::C32;
use turbofno::{LayerSpec, Session, SimBackend, SpectralShape, Variant};
use turbofno_suite::gpu_sim::{ExecMode, KernelStats};

// Pinned to the simulator: these invariants are properties of the sim's
// event-accounting model (analytical replays, modeled traffic), not of an
// arbitrary backend.
fn run(p: &SpectralShape, v: Variant, mode: ExecMode) -> (KernelStats, usize, f64) {
    run_spec(&LayerSpec::from_shape(*p), v, mode)
}

fn run_spec(spec: &LayerSpec, v: Variant, mode: ExecMode) -> (KernelStats, usize, f64) {
    let mut sess = Session::new(SimBackend::a100());
    let x = sess.alloc("x", spec.input_len());
    let w = sess.alloc("w", spec.weight_len());
    let y = sess.alloc("y", spec.output_len());
    let data: Vec<C32> = (0..spec.input_len())
        .map(|i| C32::new((i as f32 * 0.3).sin(), (i as f32 * 0.7).cos()))
        .collect();
    sess.upload(x, &data);
    let wd: Vec<C32> = (0..spec.weight_len())
        .map(|i| C32::new((i as f32 * 0.2).cos(), (i as f32 * 0.5).sin()))
        .collect();
    sess.upload(w, &wd);
    let r = sess.run(&spec.variant(v).exec(mode), x, w, y);
    (r.total_stats(), r.kernel_count(), r.total_us())
}

#[test]
fn kernel_counts_follow_table2() {
    let p = SpectralShape::d1(2, 16, 16, 128).with_modes(&[32]);
    let counts: Vec<usize> = Variant::CONCRETE
        .iter()
        .map(|v| run(&p, *v, ExecMode::Analytical).1)
        .collect();
    assert_eq!(counts, vec![5, 3, 2, 2, 1]);
}

#[test]
fn traffic_strictly_decreases_with_fusion_level() {
    let p = SpectralShape::d1(8, 32, 32, 128).with_modes(&[32]);
    let pt = run(&p, Variant::Pytorch, ExecMode::Analytical).0;
    let a = run(&p, Variant::FftOpt, ExecMode::Analytical).0;
    let d = run(&p, Variant::FullyFused, ExecMode::Analytical).0;
    assert!(a.global_bytes() < pt.global_bytes());
    assert!(d.global_bytes() < a.global_bytes());
    // the copies are pure overhead: PyTorch moves the truncated tensor 4
    // extra times (trunc write+read is implicit in the next stage reads)
    let extra = pt.global_bytes() - a.global_bytes();
    let nf_tensor = (p.batch * p.k_in * p.modes_total() * 8) as u64;
    assert!(extra >= 2 * nf_tensor, "copies must account for the gap");
}

#[test]
fn flops_reflect_pruning() {
    let full = SpectralShape::d1(2, 16, 16, 128).with_modes(&[128]);
    let pruned = SpectralShape::d1(2, 16, 16, 128).with_modes(&[32]);
    let f_full = run(&full, Variant::FftOpt, ExecMode::Analytical).0.flops;
    let f_pruned = run(&pruned, Variant::FftOpt, ExecMode::Analytical).0.flops;
    assert!(f_pruned < f_full);
}

#[test]
fn fewer_modes_never_cost_more_time() {
    for v in [Variant::Pytorch, Variant::FftOpt, Variant::FullyFused] {
        let t64 = run(
            &SpectralShape::d1(8, 32, 32, 128).with_modes(&[64]),
            v,
            ExecMode::Analytical,
        )
        .2;
        let t32 = run(
            &SpectralShape::d1(8, 32, 32, 128).with_modes(&[32]),
            v,
            ExecMode::Analytical,
        )
        .2;
        assert!(
            t32 <= t64 * 1.01,
            "{v:?}: nf=32 ({t32:.1}us) should not exceed nf=64 ({t64:.1}us)"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Analytical launches must reproduce functional event counts exactly
    /// for every variant at every rank — the contract that makes the
    /// figure sweeps valid, and the one functional launches rely on when
    /// they attach memoized analytical counts instead of metering.
    #[test]
    fn prop_analytical_equals_functional(
        batch in 1usize..4,
        k in 1usize..20,
        nf_sel in 0usize..2,
    ) {
        let specs = [
            LayerSpec::d1(batch, k, k, 128).modes([32, 64][nf_sel]),
            LayerSpec::d2(batch, k, k, 16, 64).modes_xy([4, 8][nf_sel], 32),
            LayerSpec::d3(batch, k, k, 8, 8, 32).modes_xyz(2, [2, 4][nf_sel], 32),
        ];
        for spec in specs {
            for v in Variant::CONCRETE {
                let f = run_spec(&spec, v, ExecMode::Functional).0;
                let a = run_spec(&spec, v, ExecMode::Analytical).0;
                prop_assert_eq!(f, a, "{:?} rank {}", v, spec.shape().rank);
            }
        }
    }
}
