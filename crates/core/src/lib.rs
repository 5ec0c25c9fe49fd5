//! # turbofno
//!
//! The paper's core contribution, reproduced on the simulated GPU: fully
//! fused FFT–CGEMM–iFFT kernels for Fourier Neural Operators with
//! dataflow alignment (§4.1), an iFFT epilogue (§4.2), and the two
//! shared-memory swizzling patterns that take bank utilization from 25%
//! to 100% (Figs. 7–8).
//!
//! * [`session`] — the execution surface: [`Session`] (device + planner +
//!   buffer pool in one owning handle), [`LayerSpec`] (builder-style layer
//!   description) and [`Session::run_many`] batched serving;
//! * [`swizzle`] — the address-level swizzle patterns with pinned
//!   utilization numbers;
//! * [`fused`] — the generic fused kernel (variants B/C/D) over the
//!   rank-generic layer geometry ([`GeomNd`]);
//! * [`pipeline`] — executors for every evaluated variant (Table 2) and
//!   the best-of selection the paper calls "TurboFNO";
//! * `pytorch` — the PyTorch baseline's 5/7/9-kernel chain over the
//!   `tfno-culib` kernels, run by the same engine;
//! * [`pool`] — the size-class scratch [`BufferPool`] sessions allocate
//!   pipeline intermediates from;
//! * [`planner`] — the memoizing `TurboBest` [`Planner`].
//!
//! Numerical equivalence of every variant against the naive reference
//! layer is enforced by the test suite (`tests/` in this crate and the
//! workspace-level integration tests).

// Lane loops (`for l in 0..WARP_SIZE`) deliberately mirror the CUDA
// warp-synchronous style.
#![allow(clippy::needless_range_loop)]

pub mod backend;
pub mod error;
pub mod fused;
#[cfg(test)]
mod fused_tests;
pub mod pipeline;
pub mod planner;
pub mod pool;
mod pytorch;
pub mod session;
pub mod swizzle;
pub mod verify;

pub use backend::{
    parse_backend_kind, AnyBackend, Backend, BackendKind, NativeBackend, SimBackend,
};
pub use error::{RecoveryStats, RetryPolicy, TfnoError};
pub use fused::{FusedKernel, GeomNd, FUSED_FFT_BS};
pub use pipeline::{PipelineRun, TurboOptions, Variant, TURBO_FFT_L1_HIT};
pub use planner::{Planner, PlannerStats, TURBO_CANDIDATES};
pub use pool::{BufferPool, PoolStats};
pub use session::{DispatchStats, LaunchHandle, LayerSpec, ReplayStats, Request, Session};
pub use verify::{check_launch, set_verify_override, verifier_enabled, PlanHazard};
// The strided-batched weight layout mixed-weight serving stacks ride on.
pub use tfno_cgemm::WeightStacking;
pub use swizzle::{
    epilogue_store_pattern, fft_writeback_pattern, fig8_offset, forward_to_as_pattern,
    pattern_utilization, EpilogueStaging, ForwardLayout,
};

// Re-export the layer shape so users of the core crate see one API.
pub use tfno_culib::{SpectralShape, MAX_RANK};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{AnyBackend, Backend, BufferId, ExecMode, SimBackend};
    use tfno_num::error::rel_l2_error;
    use tfno_num::{C32, CTensor};

    /// O(N log N) reference Fourier layer via the host Stockham path of
    /// `tfno-model` (dev-dependency; itself pinned against the naive
    /// O(N^2) DFT), so the hottest equivalence checks here do not pay
    /// quadratic DFT cost.
    fn reference_layer(x: &CTensor, w: &CTensor, s: &SpectralShape) -> CTensor {
        let r = s.rank;
        tfno_model::SpectralConvNd::new(
            s.k_in,
            s.k_out,
            s.dims[..r].to_vec(),
            s.modes[..r].to_vec(),
            w.clone(),
        )
        .forward_host(x)
    }

    /// The `[batch, k_in, ...dims]` input tensor of `s`.
    fn input_tensor(data: Vec<C32>, s: &SpectralShape) -> CTensor {
        let mut shape = vec![s.batch, s.k_in];
        shape.extend_from_slice(&s.dims[..s.rank]);
        CTensor::from_vec(data, &shape)
    }

    fn rand_like(len: usize, seed: f32) -> Vec<C32> {
        (0..len)
            .map(|i| {
                C32::new(
                    ((i as f32) * 0.19 + seed).sin(),
                    ((i as f32) * 0.31 - seed).cos(),
                )
            })
            .collect()
    }

    /// A fresh session with uploaded operands for `p`; returns the
    /// uploaded data so references are computed from exactly those values.
    /// Runs on the env-selected backend; tests that pin sim-modeled stats
    /// use [`session_for_1d_sim`] instead.
    #[allow(clippy::type_complexity)]
    fn session_for_1d(
        p: &SpectralShape,
    ) -> (
        Session<AnyBackend>,
        LayerSpec,
        [BufferId; 3],
        (Vec<C32>, Vec<C32>),
    ) {
        session_for_1d_in(Session::a100(), p)
    }

    /// Like [`session_for_1d`] but pinned to the simulator, for tests that
    /// assert modeled traffic/cycle stats or analytical-mode agreement.
    #[allow(clippy::type_complexity)]
    fn session_for_1d_sim(
        p: &SpectralShape,
    ) -> (
        Session<SimBackend>,
        LayerSpec,
        [BufferId; 3],
        (Vec<C32>, Vec<C32>),
    ) {
        session_for_1d_in(Session::new(SimBackend::a100()), p)
    }

    #[allow(clippy::type_complexity)]
    fn session_for_1d_in<B: Backend>(
        mut sess: Session<B>,
        p: &SpectralShape,
    ) -> (
        Session<B>,
        LayerSpec,
        [BufferId; 3],
        (Vec<C32>, Vec<C32>),
    ) {
        let spec = LayerSpec::from_shape(*p);
        let x = sess.alloc("x", p.input_len());
        let w = sess.alloc("w", p.weight_len());
        let y = sess.alloc("y", p.output_len());
        let xd = rand_like(p.input_len(), 0.5);
        let wd = rand_like(p.weight_len(), 0.8);
        sess.upload(x, &xd);
        sess.upload(w, &wd);
        (sess, spec, [x, w, y], (xd, wd))
    }

    fn run_1d(p: &SpectralShape, v: Variant) -> (Vec<C32>, PipelineRun, CTensor) {
        run_1d_in(session_for_1d(p), p, v)
    }

    /// Like [`run_1d`] but pinned to the simulator (modeled stats).
    fn run_1d_sim(p: &SpectralShape, v: Variant) -> (Vec<C32>, PipelineRun, CTensor) {
        run_1d_in(session_for_1d_sim(p), p, v)
    }

    #[allow(clippy::type_complexity)]
    fn run_1d_in<B: Backend>(
        parts: (Session<B>, LayerSpec, [BufferId; 3], (Vec<C32>, Vec<C32>)),
        p: &SpectralShape,
        v: Variant,
    ) -> (Vec<C32>, PipelineRun, CTensor) {
        let (mut sess, spec, [x, w, y], (xd, wd)) = parts;
        let run = sess.run(&spec.variant(v), x, w, y);
        let xt = input_tensor(xd, p);
        let wt = CTensor::from_vec(wd, &[p.k_in, p.k_out]);
        let want = reference_layer(&xt, &wt, p);
        (sess.download(y), run, want)
    }

    #[test]
    fn all_1d_variants_match_reference() {
        let p = SpectralShape::d1(2, 12, 16, 128).with_modes(&[32]);
        for v in Variant::CONCRETE {
            let (got, run, want) = run_1d(&p, v);
            let err = rel_l2_error(&got, want.data());
            assert!(err < 1e-4, "{v:?}: rel l2 error {err}");
            let expected_kernels = match v {
                Variant::Pytorch => 5,
                Variant::FftOpt => 3,
                Variant::FusedFftGemm | Variant::FusedGemmIfft => 2,
                Variant::FullyFused => 1,
                Variant::TurboBest => unreachable!(),
            };
            assert_eq!(run.kernel_count(), expected_kernels, "{v:?}");
        }
    }

    #[test]
    fn turbo_best_matches_reference_1d() {
        let p = SpectralShape::d1(2, 8, 8, 128).with_modes(&[32]);
        let (got, run, want) = run_1d(&p, Variant::TurboBest);
        let err = rel_l2_error(&got, want.data());
        assert!(err < 1e-4, "rel l2 error {err}");
        assert!(run.kernel_count() <= 3);
    }

    #[test]
    fn fused_variants_reduce_traffic_and_launches() {
        let p = SpectralShape::d1(4, 32, 32, 128).with_modes(&[32]);
        let (_, pt, _) = run_1d_sim(&p, Variant::Pytorch);
        let (_, a, _) = run_1d_sim(&p, Variant::FftOpt);
        let (_, d, _) = run_1d_sim(&p, Variant::FullyFused);
        let pt_bytes = pt.total_stats().global_bytes();
        let a_bytes = a.total_stats().global_bytes();
        let d_bytes = d.total_stats().global_bytes();
        assert!(
            a_bytes < pt_bytes,
            "A must cut traffic: {a_bytes} !< {pt_bytes}"
        );
        assert!(
            d_bytes < a_bytes,
            "D must cut traffic further: {d_bytes} !< {a_bytes}"
        );
        assert!(pt.kernel_count() > a.kernel_count());
        assert!(a.kernel_count() > d.kernel_count());
    }

    #[test]
    fn ablation_layouts_only_change_bank_stats() {
        let p = SpectralShape::d1(2, 16, 16, 128).with_modes(&[32]);
        let run_with = |layout: ForwardLayout, swz: bool| {
            let (mut sess, spec, [x, w, y], _) = session_for_1d_sim(&p);
            let opts = TurboOptions {
                forward_layout: layout,
                epilogue_swizzle: swz,
                ..Default::default()
            };
            let run = sess.run(
                &spec.variant(Variant::FullyFused).options(opts),
                x,
                w,
                y,
            );
            (sess.download(y), run)
        };
        let (y_good, run_good) = run_with(ForwardLayout::TurboContiguous, true);
        let (y_bad, run_bad) = run_with(ForwardLayout::VkFftStrided, false);
        // numerics identical
        let err = rel_l2_error(&y_good, &y_bad);
        assert!(err < 1e-6, "layouts changed numerics: {err}");
        // The bad layout must pay more shared-memory replay cycles. (The
        // whole-kernel utilization delta is modest because butterfly and
        // staging traffic dominates; the per-pattern 25% -> 100% numbers of
        // Figs. 7/8 are pinned exactly in swizzle::tests.)
        let good = run_good.total_stats();
        let bad = run_bad.total_stats();
        assert_eq!(good.shared_ideal_cycles, bad.shared_ideal_cycles);
        assert!(
            bad.shared_actual_cycles > good.shared_actual_cycles,
            "swizzles must remove replays: {} vs {}",
            bad.shared_actual_cycles,
            good.shared_actual_cycles
        );
    }

    fn run_2d(p: &SpectralShape, v: Variant) -> (Vec<C32>, PipelineRun, CTensor) {
        let mut sess = Session::a100();
        let spec = LayerSpec::from_shape(*p).variant(v);
        let x = sess.alloc("x", p.input_len());
        let w = sess.alloc("w", p.weight_len());
        let y = sess.alloc("y", p.output_len());
        let xd = rand_like(p.input_len(), 0.2);
        let wd = rand_like(p.weight_len(), 0.6);
        sess.upload(x, &xd);
        sess.upload(w, &wd);
        let run = sess.run(&spec, x, w, y);
        let xt = input_tensor(xd, p);
        let wt = CTensor::from_vec(wd, &[p.k_in, p.k_out]);
        let want = reference_layer(&xt, &wt, p);
        (sess.download(y), run, want)
    }

    #[test]
    fn all_2d_variants_match_reference() {
        let p = SpectralShape::d2(1, 10, 8, 32, 64).with_modes(&[8, 32]);
        for v in Variant::CONCRETE {
            let (got, run, want) = run_2d(&p, v);
            let err = rel_l2_error(&got, want.data());
            assert!(err < 1e-4, "{v:?}: rel l2 error {err}");
            let expected_kernels = match v {
                Variant::Pytorch => 7,
                Variant::FftOpt => 5,
                Variant::FusedFftGemm | Variant::FusedGemmIfft => 4,
                Variant::FullyFused => 3,
                Variant::TurboBest => unreachable!(),
            };
            assert_eq!(run.kernel_count(), expected_kernels, "{v:?}");
        }
    }

    #[test]
    fn analytical_equals_functional_fused() {
        let p = SpectralShape::d1(3, 16, 24, 128).with_modes(&[32]);
        for v in [
            Variant::FftOpt,
            Variant::FusedFftGemm,
            Variant::FusedGemmIfft,
            Variant::FullyFused,
        ] {
            let (mut sess, spec, [x, w, y], _) = session_for_1d_sim(&p);
            let f = sess.run(&spec.variant(v), x, w, y);
            let a = sess.run(&spec.variant(v).exec(ExecMode::Analytical), x, w, y);
            assert_eq!(f.total_stats(), a.total_stats(), "{v:?}");
        }
    }

    #[test]
    fn analytical_equals_functional_fused_2d() {
        let p = SpectralShape::d2(2, 12, 8, 32, 64).with_modes(&[8, 32]);
        for v in [Variant::FftOpt, Variant::FullyFused] {
            let mut sess = Session::new(SimBackend::a100());
            let spec = LayerSpec::from_shape(p).variant(v);
            let x = sess.alloc("x", p.input_len());
            let w = sess.alloc("w", p.weight_len());
            let y = sess.alloc("y", p.output_len());
            sess.upload(x, &rand_like(p.input_len(), 0.3));
            sess.upload(w, &rand_like(p.weight_len(), 0.4));
            let f = sess.run(&spec, x, w, y);
            let a = sess.run(&spec.exec(ExecMode::Analytical), x, w, y);
            assert_eq!(f.total_stats(), a.total_stats(), "{v:?}");
        }
    }
}
