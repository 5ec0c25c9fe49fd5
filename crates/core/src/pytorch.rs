//! The PyTorch-style baseline (the paper's comparison base), run by the
//! same engine as the Turbo variants.
//!
//! Replicates, kernel for kernel, what `torch.fft` + `einsum`-as-batched-
//! CGEMM + tensor slicing/padding do for one FNO Fourier layer over a
//! rank-`r` grid, in `2r + 3` kernels:
//!
//! 1. one full FFT per axis, innermost axis first;
//! 2. a corner-truncate copy;
//! 3. the hidden-dim CGEMM;
//! 4. a corner-pad copy;
//! 5. one full iFFT per axis, outermost axis first.
//!
//! That is 5 kernels in 1D, 7 in 2D and 9 in 3D. Every stage round-trips
//! global memory, and the copies exist only because cuFFT cannot filter —
//! the two inefficiencies TurboFNO removes. The kernels come from
//! `tfno-culib`. [`ExecCtx::pytorch_spectral`] walks the axes of a
//! [`SpectralShape`] the way the Turbo body does: its `2r + 2`
//! temporaries are pool leases, recycled across calls the way PyTorch's
//! caching allocator recycles them across forwards, and every launch goes
//! through `ExecCtx::try_step`.

use crate::backend::{BufferId, ExecMode, LaunchError, LaunchRecord};
use crate::pipeline::{spectral_gemm, ExecCtx, LayerBufs, PipelineRun};
use tfno_culib::{
    Corner, CornerPad, CornerTruncate, CuFft, SpectralShape, StridedCopyKernel, MAX_RANK,
};
use tfno_fft::{FftDirection, StridedPencils};

/// Per-rank launch names, in launch order: `r` forward FFTs (innermost
/// axis first), truncate, CGEMM, pad, `r` inverse FFTs (outermost axis
/// first). Traces, the stats pins and fnobench's stage ledger key on
/// them, so they must not change.
static BASELINE_NAMES: [&[&str]; MAX_RANK] = [
    &["pt.fft", "pt.truncate", "pt.cgemm", "pt.pad", "pt.ifft"],
    &[
        "pt2.fft_y",
        "pt2.fft_x",
        "pt2.truncate",
        "pt2.cgemm",
        "pt2.pad",
        "pt2.ifft_x",
        "pt2.ifft_y",
    ],
    &[
        "pt3.fft_z",
        "pt3.fft_y",
        "pt3.fft_x",
        "pt3.truncate",
        "pt3.cgemm",
        "pt3.pad",
        "pt3.ifft_x",
        "pt3.ifft_y",
        "pt3.ifft_z",
    ],
];

impl ExecCtx<'_> {
    /// One full (unfiltered) FFT along axis `a` of `grids` dense `s.dims`
    /// grids: contiguous rows on the innermost axis, strided pencils on
    /// the others.
    #[allow(clippy::too_many_arguments)]
    fn try_fft_axis(
        &mut self,
        name: &str,
        s: &SpectralShape,
        a: usize,
        grids: usize,
        dir: FftDirection,
        input: BufferId,
        output: BufferId,
        mode: ExecMode,
    ) -> Result<LaunchRecord, LaunchError> {
        let n = s.dims[a];
        let slabs = grids * s.dims[..a].iter().product::<usize>();
        if a + 1 == s.rank {
            return self.try_step(CuFft::rows_kernel(name, n, slabs, dir, input, output), mode);
        }
        let inner = s.dims[a + 1..].iter().product();
        let pencils = StridedPencils::along_axis(slabs, n, n, inner);
        self.try_step(CuFft::strided_kernel(name, n, pencils, dir, input, output), mode)
    }

    /// Baseline body of [`ExecCtx::try_run_spectral`]:
    /// `y = iFFT(pad(W * trunc(FFT(x))))`. `leases` is owned by the caller
    /// so scratch is returned on every exit path.
    ///
    /// A faulted stage aborts the rest of the sequence. Completed stages
    /// only wrote scratch, so `y` is untouched unless every stage
    /// succeeded, and retrying the whole sequence is sound.
    pub(crate) fn pytorch_spectral(
        &mut self,
        s: &SpectralShape,
        b: LayerBufs,
        mode: ExecMode,
        leases: &mut Vec<BufferId>,
    ) -> Result<PipelineRun, LaunchError> {
        let launch = BASELINE_NAMES[s.rank - 1];
        let r = s.rank;
        let LayerBufs { x, w, y, ws } = b;
        let (bt, ki, ko) = (s.batch, s.k_in, s.k_out);
        let (grid, m) = (s.spatial_len(), s.modes_total());

        // `r` forward temporaries, the two truncated spectra, the padded
        // spectrum, then `r - 1` inverse temporaries (the last iFFT writes
        // `y`).
        let mut fwd = Vec::with_capacity(r);
        for _ in 0..r {
            fwd.push(self.try_scratch(x, bt * ki * grid, leases)?);
        }
        let xf_t = self.try_scratch(x, bt * ki * m, leases)?;
        let yf_t = self.try_scratch(x, bt * ko * m, leases)?;
        let yf_pad = self.try_scratch(x, bt * ko * grid, leases)?;
        let mut inv = Vec::with_capacity(r - 1);
        for _ in 1..r {
            inv.push(self.try_scratch(x, bt * ko * grid, leases)?);
        }
        let mut run = PipelineRun::default();

        // 1. full forward FFTs (cuFFT cannot truncate), innermost axis first
        let mut src = x;
        for (step, &dst) in fwd.iter().enumerate() {
            let (name, a, dir) = (launch[step], r - 1 - step, FftDirection::Forward);
            run.push(self.try_fft_axis(name, s, a, bt * ki, dir, src, dst, mode)?);
            src = dst;
        }

        // 2. corner truncation memcpy
        let trunc = CornerTruncate(Corner::new(bt * ki, s));
        run.push(self.try_step(StridedCopyKernel::new(launch[r], trunc, src, xf_t), mode)?);

        // 3. batched CGEMM along the hidden dim
        let gemm = spectral_gemm(launch[r + 1], s, xf_t, w, ws, yf_t);
        run.push(self.try_step(gemm, mode)?);

        // 4. corner zero-padding memcpy
        let pad = CornerPad(Corner::new(bt * ko, s));
        run.push(self.try_step(StridedCopyKernel::new(launch[r + 2], pad, yf_t, yf_pad), mode)?);

        // 5. full inverse FFTs, outermost axis first; the last one writes `y`
        let mut src = yf_pad;
        for a in 0..r {
            let dst = inv.get(a).copied().unwrap_or(y);
            let (name, dir) = (launch[r + 3 + a], FftDirection::Inverse);
            run.push(self.try_fft_axis(name, s, a, bt * ko, dir, src, dst, mode)?);
            src = dst;
        }

        Ok(run)
    }
}

#[cfg(test)]
mod tests {
    use crate::backend::{ExecMode, SimBackend};
    use crate::{LayerSpec, PipelineRun, Session, SpectralShape, Variant};
    use tfno_num::error::rel_l2_error;
    use tfno_num::{reference, CTensor, C32};

    fn rand_like(len: usize, seed: f32) -> Vec<C32> {
        (0..len)
            .map(|i| {
                C32::new(
                    ((i as f32) * 0.17 + seed).sin(),
                    ((i as f32) * 0.23 - seed).cos(),
                )
            })
            .collect()
    }

    /// Upload seeded operands for `s`, run the baseline functionally
    /// through a session and return the output with the operands it was
    /// computed from.
    fn run_functional(
        s: &SpectralShape,
        seeds: (f32, f32),
    ) -> (PipelineRun, Vec<C32>, CTensor, CTensor) {
        let mut sess = Session::new(SimBackend::a100());
        let x = sess.alloc("x", s.input_len());
        let w = sess.alloc("w", s.weight_len());
        let y = sess.alloc("y", s.output_len());
        let xd = rand_like(s.input_len(), seeds.0);
        let wd = rand_like(s.weight_len(), seeds.1);
        sess.upload(x, &xd);
        sess.upload(w, &wd);
        let run = sess.run(&LayerSpec::from_shape(*s).variant(Variant::Pytorch), x, w, y);
        let mut x_shape = vec![s.batch, s.k_in];
        x_shape.extend_from_slice(&s.dims[..s.rank]);
        let xt = CTensor::from_vec(xd, &x_shape);
        let wt = CTensor::from_vec(wd, &[s.k_in, s.k_out]);
        (run, sess.download(y), xt, wt)
    }

    #[test]
    fn pipeline_1d_matches_reference_layer() {
        let s = SpectralShape::d1(2, 4, 4, 64).with_modes(&[16]);
        let (run, got, xt, wt) = run_functional(&s, (0.3, 0.7));
        assert_eq!(run.kernel_count(), 5);
        let want = reference::fno_layer_1d(&xt, &wt, 16);
        let err = rel_l2_error(&got, want.data());
        assert!(err < 1e-4, "rel l2 error {err}");
    }

    #[test]
    fn pipeline_2d_matches_reference_layer() {
        let s = SpectralShape::d2(1, 2, 2, 16, 16).with_modes(&[4, 4]);
        let (run, got, xt, wt) = run_functional(&s, (0.1, 0.9));
        assert_eq!(run.kernel_count(), 7);
        let want = reference::fno_layer_2d(&xt, &wt, 4, 4);
        let err = rel_l2_error(&got, want.data());
        assert!(err < 1e-4, "rel l2 error {err}");
    }

    #[test]
    fn pipeline_3d_matches_reference_layer() {
        let s = SpectralShape::d3(1, 2, 3, 4, 8, 16).with_modes(&[2, 3, 5]);
        let (run, got, xt, wt) = run_functional(&s, (0.6, 0.2));
        assert_eq!(run.kernel_count(), 9);
        let want = reference::fno_layer_3d(&xt, &wt, 2, 3, 5);
        let err = rel_l2_error(&got, want.data());
        assert!(err < 1e-4, "rel l2 error {err}");
    }

    #[test]
    fn analytical_pipeline_on_virtual_buffers() {
        let s = SpectralShape::d1(8, 32, 32, 128).with_modes(&[32]);
        let mut sess = Session::new(SimBackend::a100());
        let run = sess.measure(&LayerSpec::from_shape(s).variant(Variant::Pytorch));
        assert_eq!(run.kernel_count(), 5);
        assert!(run.total_us() > 0.0);
        // 5 launches, each paying launch overhead
        let overhead = 5.0 * sess.device().config.kernel_launch_overhead_us;
        assert!(run.total_us() >= overhead);
    }

    #[test]
    fn functional_equals_analytical_stats() {
        let s = SpectralShape::d1(2, 8, 8, 64).with_modes(&[16]);
        let spec = LayerSpec::from_shape(s).variant(Variant::Pytorch);
        let mut sess = Session::new(SimBackend::a100());
        let x = sess.alloc("x", s.input_len());
        let w = sess.alloc("w", s.weight_len());
        let y = sess.alloc("y", s.output_len());
        sess.upload(x, &rand_like(s.input_len(), 0.2));
        sess.upload(w, &rand_like(s.weight_len(), 0.4));
        let f = sess.run(&spec, x, w, y);
        let a = sess.run(&spec.exec(ExecMode::Analytical), x, w, y);
        assert_eq!(f.total_stats(), a.total_stats());
    }
}
