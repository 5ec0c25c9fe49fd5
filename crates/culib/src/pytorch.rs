//! The PyTorch-style baseline executor (the paper's comparison base).
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
//! the two inefficiencies TurboFNO removes. [`try_run_pytorch_stacked`]
//! is the one body; it walks the axes of a [`SpectralShape`] the way the
//! Turbo executor in `turbofno::pipeline` does.

use crate::copy::{Corner, CornerPad, CornerTruncate, StridedCopyKernel};
use crate::cublas::CuBlas;
use crate::cufft::CuFft;
use crate::problem::{SpectralShape, MAX_RANK};
use tfno_backend::Backend;
use tfno_cgemm::{BatchedOperand, GemmShape, MatView, WeightStacking};
use tfno_fft::{FftDirection, StridedPencils};
use tfno_gpu_sim::{BufferId, ExecMode, KernelStats, LaunchError, LaunchRecord};

/// The launches of one pipeline execution.
#[derive(Clone, Debug, Default)]
pub struct PipelineRun {
    pub launches: Vec<LaunchRecord>,
}

impl PipelineRun {
    pub fn total_us(&self) -> f64 {
        self.launches.iter().map(|l| l.time_us).sum()
    }

    pub fn kernel_count(&self) -> usize {
        self.launches.len()
    }

    pub fn total_stats(&self) -> KernelStats {
        self.launches.iter().map(|l| l.stats).sum()
    }

    pub fn push(&mut self, rec: LaunchRecord) {
        self.launches.push(rec);
    }
}

/// Allocate an intermediate matching the virtualness of the pipeline input
/// (analytical sweeps run entirely on virtual buffers).
pub fn alloc_like(dev: &mut dyn Backend, reference: BufferId, name: &str, len: usize) -> BufferId {
    if dev.memory().is_virtual(reference) {
        dev.memory_mut().alloc_virtual(name, len)
    } else {
        dev.alloc(name, len)
    }
}

/// [`alloc_like`] through the device's typed fault path (virtual buffers
/// model analytics-only storage and are never faulted).
pub fn try_alloc_like(
    dev: &mut dyn Backend,
    reference: BufferId,
    name: &str,
    len: usize,
) -> Result<BufferId, LaunchError> {
    if dev.memory().is_virtual(reference) {
        Ok(dev.memory_mut().alloc_virtual(name, len))
    } else {
        dev.try_alloc(name, len)
    }
}

/// Per-rank launch and scratch names. Traces, the stats pins and
/// fnobench's stage ledger key on the launch names, so they must not
/// change.
struct BaselineNames {
    /// Launch order: `r` forward FFTs (innermost axis first), truncate,
    /// CGEMM, pad, `r` inverse FFTs (outermost axis first).
    launches: &'static [&'static str],
    /// Allocation order: `r` forward temporaries, `xf_t`, `yf_t`,
    /// `yf_pad`, then `r - 1` inverse temporaries (the last iFFT writes
    /// `y`).
    scratch: &'static [&'static str],
}

static BASELINE_NAMES: [BaselineNames; MAX_RANK] = [
    BaselineNames {
        launches: &["pt.fft", "pt.truncate", "pt.cgemm", "pt.pad", "pt.ifft"],
        scratch: &["pt.xf", "pt.xf_t", "pt.yf_t", "pt.yf_pad"],
    },
    BaselineNames {
        launches: &[
            "pt2.fft_y",
            "pt2.fft_x",
            "pt2.truncate",
            "pt2.cgemm",
            "pt2.pad",
            "pt2.ifft_x",
            "pt2.ifft_y",
        ],
        scratch: &[
            "pt2.t1",
            "pt2.t2",
            "pt2.xf_t",
            "pt2.yf_t",
            "pt2.yf_pad",
            "pt2.t3",
        ],
    },
    BaselineNames {
        launches: &[
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
        scratch: &[
            "pt3.t1",
            "pt3.t2",
            "pt3.t3",
            "pt3.xf_t",
            "pt3.yf_t",
            "pt3.yf_pad",
            "pt3.t4",
            "pt3.t5",
        ],
    },
];

/// One full (unfiltered) FFT along axis `a` of `grids` dense `s.dims`
/// grids: contiguous rows on the innermost axis, strided pencils on the
/// others.
fn try_fft_axis(
    dev: &mut dyn Backend,
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
        return CuFft::try_exec_rows(dev, name, n, slabs, dir, input, output, mode);
    }
    let inner = s.dims[a + 1..].iter().product();
    let pencils = StridedPencils::along_axis(slabs, n, n, inner);
    CuFft::try_exec_strided(dev, name, n, pencils, dir, input, output, mode)
}

/// Run the baseline pipeline `y = iFFT(pad(W * trunc(FFT(x))))` through
/// the device's typed fault path.
///
/// * `x`: `[batch, k_in, ...dims]`, `w`: one `[k_in, k_out]` row-major
///   slice per `ws.group` consecutive batch entries (a single shared
///   matrix under [`WeightStacking::SHARED`]), `y`: `[batch, k_out,
///   ...dims]`.
///
/// A faulted stage aborts the rest of the sequence. Completed stages only
/// wrote scratch intermediates, so the caller's `y` is untouched unless
/// every stage succeeded, and retrying the whole sequence is sound.
pub fn try_run_pytorch_stacked(
    dev: &mut dyn Backend,
    s: &SpectralShape,
    x: BufferId,
    w: BufferId,
    ws: WeightStacking,
    y: BufferId,
    mode: ExecMode,
) -> Result<PipelineRun, LaunchError> {
    // INVARIANT: SpectralShape::validate() rejects ranks outside 1..=3
    // before any launch path runs, so the rank indexes the table.
    let names = &BASELINE_NAMES[s.rank - 1];
    let r = s.rank;
    let (b, ki, ko) = (s.batch, s.k_in, s.k_out);
    let (grid, m) = (s.spatial_len(), s.modes_total());

    let mut scratch = Vec::with_capacity(names.scratch.len());
    for (i, name) in names.scratch.iter().enumerate() {
        let len = match i.checked_sub(r) {
            None => b * ki * grid,
            Some(0) => b * ki * m,
            Some(1) => b * ko * m,
            Some(_) => b * ko * grid,
        };
        scratch.push(try_alloc_like(dev, x, name, len)?);
    }
    let (fwd, rest) = scratch.split_at(r);
    let (xf_t, yf_t, yf_pad, inv) = (rest[0], rest[1], rest[2], &rest[3..]);
    let launch = names.launches;
    let mut run = PipelineRun::default();

    // 1. full forward FFTs (cuFFT cannot truncate), innermost axis first
    let mut src = x;
    for (step, &dst) in fwd.iter().enumerate() {
        let a = r - 1 - step;
        run.push(try_fft_axis(
            dev,
            launch[step],
            s,
            a,
            b * ki,
            FftDirection::Forward,
            src,
            dst,
            mode,
        )?);
        src = dst;
    }

    // 2. corner truncation memcpy
    let trunc =
        StridedCopyKernel::new(launch[r], CornerTruncate(Corner::new(b * ki, s)), src, xf_t);
    run.push(dev.try_launch(&trunc, mode)?);

    // 3. batched CGEMM along the hidden dim
    run.push(CuBlas::try_cgemm_strided_batched(
        dev,
        launch[r + 1],
        GemmShape {
            batch: b,
            m,
            n: ko,
            k: ki,
        },
        BatchedOperand::strided(
            xf_t,
            MatView {
                base: 0,
                row_stride: 1,
                col_stride: m,
            },
            ki * m,
        ),
        BatchedOperand::stacked(w, MatView::row_major(0, ko), ws),
        BatchedOperand::strided(
            yf_t,
            MatView {
                base: 0,
                row_stride: 1,
                col_stride: m,
            },
            ko * m,
        ),
        tfno_num::C32::ONE,
        tfno_num::C32::ZERO,
        mode,
    )?);

    // 4. corner zero-padding memcpy
    let pad = StridedCopyKernel::new(
        launch[r + 2],
        CornerPad(Corner::new(b * ko, s)),
        yf_t,
        yf_pad,
    );
    run.push(dev.try_launch(&pad, mode)?);

    // 5. full inverse FFTs, outermost axis first; the last one writes `y`
    let mut src = yf_pad;
    for a in 0..r {
        let dst = inv.get(a).copied().unwrap_or(y);
        run.push(try_fft_axis(
            dev,
            launch[r + 3 + a],
            s,
            a,
            b * ko,
            FftDirection::Inverse,
            src,
            dst,
            mode,
        )?);
        src = dst;
    }

    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfno_gpu_sim::GpuDevice;
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

    fn run(
        dev: &mut GpuDevice,
        s: &SpectralShape,
        x: BufferId,
        w: BufferId,
        y: BufferId,
        mode: ExecMode,
    ) -> PipelineRun {
        try_run_pytorch_stacked(dev, s, x, w, WeightStacking::SHARED, y, mode).unwrap()
    }

    /// Upload seeded operands for `s`, run the baseline functionally and
    /// return the output with the operands it was computed from.
    fn run_functional(
        s: &SpectralShape,
        seeds: (f32, f32),
    ) -> (PipelineRun, Vec<C32>, CTensor, CTensor) {
        let mut dev = GpuDevice::a100();
        let x = dev.alloc("x", s.input_len());
        let w = dev.alloc("w", s.weight_len());
        let y = dev.alloc("y", s.output_len());
        let xd = rand_like(s.input_len(), seeds.0);
        let wd = rand_like(s.weight_len(), seeds.1);
        dev.upload(x, &xd);
        dev.upload(w, &wd);
        let run = run(&mut dev, s, x, w, y, ExecMode::Functional);
        let mut x_shape = vec![s.batch, s.k_in];
        x_shape.extend_from_slice(&s.dims[..s.rank]);
        let xt = CTensor::from_vec(xd, &x_shape);
        let wt = CTensor::from_vec(wd, &[s.k_in, s.k_out]);
        (run, dev.download(y), xt, wt)
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
        let mut dev = GpuDevice::a100();
        let x = dev.memory.alloc_virtual("x", s.input_len());
        let w = dev.memory.alloc_virtual("w", s.weight_len());
        let y = dev.memory.alloc_virtual("y", s.output_len());
        let run = run(&mut dev, &s, x, w, y, ExecMode::Analytical);
        assert_eq!(run.kernel_count(), 5);
        assert!(run.total_us() > 0.0);
        // 5 launches, each paying launch overhead
        let overhead = 5.0 * dev.config.kernel_launch_overhead_us;
        assert!(run.total_us() >= overhead);
    }

    #[test]
    fn functional_equals_analytical_stats() {
        let s = SpectralShape::d1(2, 8, 8, 64).with_modes(&[16]);
        let mut dev = GpuDevice::a100();
        let x = dev.alloc("x", s.input_len());
        let w = dev.alloc("w", s.weight_len());
        let y = dev.alloc("y", s.output_len());
        dev.upload(x, &rand_like(s.input_len(), 0.2));
        dev.upload(w, &rand_like(s.weight_len(), 0.4));
        let f = run(&mut dev, &s, x, w, y, ExecMode::Functional);
        let a = run(&mut dev, &s, x, w, y, ExecMode::Analytical);
        assert_eq!(f.total_stats(), a.total_stats());
    }
}
