//! cuFFT-like kernel builders.
//!
//! Models the closed-source library's two decisive properties (paper §2.2):
//! it is *fast* (same Stockham kernel as ours, good spatial cache
//! behaviour) but it **cannot truncate, pad or filter** — every transform
//! reads and writes full-length signals, forcing the separate copy kernels
//! of [`crate::copy`] around it.

use tfno_fft::{
    BatchedFftKernel, FftBlockConfig, FftDirection, FftKernelConfig, FftPlan, RowPencils,
    StridedPencils,
};
use tfno_gpu_sim::BufferId;

/// L1/L2 hit rate of the library's spatial-order batched FFTs: consecutive
/// thread blocks walk adjacent rows, so tile boundaries and twiddle tables
/// cache well. (The paper's hidden-dim-ordered variant gives this up —
/// `turbofno::pipeline` uses a lower rate there.)
pub const CUFFT_L1_HIT: f64 = 0.45;

/// Stateless cuFFT-like kernel builders (plan creation folded into the
/// call; plan reuse is free in the simulator). They only build kernels:
/// the caller launches them, so every launch goes through its own checks.
pub struct CuFft;

impl CuFft {
    /// Batched C2C over `rows` contiguous rows of length `n` — always the
    /// full transform (no truncation support in the library).
    pub fn rows_kernel(
        name: &str,
        n: usize,
        rows: usize,
        dir: FftDirection,
        input: BufferId,
        output: BufferId,
    ) -> BatchedFftKernel<RowPencils> {
        let addr = RowPencils {
            count: rows,
            in_row_len: n,
            out_row_len: n,
        };
        let plan = FftPlan::shared(n, dir, n, n);
        BatchedFftKernel::new(name, full_config(n), plan, addr, input, output)
    }

    /// Strided batched C2C (`cufftPlanMany`-style), full transform.
    pub fn strided_kernel(
        name: &str,
        n: usize,
        addressing: StridedPencils,
        dir: FftDirection,
        input: BufferId,
        output: BufferId,
    ) -> BatchedFftKernel<StridedPencils> {
        let plan = FftPlan::shared(n, dir, n, n);
        BatchedFftKernel::new(name, full_config(n), plan, addressing, input, output)
    }
}

/// The library's block configuration for a full `n`-point transform.
fn full_config(n: usize) -> FftKernelConfig {
    FftKernelConfig::new(FftBlockConfig::for_len(n)).with_l1_hit_rate(CUFFT_L1_HIT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfno_gpu_sim::{ExecMode, GpuDevice};
    use tfno_num::error::{assert_close, fft_tolerance};
    use tfno_num::{reference, C32};

    #[test]
    fn cufft_rows_roundtrip() {
        let (n, rows) = (64usize, 8usize);
        let mut dev = GpuDevice::a100();
        let x = dev.alloc("x", rows * n);
        let f = dev.alloc("f", rows * n);
        let y = dev.alloc("y", rows * n);
        let data: Vec<C32> = (0..rows * n)
            .map(|i| C32::new((i as f32 * 0.11).sin(), (i as f32 * 0.07).cos()))
            .collect();
        dev.upload(x, &data);
        let fwd = CuFft::rows_kernel("fwd", n, rows, FftDirection::Forward, x, f);
        dev.launch(&fwd, ExecMode::Functional);
        let inv = CuFft::rows_kernel("inv", n, rows, FftDirection::Inverse, f, y);
        dev.launch(&inv, ExecMode::Functional);
        let out = dev.download(y);
        assert_close(&out, &data, fft_tolerance(n, 2.0), "roundtrip");
    }

    #[test]
    fn cufft_always_writes_full_rows() {
        let (n, rows) = (128usize, 8usize);
        let mut dev = GpuDevice::a100();
        let x = dev.alloc("x", rows * n);
        let f = dev.alloc("f", rows * n);
        let fwd = CuFft::rows_kernel("fwd", n, rows, FftDirection::Forward, x, f);
        let rec = dev.launch(&fwd, ExecMode::Functional);
        assert_eq!(rec.stats.global_store_bytes, (rows * n * 8) as u64);
    }

    #[test]
    fn strided_matches_reference_columns() {
        // one 8x4 grid; transform along x (stride ny)
        let (nx, ny) = (8usize, 4usize);
        let mut dev = GpuDevice::a100();
        let x = dev.alloc("x", nx * ny);
        let f = dev.alloc("f", nx * ny);
        let data: Vec<C32> = (0..nx * ny)
            .map(|i| C32::new(i as f32, -(i as f32) * 0.5))
            .collect();
        dev.upload(x, &data);
        let addr = StridedPencils {
            count: ny,
            group: ny,
            in_group_stride: 0,
            in_pencil_stride: 1,
            in_idx_stride: ny,
            out_group_stride: 0,
            out_pencil_stride: 1,
            out_idx_stride: ny,
        };
        let fftx = CuFft::strided_kernel("fftx", nx, addr, FftDirection::Forward, x, f);
        dev.launch(&fftx, ExecMode::Functional);
        let out = dev.download(f);
        for y in 0..ny {
            let col: Vec<C32> = (0..nx).map(|i| data[i * ny + y]).collect();
            let want = reference::dft_full(&col);
            let got: Vec<C32> = (0..nx).map(|i| out[i * ny + y]).collect();
            assert_close(&got, &want, fft_tolerance(nx, 2.0), &format!("col {y}"));
        }
    }
}
