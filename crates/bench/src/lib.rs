//! # tfno-bench
//!
//! Shared harness for the per-figure benchmark targets (see
//! `crates/bench/benches/`). Each paper figure/table has one bench target
//! with `harness = false` that sweeps the paper's parameter grid through
//! the *analytical* simulator path (virtual buffers, representative-block
//! execution) and prints the same rows/series the paper reports, plus
//! `PAPER-CHECK` lines comparing each claim with the measured value.

use tfno_gpu_sim::{DeviceConfig, GpuDevice};
use turbofno::{LayerSpec, PipelineRun, Session, SpectralShape, TurboOptions, Variant};

pub mod figures;
pub mod report;

/// Run one variant analytically on virtual buffers, at any rank; returns
/// the pipeline record (modeled time + stats).
pub fn measure(
    cfg: &DeviceConfig,
    s: &SpectralShape,
    variant: Variant,
    opts: &TurboOptions,
) -> PipelineRun {
    Session::new(GpuDevice::new(cfg.clone()))
        .measure(&LayerSpec::from_shape(*s).variant(variant).options(*opts))
}

/// The paper's y-axis: "Performance vs PyTorch (%)", where 100 = parity.
pub fn perf_pct(pytorch_us: f64, variant_us: f64) -> f64 {
    100.0 * pytorch_us / variant_us
}

/// Speedup in percent over PyTorch (the heatmap metric: 0 = parity).
pub fn speedup_pct(pytorch_us: f64, variant_us: f64) -> f64 {
    100.0 * (pytorch_us / variant_us - 1.0)
}

/// Modeled times of every concrete variant at one evaluation point (us).
#[derive(Clone, Copy, Debug)]
pub struct VariantTimes {
    pub pytorch: f64,
    pub fft_opt: f64,
    pub fused_fft_gemm: f64,
    pub fused_gemm_ifft: f64,
    pub fully_fused: f64,
}

impl VariantTimes {
    /// The best Turbo variant (the paper's "TurboFNO" = variant E).
    pub fn best_turbo(&self) -> f64 {
        self.fft_opt
            .min(self.fused_fft_gemm)
            .min(self.fused_gemm_ifft)
            .min(self.fully_fused)
    }

    pub fn of(&self, v: Variant) -> f64 {
        match v {
            Variant::Pytorch => self.pytorch,
            Variant::FftOpt => self.fft_opt,
            Variant::FusedFftGemm => self.fused_fft_gemm,
            Variant::FusedGemmIfft => self.fused_gemm_ifft,
            Variant::FullyFused => self.fully_fused,
            Variant::TurboBest => self.best_turbo(),
        }
    }
}

/// Measure all concrete variants of one evaluation point.
pub fn sweep(cfg: &DeviceConfig, s: &SpectralShape) -> VariantTimes {
    let us = |v| measure(cfg, s, v, &TurboOptions::default()).total_us();
    VariantTimes {
        pytorch: us(Variant::Pytorch),
        fft_opt: us(Variant::FftOpt),
        fused_fft_gemm: us(Variant::FusedFftGemm),
        fused_gemm_ifft: us(Variant::FusedGemmIfft),
        fully_fused: us(Variant::FullyFused),
    }
}

/// The paper's BS axis for Figs. 11–13 (b)–(d) — BS 64, 256, 1024 and
/// 4096 — expressed in GEMM-M rows (`BS x nf`, `nf = 32`), the unit
/// `figures::line_1d` sweeps.
pub const BS_AXIS_1D_M: [usize; 4] = [64 * 32, 256 * 32, 1024 * 32, 4096 * 32];

/// The paper's M axis for Fig. 10 (b)–(d).
pub const M_AXIS_1D: [usize; 7] = [64, 256, 1024, 4096, 16384, 65536, 262144];

/// 1D shape for a (K, total-M) evaluation point: `M = batch * nf` GEMM
/// rows, signal length `n`, retained modes `nf`, square hidden dims.
pub fn problem_1d(k: usize, m_total: usize, n: usize, nf: usize) -> SpectralShape {
    let batch = (m_total / nf).max(1);
    SpectralShape::d1(batch, k, k, n).with_modes(&[nf])
}

/// 2D shape for a (K, batch) point at resolution `nx x ny` keeping an
/// `nf x nf` corner (the paper's "N = 64/128" label), clamped per axis.
pub fn problem_2d(k: usize, batch: usize, nx: usize, ny: usize, nf: usize) -> SpectralShape {
    SpectralShape::d2(batch, k, k, nx, ny).with_modes(&[nf, nf])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perf_metrics() {
        assert!((perf_pct(200.0, 100.0) - 200.0).abs() < 1e-9);
        assert!((speedup_pct(150.0, 100.0) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn measurement_smoke_1d() {
        let cfg = DeviceConfig::a100();
        let p = problem_1d(32, 4096, 128, 64);
        let pt = measure(&cfg, &p, Variant::Pytorch, &TurboOptions::default());
        let a = measure(&cfg, &p, Variant::FftOpt, &TurboOptions::default());
        assert!(pt.total_us() > 0.0 && a.total_us() > 0.0);
        assert_eq!(pt.kernel_count(), 5);
        assert_eq!(a.kernel_count(), 3);
    }

    #[test]
    fn measurement_smoke_2d() {
        let cfg = DeviceConfig::a100();
        let p = problem_2d(32, 8, 256, 128, 64);
        let pt = measure(&cfg, &p, Variant::Pytorch, &TurboOptions::default());
        assert_eq!(pt.kernel_count(), 7);
    }
}
