//! Per-mode spectral weights — the classic FNO formulation
//! (`einsum("bix,iox->box")`) as an extension beyond the paper's
//! shared-weight CGEMM.
//!
//! Each retained mode `f` has its own `[k_in, k_out]` complex matrix. On
//! the device this is a *mode-batched* CGEMM: batch index = mode, `A_f` is
//! the `batch x k_in` slice at mode `f` (batch stride 1 in the mode axis),
//! `B_f` the mode's weight matrix. This is also what lets examples encode
//! exact spectral solution operators (heat kernel: a diagonal per-mode
//! multiplier), which a mode-shared weight cannot express.

use rand::Rng;
use tfno_cgemm::{BatchedOperand, GemmShape, MatView};
use tfno_culib::CuBlas;
use tfno_fft::host;
use tfno_gpu_sim::ExecMode;
use tfno_num::{C32, CTensor};
use turbofno::{Backend, PipelineRun, Session};

/// 1D spectral convolution with per-mode weights
/// (`weight[f, ki, ko]`, `f < nf`).
#[derive(Clone, Debug)]
pub struct PerModeSpectralConv1d {
    pub k_in: usize,
    pub k_out: usize,
    pub n: usize,
    pub nf: usize,
    /// `[nf, k_in, k_out]`
    pub weight: CTensor,
}

impl PerModeSpectralConv1d {
    pub fn new(k_in: usize, k_out: usize, n: usize, nf: usize, weight: CTensor) -> Self {
        assert_eq!(weight.shape(), &[nf, k_in, k_out]);
        PerModeSpectralConv1d {
            k_in,
            k_out,
            n,
            nf,
            weight,
        }
    }

    pub fn random<R: Rng>(rng: &mut R, k_in: usize, k_out: usize, n: usize, nf: usize) -> Self {
        let scale = 1.0 / k_in as f32;
        let data = (0..nf * k_in * k_out)
            .map(|_| C32::new(rng.gen_range(-scale..scale), rng.gen_range(-scale..scale)))
            .collect();
        Self::new(k_in, k_out, n, nf, CTensor::from_vec(data, &[nf, k_in, k_out]))
    }

    /// Diagonal per-mode multiplier (requires `k_in == k_out`): mode `f` of
    /// every channel is scaled by `diag[f]`. This encodes exact spectral
    /// solution operators such as the heat kernel.
    pub fn diagonal(k: usize, n: usize, diag: &[C32]) -> Self {
        let nf = diag.len();
        let mut w = CTensor::zeros(&[nf, k, k]);
        for (f, &d) in diag.iter().enumerate() {
            for c in 0..k {
                w.set(&[f, c, c], d);
            }
        }
        Self::new(k, k, n, nf, w)
    }

    /// Host forward: FFT -> per-mode matmul -> iFFT.
    pub fn forward_host(&self, x: &CTensor) -> CTensor {
        let (batch, k_in, n) = match *x.shape() {
            [b, k, n] => (b, k, n),
            _ => panic!("expected rank-3 input"),
        };
        assert_eq!((k_in, n), (self.k_in, self.n));
        let nf = self.nf;

        let mut xf = vec![C32::ZERO; batch * k_in * nf];
        for b in 0..batch {
            for k in 0..k_in {
                let base = (b * k_in + k) * n;
                let modes = host::fft_truncated(&x.data()[base..base + n], nf);
                xf[(b * k_in + k) * nf..(b * k_in + k + 1) * nf].copy_from_slice(&modes);
            }
        }

        let mut yf = vec![C32::ZERO; batch * self.k_out * nf];
        for b in 0..batch {
            for f in 0..nf {
                for ko in 0..self.k_out {
                    let mut acc = C32::ZERO;
                    for ki in 0..k_in {
                        acc = acc.mac(
                            xf[(b * k_in + ki) * nf + f],
                            self.weight.get(&[f, ki, ko]),
                        );
                    }
                    yf[(b * self.k_out + ko) * nf + f] = acc;
                }
            }
        }

        let mut y = CTensor::zeros(&[batch, self.k_out, n]);
        for b in 0..batch {
            for ko in 0..self.k_out {
                let base = (b * self.k_out + ko) * nf;
                let row = host::ifft_padded(&yf[base..base + nf], n);
                let obase = y.offset(&[b, ko, 0]);
                y.data_mut()[obase..obase + n].copy_from_slice(&row);
            }
        }
        y
    }

    /// Device forward: Turbo truncated FFT, mode-batched CGEMM, padded
    /// inverse FFT (a 3-kernel pipeline; per-mode weights cannot enter the
    /// single-CGEMM fused path, which is exactly why the paper's
    /// formulation shares them).
    pub fn forward_device(&self, sess: &mut Session<impl Backend>, x: &CTensor) -> (CTensor, PipelineRun) {
        use tfno_fft::{BatchedFftKernel, FftBlockConfig, FftDirection, FftKernelConfig, FftPlan, RowPencils};
        let batch = x.shape()[0];
        let (k_in, k_out, n, nf) = (self.k_in, self.k_out, self.n, self.nf);
        let mut run = PipelineRun::default();

        let xb = sess.acquire(batch * k_in * n);
        let wb = sess.acquire(nf * k_in * k_out);
        let xf = sess.acquire(batch * k_in * nf);
        let yf = sess.acquire(batch * k_out * nf);
        let yb = sess.acquire(batch * k_out * n);
        sess.upload(xb, x.data());
        sess.upload(wb, self.weight.data());
        let dev = sess.device_mut();

        let cfg = FftKernelConfig::new(FftBlockConfig::for_len(n))
            .with_l1_hit_rate(turbofno::TURBO_FFT_L1_HIT);
        let plan = FftPlan::shared(n, FftDirection::Forward, n, nf);
        let fft = BatchedFftKernel::new(
            "pm.fft",
            cfg.clone(),
            plan,
            RowPencils {
                count: batch * k_in,
                in_row_len: n,
                out_row_len: nf,
            },
            xb,
            xf,
        );
        run.push(dev.launch(&fft, ExecMode::Functional));

        // Mode-batched CGEMM: batch index = mode f.
        let gemm = CuBlas::kernel(
            "pm.cgemm",
            GemmShape {
                batch: nf,
                m: batch,
                n: k_out,
                k: k_in,
            },
            BatchedOperand::strided(
                xf,
                MatView {
                    base: 0,
                    row_stride: k_in * nf, // next batch row
                    col_stride: nf,        // next hidden channel
                },
                1, // next mode
            ),
            BatchedOperand::strided(wb, MatView::row_major(0, k_out), k_in * k_out),
            BatchedOperand::strided(
                yf,
                MatView {
                    base: 0,
                    row_stride: k_out * nf,
                    col_stride: nf,
                },
                1,
            ),
            C32::ONE,
            C32::ZERO,
        );
        run.push(dev.launch(&gemm, ExecMode::Functional));

        let plan_inv = FftPlan::shared(n, FftDirection::Inverse, nf, n);
        let ifft = BatchedFftKernel::new(
            "pm.ifft",
            cfg,
            plan_inv,
            RowPencils {
                count: batch * k_out,
                in_row_len: nf,
                out_row_len: n,
            },
            yf,
            yb,
        );
        run.push(dev.launch(&ifft, ExecMode::Functional));

        let y = CTensor::from_vec(sess.download(yb), &[batch, k_out, n]);
        for id in [xb, wb, xf, yf, yb] {
            sess.release(id);
        }
        (y, run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tfno_num::error::rel_l2_error;

    #[test]
    fn matches_shared_weight_when_weights_equal() {
        // per-mode weights all equal to one matrix == shared-weight layer
        let mut rng = StdRng::seed_from_u64(9);
        let shared = crate::spectral::SpectralConvNd::random(&mut rng, 4, 4, &[64], &[16]);
        let mut w = CTensor::zeros(&[16, 4, 4]);
        for f in 0..16 {
            for i in 0..4 {
                for o in 0..4 {
                    w.set(&[f, i, o], shared.weight.get(&[i, o]));
                }
            }
        }
        let pm = PerModeSpectralConv1d::new(4, 4, 64, 16, w);
        let x = CTensor::random(&mut rng, &[2, 4, 64]);
        let a = shared.forward_host(&x);
        let b = pm.forward_host(&x);
        let err = rel_l2_error(a.data(), b.data());
        assert!(err < 1e-5, "err {err}");
    }

    #[test]
    fn device_matches_host() {
        let mut rng = StdRng::seed_from_u64(10);
        let pm = PerModeSpectralConv1d::random(&mut rng, 8, 8, 64, 16);
        let x = CTensor::random(&mut rng, &[4, 8, 64]);
        let want = pm.forward_host(&x);
        let mut sess = Session::a100();
        let (got, run) = pm.forward_device(&mut sess, &x);
        let err = rel_l2_error(got.data(), want.data());
        assert!(err < 1e-4, "err {err}");
        assert_eq!(run.kernel_count(), 3);
    }

    #[test]
    fn diagonal_scales_modes() {
        // diag = [1, 0, 0, ...]: output keeps only the DC mode.
        let n = 32;
        let mut diag = vec![C32::ZERO; 8];
        diag[0] = C32::ONE;
        let pm = PerModeSpectralConv1d::diagonal(1, n, &diag);
        let x_data: Vec<C32> = (0..n)
            .map(|i| C32::new(1.0 + (i as f32 * 0.7).sin(), 0.0))
            .collect();
        let mean: C32 = x_data.iter().copied().sum::<C32>().scale(1.0 / n as f32);
        let x = CTensor::from_vec(x_data, &[1, 1, n]);
        let y = pm.forward_host(&x);
        for v in y.data() {
            assert!((*v - mean).abs() < 1e-4, "expected DC {mean}, got {v}");
        }
    }
}
