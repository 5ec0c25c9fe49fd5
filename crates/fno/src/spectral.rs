//! Spectral convolution layers (the paper's Fourier layer).
//!
//! The weight is a single complex `[k_in, k_out]` matrix shared across
//! retained modes. That is the paper's formulation: it turns the spectral
//! multiply into one CGEMM over the hidden dimension, where the classic
//! FNO keeps one matrix per mode ([`crate::permode`]). [`SpectralConvNd`]
//! is the one layer type; its rank is the length of its `dims`, so a 1D,
//! 2D or 3D layer is `SpectralConvNd::random(rng, k_in, k_out, &dims,
//! &modes)` with one, two or three axes. Two execution paths:
//!
//! * `forward_host` — O(N log N) host Stockham FFTs applied separably per
//!   axis, used for training-free validation and as the reference for the
//!   device path;
//! * `forward_device` — any pipeline [`Variant`] through a
//!   [`Session`], returning both the output and the modeled timing record.
//!
//! [`SpectralConvNd::submit_device`] and [`PendingSpectral::try_finish`]
//! are `try_forward_device` under the names the repo benchmark
//! (`fnobench/`) calls; they go when that benchmark next changes.

use rand::Rng;
use tfno_culib::{SpectralShape, MAX_RANK};
use tfno_fft::host;
use tfno_num::{C32, CTensor};
use turbofno::{Backend, LayerSpec, PipelineRun, Session, TfnoError, TurboOptions, Variant};

/// The finished result of a [`SpectralConvNd::submit_device`]: the
/// output and run of [`SpectralConvNd::try_forward_device`], or its error.
/// It holds no lease.
#[must_use = "a submitted spectral conv's output is lost unless finished"]
pub struct PendingSpectral(Result<(CTensor, PipelineRun), TfnoError>);

impl PendingSpectral {
    /// The output tensor and the layer's run, as
    /// [`SpectralConvNd::try_forward_device`] returned them.
    pub fn try_finish(
        self,
        _sess: &mut Session<impl Backend>,
    ) -> Result<(CTensor, PipelineRun), TfnoError> {
        self.0
    }
}

/// One forward stage of the separable host path: FFT every length-`d`
/// pencil along one axis and keep its first `m` modes. The tensor is
/// `[slabs, d, inner]` row-major; pencils stride by `inner`.
fn fwd_stage(data: &[C32], slabs: usize, d: usize, m: usize, inner: usize) -> Vec<C32> {
    let mut out = vec![C32::ZERO; slabs * m * inner];
    let mut pencil = vec![C32::ZERO; d];
    for s in 0..slabs {
        for i in 0..inner {
            for (j, p) in pencil.iter_mut().enumerate() {
                *p = data[(s * d + j) * inner + i];
            }
            let modes = host::fft_truncated(&pencil, m);
            for (j, v) in modes.iter().enumerate() {
                out[(s * m + j) * inner + i] = *v;
            }
        }
    }
    out
}

/// One inverse stage: zero-pad every length-`m` pencil back to `d` and
/// inverse-FFT it. Layout mirrors [`fwd_stage`].
fn inv_stage(data: &[C32], slabs: usize, m: usize, d: usize, inner: usize) -> Vec<C32> {
    let mut out = vec![C32::ZERO; slabs * d * inner];
    let mut pencil = vec![C32::ZERO; m];
    for s in 0..slabs {
        for i in 0..inner {
            for (j, p) in pencil.iter_mut().enumerate() {
                *p = data[(s * m + j) * inner + i];
            }
            let spatial = host::ifft_padded(&pencil, d);
            for (j, v) in spatial.iter().enumerate() {
                out[(s * d + j) * inner + i] = *v;
            }
        }
    }
    out
}

/// Rank-generic spectral convolution:
/// `[batch, k_in, ...dims] -> [batch, k_out, ...dims]` with a
/// `modes[a]`-mode corner retained per axis. The host path runs at any
/// rank; the device paths take ranks `1..=MAX_RANK`.
#[derive(Clone, Debug)]
pub struct SpectralConvNd {
    pub k_in: usize,
    pub k_out: usize,
    /// Spatial extent per transformed axis, outermost first.
    pub dims: Vec<usize>,
    /// Retained modes per axis (same order as `dims`).
    pub modes: Vec<usize>,
    /// `[k_in, k_out]` complex weight shared across modes.
    pub weight: CTensor,
}

impl SpectralConvNd {
    pub fn new(
        k_in: usize,
        k_out: usize,
        dims: Vec<usize>,
        modes: Vec<usize>,
        weight: CTensor,
    ) -> Self {
        assert_eq!(weight.shape(), &[k_in, k_out], "weight shape mismatch");
        assert_eq!(dims.len(), modes.len(), "one mode count per axis");
        assert!(!dims.is_empty(), "at least one transformed axis");
        for (d, m) in dims.iter().zip(&modes) {
            assert!(m <= d, "mode count out of range");
        }
        SpectralConvNd {
            k_in,
            k_out,
            dims,
            modes,
            weight,
        }
    }

    /// Xavier-ish random initialization (scale `1 / k_in`).
    pub fn random<R: Rng>(
        rng: &mut R,
        k_in: usize,
        k_out: usize,
        dims: &[usize],
        modes: &[usize],
    ) -> Self {
        let scale = 1.0 / k_in as f32;
        let data = (0..k_in * k_out)
            .map(|_| {
                C32::new(
                    rng.gen_range(-scale..scale),
                    rng.gen_range(-scale..scale),
                )
            })
            .collect();
        Self::new(
            k_in,
            k_out,
            dims.to_vec(),
            modes.to_vec(),
            CTensor::from_vec(data, &[k_in, k_out]),
        )
    }

    /// Number of transformed axes.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// The execution-layer shape of a batch-`batch` forward.
    ///
    /// # Panics
    /// On a rank above [`MAX_RANK`], with the text of the
    /// [`TfnoError::Validation`] the device paths return for it.
    pub fn shape(&self, batch: usize) -> SpectralShape {
        self.try_shape(batch).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`SpectralConvNd::shape`], or a `Validation` error when the rank
    /// exceeds what the device engine runs.
    fn try_shape(&self, batch: usize) -> Result<SpectralShape, TfnoError> {
        let s = match *self.dims.as_slice() {
            [n] => SpectralShape::d1(batch, self.k_in, self.k_out, n),
            [nx, ny] => SpectralShape::d2(batch, self.k_in, self.k_out, nx, ny),
            [nx, ny, nz] => SpectralShape::d3(batch, self.k_in, self.k_out, nx, ny, nz),
            _ => {
                return Err(TfnoError::Validation(format!(
                    "spectral conv supports ranks 1..={MAX_RANK}, got {}",
                    self.rank()
                )))
            }
        };
        Ok(s.with_modes(&self.modes))
    }

    fn out_shape(&self, batch: usize) -> Vec<usize> {
        let mut s = vec![batch, self.k_out];
        s.extend_from_slice(&self.dims);
        s
    }

    /// Batch size of an input `[batch, k_in, ...spatial]`, after checking
    /// its rank.
    fn batch_of(&self, x: &CTensor) -> Result<usize, TfnoError> {
        let r = self.rank();
        if x.shape().len() != r + 2 {
            return Err(TfnoError::Validation(format!(
                "spectral conv expects rank-{} input [batch, modes, ...spatial]; got rank-{}",
                r + 2,
                x.shape().len()
            )));
        }
        Ok(x.shape()[0])
    }

    /// Host-side forward: separable truncated Stockham FFTs (innermost
    /// axis first), the shared-weight CGEMM over the retained corner, then
    /// padded inverse FFTs (outermost axis first) — the same stage order
    /// as the device pipelines.
    pub fn forward_host(&self, x: &CTensor) -> CTensor {
        let r = self.rank();
        let batch = self.batch_of(x).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(x.shape()[1], self.k_in);
        assert_eq!(&x.shape()[2..], &self.dims[..]);

        // FFT + truncate per axis, innermost first.
        let mut cur = x.data().to_vec();
        for a in (0..r).rev() {
            let slabs = batch * self.k_in * self.dims[..a].iter().product::<usize>();
            let inner = self.modes[a + 1..].iter().product::<usize>();
            cur = fwd_stage(&cur, slabs, self.dims[a], self.modes[a], inner);
        }

        // Shared-weight CGEMM across the retained corner.
        let m: usize = self.modes.iter().product();
        let mut yf = vec![C32::ZERO; batch * self.k_out * m];
        for b in 0..batch {
            for f in 0..m {
                for ko in 0..self.k_out {
                    let mut acc = C32::ZERO;
                    for ki in 0..self.k_in {
                        acc = acc.mac(
                            cur[(b * self.k_in + ki) * m + f],
                            self.weight.get(&[ki, ko]),
                        );
                    }
                    yf[(b * self.k_out + ko) * m + f] = acc;
                }
            }
        }

        // Zero-pad + inverse FFT per axis, outermost first.
        let mut cur = yf;
        for a in 0..r {
            let slabs = batch * self.k_out * self.dims[..a].iter().product::<usize>();
            let inner = self.modes[a + 1..].iter().product::<usize>();
            cur = inv_stage(&cur, slabs, self.modes[a], self.dims[a], inner);
        }
        CTensor::from_vec(cur, &self.out_shape(batch))
    }

    fn try_spec(
        &self,
        batch: usize,
        variant: Variant,
        opts: &TurboOptions,
    ) -> Result<LayerSpec, TfnoError> {
        Ok(LayerSpec::from_shape(self.try_shape(batch)?)
            .variant(variant)
            .options(*opts))
    }

    /// Device forward through a pipeline variant; returns output + timings.
    /// Operand buffers are leased from the session pool, so repeated
    /// same-shape forwards allocate nothing.
    ///
    /// # Panics
    /// With the [`TfnoError`] text wherever
    /// [`SpectralConvNd::try_forward_device`] returns `Err`.
    pub fn forward_device(
        &self,
        sess: &mut Session<impl Backend>,
        variant: Variant,
        opts: &TurboOptions,
        x: &CTensor,
    ) -> (CTensor, PipelineRun) {
        self.try_forward_device(sess, variant, opts, x)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Typed twin of [`SpectralConvNd::forward_device`]: validation and
    /// engine failures (after the session's retry/degradation ladder)
    /// surface as [`TfnoError`] with all operand leases released.
    pub fn try_forward_device(
        &self,
        sess: &mut Session<impl Backend>,
        variant: Variant,
        opts: &TurboOptions,
        x: &CTensor,
    ) -> Result<(CTensor, PipelineRun), TfnoError> {
        let batch = self.batch_of(x)?;
        let spec = self.try_spec(batch, variant, opts)?;
        let xb = sess.acquire(spec.input_len());
        let wb = sess.acquire(spec.weight_len());
        let yb = sess.acquire(spec.output_len());
        sess.upload(xb, x.data());
        sess.upload(wb, self.weight.data());
        let out = sess.try_run(&spec, xb, wb, yb).map(|run| {
            let y = CTensor::from_vec(sess.download(yb), &self.out_shape(batch));
            (y, run)
        });
        sess.release(xb);
        sess.release(wb);
        sess.release(yb);
        out
    }

    /// [`SpectralConvNd::try_forward_device`], under the repo benchmark's
    /// name for it: the layer has run when this returns, and
    /// [`PendingSpectral::try_finish`] hands back its result.
    pub fn submit_device(
        &self,
        sess: &mut Session<impl Backend>,
        variant: Variant,
        opts: &TurboOptions,
        x: &CTensor,
    ) -> PendingSpectral {
        PendingSpectral(self.try_forward_device(sess, variant, opts, x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tfno_num::error::rel_l2_error;
    use tfno_num::reference;

    #[test]
    fn host_forward_matches_reference_1d() {
        let mut rng = StdRng::seed_from_u64(5);
        let layer = SpectralConvNd::random(&mut rng, 4, 6, &[64], &[16]);
        let x = CTensor::random(&mut rng, &[2, 4, 64]);
        let got = layer.forward_host(&x);
        let want = reference::fno_layer_1d(&x, &layer.weight, 16);
        let err = rel_l2_error(got.data(), want.data());
        assert!(err < 1e-4, "err {err}");
    }

    #[test]
    fn device_forward_matches_host_1d() {
        let mut rng = StdRng::seed_from_u64(6);
        let layer = SpectralConvNd::random(&mut rng, 8, 8, &[128], &[32]);
        let x = CTensor::random(&mut rng, &[2, 8, 128]);
        let want = layer.forward_host(&x);
        let mut sess = Session::a100();
        for variant in [Variant::Pytorch, Variant::FullyFused] {
            let (got, run) = layer.forward_device(&mut sess, variant, &TurboOptions::default(), &x);
            let err = rel_l2_error(got.data(), want.data());
            assert!(err < 1e-4, "{variant:?} err {err}");
            assert!(run.total_us() > 0.0);
        }
        // pooled operands: the second variant's forward recycles the first's
        assert!(sess.pool_stats().hits >= 3);
    }

    /// The benchmark's `submit_device`/`try_finish` pair is
    /// `forward_device`: bitwise-equal output, the same launches.
    #[test]
    fn submit_device_matches_forward_device_bitwise() {
        let mut rng = StdRng::seed_from_u64(61);
        let layer = SpectralConvNd::random(&mut rng, 8, 8, &[128], &[32]);
        let x = CTensor::random(&mut rng, &[2, 8, 128]);
        let mut sess = Session::a100();
        let (want, run_sync) =
            layer.forward_device(&mut sess, Variant::FftOpt, &TurboOptions::default(), &x);
        let pending = layer.submit_device(&mut sess, Variant::FftOpt, &TurboOptions::default(), &x);
        let (got, run_async) = pending.try_finish(&mut sess).expect("FftOpt runs");
        assert_eq!(got.data(), want.data(), "submitted forward diverged bitwise");
        assert_eq!(run_async.kernel_count(), run_sync.kernel_count());
        assert_eq!(
            sess.pool_stats().leased,
            0,
            "a forward must return every operand lease"
        );
    }

    /// A request the session rejects is a typed error at `try_finish`
    /// that leaves no operand lease behind; so is an input of the wrong
    /// rank, and so is a layer of a rank above `MAX_RANK`.
    #[test]
    fn rejected_submit_releases_its_leases() {
        let mut rng = StdRng::seed_from_u64(62);
        // 16 retained modes do not fill the fused kernels' 32-row warp tile.
        let layer = SpectralConvNd::random(&mut rng, 4, 4, &[64], &[16]);
        let opts = TurboOptions::default();
        let mut sess = Session::a100();
        let x = CTensor::random(&mut rng, &[1, 4, 64]);
        let rejected = layer
            .submit_device(&mut sess, Variant::FullyFused, &opts, &x)
            .try_finish(&mut sess);
        assert!(matches!(rejected, Err(TfnoError::Validation(_))));
        assert_eq!(
            sess.pool_stats().leased,
            0,
            "a rejected submit leaked leases"
        );
        let flat = CTensor::random(&mut rng, &[4, 64]);
        let rejected = layer
            .submit_device(&mut sess, Variant::FftOpt, &opts, &flat)
            .try_finish(&mut sess);
        assert!(matches!(rejected, Err(TfnoError::Validation(_))));

        // A rank the device engine does not run is rejected before any
        // lease is taken, on both device paths; the host path still runs.
        let deep = SpectralConvNd::random(&mut rng, 2, 2, &[2, 2, 2, 4], &[1, 2, 2, 2]);
        let x4 = CTensor::random(&mut rng, &[1, 2, 2, 2, 2, 4]);
        let rejected = deep
            .submit_device(&mut sess, Variant::FftOpt, &opts, &x4)
            .try_finish(&mut sess);
        assert!(matches!(rejected, Err(TfnoError::Validation(ref m)) if m.contains("ranks 1..=3")));
        let rejected = deep.try_forward_device(&mut sess, Variant::Pytorch, &opts, &x4);
        assert!(matches!(rejected, Err(TfnoError::Validation(_))));
        assert_eq!(sess.pool_stats().leased, 0, "rank-4 request leaked leases");
        assert_eq!(deep.forward_host(&x4).shape(), &[1, 2, 2, 2, 2, 4]);

        let pending = layer.submit_device(&mut sess, Variant::TurboBest, &opts, &x);
        let (got, _) = pending.try_finish(&mut sess).expect("TurboBest runs");
        assert!(rel_l2_error(got.data(), layer.forward_host(&x).data()) < 1e-4);
        assert_eq!(sess.pool_stats().leased, 0);
    }

    #[test]
    fn host_forward_matches_reference_2d() {
        let mut rng = StdRng::seed_from_u64(7);
        let layer = SpectralConvNd::random(&mut rng, 3, 5, &[16, 16], &[4, 4]);
        let x = CTensor::random(&mut rng, &[2, 3, 16, 16]);
        let got = layer.forward_host(&x);
        let want = reference::fno_layer_2d(&x, &layer.weight, 4, 4);
        let err = rel_l2_error(got.data(), want.data());
        assert!(err < 1e-4, "err {err}");
    }

    #[test]
    fn device_forward_matches_host_2d() {
        let mut rng = StdRng::seed_from_u64(8);
        let layer = SpectralConvNd::random(&mut rng, 8, 8, &[32, 64], &[8, 32]);
        let x = CTensor::random(&mut rng, &[1, 8, 32, 64]);
        let want = layer.forward_host(&x);
        let mut sess = Session::a100();
        let (got, _) = layer.forward_device(
            &mut sess,
            Variant::FullyFused,
            &TurboOptions::default(),
            &x,
        );
        let err = rel_l2_error(got.data(), want.data());
        assert!(err < 1e-4, "err {err}");
    }

    #[test]
    fn host_forward_matches_reference_3d() {
        let mut rng = StdRng::seed_from_u64(9);
        let layer = SpectralConvNd::random(&mut rng, 3, 4, &[8, 8, 16], &[2, 4, 8]);
        let x = CTensor::random(&mut rng, &[2, 3, 8, 8, 16]);
        let got = layer.forward_host(&x);
        let want = reference::fno_layer_3d(&x, &layer.weight, 2, 4, 8);
        let err = rel_l2_error(got.data(), want.data());
        assert!(err < 1e-4, "err {err}");
    }

    #[test]
    fn device_forward_matches_host_3d() {
        let mut rng = StdRng::seed_from_u64(10);
        let layer = SpectralConvNd::random(&mut rng, 6, 4, &[8, 16, 32], &[4, 8, 16]);
        let x = CTensor::random(&mut rng, &[1, 6, 8, 16, 32]);
        let want = layer.forward_host(&x);
        let mut sess = Session::a100();
        for variant in [Variant::Pytorch, Variant::FftOpt] {
            let (got, _) =
                layer.forward_device(&mut sess, variant, &TurboOptions::default(), &x);
            let err = rel_l2_error(got.data(), want.data());
            assert!(err < 1e-4, "{variant:?} err {err}");
        }
    }
}
