//! Complete FNO architectures: lifting → Fourier layers (spectral conv +
//! pointwise bypass + GELU) → projection, over a grid of any supported
//! rank.
//!
//! The device path runs the spectral convolutions through a
//! [`Session`] (shared planner + pooled buffers across layers and
//! forwards) with any pipeline [`Variant`] and aggregates the
//! per-layer timing records; the pointwise/projection GEMMs execute on the
//! host (the paper's optimization target is the Fourier layer — everything
//! else is identical between baselines and TurboFNO). [`FnoNd`] is the one
//! model type: its rank is the number of spatial dims it is built with, so
//! a 1D, 2D or 3D model is `FnoNd::random(.., &dims, &modes)` with one,
//! two or three axes.
//!
//! ## Layer schedule
//!
//! Within one Fourier layer, the spectral conv (device) and the pointwise
//! bypass (host) both read the *same* input and are independent until
//! `add_gelu` joins them. `forward_device` runs them in sequence: the
//! spectral conv to completion, then the blocked host `pointwise`, then
//! `add_gelu`. (Running the two side by side gains nothing: the
//! simulator's block executor and `pointwise` each already use every
//! core.)
//!
//! `forward_device_batch` serves a *queue* of independent forwards: each
//! layer's K same-shape spectral convs coalesce into one stacked launch
//! sequence ([`Session::run_many`], riding the mixed-weight stacking
//! machinery), then the host runs the K pointwise bypasses — the
//! serving-path schedule the throughput bench pins as `batch-stacking`.

use crate::spectral::SpectralConvNd;
use rand::Rng;
use tfno_gpu_sim::{configured_workers, for_each_mut};
use tfno_num::{C32, CTensor};
use turbofno::{
    Backend, LayerSpec, PipelineRun, Request, Session, TfnoError, TurboOptions, Variant,
};

/// GELU (tanh approximation), applied to both complex lanes.
pub fn gelu(v: f32) -> f32 {
    0.5 * v
        * (1.0
            + ((2.0 / std::f32::consts::PI).sqrt() * (v + 0.044715 * v * v * v)).tanh())
}

fn gelu_c(v: C32) -> C32 {
    C32::new(gelu(v.re), gelu(v.im))
}

/// Output channels per micro-tile of the blocked pointwise kernel: each
/// spatial tile of `x` is loaded once and reused for this many output
/// channels. Shrunk automatically when the host has more workers than
/// full-width segments.
const PW_KO_BLOCK: usize = 8;
/// Spatial lanes per micro-tile (sized to keep the tile plus the
/// accumulator rows L1-resident).
const PW_S_BLOCK: usize = 512;
/// Complex MACs of work per `pointwise` pool share. A share of 2^13 MACs
/// is about 6 µs of serial arithmetic (0.75 ns per MAC on a 2-vCPU host),
/// six times the 1-µs hand-off to a spinning pool thread and about one
/// hand-off to a thread parked for under 100 µs (7–8 µs); `pointwise`
/// runs right after the spectral launches, so its hand-offs land there.
const PW_PAR_TASK_WORK: usize = 1 << 13;
/// Elements of `add_gelu` work per pool share: 1024 elements are about
/// 70 µs of serial work (two `tanhf` calls, 68 ns per element on a 2-vCPU
/// host), more than even a hand-off to a thread parked for milliseconds
/// (about 55 µs, the cost of waking an idle CPU).
const EW_MIN_CHUNK: usize = 1024;

/// Scalar reference pointwise convolution, kept as the ground truth the
/// blocked kernel is checked against (bitwise: both accumulate over
/// `k_in` in ascending order).
pub fn pointwise_naive(x: &CTensor, w: &CTensor) -> CTensor {
    let shape = x.shape().to_vec();
    let batch = shape[0];
    let k_in = shape[1];
    let spatial: usize = shape[2..].iter().product();
    let (wk_in, k_out) = match *w.shape() {
        [i, o] => (i, o),
        _ => panic!("pointwise weight must be rank-2"),
    };
    assert_eq!(k_in, wk_in);
    let mut out_shape = shape.clone();
    out_shape[1] = k_out;
    let mut y = CTensor::zeros(&out_shape);
    for b in 0..batch {
        for s in 0..spatial {
            for ko in 0..k_out {
                let mut acc = C32::ZERO;
                for ki in 0..k_in {
                    acc = acc.mac(x.data()[(b * k_in + ki) * spatial + s], w.get(&[ki, ko]));
                }
                y.data_mut()[(b * k_out + ko) * spatial + s] = acc;
            }
        }
    }
    y
}

/// One segment of the blocked pointwise kernel: `nko` output-channel rows
/// of batch `b`, written into their contiguous slice of the output. Walks
/// the spatial axis in tiles and runs the channel reduction innermost, so
/// each `x` tile streams through cache once per `PW_KO_BLOCK` outputs and
/// the inner loop is a vectorizable axpy.
fn pointwise_seg(
    xd: &[C32],
    wd: &[C32],
    k_in: usize,
    k_out: usize,
    spatial: usize,
    seg: (usize, usize, usize),
    out: &mut [C32],
) {
    let (b, ko0, nko) = seg;
    for s0 in (0..spatial).step_by(PW_S_BLOCK) {
        let ts = PW_S_BLOCK.min(spatial - s0);
        for ki in 0..k_in {
            let xrow = &xd[(b * k_in + ki) * spatial + s0..][..ts];
            for j in 0..nko {
                let wv = wd[ki * k_out + ko0 + j];
                let orow = &mut out[j * spatial + s0..][..ts];
                for (o, xv) in orow.iter_mut().zip(xrow) {
                    *o = o.mac(*xv, wv);
                }
            }
        }
    }
}

/// Pointwise (1x1) convolution over the channel axis: `w[k_in, k_out]`.
/// `x: [batch, k_in, ...spatial] -> [batch, k_out, ...spatial]`.
///
/// Blocked over `batch x spatial` with a k-inner micro-kernel and fanned
/// out across the worker pool under the engine's worker policy
/// (`TFNO_THREADS`); numerically identical to [`pointwise_naive`] — every
/// output element accumulates over `k_in` in the same order.
pub fn pointwise(x: &CTensor, w: &CTensor) -> CTensor {
    let shape = x.shape().to_vec();
    let batch = shape[0];
    let k_in = shape[1];
    let spatial: usize = shape[2..].iter().product();
    let (wk_in, k_out) = match *w.shape() {
        [i, o] => (i, o),
        _ => panic!("pointwise weight must be rank-2"),
    };
    assert_eq!(k_in, wk_in);
    let mut out_shape = shape.clone();
    out_shape[1] = k_out;

    // A segment: `(batch index, first output channel, channel count)`.
    type Seg = (usize, usize, usize);
    let mut y = vec![C32::ZERO; batch * k_out * spatial];
    // Segments of channel rows, never crossing a batch: each owns a
    // contiguous, disjoint slice of the output. Prefer PW_KO_BLOCK-wide
    // segments (x-tile reuse), but shrink them when the host has more
    // workers than segments so the fan-out actually engages.
    let par_workers = configured_workers();
    let seg_ko = if batch * k_out.div_ceil(PW_KO_BLOCK) >= par_workers {
        PW_KO_BLOCK
    } else {
        (batch * k_out).div_ceil(par_workers).clamp(1, PW_KO_BLOCK)
    };
    let mut segs: Vec<Seg> = Vec::new();
    for b in 0..batch {
        let mut ko = 0;
        while ko < k_out {
            let nko = seg_ko.min(k_out - ko);
            segs.push((b, ko, nko));
            ko += nko;
        }
    }
    let mut tasks: Vec<(Seg, &mut [C32])> = Vec::with_capacity(segs.len());
    let mut rest = y.as_mut_slice();
    for &seg in &segs {
        let (head, tail) = rest.split_at_mut(seg.2 * spatial);
        tasks.push((seg, head));
        rest = tail;
    }

    let (xd, wd) = (x.data(), w.data());
    // Fan out only as many shares as the arithmetic keeps busy: each pool
    // share must amortize its hand-off against PW_PAR_TASK_WORK MACs of
    // useful work (total work below that floor runs on the caller alone).
    let total_macs = batch * k_out * spatial * k_in;
    let workers = par_workers
        .min(tasks.len())
        .min(total_macs / PW_PAR_TASK_WORK)
        .max(1);
    for_each_mut(&mut tasks, workers, |(seg, out)| {
        pointwise_seg(xd, wd, k_in, k_out, spatial, *seg, out);
    });
    CTensor::from_vec(y, &out_shape)
}

/// `gelu(a + b)` elementwise, fanned out across the worker pool for large
/// tensors (deterministic: each element is computed exactly once, in
/// isolation).
pub fn add_gelu(a: &CTensor, b: &CTensor) -> CTensor {
    assert_eq!(a.shape(), b.shape());
    let len = a.data().len();
    let mut out = vec![C32::ZERO; len];
    let workers = configured_workers().min(len / EW_MIN_CHUNK).max(1);
    let per = len.div_ceil(workers).max(1);
    let mut chunks: Vec<_> = out
        .chunks_mut(per)
        .zip(a.data().chunks(per).zip(b.data().chunks(per)))
        .collect();
    for_each_mut(&mut chunks, workers, |(oc, (ac, bc))| {
        for (o, (x, y)) in oc.iter_mut().zip(ac.iter().zip(bc.iter())) {
            *o = gelu_c(*x + *y);
        }
    });
    CTensor::from_vec(out, a.shape())
}

/// A square random bypass/lift/proj weight with real entries, scale `1/i`.
fn random_real_weight<R: Rng>(rng: &mut R, i: usize, o: usize) -> CTensor {
    let scale = 1.0 / i as f32;
    CTensor::from_vec(
        (0..i * o)
            .map(|_| C32::new(rng.gen_range(-scale..scale), 0.0))
            .collect(),
        &[i, o],
    )
}

/// One rank-generic Fourier layer: `gelu(spectral(x) + pointwise(x))`.
#[derive(Clone, Debug)]
pub struct FnoLayerNd {
    pub spectral: SpectralConvNd,
    pub bypass: CTensor, // [k, k]
}

impl FnoLayerNd {
    pub fn random<R: Rng>(rng: &mut R, width: usize, dims: &[usize], modes: &[usize]) -> Self {
        let bypass = random_real_weight(rng, width, width);
        FnoLayerNd {
            spectral: SpectralConvNd::random(rng, width, width, dims, modes),
            bypass,
        }
    }

    pub fn forward_host(&self, x: &CTensor) -> CTensor {
        let s = self.spectral.forward_host(x);
        let p = pointwise(x, &self.bypass);
        add_gelu(&s, &p)
    }

    /// Device forward (see the [module docs](self)): the spectral conv
    /// through the session, then the host pointwise bypass and GELU.
    ///
    /// # Panics
    /// With the [`TfnoError`] text wherever
    /// [`FnoLayerNd::try_forward_device`] returns `Err`.
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

    /// Typed twin of [`FnoLayerNd::forward_device`]: rejected requests and
    /// engine failures surface as [`TfnoError`] (operand leases released
    /// by [`SpectralConvNd::try_forward_device`]).
    pub fn try_forward_device(
        &self,
        sess: &mut Session<impl Backend>,
        variant: Variant,
        opts: &TurboOptions,
        x: &CTensor,
    ) -> Result<(CTensor, PipelineRun), TfnoError> {
        let (s, run) = self.spectral.try_forward_device(sess, variant, opts, x)?;
        let p = pointwise(x, &self.bypass);
        Ok((add_gelu(&s, &p), run))
    }
}

/// A full rank-generic FNO: `in_ch -> width -> (layers x Fourier) ->
/// out_ch` over any supported spatial rank; a 3D model is
/// `FnoNd::random(.., &[nx, ny, nz], &[nfx, nfy, nfz])`.
#[derive(Clone, Debug)]
pub struct FnoNd {
    pub lift: CTensor, // [in_ch, width]
    pub layers: Vec<FnoLayerNd>,
    pub proj: CTensor, // [width, out_ch]
}

impl FnoNd {
    /// Random model: `in_ch -> width -> (layers x Fourier) -> out_ch`.
    pub fn random<R: Rng>(
        rng: &mut R,
        in_ch: usize,
        width: usize,
        out_ch: usize,
        layers: usize,
        dims: &[usize],
        modes: &[usize],
    ) -> Self {
        FnoNd {
            lift: random_real_weight(rng, in_ch, width),
            layers: (0..layers)
                .map(|_| FnoLayerNd::random(rng, width, dims, modes))
                .collect(),
            proj: random_real_weight(rng, width, out_ch),
        }
    }

    pub fn forward_host(&self, x: &CTensor) -> CTensor {
        let mut h = pointwise(x, &self.lift);
        for layer in &self.layers {
            h = layer.forward_host(&h);
        }
        pointwise(&h, &self.proj)
    }

    /// Device forward; returns the output and the concatenated spectral
    /// timing records of all layers, each layer run by
    /// [`FnoLayerNd::forward_device`].
    ///
    /// # Panics
    /// With the [`TfnoError`] text wherever [`FnoNd::try_forward_device`]
    /// returns `Err`.
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

    /// Typed twin of [`FnoNd::forward_device`]: the layer sweep stops at
    /// the first unrecoverable failure and reports it; the session stays
    /// usable (no leases held).
    pub fn try_forward_device(
        &self,
        sess: &mut Session<impl Backend>,
        variant: Variant,
        opts: &TurboOptions,
        x: &CTensor,
    ) -> Result<(CTensor, PipelineRun), TfnoError> {
        let mut h = pointwise(x, &self.lift);
        let mut total = PipelineRun::default();
        for layer in &self.layers {
            let (next, run) = layer.try_forward_device(sess, variant, opts, &h)?;
            h = next;
            for l in run.launches {
                total.push(l);
            }
        }
        Ok((pointwise(&h, &self.proj), total))
    }

    /// Forward a queue of independent inputs in lockstep (see the
    /// [module docs](self)): per layer, all K spectral convs run as one
    /// [`Session::run_many`] stack (one gather, one batched pipeline, one
    /// scatter), then the host runs the K pointwise bypasses. Returns `(output, timing)` per input, in order; each
    /// output is bitwise-equal to a solo [`FnoNd::forward_device`] on the
    /// same input. A coalesced layer's launches are reported on the
    /// queue's first entry, matching the [`Session::run_many`] convention.
    pub fn forward_device_batch(
        &self,
        sess: &mut Session<impl Backend>,
        variant: Variant,
        opts: &TurboOptions,
        xs: &[CTensor],
    ) -> Vec<(CTensor, PipelineRun)> {
        if xs.is_empty() {
            return Vec::new();
        }
        let mut hs: Vec<CTensor> = xs.iter().map(|x| pointwise(x, &self.lift)).collect();
        let mut totals: Vec<PipelineRun> = xs.iter().map(|_| PipelineRun::default()).collect();
        for layer in &self.layers {
            let sc = &layer.spectral;
            let wb = sess.acquire(sc.k_in * sc.k_out);
            sess.upload(wb, sc.weight.data());
            let mut reqs = Vec::with_capacity(hs.len());
            for h in &hs {
                let spec = LayerSpec::from_shape(sc.shape(h.shape()[0]))
                    .variant(variant)
                    .options(*opts);
                let xb = sess.acquire(spec.input_len());
                sess.upload(xb, h.data());
                let yb = sess.acquire(spec.output_len());
                reqs.push(Request { spec, x: xb, w: wb, y: yb });
            }
            let runs = sess.run_many(&reqs);
            for (j, (req, run)) in reqs.iter().zip(runs).enumerate() {
                let mut out_shape = vec![hs[j].shape()[0], sc.k_out];
                out_shape.extend_from_slice(&sc.dims);
                let s = CTensor::from_vec(sess.download(req.y), &out_shape);
                hs[j] = add_gelu(&s, &pointwise(&hs[j], &layer.bypass));
                totals[j].launches.extend(run.launches);
                sess.release(req.x);
                sess.release(req.y);
            }
            sess.release(wb);
        }
        hs.into_iter()
            .zip(totals)
            .map(|(h, total)| (pointwise(&h, &self.proj), total))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tfno_num::error::rel_l2_error;

    #[test]
    fn gelu_reference_points() {
        assert!((gelu(0.0)).abs() < 1e-7);
        assert!((gelu(1.0) - 0.8412).abs() < 1e-3);
        assert!(gelu(-10.0).abs() < 1e-3);
    }

    /// The blocked kernel must be bitwise-identical to the scalar
    /// reference: both accumulate over `k_in` in ascending order, so no
    /// tolerance is needed — any difference is a real indexing bug.
    #[test]
    fn pointwise_blocked_matches_naive_bitwise() {
        let mut rng = StdRng::seed_from_u64(21);
        // shapes chosen to exercise k_out % PW_KO_BLOCK != 0, spatial that
        // is not a multiple of the tile, rank-3 and rank-4 inputs
        let cases: Vec<(Vec<usize>, usize)> = vec![
            (vec![2, 3, 77], 5),
            (vec![1, 8, 513], 9),
            (vec![3, 5, 7, 11], 13),
            (vec![1, 1, 1], 1),
            (vec![2, 16, 32, 32], 16),
        ];
        for (shape, k_out) in cases {
            let x = CTensor::random(&mut rng, &shape);
            let w = CTensor::random(&mut rng, &[shape[1], k_out]);
            let fast = pointwise(&x, &w);
            let naive = pointwise_naive(&x, &w);
            assert_eq!(fast.shape(), naive.shape());
            assert_eq!(fast.data(), naive.data(), "shape {shape:?} k_out {k_out}");
        }
    }

    #[test]
    fn add_gelu_matches_scalar_map() {
        let mut rng = StdRng::seed_from_u64(22);
        let a = CTensor::random(&mut rng, &[3, 4, 100]);
        let b = CTensor::random(&mut rng, &[3, 4, 100]);
        let got = add_gelu(&a, &b);
        for ((g, x), y) in got.data().iter().zip(a.data()).zip(b.data()) {
            assert_eq!(*g, gelu_c(*x + *y));
        }
    }

    #[test]
    fn pointwise_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let x = CTensor::random(&mut rng, &[2, 3, 8]);
        let mut w = CTensor::zeros(&[3, 3]);
        for i in 0..3 {
            w.set(&[i, i], C32::ONE);
        }
        let y = pointwise(&x, &w);
        assert!(x.max_abs_diff(&y) < 1e-6);
    }

    #[test]
    fn fno1d_device_matches_host() {
        let mut rng = StdRng::seed_from_u64(2);
        let model = FnoNd::random(&mut rng, 2, 8, 1, 2, &[64], &[16]);
        let x = CTensor::random(&mut rng, &[1, 2, 64]);
        let want = model.forward_host(&x);
        let mut sess = Session::a100();
        let (got, run) = model.forward_device(
            &mut sess,
            Variant::FftOpt,
            &TurboOptions::default(),
            &x,
        );
        let err = rel_l2_error(got.data(), want.data());
        assert!(err < 1e-3, "err {err}");
        assert_eq!(run.kernel_count(), 2 * 3); // 2 layers x 3 kernels (variant A)
    }

    #[test]
    fn fno1d_variants_agree() {
        let mut rng = StdRng::seed_from_u64(3);
        let model = FnoNd::random(&mut rng, 1, 8, 1, 1, &[128], &[32]);
        let x = CTensor::random(&mut rng, &[2, 1, 128]);
        let mut outputs = Vec::new();
        for v in [Variant::Pytorch, Variant::FullyFused] {
            let mut sess = Session::a100();
            let (got, _) = model.forward_device(&mut sess, v, &TurboOptions::default(), &x);
            outputs.push(got);
        }
        let err = rel_l2_error(outputs[0].data(), outputs[1].data());
        assert!(err < 1e-4, "variants diverge: {err}");
    }

    /// The lockstep batch path must reproduce the solo forwards bitwise
    /// and leave no leases behind.
    #[test]
    fn batch_forward_is_bitwise_equal_to_solo_forwards() {
        let mut rng = StdRng::seed_from_u64(24);
        let model = FnoNd::random(&mut rng, 1, 8, 1, 2, &[128], &[32]);
        let xs: Vec<CTensor> = (0..3).map(|_| CTensor::random(&mut rng, &[1, 1, 128])).collect();
        let mut sess = Session::a100();
        let opts = TurboOptions::default();
        let solo: Vec<CTensor> = xs
            .iter()
            .map(|x| model.forward_device(&mut sess, Variant::TurboBest, &opts, x).0)
            .collect();
        let batch = model.forward_device_batch(&mut sess, Variant::TurboBest, &opts, &xs);
        assert_eq!(batch.len(), xs.len());
        for (j, ((got, run), want)) in batch.iter().zip(&solo).enumerate() {
            assert_eq!(got.data(), want.data(), "batched forward {j} diverged");
            // Coalesced layers report launches on the first entry.
            if j == 0 {
                assert!(run.kernel_count() > 0);
            }
        }
        assert_eq!(sess.pool_stats().leased, 0, "batch forward leaked leases");
    }

    #[test]
    fn fno2d_device_matches_host() {
        let mut rng = StdRng::seed_from_u64(4);
        let model = FnoNd::random(&mut rng, 1, 8, 1, 1, &[32, 32], &[8, 32]);
        let x = CTensor::random(&mut rng, &[1, 1, 32, 32]);
        let want = model.forward_host(&x);
        let mut sess = Session::a100();
        let (got, _) = model.forward_device(
            &mut sess,
            Variant::FullyFused,
            &TurboOptions::default(),
            &x,
        );
        let err = rel_l2_error(got.data(), want.data());
        assert!(err < 1e-3, "err {err}");
    }

    /// A 3D model runs end-to-end through the generic layer and agrees
    /// with its own host path.
    #[test]
    fn fno3d_device_matches_host() {
        let mut rng = StdRng::seed_from_u64(14);
        let model = FnoNd::random(&mut rng, 1, 6, 1, 1, &[8, 8, 16], &[2, 4, 8]);
        let x = CTensor::random(&mut rng, &[1, 1, 8, 8, 16]);
        let want = model.forward_host(&x);
        let mut sess = Session::a100();
        let (got, run) = model.forward_device(
            &mut sess,
            Variant::FftOpt,
            &TurboOptions::default(),
            &x,
        );
        let err = rel_l2_error(got.data(), want.data());
        assert!(err < 1e-3, "err {err}");
        assert_eq!(run.kernel_count(), 7); // rank-3 FftOpt: 7 kernels
    }
}
