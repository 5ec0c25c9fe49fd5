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

/// GELU (tanh approximation), applied to both complex lanes:
/// `0.5·v·(1 + tanh(u))` with `u = sqrt(2/π)·(v + 0.044715·v³)`.
///
/// `tanh` is an in-tree transliteration of fdlibm's `tanhf` and `expm1f`,
/// the code glibc's libm runs, so no output depends on the host libm. An
/// ignored test checks it against `f32::tanh` on every `f32` bit pattern
/// (`cargo test --release -p tfno-model -- --ignored`).
pub fn gelu(v: f32) -> f32 {
    0.5 * v * (1.0 + tanhf(gelu_arg(v)))
}

/// GELU's `tanh` argument `u`, in [`gelu`]'s operation order.
#[inline]
fn gelu_arg(v: f32) -> f32 {
    (2.0 / std::f32::consts::PI).sqrt() * (v + 0.044715 * v * v * v)
}

fn gelu_c(v: C32) -> C32 {
    C32::new(gelu(v.re), gelu(v.im))
}

// fdlibm's `expm1f` constants (glibc `s_expm1f.c`), by bit pattern.
const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const INVLN2: f32 = f32::from_bits(0x3fb8_aa3b);
const Q1: f32 = f32::from_bits(0xbd08_8889);
const Q2: f32 = f32::from_bits(0x3ad0_0d01);
const Q3: f32 = f32::from_bits(0xb8a6_70cd);
const Q4: f32 = f32::from_bits(0x3686_7e54);
const Q5: f32 = f32::from_bits(0xb457_edbb);
/// `0.5·ln2`, where `expm1f` starts to reduce its argument.
const HALF_LN2: f32 = f32::from_bits(0x3eb1_7218);

/// fdlibm's `tanhf` (glibc `s_tanhf.c`), step for step.
fn tanhf(x: f32) -> f32 {
    let jx = x.to_bits() as i32;
    let ix = jx & 0x7fff_ffff;
    if ix >= 0x7f80_0000 {
        // tanh(±inf) = ±1, tanh(NaN) = NaN
        return if jx >= 0 {
            1.0 / x + 1.0
        } else {
            1.0 / x - 1.0
        };
    }
    let z = if ix < 0x41b0_0000 {
        // |x| < 22
        if ix == 0 {
            return x;
        }
        if ix < 0x2400_0000 {
            // |x| < 2^-55
            return x * (1.0 + x);
        }
        if ix >= 0x3f80_0000 {
            1.0 - 2.0 / (expm1f(2.0 * x.abs()) + 2.0)
        } else {
            let t = expm1f(-2.0 * x.abs());
            -t / (t + 2.0)
        }
    } else {
        // |x| >= 22: ±1
        1.0 - 1.0e-30
    };
    if jx >= 0 {
        z
    } else {
        -z
    }
}

/// fdlibm's `expm1f` (glibc `s_expm1f.c`, with the five-term Q1–Q5
/// polynomial), step for step, on the arguments [`tanhf`] passes: `-2|x|`
/// for `2^-55 <= |x| < 1` and `2|x|` for `1 <= |x| < 22`. Its overflow,
/// non-finite and `x < -27·ln2` filters and its `k = 1` and `k = 128`
/// cases see no such argument and are left out.
fn expm1f(x: f32) -> f32 {
    let hx = x.to_bits() & 0x7fff_ffff;
    let (k, x, c) = if hx > 0x3eb1_7218 {
        // |x| > 0.5·ln2: x = k·ln2 + (hi - lo)
        let (k, hi, lo) = if hx < 0x3f85_1592 {
            // |x| < 1.5·ln2, negative here
            (-1, x + LN2_HI, -LN2_LO)
        } else {
            let k = (INVLN2 * x + if x.is_sign_negative() { -0.5 } else { 0.5 }) as i32;
            let t = k as f32;
            (k, x - t * LN2_HI, t * LN2_LO)
        };
        let r = hi - lo;
        (k, r, (hi - r) - lo)
    } else if hx < 0x3300_0000 {
        // |x| < 2^-25
        return x;
    } else {
        (0, x, 0.0)
    };
    let (hxs, e) = expm1_poly(x);
    if k == 0 {
        return x - (x * e - hxs);
    }
    let e = x * (e - c) - c - hxs;
    if k == -1 {
        return 0.5 * (x - e) - 0.5;
    }
    if k <= -2 || k > 56 {
        return add_exponent(1.0 - (e - x), k) - 1.0;
    }
    if k < 23 {
        // t = 1 - 2^-k
        let t = f32::from_bits(0x3f80_0000 - (0x0100_0000 >> k));
        add_exponent(t - (e - x), k)
    } else {
        // t = 2^-k
        let t = f32::from_bits(((0x7f - k) as u32) << 23);
        add_exponent(x - (e + t) + 1.0, k)
    }
}

/// `expm1f`'s rational approximation on its reduced argument `x`: `hxs =
/// x²/2` and the correction `e`.
#[inline]
fn expm1_poly(x: f32) -> (f32, f32) {
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    (hxs, hxs * ((r1 - t) / (6.0 - x * t)))
}

/// `y·2^k` by adding `k` to the exponent bits, as fdlibm does.
fn add_exponent(y: f32, k: i32) -> f32 {
    f32::from_bits(y.to_bits().wrapping_add((k << 23) as u32))
}

/// `f32` lanes per `add_gelu` chunk: the re and im lanes of
/// `GELU_CHUNK` elements.
const GELU_LANES: usize = 32;
const GELU_CHUNK: usize = GELU_LANES / 2;

/// [`tanhf`] on lanes that all have `|u| < 1`, without branches, so that
/// it vectorizes. There `tanhf(u)` is `-t / (t + 2)` with `t =
/// expm1f(-2|u|)`, whose reduction takes `k` in `{0, -1, -2, -3}`; each
/// lane runs the steps of every `k` and selects its own. With `k` as a
/// float the general reduction is exact at `k = 0` (`x - 0·ln2_hi = x`,
/// `c = 0`) and at `k = -1` (`x - (-1)·ln2_hi = x + ln2_hi`), and scaling
/// by `2^k` is the exponent add on these normal values. `expm1f`'s `|x| <
/// 2^-25` and `tanhf`'s `|u| < 2^-55` cut-offs return their argument, as
/// the `k = 0` polynomial does there.
fn tanh_small_lanes(us: &mut [f32; GELU_LANES]) {
    let step = |c: bool| if c { -1.0 } else { 0.0 };
    for u in us.iter_mut() {
        let x = -2.0 * u.abs();
        // fdlibm's k: 0 up to 0.5·ln2, -1 below 1.5·ln2, then INVLN2·x -
        // 0.5 truncated, which lies in (-3.4, -1.99]. Below 1.5·ln2 that
        // sum is above -2, so the -1 case needs no test of its own.
        let v = INVLN2 * x - 0.5;
        let k1 = -x > HALF_LN2;
        let k2 = v <= -2.0;
        let k3 = v <= -3.0;
        let k = step(k1) + step(k2) + step(k3);
        let hi = x - k * LN2_HI;
        let lo = k * LN2_LO;
        let r = hi - lo;
        let c = (hi - r) - lo;
        let (hxs, e) = expm1_poly(r);
        let ek = r * (e - c) - c - hxs;
        let expm1 = if !k1 {
            r - (r * e - hxs)
        } else if !k2 {
            0.5 * (r - ek) - 0.5
        } else {
            (1.0 - (ek - r)) * if k3 { 0.125 } else { 0.25 } - 1.0
        };
        // -expm1 / (expm1 + 2) >= +0, so this is tanhf's final sign flip
        *u = (-expm1 / (expm1 + 2.0)).copysign(*u);
    }
}

/// `gelu(a + b)` on one chunk. When every lane has `|u| < 1`, as nearly
/// every chunk of the benchmark workloads does, `tanh` runs as
/// [`tanh_small_lanes`]; otherwise lane by lane as [`tanhf`]. Either way
/// each output has [`gelu`]'s bits.
fn add_gelu_chunk(out: &mut [C32; GELU_CHUNK], a: &[C32; GELU_CHUNK], b: &[C32; GELU_CHUNK]) {
    let mut v = [0.0; GELU_LANES];
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        let s = *x + *y;
        (v[2 * i], v[2 * i + 1]) = (s.re, s.im);
    }
    let mut t = v.map(gelu_arg);
    if t.iter().fold(true, |small, u| small & (u.abs() < 1.0)) {
        tanh_small_lanes(&mut t);
    } else {
        t = t.map(tanhf);
    }
    for (i, o) in out.iter_mut().enumerate() {
        let g = |j: usize| 0.5 * v[j] * (1.0 + t[j]);
        *o = C32::new(g(2 * i), g(2 * i + 1));
    }
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
/// Elements of `add_gelu` work per pool share. Serial `add_gelu` takes
/// about 7 ns per element on chunks that run the lane kernel and 21 ns
/// when every lane runs the scalar `tanhf` (`micro_kernels` `add_gelu_*`
/// under `TFNO_THREADS=1`, 2-vCPU host), so a share is 7–21 µs: several
/// hand-offs to a spinning pool thread (1 µs), which is what `add_gelu`
/// meets right after the spectral launches, though less than a wake-up
/// after a long park (about 55 µs). On serve-varied, 8192 lost all 5
/// alternating pairs to 1024, and 512 was within noise of it.
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
/// tensors, in chunks of 16 elements: a chunk whose lanes all have `|u| <
/// 1` runs `tanh` as one branch-free lane kernel, any other chunk lane by
/// lane. Each output has [`gelu`]'s bits whatever chunk or share it falls
/// in.
pub fn add_gelu(a: &CTensor, b: &CTensor) -> CTensor {
    assert_eq!(a.shape(), b.shape());
    let len = a.data().len();
    let mut out = vec![C32::ZERO; len];
    let workers = configured_workers().min(len / EW_MIN_CHUNK).max(1);
    let per = len.div_ceil(workers).max(1).next_multiple_of(GELU_CHUNK);
    let mut shares: Vec<_> = out
        .chunks_mut(per)
        .zip(a.data().chunks(per).zip(b.data().chunks(per)))
        .collect();
    for_each_mut(&mut shares, workers, |(os, (xs, ys))| {
        let (xs, ys) = (xs.chunks_exact(GELU_CHUNK), ys.chunks_exact(GELU_CHUNK));
        let tail = xs.remainder().iter().zip(ys.remainder());
        let mut os = os.chunks_exact_mut(GELU_CHUNK);
        for (o, (x, y)) in os.by_ref().zip(xs.zip(ys)) {
            add_gelu_chunk(
                o.try_into().unwrap(),
                x.try_into().unwrap(),
                y.try_into().unwrap(),
            );
        }
        // The last share's tail, shorter than a chunk.
        for (o, (x, y)) in os.into_remainder().iter_mut().zip(tail) {
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
    use tfno_gpu_sim::exec::broadcast;
    use tfno_num::error::rel_l2_error;

    /// `tanhf(x)` must have the bits of the host libm's `f32::tanh`.
    fn check_tanhf(x: f32) {
        let (got, want) = (tanhf(x), x.tanh());
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "tanhf({x:e} = {:#010x}): {got:e} vs libm {want:e}",
            x.to_bits()
        );
    }

    /// `tanh_small_lanes` over the `|u| < 1` values of `xs`, 32 lanes at
    /// a time, must have the bits of `tanhf`.
    fn check_small_lanes(xs: impl Iterator<Item = f32>) {
        let mut lanes = [0.0; GELU_LANES];
        let mut n = 0;
        let flush = |lanes: &[f32; GELU_LANES], n: usize| {
            let mut got = *lanes;
            tanh_small_lanes(&mut got);
            for (x, g) in lanes[..n].iter().zip(got) {
                let want = tanhf(*x);
                assert_eq!(
                    g.to_bits(),
                    want.to_bits(),
                    "lane kernel at {x:e} = {:#010x}: {g:e} vs tanhf {want:e}",
                    x.to_bits()
                );
            }
        };
        for x in xs.filter(|x| x.abs() < 1.0) {
            lanes[n] = x;
            n += 1;
            if n == GELU_LANES {
                flush(&lanes, n);
                n = 0;
            }
        }
        flush(&lanes, n);
    }

    /// Bit patterns of the positive branch thresholds of `tanhf` and of
    /// the `expm1f` calls it makes, as `tanhf` arguments: `2^-55`, 1, 22,
    /// infinity, `expm1f`'s `2^-25`, `0.5·ln2` and `1.5·ln2` cut-offs
    /// (halved), and every point where its `k` steps.
    fn tanhf_thresholds() -> Vec<u32> {
        let mut t = vec![0, 0x2400_0000, 0x3f80_0000, 0x41b0_0000, 0x7f80_0000];
        t.extend([0x3300_0000u32, 0x3eb1_7218, 0x3f85_1592].map(|b| b - (1 << 23)));
        let ln2 = std::f64::consts::LN_2;
        t.push(((2.5 * ln2 / 2.0) as f32).to_bits());
        t.extend((4..=63).map(|k| (((k as f64 - 0.5) * ln2 / 2.0) as f32).to_bits()));
        t
    }

    /// Tier-1 share of the exhaustive checks below: a strided sweep of
    /// every bit pattern, and ±64 ulps of both signs around every branch
    /// threshold.
    #[test]
    fn tanhf_and_the_lane_kernel_match_libm_on_a_sweep_and_at_every_threshold() {
        let near: Vec<f32> = tanhf_thresholds()
            .into_iter()
            .flat_map(|b| (-64..=64).map(move |d| b.wrapping_add_signed(d)))
            .flat_map(|b| [b, b | 0x8000_0000])
            .map(f32::from_bits)
            .collect();
        let swept = (0..=u32::MAX).step_by(4099).map(f32::from_bits);
        for x in near.iter().copied().chain(swept.clone()) {
            check_tanhf(x);
        }
        check_small_lanes(near.into_iter().chain(swept));
    }

    /// Every `f32` bit pattern, NaN payloads included: `tanhf` has the
    /// bits of the host libm's `f32::tanh`. About 2^32 pairs of calls,
    /// so run it in release.
    #[test]
    #[ignore = "exhaustive; cargo test --release -p tfno-model -- --ignored"]
    fn tanhf_matches_libm_on_every_f32() {
        let n = configured_workers();
        broadcast(n, |w| {
            for hi in (w as u32..=0xffff).step_by(n) {
                for lo in 0..=0xffff {
                    check_tanhf(f32::from_bits(hi << 16 | lo));
                }
            }
        });
    }

    /// Every `|u| < 1` of both signs: the lane kernel has `tanhf`'s bits.
    #[test]
    #[ignore = "exhaustive; cargo test --release -p tfno-model -- --ignored"]
    fn small_lane_kernel_matches_tanhf_on_every_small_argument() {
        let n = configured_workers();
        broadcast(n, |w| {
            for hi in (w as u32..0x3f80).step_by(n) {
                for sign in [0, 0x8000_0000] {
                    check_small_lanes((0..=0xffff).map(|lo| f32::from_bits(sign | hi << 16 | lo)));
                }
            }
        });
    }

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

    /// FNV-1a over the bit patterns of `out`, as `tests/rank_equivalence.rs`
    /// hashes launch outputs.
    fn bits_hash(out: &[C32]) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        for bits in out.iter().flat_map(|v| [v.re.to_bits(), v.im.to_bits()]) {
            for b in bits.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        }
        h
    }

    /// The branch `tanhf` takes for `tanh(u)`: 0 for ±0, 1 for `|u| <
    /// 2^-55`, then `expm1f`'s `k` (`-3..=0` for `|u| < 1`, `3..=63` up to
    /// 22) offset by 10, and 100, 101, 102 for `|u| >= 22`, ±inf and NaN.
    fn tanhf_branch(u: f32) -> i32 {
        let a = u.abs();
        let x = 2.0 * a;
        if u.is_nan() {
            102
        } else if a == f32::INFINITY {
            101
        } else if a >= 22.0 {
            100
        } else if a == 0.0 {
            0
        } else if a < f32::from_bits(0x2400_0000) {
            1
        } else if a >= 1.0 {
            10 + (std::f32::consts::LOG2_E * x + 0.5) as i32
        } else if x.to_bits() <= 0x3eb1_7218 {
            10
        } else if x.to_bits() < 0x3f85_1592 {
            9
        } else {
            10 + (std::f32::consts::LOG2_E * -x - 0.5) as i32
        }
    }

    /// Activations that reach every `tanhf`/`expm1f` branch: signed zeros,
    /// infinities, NaN and saturating cubes, a sweep over every exponent
    /// from the subnormals up, and a fine linear sweep that steps through
    /// each `k` of `|u| < 22`.
    fn activation_grid() -> Vec<f32> {
        let mut v = vec![0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        v.extend([0x7f80_0001, 0xffc0_1234].map(f32::from_bits));
        v.extend([f32::MAX, -f32::MAX, 1e13, -1e13, 30.0, -30.0]);
        for e in 0u32..=131 {
            for m in 0u32..8 {
                let x = f32::from_bits(e << 23 | m << 20);
                v.extend([x, -x]);
            }
        }
        for i in 1..=640 {
            let x = i as f32 / 64.0;
            v.extend([x, -x]);
        }
        v
    }

    /// Pins the bits of `add_gelu` over `activation_grid`, in tensors
    /// whose lengths leave remainder chunks and whose chunks mix small and
    /// large lanes (each element pairs two grid points far apart).
    #[test]
    fn add_gelu_bits_are_pinned_over_every_tanhf_branch() {
        let grid = activation_grid();
        let n = grid.len();
        let us: Vec<f32> = grid
            .iter()
            .map(|&v| (2.0 / std::f32::consts::PI).sqrt() * (v + 0.044715 * v * v * v))
            .collect();
        let mut want: Vec<i32> = vec![0, 1, 100, 101, 102];
        want.extend(7..=10);
        want.extend(13..=73);
        for b in want {
            assert!(
                us.iter().any(|&u| tanhf_branch(u) == b),
                "no lane reaches branch {b}"
            );
        }
        let pins: [(usize, u64); 8] = [
            (1, 0xbb4bf184b1caea17),
            (15, 0x648848ec0bebffe7),
            (16, 0xc5cd4da14409653e),
            (17, 0x3b1ba9ea1a4a1186),
            (33, 0xf50ba4cb178726c0),
            (1000, 0x6db0f013c306c310),
            (3405, 0x9c808db0571bac1d),
            (6815, 0x1ef958fc57f86529),
        ];
        for (len, want) in pins {
            let a: Vec<C32> = (0..len)
                .map(|i| C32::new(grid[i % n], grid[(i * 7 + n / 2) % n]))
                .collect();
            let b = vec![C32::new(-0.0, -0.0); len];
            let out = add_gelu(&CTensor::from_vec(a, &[len]), &CTensor::from_vec(b, &[len]));
            assert_eq!(bits_hash(out.data()), want, "length {len}");
        }
    }

    /// Chunks on the lane kernel and chunks on `tanhf` both give `gelu`'s
    /// bits: scaled by 1/4 every lane has `|u| < 1`, unscaled some chunks
    /// hold a larger lane, scaled by 4 most do. An empty tensor maps to
    /// an empty one.
    #[test]
    fn add_gelu_matches_scalar_map() {
        let empty = CTensor::zeros(&[2, 0, 3]);
        assert!(add_gelu(&empty, &empty).data().is_empty());
        let mut rng = StdRng::seed_from_u64(22);
        let a = CTensor::random(&mut rng, &[3, 4, 100]);
        let b = CTensor::random(&mut rng, &[3, 4, 100]);
        for s in [0.25, 1.0, 4.0] {
            let scaled = |t: &CTensor| {
                CTensor::from_vec(t.data().iter().map(|v| v.scale(s)).collect(), t.shape())
            };
            let (a, b) = (scaled(&a), scaled(&b));
            let got = add_gelu(&a, &b);
            for ((g, x), y) in got.data().iter().zip(a.data()).zip(b.data()) {
                let want = gelu_c(*x + *y);
                assert_eq!(
                    (g.re.to_bits(), g.im.to_bits()),
                    (want.re.to_bits(), want.im.to_bits())
                );
            }
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
