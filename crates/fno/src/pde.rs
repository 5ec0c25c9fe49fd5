//! Synthetic PDE workloads (the paper's motivating applications).
//!
//! Everything here is generated, not loaded: the reproduction has no access
//! to the FNO papers' datasets, so examples validate physics against
//! *exact spectral solutions* (heat equation) and exercise realistic
//! spectra via Gaussian random fields (Burgers/Darcy/Navier–Stokes-style
//! inputs). Modeled kernel costs depend only on tensor shapes, and the
//! host reference checks the numerics whatever the values are, so
//! generated inputs exercise the same paths a dataset would.

use rand::Rng;
use tfno_num::{C32, CTensor};

/// Exact heat-equation spectral multipliers on a periodic domain of length
/// `l`: mode `f` decays by `exp(-nu * (2 pi f / l)^2 * t)`.
///
/// Plugged into `PerModeSpectralConv1d::diagonal`, an FNO layer *is* the
/// exact solution operator — the validation trick the examples use.
pub fn heat_multipliers(nf: usize, nu: f64, t: f64, l: f64) -> Vec<C32> {
    (0..nf)
        .map(|f| {
            let k = 2.0 * std::f64::consts::PI * f as f64 / l;
            C32::real((-nu * k * k * t).exp() as f32)
        })
        .collect()
}

/// Solve the periodic heat equation exactly: evolve `u0` by time `t`.
/// Uses the full spectrum (for comparison against truncated FNO outputs).
pub fn heat_exact(u0: &[C32], nu: f64, t: f64, l: f64) -> Vec<C32> {
    let n = u0.len();
    let modes = tfno_fft::host::stockham(u0, tfno_fft::FftDirection::Forward);
    let evolved: Vec<C32> = modes
        .iter()
        .enumerate()
        .map(|(f, m)| {
            // frequency index with negative-frequency wrap
            let fi = if f <= n / 2 { f as f64 } else { f as f64 - n as f64 };
            let k = 2.0 * std::f64::consts::PI * fi / l;
            m.scale((-nu * k * k * t).exp() as f32)
        })
        .collect();
    tfno_fft::host::stockham(&evolved, tfno_fft::FftDirection::Inverse)
}

/// A smooth random periodic field: a truncated Fourier series with
/// power-law-decaying random coefficients (`~ f^-decay`), real-valued.
/// This is the standard Burgers'-equation initial-condition generator.
pub fn random_smooth_field_1d<R: Rng>(rng: &mut R, n: usize, modes: usize, decay: f32) -> Vec<C32> {
    let mut u = vec![0.0f32; n];
    for f in 1..=modes {
        let amp = (f as f32).powf(-decay);
        let a = rng.gen_range(-1.0f32..1.0) * amp;
        let b = rng.gen_range(-1.0f32..1.0) * amp;
        for (i, v) in u.iter_mut().enumerate() {
            let theta = 2.0 * std::f32::consts::PI * (f * i) as f32 / n as f32;
            *v += a * theta.sin() + b * theta.cos();
        }
    }
    u.into_iter().map(C32::real).collect()
}

/// 2D Gaussian random field with spectrum `(|k|^2 + tau^2)^(-alpha)` —
/// the coefficient-field generator used for Darcy-flow benchmarks and a
/// reasonable stand-in for turbulence-like vorticity inputs.
pub fn gaussian_random_field_2d<R: Rng>(
    rng: &mut R,
    nx: usize,
    ny: usize,
    alpha: f32,
    tau: f32,
) -> Vec<C32> {
    // Build a random spectrum with Hermitian-ish decay and transform back.
    let mut modes = vec![C32::ZERO; nx * ny];
    for fx in 0..nx {
        for fy in 0..ny {
            let kx = if fx <= nx / 2 { fx as f32 } else { fx as f32 - nx as f32 };
            let ky = if fy <= ny / 2 { fy as f32 } else { fy as f32 - ny as f32 };
            let k2 = kx * kx + ky * ky;
            let power = (k2 + tau * tau).powf(-alpha / 2.0);
            modes[fx * ny + fy] = C32::new(
                rng.gen_range(-1.0f32..1.0) * power,
                rng.gen_range(-1.0f32..1.0) * power,
            );
        }
    }
    modes[0] = C32::ZERO; // zero mean
    // inverse transform rows then columns
    let mut field = vec![C32::ZERO; nx * ny];
    let mut col = vec![C32::ZERO; nx];
    let mut tmp = vec![C32::ZERO; nx * ny];
    for fy in 0..ny {
        for fx in 0..nx {
            col[fx] = modes[fx * ny + fy];
        }
        let sp = tfno_fft::host::stockham(&col, tfno_fft::FftDirection::Inverse);
        for x in 0..nx {
            tmp[x * ny + fy] = sp[x];
        }
    }
    for x in 0..nx {
        let row = tfno_fft::host::stockham(&tmp[x * ny..(x + 1) * ny], tfno_fft::FftDirection::Inverse);
        field[x * ny..(x + 1) * ny].copy_from_slice(&row);
    }
    // keep the real part as the physical field
    field.iter().map(|c| C32::real(c.re)).collect()
}

/// A band-limited *analytic* random field: only positive-frequency
/// content (`sum_{1<=f<=modes} c_f e^{+2 pi i f x / n}` plus a mean).
///
/// One-sided mode truncation (the paper's filter keeps the first `nf`
/// complex modes) is lossless exactly on this class of signals; real
/// fields would lose their conjugate (negative-frequency) half. Examples
/// validating against exact spectral solutions use this generator.
pub fn random_analytic_field_1d<R: Rng>(
    rng: &mut R,
    n: usize,
    modes: usize,
    decay: f32,
) -> Vec<C32> {
    let mut spectrum = vec![C32::ZERO; n];
    spectrum[0] = C32::real(rng.gen_range(-1.0f32..1.0)).scale(n as f32);
    for f in 1..=modes.min(n - 1) {
        let amp = (f as f32).powf(-decay) * n as f32;
        spectrum[f] = C32::new(
            rng.gen_range(-1.0f32..1.0) * amp,
            rng.gen_range(-1.0f32..1.0) * amp,
        );
    }
    tfno_fft::host::stockham(&spectrum, tfno_fft::FftDirection::Inverse)
}

/// Pack a batch of 1D fields into a `[batch, 1, n]` tensor.
pub fn batch_1d(fields: &[Vec<C32>]) -> CTensor {
    let n = fields[0].len();
    let mut data = Vec::with_capacity(fields.len() * n);
    for f in fields {
        assert_eq!(f.len(), n);
        data.extend_from_slice(f);
    }
    CTensor::from_vec(data, &[fields.len(), 1, n])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn heat_multipliers_decay() {
        let m = heat_multipliers(8, 0.1, 1.0, 2.0 * std::f64::consts::PI);
        assert!((m[0].re - 1.0).abs() < 1e-6, "DC mode must be preserved");
        for f in 1..8 {
            assert!(m[f].re < m[f - 1].re, "multipliers must decay");
            assert!(m[f].re > 0.0);
        }
    }

    #[test]
    fn heat_exact_preserves_mean_and_smooths() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 64;
        let u0 = random_smooth_field_1d(&mut rng, n, 12, 1.0);
        let mean0: f32 = u0.iter().map(|c| c.re).sum::<f32>() / n as f32;
        let u1 = heat_exact(&u0, 0.05, 1.0, 2.0 * std::f64::consts::PI);
        let mean1: f32 = u1.iter().map(|c| c.re).sum::<f32>() / n as f32;
        assert!((mean0 - mean1).abs() < 1e-3, "diffusion preserves the mean");
        let var = |u: &[C32], m: f32| u.iter().map(|c| (c.re - m).powi(2)).sum::<f32>();
        assert!(
            var(&u1, mean1) < var(&u0, mean0),
            "diffusion must reduce variance"
        );
    }

    #[test]
    fn smooth_field_is_real_and_periodic_spectrum_limited() {
        let mut rng = StdRng::seed_from_u64(12);
        let u = random_smooth_field_1d(&mut rng, 128, 8, 1.5);
        assert!(u.iter().all(|c| c.im == 0.0));
        // energy beyond mode 8 must be ~0
        let modes = tfno_fft::host::stockham(&u, tfno_fft::FftDirection::Forward);
        for f in 9..(128 - 8) {
            assert!(modes[f].abs() < 1e-3, "mode {f} leaked: {}", modes[f].abs());
        }
    }

    #[test]
    fn analytic_field_survives_onesided_truncation() {
        let mut rng = StdRng::seed_from_u64(21);
        let n = 64;
        let u = random_analytic_field_1d(&mut rng, n, 8, 1.0);
        // all energy sits in modes 0..=8
        let modes = tfno_fft::host::stockham(&u, tfno_fft::FftDirection::Forward);
        for f in 9..n {
            assert!(modes[f].abs() < 1e-2, "mode {f} leaked: {}", modes[f].abs());
        }
        // truncate to 16 modes and restore: must reproduce the field
        let kept = tfno_fft::host::fft_truncated(&u, 16);
        let back = tfno_fft::host::ifft_padded(&kept, n);
        for (a, b) in u.iter().zip(&back) {
            assert!((*a - *b).abs() < 1e-3);
        }
    }

    #[test]
    fn grf_2d_zero_mean() {
        let mut rng = StdRng::seed_from_u64(13);
        let f = gaussian_random_field_2d(&mut rng, 32, 32, 2.5, 3.0);
        let mean: f32 = f.iter().map(|c| c.re).sum::<f32>() / f.len() as f32;
        assert!(mean.abs() < 1e-3, "mean {mean}");
        assert!(f.iter().any(|c| c.re.abs() > 1e-6), "field must be nonzero");
    }
}
