//! Reference (naive, obviously-correct) implementations.
//!
//! These O(N^2) DFTs and triple-loop GEMMs are the ground truth every
//! simulated GPU kernel is validated against. Conventions:
//!
//! * Forward DFT is **unnormalized**: `X[f] = sum_n x[n] W_N^{fn}` with
//!   `W_N = e^{-2 pi i / N}`.
//! * Inverse DFT carries the `1/N` factor (the PyTorch `ifft` convention,
//!   which is what the paper's baseline uses).
//! * Frequency truncation keeps the **first `nf` modes** (the paper's
//!   Fig. 1 keeps the low-frequency corner). Modes count complex spectrum
//!   entries from DC upward; inputs are complex, so there is no Hermitian
//!   folding.
//! * The spectral weight is a single complex `K_in x K_out` matrix shared
//!   across retained modes (the paper's single-CGEMM formulation).

use crate::{C32, CTensor};

/// Naive forward DFT of one signal. `out.len() <= input.len()` is allowed
/// and computes only the first `out.len()` frequency components
/// (built-in truncation, the reference for the paper's Fig. 4).
pub fn dft(input: &[C32], out: &mut [C32]) {
    let n = input.len();
    assert!(out.len() <= n, "cannot produce more modes than samples");
    for (f, o) in out.iter_mut().enumerate() {
        let mut acc = C32::ZERO;
        for (t, &x) in input.iter().enumerate() {
            acc += x * C32::twiddle(f * t % n, n);
        }
        *o = acc;
    }
}

/// Naive inverse DFT with `1/N` normalization. `modes.len() <= out.len()`
/// is allowed and treats the missing high-frequency modes as zero
/// (built-in zero-padding).
pub fn idft(modes: &[C32], out: &mut [C32]) {
    let n = out.len();
    assert!(modes.len() <= n, "more modes than output samples");
    let scale = 1.0 / n as f32;
    for (t, o) in out.iter_mut().enumerate() {
        let mut acc = C32::ZERO;
        for (f, &m) in modes.iter().enumerate() {
            acc += m * C32::twiddle_inv(f * t % n, n);
        }
        *o = acc.scale(scale);
    }
}

/// Forward DFT returning all `n` modes.
pub fn dft_full(input: &[C32]) -> Vec<C32> {
    let mut out = vec![C32::ZERO; input.len()];
    dft(input, &mut out);
    out
}

/// Row-major complex GEMM: `C = alpha * A(MxK) * B(KxN) + beta * C(MxN)`.
pub fn cgemm(
    m: usize,
    n: usize,
    k: usize,
    alpha: C32,
    a: &[C32],
    b: &[C32],
    beta: C32,
    c: &mut [C32],
) {
    assert_eq!(a.len(), m * k, "A shape mismatch");
    assert_eq!(b.len(), k * n, "B shape mismatch");
    assert_eq!(c.len(), m * n, "C shape mismatch");
    for i in 0..m {
        for j in 0..n {
            let mut acc = C32::ZERO;
            for p in 0..k {
                acc = acc.mac(a[i * k + p], b[p * n + j]);
            }
            c[i * n + j] = alpha * acc + beta * c[i * n + j];
        }
    }
}

/// 2D forward DFT of a `nx x ny` row-major grid, truncated to the
/// low-frequency `nfx x nfy` corner (separable: DFT rows, then columns).
pub fn dft2_truncated(input: &[C32], nx: usize, ny: usize, nfx: usize, nfy: usize) -> Vec<C32> {
    assert_eq!(input.len(), nx * ny);
    assert!(nfx <= nx && nfy <= ny);
    // Stage 1: DFT along y for every row, keep first nfy modes.
    let mut stage1 = vec![C32::ZERO; nx * nfy];
    for x in 0..nx {
        let row = &input[x * ny..(x + 1) * ny];
        dft(row, &mut stage1[x * nfy..(x + 1) * nfy]);
    }
    // Stage 2: DFT along x for every retained column, keep first nfx modes.
    let mut out = vec![C32::ZERO; nfx * nfy];
    let mut col = vec![C32::ZERO; nx];
    let mut colf = vec![C32::ZERO; nfx];
    for fy in 0..nfy {
        for x in 0..nx {
            col[x] = stage1[x * nfy + fy];
        }
        dft(&col, &mut colf);
        for fx in 0..nfx {
            out[fx * nfy + fy] = colf[fx];
        }
    }
    out
}

/// 2D inverse DFT of an `nfx x nfy` low-frequency corner zero-padded to
/// `nx x ny`, with the full `1/(nx*ny)` normalization.
pub fn idft2_padded(modes: &[C32], nfx: usize, nfy: usize, nx: usize, ny: usize) -> Vec<C32> {
    assert_eq!(modes.len(), nfx * nfy);
    assert!(nfx <= nx && nfy <= ny);
    // Stage 1: inverse DFT along x for each retained fy column.
    let mut stage1 = vec![C32::ZERO; nx * nfy];
    let mut colf = vec![C32::ZERO; nfx];
    let mut col = vec![C32::ZERO; nx];
    for fy in 0..nfy {
        for fx in 0..nfx {
            colf[fx] = modes[fx * nfy + fy];
        }
        idft(&colf, &mut col);
        for x in 0..nx {
            stage1[x * nfy + fy] = col[x];
        }
    }
    // Stage 2: inverse DFT along y for every row.
    let mut out = vec![C32::ZERO; nx * ny];
    for x in 0..nx {
        idft(&stage1[x * nfy..(x + 1) * nfy], &mut out[x * ny..(x + 1) * ny]);
    }
    out
}

/// 3D forward DFT of a `nx x ny x nz` row-major grid, truncated to the
/// low-frequency `nfx x nfy x nfz` corner (separable: DFT the contiguous
/// z rows first, then y, then x — innermost axis outward, the same
/// convention `dft2_truncated` uses).
#[allow(clippy::too_many_arguments)]
pub fn dft3_truncated(
    input: &[C32],
    nx: usize,
    ny: usize,
    nz: usize,
    nfx: usize,
    nfy: usize,
    nfz: usize,
) -> Vec<C32> {
    assert_eq!(input.len(), nx * ny * nz);
    assert!(nfx <= nx && nfy <= ny && nfz <= nz);
    // Stage 1: DFT along z for every (x, y) row, keep first nfz modes.
    let mut stage1 = vec![C32::ZERO; nx * ny * nfz];
    for r in 0..nx * ny {
        dft(
            &input[r * nz..(r + 1) * nz],
            &mut stage1[r * nfz..(r + 1) * nfz],
        );
    }
    // Stage 2: DFT along y for every retained (x, fz) pencil.
    let mut stage2 = vec![C32::ZERO; nx * nfy * nfz];
    let mut col = vec![C32::ZERO; ny];
    let mut colf = vec![C32::ZERO; nfy];
    for x in 0..nx {
        for fz in 0..nfz {
            for y in 0..ny {
                col[y] = stage1[(x * ny + y) * nfz + fz];
            }
            dft(&col, &mut colf);
            for fy in 0..nfy {
                stage2[(x * nfy + fy) * nfz + fz] = colf[fy];
            }
        }
    }
    // Stage 3: DFT along x for every retained (fy, fz) pencil.
    let mut out = vec![C32::ZERO; nfx * nfy * nfz];
    let mut col = vec![C32::ZERO; nx];
    let mut colf = vec![C32::ZERO; nfx];
    for fy in 0..nfy {
        for fz in 0..nfz {
            for x in 0..nx {
                col[x] = stage2[(x * nfy + fy) * nfz + fz];
            }
            dft(&col, &mut colf);
            for fx in 0..nfx {
                out[(fx * nfy + fy) * nfz + fz] = colf[fx];
            }
        }
    }
    out
}

/// 3D inverse DFT of an `nfx x nfy x nfz` low-frequency corner zero-padded
/// to `nx x ny x nz`, with the full `1/(nx*ny*nz)` normalization
/// (separable, outermost axis inward — the reverse of `dft3_truncated`).
#[allow(clippy::too_many_arguments)]
pub fn idft3_padded(
    modes: &[C32],
    nfx: usize,
    nfy: usize,
    nfz: usize,
    nx: usize,
    ny: usize,
    nz: usize,
) -> Vec<C32> {
    assert_eq!(modes.len(), nfx * nfy * nfz);
    assert!(nfx <= nx && nfy <= ny && nfz <= nz);
    // Stage 1: inverse DFT along x for each retained (fy, fz) pencil.
    let mut stage1 = vec![C32::ZERO; nx * nfy * nfz];
    let mut colf = vec![C32::ZERO; nfx];
    let mut col = vec![C32::ZERO; nx];
    for fy in 0..nfy {
        for fz in 0..nfz {
            for fx in 0..nfx {
                colf[fx] = modes[(fx * nfy + fy) * nfz + fz];
            }
            idft(&colf, &mut col);
            for x in 0..nx {
                stage1[(x * nfy + fy) * nfz + fz] = col[x];
            }
        }
    }
    // Stage 2: inverse DFT along y for each (x, fz) pencil.
    let mut stage2 = vec![C32::ZERO; nx * ny * nfz];
    let mut colf = vec![C32::ZERO; nfy];
    let mut col = vec![C32::ZERO; ny];
    for x in 0..nx {
        for fz in 0..nfz {
            for fy in 0..nfy {
                colf[fy] = stage1[(x * nfy + fy) * nfz + fz];
            }
            idft(&colf, &mut col);
            for y in 0..ny {
                stage2[(x * ny + y) * nfz + fz] = col[y];
            }
        }
    }
    // Stage 3: inverse DFT along z for every (x, y) row.
    let mut out = vec![C32::ZERO; nx * ny * nz];
    for r in 0..nx * ny {
        idft(
            &stage2[r * nfz..(r + 1) * nfz],
            &mut out[r * nz..(r + 1) * nz],
        );
    }
    out
}

/// Reference 1D FNO Fourier layer (the paper's Fig. 1 pipeline).
///
/// * `x`: `[batch, k_in, n]`
/// * `w`: `[k_in, k_out]` complex spectral weight shared across modes
/// * `nf`: number of retained low-frequency modes (`nf <= n`)
///
/// Returns `[batch, k_out, n]`.
pub fn fno_layer_1d(x: &CTensor, w: &CTensor, nf: usize) -> CTensor {
    let (batch, k_in, n) = match *x.shape() {
        [b, k, n] => (b, k, n),
        _ => panic!("fno_layer_1d expects rank-3 input, got {:?}", x.shape()),
    };
    let (wk_in, k_out) = match *w.shape() {
        [ki, ko] => (ki, ko),
        _ => panic!("weight must be rank-2"),
    };
    assert_eq!(k_in, wk_in, "hidden dim mismatch");
    assert!(nf <= n);

    // Step 1+2: truncated FFT along n for every (b, k) pencil.
    // xf[b, k, f], f < nf
    let mut xf = CTensor::zeros(&[batch, k_in, nf]);
    for b in 0..batch {
        for k in 0..k_in {
            let base = x.offset(&[b, k, 0]);
            let pencil = &x.data()[base..base + n];
            let obase = xf.offset(&[b, k, 0]);
            dft(pencil, &mut xf.data_mut()[obase..obase + nf]);
        }
    }

    // Step 3: CGEMM along the hidden dim at every retained (b, f) position:
    // yf[b, ko, f] = sum_ki xf[b, ki, f] * w[ki, ko]
    let mut yf = CTensor::zeros(&[batch, k_out, nf]);
    for b in 0..batch {
        for f in 0..nf {
            for ko in 0..k_out {
                let mut acc = C32::ZERO;
                for ki in 0..k_in {
                    acc = acc.mac(xf.get(&[b, ki, f]), w.get(&[ki, ko]));
                }
                yf.set(&[b, ko, f], acc);
            }
        }
    }

    // Step 4+5: zero-pad to n and inverse FFT.
    let mut y = CTensor::zeros(&[batch, k_out, n]);
    for b in 0..batch {
        for ko in 0..k_out {
            let base = yf.offset(&[b, ko, 0]);
            let modes = &yf.data()[base..base + nf].to_vec();
            let obase = y.offset(&[b, ko, 0]);
            idft(modes, &mut y.data_mut()[obase..obase + n]);
        }
    }
    y
}

/// Reference 2D FNO Fourier layer.
///
/// * `x`: `[batch, k_in, nx, ny]`
/// * `w`: `[k_in, k_out]`
/// * `nfx`, `nfy`: retained low-frequency corner
///
/// Returns `[batch, k_out, nx, ny]`.
pub fn fno_layer_2d(x: &CTensor, w: &CTensor, nfx: usize, nfy: usize) -> CTensor {
    let (batch, k_in, nx, ny) = match *x.shape() {
        [b, k, nx, ny] => (b, k, nx, ny),
        _ => panic!("fno_layer_2d expects rank-4 input, got {:?}", x.shape()),
    };
    let (wk_in, k_out) = match *w.shape() {
        [ki, ko] => (ki, ko),
        _ => panic!("weight must be rank-2"),
    };
    assert_eq!(k_in, wk_in, "hidden dim mismatch");

    // Truncated 2D FFT per (b, k).
    let mut xf = CTensor::zeros(&[batch, k_in, nfx, nfy]);
    for b in 0..batch {
        for k in 0..k_in {
            let base = x.offset(&[b, k, 0, 0]);
            let grid = &x.data()[base..base + nx * ny];
            let f = dft2_truncated(grid, nx, ny, nfx, nfy);
            let obase = xf.offset(&[b, k, 0, 0]);
            xf.data_mut()[obase..obase + nfx * nfy].copy_from_slice(&f);
        }
    }

    // Hidden-dim CGEMM at every retained (b, fx, fy).
    let mut yf = CTensor::zeros(&[batch, k_out, nfx, nfy]);
    for b in 0..batch {
        for fx in 0..nfx {
            for fy in 0..nfy {
                for ko in 0..k_out {
                    let mut acc = C32::ZERO;
                    for ki in 0..k_in {
                        acc = acc.mac(xf.get(&[b, ki, fx, fy]), w.get(&[ki, ko]));
                    }
                    yf.set(&[b, ko, fx, fy], acc);
                }
            }
        }
    }

    // Zero-pad + inverse 2D FFT.
    let mut y = CTensor::zeros(&[batch, k_out, nx, ny]);
    for b in 0..batch {
        for ko in 0..k_out {
            let base = yf.offset(&[b, ko, 0, 0]);
            let modes = yf.data()[base..base + nfx * nfy].to_vec();
            let g = idft2_padded(&modes, nfx, nfy, nx, ny);
            let obase = y.offset(&[b, ko, 0, 0]);
            y.data_mut()[obase..obase + nx * ny].copy_from_slice(&g);
        }
    }
    y
}

/// Reference 3D FNO Fourier layer.
///
/// * `x`: `[batch, k_in, nx, ny, nz]`
/// * `w`: `[k_in, k_out]`
/// * `nfx`, `nfy`, `nfz`: retained low-frequency corner
///
/// Returns `[batch, k_out, nx, ny, nz]`.
pub fn fno_layer_3d(x: &CTensor, w: &CTensor, nfx: usize, nfy: usize, nfz: usize) -> CTensor {
    let (batch, k_in, nx, ny, nz) = match *x.shape() {
        [b, k, nx, ny, nz] => (b, k, nx, ny, nz),
        _ => panic!("fno_layer_3d expects rank-5 input, got {:?}", x.shape()),
    };
    let (wk_in, k_out) = match *w.shape() {
        [ki, ko] => (ki, ko),
        _ => panic!("weight must be rank-2"),
    };
    assert_eq!(k_in, wk_in, "hidden dim mismatch");
    let (grid, corner) = (nx * ny * nz, nfx * nfy * nfz);

    // Truncated 3D FFT per (b, k).
    let mut xf = CTensor::zeros(&[batch, k_in, nfx, nfy, nfz]);
    for b in 0..batch {
        for k in 0..k_in {
            let base = x.offset(&[b, k, 0, 0, 0]);
            let f = dft3_truncated(&x.data()[base..base + grid], nx, ny, nz, nfx, nfy, nfz);
            let obase = xf.offset(&[b, k, 0, 0, 0]);
            xf.data_mut()[obase..obase + corner].copy_from_slice(&f);
        }
    }

    // Hidden-dim CGEMM at every retained (b, fx, fy, fz).
    let mut yf = CTensor::zeros(&[batch, k_out, nfx, nfy, nfz]);
    for b in 0..batch {
        for fx in 0..nfx {
            for fy in 0..nfy {
                for fz in 0..nfz {
                    for ko in 0..k_out {
                        let mut acc = C32::ZERO;
                        for ki in 0..k_in {
                            acc = acc.mac(xf.get(&[b, ki, fx, fy, fz]), w.get(&[ki, ko]));
                        }
                        yf.set(&[b, ko, fx, fy, fz], acc);
                    }
                }
            }
        }
    }

    // Zero-pad + inverse 3D FFT.
    let mut y = CTensor::zeros(&[batch, k_out, nx, ny, nz]);
    for b in 0..batch {
        for ko in 0..k_out {
            let base = yf.offset(&[b, ko, 0, 0, 0]);
            let modes = yf.data()[base..base + corner].to_vec();
            let g = idft3_padded(&modes, nfx, nfy, nfz, nx, ny, nz);
            let obase = y.offset(&[b, ko, 0, 0, 0]);
            y.data_mut()[obase..obase + grid].copy_from_slice(&g);
        }
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rand_signal(rng: &mut StdRng, n: usize) -> Vec<C32> {
        (0..n)
            .map(|_| C32::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect()
    }

    #[test]
    fn dft_of_impulse_is_flat() {
        let mut x = vec![C32::ZERO; 8];
        x[0] = C32::ONE;
        let f = dft_full(&x);
        for v in f {
            assert!((v - C32::ONE).abs() < 1e-6);
        }
    }

    #[test]
    fn dft_of_constant_concentrates_in_dc() {
        let x = vec![C32::ONE; 16];
        let f = dft_full(&x);
        assert!((f[0] - C32::real(16.0)).abs() < 1e-4);
        for v in &f[1..] {
            assert!(v.abs() < 1e-4, "leakage {v}");
        }
    }

    #[test]
    fn dft_idft_roundtrip() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in [2usize, 4, 8, 16, 64] {
            let x = rand_signal(&mut rng, n);
            let f = dft_full(&x);
            let mut y = vec![C32::ZERO; n];
            idft(&f, &mut y);
            for (a, b) in x.iter().zip(&y) {
                assert!((*a - *b).abs() < 1e-4, "n={n}");
            }
        }
    }

    #[test]
    fn truncated_dft_matches_full_prefix() {
        let mut rng = StdRng::seed_from_u64(8);
        let x = rand_signal(&mut rng, 32);
        let full = dft_full(&x);
        let mut trunc = vec![C32::ZERO; 8];
        dft(&x, &mut trunc);
        for f in 0..8 {
            assert!((full[f] - trunc[f]).abs() < 1e-5);
        }
    }

    #[test]
    fn single_mode_roundtrips_through_truncation() {
        // A signal containing only mode 1 survives truncation to nf >= 2.
        let n = 16;
        let x: Vec<C32> = (0..n).map(|t| C32::twiddle_inv(t, n)).collect();
        let mut modes = vec![C32::ZERO; 4];
        dft(&x, &mut modes);
        let mut y = vec![C32::ZERO; n];
        idft(&modes, &mut y);
        for (a, b) in x.iter().zip(&y) {
            assert!((*a - *b).abs() < 1e-4);
        }
    }

    #[test]
    fn cgemm_identity() {
        let m = 3;
        let k = 3;
        let mut a = vec![C32::ZERO; m * k];
        for i in 0..3 {
            a[i * 3 + i] = C32::ONE;
        }
        let b: Vec<C32> = (0..9).map(|i| C32::new(i as f32, -(i as f32))).collect();
        let mut c = vec![C32::ZERO; 9];
        cgemm(m, 3, k, C32::ONE, &a, &b, C32::ZERO, &mut c);
        for (x, y) in b.iter().zip(&c) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn cgemm_alpha_beta() {
        let a = vec![C32::ONE; 1];
        let b = vec![C32::real(2.0); 1];
        let mut c = vec![C32::real(10.0); 1];
        cgemm(
            1,
            1,
            1,
            C32::real(3.0),
            &a,
            &b,
            C32::real(0.5),
            &mut c,
        );
        // 3 * (1*2) + 0.5 * 10 = 11
        assert!((c[0] - C32::real(11.0)).abs() < 1e-6);
    }

    #[test]
    fn dft2_roundtrip_with_truncation_of_lowpass_signal() {
        // Build a 2D signal with energy only in the 2x2 low corner; a 2x2
        // truncation must then be lossless.
        let (nx, ny) = (8usize, 8usize);
        let mut modes = vec![C32::ZERO; 4];
        modes[0] = C32::new(1.0, 0.5);
        modes[1] = C32::new(-0.5, 0.25);
        modes[2] = C32::new(0.0, 1.0);
        modes[3] = C32::new(0.75, 0.0);
        let x = idft2_padded(&modes, 2, 2, nx, ny);
        let back = dft2_truncated(&x, nx, ny, 2, 2);
        let scale = 1.0; // forward * inverse round trip restores the modes
        for (m, b) in modes.iter().zip(&back) {
            assert!((*m - b.scale(scale)).abs() < 1e-4, "{m} vs {b}");
        }
    }

    #[test]
    fn dft3_roundtrip_with_truncation_of_lowpass_signal() {
        // Energy only in the 2x2x2 low corner; truncation to it is lossless.
        let (nx, ny, nz) = (4usize, 8usize, 4usize);
        let mut rng = StdRng::seed_from_u64(23);
        let modes = rand_signal(&mut rng, 8);
        let x = idft3_padded(&modes, 2, 2, 2, nx, ny, nz);
        let back = dft3_truncated(&x, nx, ny, nz, 2, 2, 2);
        for (m, b) in modes.iter().zip(&back) {
            assert!((*m - *b).abs() < 1e-4, "{m} vs {b}");
        }
    }

    #[test]
    fn dft3_truncation_matches_per_axis_composition() {
        // Separable check: a 3D DFT truncated per axis must equal the 2D
        // truncated DFT of each z-stage slice, composed by hand.
        let (nx, ny, nz, nfx, nfy, nfz) = (4usize, 4usize, 8usize, 2usize, 3usize, 4usize);
        let mut rng = StdRng::seed_from_u64(29);
        let x = rand_signal(&mut rng, nx * ny * nz);
        let got = dft3_truncated(&x, nx, ny, nz, nfx, nfy, nfz);
        // Hand composition: z rows first...
        let mut stage = vec![C32::ZERO; nx * ny * nfz];
        for r in 0..nx * ny {
            dft(&x[r * nz..(r + 1) * nz], &mut stage[r * nfz..(r + 1) * nfz]);
        }
        // ...then a 2D transform of every fz slice.
        for fz in 0..nfz {
            let slice: Vec<C32> = (0..nx * ny).map(|r| stage[r * nfz + fz]).collect();
            let want = dft2_truncated(&slice, nx, ny, nfx, nfy);
            for r in 0..nfx * nfy {
                let g = got[r * nfz + fz];
                assert!((want[r] - g).abs() < 1e-3, "fz={fz} r={r}: {} vs {g}", want[r]);
            }
        }
    }

    #[test]
    fn fno_layer_3d_identity_full_modes() {
        let mut rng = StdRng::seed_from_u64(31);
        let (b, k, nx, ny, nz) = (1usize, 2usize, 4usize, 4usize, 8usize);
        let x = CTensor::random(&mut rng, &[b, k, nx, ny, nz]);
        let mut w = CTensor::zeros(&[k, k]);
        for i in 0..k {
            w.set(&[i, i], C32::ONE);
        }
        let y = fno_layer_3d(&x, &w, nx, ny, nz);
        assert!(x.max_abs_diff(&y) < 1e-3, "diff={}", x.max_abs_diff(&y));
    }

    #[test]
    fn fno_layer_1d_with_identity_weight_and_full_modes_is_identity() {
        let mut rng = StdRng::seed_from_u64(11);
        let (b, k, n) = (2usize, 3usize, 16usize);
        let x = CTensor::random(&mut rng, &[b, k, n]);
        let mut w = CTensor::zeros(&[k, k]);
        for i in 0..k {
            w.set(&[i, i], C32::ONE);
        }
        let y = fno_layer_1d(&x, &w, n);
        assert!(x.max_abs_diff(&y) < 1e-3, "diff={}", x.max_abs_diff(&y));
    }

    #[test]
    fn fno_layer_1d_truncation_lowpasses() {
        // With identity weights and nf modes kept, the layer acts as an
        // ideal low-pass filter: a pure high-frequency input maps to ~0.
        let (n, nf) = (16usize, 4usize);
        let k = 2;
        let x_data: Vec<C32> = (0..k * n)
            .map(|i| C32::twiddle_inv(8 * (i % n), n)) // mode 8 > nf
            .collect();
        let x = CTensor::from_vec(x_data, &[1, k, n]);
        let mut w = CTensor::zeros(&[k, k]);
        for i in 0..k {
            w.set(&[i, i], C32::ONE);
        }
        let y = fno_layer_1d(&x, &w, nf);
        for v in y.data() {
            assert!(v.abs() < 1e-4, "high mode leaked: {v}");
        }
    }

    #[test]
    fn fno_layer_2d_identity_full_modes() {
        let mut rng = StdRng::seed_from_u64(13);
        let (b, k, nx, ny) = (1usize, 2usize, 8usize, 8usize);
        let x = CTensor::random(&mut rng, &[b, k, nx, ny]);
        let mut w = CTensor::zeros(&[k, k]);
        for i in 0..k {
            w.set(&[i, i], C32::ONE);
        }
        let y = fno_layer_2d(&x, &w, nx, ny);
        assert!(x.max_abs_diff(&y) < 1e-3, "diff={}", x.max_abs_diff(&y));
    }

    #[test]
    fn fno_layer_weights_mix_channels() {
        // With w = [[0,1],[1,0]] the layer swaps the two hidden channels.
        let mut rng = StdRng::seed_from_u64(17);
        let (n,) = (16usize,);
        let x = CTensor::random(&mut rng, &[1, 2, n]);
        let mut w = CTensor::zeros(&[2, 2]);
        w.set(&[0, 1], C32::ONE);
        w.set(&[1, 0], C32::ONE);
        let y = fno_layer_1d(&x, &w, n);
        for t in 0..n {
            assert!((y.get(&[0, 0, t]) - x.get(&[0, 1, t])).abs() < 1e-3);
            assert!((y.get(&[0, 1, t]) - x.get(&[0, 0, t])).abs() < 1e-3);
        }
    }
}
