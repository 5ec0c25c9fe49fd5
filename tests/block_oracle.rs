//! Bit-for-bit host oracles of the block bodies.
//!
//! (a) Every [`BatchedFftKernel`] launch must equal [`FftPlan::execute_host`]
//! run pencil by pencil: row pencils, strided pencils whose 8-pencil
//! blocks straddle a group boundary (affine but not adjacent), remainder
//! blocks, forward-truncated and inverse-padded plans.
//!
//! (b) The Turbo variants at ranks 1-3 must equal the host composition of
//! per-axis `execute_host` transforms around a hidden-dimension product
//! that accumulates `C32::mac` over ascending `k` from `C32::ZERO`.
//!
//! (c) Both copy kernels must equal a host copy: the corner truncation
//! and zero-padding scatters at ranks 1-3, and a segmented copy across
//! buffers at unaligned bases.
//!
//! All run on the default device profile (metered blocks with every
//! count cross-checked in debug builds) and on the release profile
//! (unmetered blocks). Each FFT launch has an all-negative-zero pencil,
//! whose outputs are signed zeros, so a block body that skips the
//! `ZERO ± v` of a pruned operand shows up as a flipped sign bit; each
//! layer has an all-negative-zero weight column, so one output channel
//! is built from signed zeros alone.

use tfno_num::C32;
use turbofno::{LayerSpec, Session, SpectralShape, Variant};
use turbofno_suite::culib::{
    CopySegment, Corner, CornerPad, CornerTruncate, SegmentedCopyKernel, StridedCopyKernel,
};
use turbofno_suite::fft::{
    BatchedFftKernel, FftBlockConfig, FftDirection, FftKernelConfig, FftPlan, PencilAddressing,
    RowPencils, StridedPencils,
};
use turbofno_suite::gpu_sim::{DeviceConfig, ExecMode, GpuDevice};

const NEG_ZERO: C32 = C32 { re: -0.0, im: -0.0 };

/// Deterministic data with a negative zero in every fifth element.
fn data(len: usize, seed: f32) -> Vec<C32> {
    (0..len)
        .map(|i| {
            if i % 5 == 3 {
                NEG_ZERO
            } else {
                let t = i as f32;
                C32::new((t * 0.37 + seed).sin(), (t * 0.11 - seed).cos())
            }
        })
        .collect()
}

/// The two device profiles every oracle runs on.
fn profiles() -> [(&'static str, GpuDevice); 2] {
    [
        ("a100", GpuDevice::a100()),
        ("release", GpuDevice::release(DeviceConfig::a100())),
    ]
}

fn assert_bits(got: &[C32], want: &[C32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.re.to_bits() == w.re.to_bits() && g.im.to_bits() == w.im.to_bits(),
            "{what}: element {i} is {g:?}, the host oracle gives {w:?}"
        );
    }
}

/// Launch one batched FFT over `addr` on both profiles and compare every
/// kept output with `execute_host` of its pencil.
fn check_fft<A: PencilAddressing + Copy>(what: &str, plan: FftPlan, addr: A, k_iters: usize) {
    let p = addr.count();
    let in_len = (0..p)
        .map(|q| addr.in_addr(q, plan.n_in_valid - 1) + 1)
        .max()
        .unwrap();
    let out_len = (0..p)
        .map(|q| addr.out_addr(q, plan.n_out_keep - 1) + 1)
        .max()
        .unwrap();
    let mut xs = data(in_len, 0.3);
    for i in 0..plan.n_in_valid {
        xs[addr.in_addr(1, i)] = NEG_ZERO;
    }
    let mut want = vec![C32::ZERO; out_len];
    for q in 0..p {
        let pencil: Vec<C32> = (0..plan.n_in_valid)
            .map(|i| xs[addr.in_addr(q, i)])
            .collect();
        for (i, v) in plan.execute_host(&pencil).into_iter().enumerate() {
            want[addr.out_addr(q, i)] = v;
        }
    }
    for (profile, mut dev) in profiles() {
        let x = dev.alloc("x", in_len);
        let y = dev.alloc("y", out_len);
        dev.upload(x, &xs);
        let cfg = FftKernelConfig::new(FftBlockConfig::for_len(plan.n)).with_k_iters(k_iters);
        let k = BatchedFftKernel::new(what, cfg, plan.clone(), addr, x, y);
        dev.launch(&k, ExecMode::Functional);
        assert_bits(&dev.download(y), &want, &format!("{what} on {profile}"));
    }
}

/// The plans of the oracle: forward-truncated and inverse-padded, plus a
/// full forward transform.
fn plans() -> Vec<FftPlan> {
    vec![
        FftPlan::new(8, FftDirection::Forward, 8, 4),
        FftPlan::new(32, FftDirection::Forward, 32, 32),
        FftPlan::new(8, FftDirection::Inverse, 4, 8),
        FftPlan::new(64, FftDirection::Inverse, 16, 64),
    ]
}

#[test]
fn batched_fft_launches_equal_execute_host_per_pencil() {
    for plan in plans() {
        let (n, valid, keep) = (plan.n, plan.n_in_valid, plan.n_out_keep);
        // Row pencils: one full block, remainder blocks of 3 and 3.
        for count in [8usize, 11, 19] {
            let rows = RowPencils {
                count,
                in_row_len: valid,
                out_row_len: keep,
            };
            for k_iters in [1usize, 2] {
                let what = format!("rows n={n} {valid}->{keep} count={count} k_iters={k_iters}");
                check_fft(&what, plan.clone(), rows, k_iters);
            }
        }
        // Strided pencils along a middle axis: groups of 3 and 12 adjacent
        // pencils, so 8-pencil blocks straddle group boundaries, and 11 or
        // 19 pencils leave a remainder block.
        for (slabs, inner) in [(3usize, 3usize), (1, 12), (2, 12)] {
            let addr = StridedPencils::along_axis(slabs, valid, keep, inner);
            let what = format!("strided n={n} {valid}->{keep} slabs={slabs} inner={inner}");
            check_fft(&what, plan.clone(), addr, 1);
        }
        for count in [11usize, 19] {
            let addr = StridedPencils {
                count,
                group: count,
                in_group_stride: 0,
                in_pencil_stride: 1,
                in_idx_stride: count,
                out_group_stride: 0,
                out_pencil_stride: 1,
                out_idx_stride: count,
            };
            check_fft(
                &format!("columns n={n} count={count}"),
                plan.clone(),
                addr,
                1,
            );
        }
    }
}

/// Row-major tensor `t` of `shape`, transformed by `plan` along `axis`:
/// each pencil's first `n_in_valid` elements in, its `n_out_keep` kept
/// outputs out (the axis length becomes `n_out_keep`).
fn along_axis(t: &[C32], shape: &mut [usize], axis: usize, plan: &FftPlan) -> Vec<C32> {
    let outer: usize = shape[..axis].iter().product();
    let inner: usize = shape[axis + 1..].iter().product();
    let (len, keep) = (shape[axis], plan.n_out_keep);
    assert_eq!(len, plan.n_in_valid);
    let mut out = vec![C32::ZERO; outer * keep * inner];
    for o in 0..outer {
        for j in 0..inner {
            let pencil: Vec<C32> = (0..len).map(|i| t[(o * len + i) * inner + j]).collect();
            for (i, v) in plan.execute_host(&pencil).into_iter().enumerate() {
                out[(o * keep + i) * inner + j] = v;
            }
        }
    }
    shape[axis] = keep;
    out
}

/// The host composition of one Fourier layer: forward transforms along
/// every axis (outermost first, truncating), the hidden-dimension product
/// (`C32::mac` over ascending `k` from zero), inverse transforms along
/// every axis (innermost first, zero-padding).
fn host_layer(s: &SpectralShape, x: &[C32], w: &[C32]) -> Vec<C32> {
    let r = s.rank;
    let mut shape = vec![s.batch, s.k_in];
    shape.extend_from_slice(&s.dims[..r]);
    let mut t = x.to_vec();
    for a in 0..r {
        let plan = FftPlan::new(s.dims[a], FftDirection::Forward, s.dims[a], s.modes[a]);
        t = along_axis(&t, &mut shape, 2 + a, &plan);
    }
    let m = s.modes_total();
    let mut yf = vec![C32::ZERO; s.batch * s.k_out * m];
    for b in 0..s.batch {
        for o in 0..s.k_out {
            for f in 0..m {
                let mut acc = C32::ZERO;
                for k in 0..s.k_in {
                    acc = acc.mac(t[(b * s.k_in + k) * m + f], w[k * s.k_out + o]);
                }
                yf[(b * s.k_out + o) * m + f] = acc;
            }
        }
    }
    shape[1] = s.k_out;
    let mut t = yf;
    for a in (0..r).rev() {
        let plan = FftPlan::new(s.dims[a], FftDirection::Inverse, s.modes[a], s.dims[a]);
        t = along_axis(&t, &mut shape, 2 + a, &plan);
    }
    t
}

#[test]
fn turbo_variants_equal_the_host_composition_at_every_rank() {
    let specs = [
        // k_in = 12: a remainder forward chunk of 4 pencils; k_out = 20: a
        // remainder n-tile whose last inverse channel group has 4.
        LayerSpec::d1(2, 12, 20, 64).modes(32),
        LayerSpec::d2(2, 8, 8, 8, 64).modes_xy(4, 32),
        LayerSpec::d3(1, 4, 6, 4, 8, 32).modes_xyz(2, 4, 32),
    ];
    let variants = [
        Variant::FftOpt,
        Variant::FusedFftGemm,
        Variant::FusedGemmIfft,
        Variant::FullyFused,
    ];
    for spec in specs {
        let s = spec.shape();
        let xs = data(s.input_len(), 0.4);
        let mut ws = data(s.weight_len(), 0.9);
        for k in 0..s.k_in {
            ws[k * s.k_out + 1] = NEG_ZERO;
        }
        let want = host_layer(&s, &xs, &ws);
        for v in variants {
            for (profile, dev) in profiles() {
                let mut sess = Session::new(dev);
                let x = sess.alloc("x", s.input_len());
                let w = sess.alloc("w", s.weight_len());
                let y = sess.alloc("y", s.output_len());
                sess.upload(x, &xs);
                sess.upload(w, &ws);
                sess.run(&spec.variant(v), x, w, y);
                let what = format!("rank {} {v:?} on {profile}", s.rank);
                assert_bits(&sess.download(y), &want, &what);
            }
        }
    }
}

/// Dense index in `[grids, dims]` of each element of the packed
/// `[grids, modes]` low-frequency corner, in packed order.
fn corner_positions(grids: usize, dims: &[usize], modes: &[usize]) -> Vec<usize> {
    let grid_len: usize = dims.iter().product();
    let mut out = Vec::new();
    for g in 0..grids {
        for p in 0..modes.iter().product() {
            let (mut rest, mut idx, mut stride) = (p, 0, 1);
            for a in (0..dims.len()).rev() {
                idx += rest % modes[a] * stride;
                rest /= modes[a];
                stride *= dims[a];
            }
            out.push(g * grid_len + idx);
        }
    }
    out
}

/// The truncation gather and the zero-padding scatter at ranks 1-3, with
/// odd modes and row counts that leave a remainder block (the pad's rows
/// outside the corner are pure zero-fill), and a segmented copy that
/// gathers from two buffers into two at unaligned bases, with a segment
/// longer than one block. Destinations start poisoned, so an element a
/// kernel skips shows up too.
#[test]
fn copy_kernels_equal_a_host_copy() {
    let poison = C32::new(9.0, -9.0);
    let shapes = [
        SpectralShape::d1(1, 3, 3, 20).with_modes(&[7]),
        SpectralShape::d2(1, 2, 2, 6, 10).with_modes(&[3, 5]),
        SpectralShape::d3(1, 1, 1, 4, 6, 9).with_modes(&[3, 2, 5]),
    ];
    for s in shapes {
        let grids = 3;
        let corner = Corner::new(grids, &s);
        let dims = &s.dims[..s.rank];
        let pos = corner_positions(grids, dims, &s.modes[..s.rank]);
        let dense_len = grids * dims.iter().product::<usize>();
        let dense = data(dense_len, 0.5);
        let packed = data(pos.len(), 0.8);
        let want_trunc: Vec<C32> = pos.iter().map(|&i| dense[i]).collect();
        let mut want_pad = vec![C32::ZERO; dense_len];
        for (&i, &v) in pos.iter().zip(&packed) {
            want_pad[i] = v;
        }
        for (profile, mut dev) in profiles() {
            let (xd, xp) = (
                dev.alloc("dense", dense_len),
                dev.alloc("packed", pos.len()),
            );
            let (yd, yp) = (dev.alloc("pad", dense_len), dev.alloc("trunc", pos.len()));
            dev.upload(xd, &dense);
            dev.upload(xp, &packed);
            dev.upload(yd, &vec![poison; dense_len]);
            dev.upload(yp, &vec![poison; pos.len()]);
            let trunc = StridedCopyKernel::new("trunc", CornerTruncate(corner), xd, yp);
            dev.launch(&trunc, ExecMode::Functional);
            let pad = StridedCopyKernel::new("pad", CornerPad(corner), xp, yd);
            dev.launch(&pad, ExecMode::Functional);
            let what = format!("rank {} on {profile}", s.rank);
            assert_bits(&dev.download(yp), &want_trunc, &format!("truncate {what}"));
            assert_bits(&dev.download(yd), &want_pad, &format!("pad {what}"));
        }
    }

    let srcs = [data(5000, 0.2), data(300, 0.6)];
    // (source, source base, destination, destination base, length)
    let segs = [
        (0, 3, 0, 1, 2100),
        (1, 17, 0, 2105, 45),
        (0, 2500, 0, 2200, 1),
        (1, 0, 1, 5, 33),
        (0, 4001, 1, 40, 999),
    ];
    let mut want = [vec![poison; 2300], vec![poison; 1100]];
    for &(s, sb, d, db, len) in &segs {
        want[d][db..db + len].copy_from_slice(&srcs[s][sb..sb + len]);
    }
    for (profile, mut dev) in profiles() {
        let src = [dev.alloc("src0", 5000), dev.alloc("src1", 300)];
        let dst = [dev.alloc("dst0", 2300), dev.alloc("dst1", 1100)];
        for i in 0..2 {
            dev.upload(src[i], &srcs[i]);
            dev.upload(dst[i], &vec![poison; want[i].len()]);
        }
        let segments = segs
            .iter()
            .map(|&(s, src_base, d, dst_base, len)| CopySegment {
                src: src[s],
                src_base,
                dst: dst[d],
                dst_base,
                len,
            })
            .collect();
        dev.launch(
            &SegmentedCopyKernel::new("segments", segments),
            ExecMode::Functional,
        );
        for i in 0..2 {
            assert_bits(
                &dev.download(dst[i]),
                &want[i],
                &format!("segmented dst{i} on {profile}"),
            );
        }
    }
}
