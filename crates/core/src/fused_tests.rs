//! Unit tests for the fused kernel's geometry layer and direct kernel
//! launches (the pipeline-level tests live in `lib.rs` and `tests/`).

use crate::fused::{FusedKernel, GeomNd};
use crate::swizzle::ForwardLayout;
use tfno_culib::SpectralShape;
use tfno_gpu_sim::{ExecMode, GpuDevice, Kernel};
use tfno_num::error::{gemm_tolerance, max_abs_error};
use tfno_num::{reference, C32};

fn geom_1d(batch: usize, k_in: usize, k_out: usize, n: usize, nf: usize) -> GeomNd {
    GeomNd {
        batch,
        k_in,
        k_out,
        rank: 1,
        n_inner: n,
        m_inner: nf,
        outer_modes: 1,
    }
}

#[test]
fn geom_rank1_addressing_is_row_major() {
    let g = geom_1d(3, 4, 5, 16, 8);
    // x[b, k, i] with row-major [batch, k_in, n]
    assert_eq!(g.x_addr(0, 0, 0), 0);
    assert_eq!(g.x_addr(1, 2, 3), (4 + 2) * 16 + 3);
    // a view: xf_t[b, k, f] -> at(m=f, col=k)
    let v = g.a_view(2);
    assert_eq!(v.at(5, 3), 2 * 4 * 8 + 3 * 8 + 5);
    // c view offset by n0 channels
    let c = g.c_view(1, 2);
    assert_eq!(c.at(7, 1), (5 + 2 + 1) * 8 + 7);
    // y addr
    assert_eq!(g.y_addr(1, 4, 15), (5 + 4) * 16 + 15);
    assert_eq!(g.outer_blocks(), 3);
}

#[test]
fn geom_rank2_addressing_keeps_rows_contiguous() {
    // [batch=2, k, nfx=8, ny=32] with nfy=16 retained along the fused axis.
    let g = GeomNd {
        batch: 2,
        k_in: 3,
        k_out: 4,
        rank: 2,
        n_inner: 32,
        m_inner: 16,
        outer_modes: 8,
    };
    assert_eq!(g.outer_blocks(), 2 * 8);
    // outer = b * nfx + fx
    let outer = 8 + 5; // b=1, fx=5
    // input t1[b, k, fx, y]: consecutive idx must be consecutive addresses
    let a0 = g.x_addr(outer, 2, 0);
    let a1 = g.x_addr(outer, 2, 1);
    assert_eq!(a1, a0 + 1, "fused-axis reads must be contiguous");
    assert_eq!(a0, ((3 + 2) * 8 + 5) * 32);
    // a/c views: row stride 1 along fy
    let av = g.a_view(outer);
    assert_eq!(av.at(1, 0), av.at(0, 0) + 1);
    let cv = g.c_view(outer, 0);
    assert_eq!(cv.at(1, 0), cv.at(0, 0) + 1);
    // y output rows contiguous too
    assert_eq!(g.y_addr(outer, 1, 9), g.y_addr(outer, 1, 8) + 1);
}

#[test]
fn geom_from_shape_matches_hand_built() {
    // Rank 3: [b=2, k, nfx=4, nfy=6, nz=32], nfz=16. By the time the fused
    // middle runs, x and y are already truncated, so outer_modes = nfx*nfy.
    let s = SpectralShape::d3(2, 3, 5, 8, 16, 32).with_modes(&[4, 6, 16]);
    let g = GeomNd::from_shape(&s);
    assert_eq!(g.rank, 3);
    assert_eq!(g.n_inner, 32);
    assert_eq!(g.m_inner, 16);
    assert_eq!(g.outer_modes, 4 * 6);
    assert_eq!(g.outer_blocks(), 2 * 24);
    // Address math treats the packed outer modes as one flat axis.
    let outer = 24 + 13; // b=1, (fx, fy) = (2, 1)
    assert_eq!(g.x_addr(outer, 2, 7), ((3 + 2) * 24 + 13) * 32 + 7);
    assert_eq!(g.y_addr(outer, 4, 7), ((5 + 4) * 24 + 13) * 32 + 7);
    let av = g.a_view(outer);
    assert_eq!(av.at(1, 0), av.at(0, 0) + 1);
    assert_eq!(av.at(0, 1), av.at(0, 0) + 24 * 16);
    // 1D shapes collapse to the degenerate single-outer geometry.
    let s1 = SpectralShape::d1(3, 4, 5, 16).with_modes(&[8]);
    let g1 = GeomNd::from_shape(&s1);
    assert_eq!(g1.outer_modes, 1);
    assert_eq!(g1.x_addr(1, 2, 3), geom_1d(3, 4, 5, 16, 8).x_addr(1, 2, 3));
}

#[test]
fn geom_outer_classes_cover_all_blocks() {
    for m_inner in [8usize, 6, 10, 32] {
        for rank in [2usize, 3] {
            let g = GeomNd {
                batch: 3,
                k_in: 2,
                k_out: 2,
                rank,
                n_inner: 64,
                m_inner,
                outer_modes: 5,
            };
            let total: u64 = g.outer_classes().iter().map(|(_, c)| c).sum();
            assert_eq!(total, g.outer_blocks() as u64, "m_inner={m_inner}");
            for (rep, _) in g.outer_classes() {
                assert!(rep < g.outer_blocks());
            }
        }
    }
    // Rank 1 has a single outer-mode index, so always one class.
    assert_eq!(geom_1d(3, 2, 2, 64, 6).outer_classes().len(), 1);
}

#[test]
fn geom_serialization_worsens_with_rank() {
    let g = |rank| GeomNd {
        batch: 1,
        k_in: 2,
        k_out: 2,
        rank,
        n_inner: 64,
        m_inner: 32,
        outer_modes: if rank == 1 { 1 } else { 4 },
    };
    let (s1, _) = g(1).serialization();
    let (s2, _) = g(2).serialization();
    let (s3, _) = g(3).serialization();
    assert!(s1 < s2 && s2 < s3);
}

/// Drive the fused kernel directly (no pipeline) on a tiny problem and
/// compare against reference FFT+GEMM on the retained modes.
#[test]
fn fused_fft_gemm_kernel_direct() {
    let g = geom_1d(2, 8, 16, 64, 32);
    let (n, nf) = (g.n_inner, g.m_inner);
    let mut dev = GpuDevice::a100();
    let x = dev.alloc("x", g.batch * g.k_in * n);
    let w = dev.alloc("w", g.k_in * g.k_out);
    let yf = dev.alloc("yf", g.batch * g.k_out * nf);
    let xd: Vec<C32> = (0..g.batch * g.k_in * n)
        .map(|i| C32::new((i as f32 * 0.21).sin(), (i as f32 * 0.43).cos()))
        .collect();
    let wd: Vec<C32> = (0..g.k_in * g.k_out)
        .map(|i| C32::new((i as f32 * 0.33).cos(), (i as f32 * 0.27).sin()))
        .collect();
    dev.upload(x, &xd);
    dev.upload(w, &wd);

    let kernel = FusedKernel::new("direct.b", g, true, false, 16, x, w, yf, 0.1);
    dev.launch(&kernel, ExecMode::Functional);
    let got = dev.download(yf);

    // reference: truncated FFT then GEMM along hidden dim
    for b in 0..g.batch {
        let mut xf = vec![C32::ZERO; g.k_in * nf];
        for k in 0..g.k_in {
            let base = (b * g.k_in + k) * n;
            reference::dft(&xd[base..base + n], &mut xf[k * nf..(k + 1) * nf]);
        }
        for f in 0..nf {
            for ko in 0..g.k_out {
                let mut acc = C32::ZERO;
                for ki in 0..g.k_in {
                    acc = acc.mac(xf[ki * nf + f], wd[ki * g.k_out + ko]);
                }
                let got_v = got[(b * g.k_out + ko) * nf + f];
                assert!(
                    (got_v - acc).abs() < gemm_tolerance(g.k_in, 16.0),
                    "b={b} f={f} ko={ko}: {got_v} vs {acc}"
                );
            }
        }
    }
}

/// The two forward layouts must produce identical data in the As tile —
/// only the access pattern differs.
#[test]
fn forward_layouts_are_data_equivalent() {
    let g = geom_1d(1, 8, 8, 64, 32);
    let run = |layout: ForwardLayout| {
        let mut dev = GpuDevice::a100();
        let x = dev.alloc("x", g.batch * g.k_in * g.n_inner);
        let w = dev.alloc("w", g.k_in * g.k_out);
        let yf = dev.alloc("yf", g.batch * g.k_out * g.m_inner);
        let xd: Vec<C32> = (0..g.batch * g.k_in * g.n_inner)
            .map(|i| C32::new((i as f32 * 0.13).sin(), -(i as f32 * 0.29).cos()))
            .collect();
        let wd: Vec<C32> = (0..g.k_in * g.k_out)
            .map(|i| C32::real(1.0 + (i % 5) as f32))
            .collect();
        dev.upload(x, &xd);
        dev.upload(w, &wd);
        let kernel = FusedKernel::new("layout", g, true, false, 16, x, w, yf, 0.1)
            .with_forward_layout(layout);
        dev.launch(&kernel, ExecMode::Functional);
        dev.download(yf)
    };
    let a = run(ForwardLayout::TurboContiguous);
    let b = run(ForwardLayout::VkFftStrided);
    assert!(max_abs_error(&a, &b) < 1e-6);
}

#[test]
fn fused_kernel_block_classes_cover_grid() {
    let g = geom_1d(3, 8, 40, 64, 32); // k_out=40 forces an edge n-tile with n_tb=32
    let mut dev = GpuDevice::a100();
    let x = dev.memory.alloc_virtual("x", g.batch * g.k_in * g.n_inner);
    let w = dev.memory.alloc_virtual("w", g.k_in * g.k_out);
    let yf = dev.memory.alloc_virtual("yf", g.batch * g.k_out * g.m_inner);
    let kernel = FusedKernel::new("classes", g, true, false, 32, x, w, yf, 0.1);
    let dims = kernel.dims();
    let covered: u64 = kernel.block_classes().iter().map(|(_, c)| c).sum();
    assert_eq!(covered, dims.grid_blocks as u64);
    // launching analytically exercises the class machinery end to end
    let rec = dev.launch(&kernel, ExecMode::Analytical);
    assert_eq!(rec.stats.blocks, dims.grid_blocks as u64);
}

#[test]
#[should_panic(expected = "multiple of the warp M-tile")]
fn fused_kernel_rejects_unaligned_modes() {
    let g = geom_1d(1, 8, 8, 64, 24);
    let mut dev = GpuDevice::a100();
    let x = dev.memory.alloc_virtual("x", 512);
    let w = dev.memory.alloc_virtual("w", 64);
    let yf = dev.memory.alloc_virtual("yf", 192);
    let _ = FusedKernel::new("bad", g, true, false, 8, x, w, yf, 0.1);
}

#[test]
#[should_panic(expected = "use BatchedCgemmKernel")]
fn fused_kernel_rejects_no_fusion() {
    let g = geom_1d(1, 8, 8, 64, 32);
    let mut dev = GpuDevice::a100();
    let x = dev.memory.alloc_virtual("x", 512);
    let w = dev.memory.alloc_virtual("w", 64);
    let yf = dev.memory.alloc_virtual("yf", 256);
    let _ = FusedKernel::new("bad", g, false, false, 8, x, w, yf, 0.1);
}

/// The declared access set of every fusion variant must cover exactly the
/// elements `run_block` touches: input rows (full spatial rows when the
/// forward FFT is fused, truncated modes otherwise), the weight slice, and
/// the output partitioned disjointly across blocks.
#[test]
fn fused_access_matches_footprint() {
    use std::collections::HashSet;
    let count =
        |acc: &tfno_gpu_sim::KernelAccess, buf: tfno_gpu_sim::BufferId| -> usize {
            acc.reads
                .iter()
                .filter(|s| s.buf == buf)
                .flat_map(|s| s.runs())
                .flat_map(|(lo, hi)| lo..hi)
                .collect::<HashSet<_>>()
                .len()
        };
    let write_once = |acc: &tfno_gpu_sim::KernelAccess,
                      buf: tfno_gpu_sim::BufferId|
     -> usize {
        let mut written = HashSet::new();
        for (_, spans) in &acc.block_writes {
            for span in spans {
                assert_eq!(span.buf, buf);
                for (lo, hi) in span.runs() {
                    for e in lo..hi {
                        assert!(written.insert(e), "element {e} written twice");
                    }
                }
            }
        }
        written.len()
    };

    let g = geom_1d(2, 8, 16, 64, 32);
    for (ff, fi) in [(true, false), (false, true), (true, true)] {
        let mut dev = GpuDevice::a100();
        let in_len = if ff {
            g.batch * g.k_in * g.n_inner
        } else {
            g.batch * g.k_in * g.m_inner
        };
        let out_len = if fi {
            g.batch * g.k_out * g.n_inner
        } else {
            g.batch * g.k_out * g.m_inner
        };
        let x = dev.memory.alloc_virtual("x", in_len);
        let w = dev.memory.alloc_virtual("w", g.k_in * g.k_out);
        let y = dev.memory.alloc_virtual("y", out_len);
        let kernel = FusedKernel::new("acc", g, ff, fi, 16, x, w, y, 0.1);
        let acc = kernel.access().expect("fused kernel declares access");
        assert_eq!(count(&acc, x), in_len, "ff={ff} fi={fi}");
        assert_eq!(count(&acc, w), g.k_in * g.k_out, "ff={ff} fi={fi}");
        assert_eq!(write_once(&acc, y), out_len, "ff={ff} fi={fi}");
        assert_eq!(acc.block_writes.len(), kernel.dims().grid_blocks);
    }

    // Higher-rank geometry: outer modes already truncated, fused axis full.
    for (rank, outer_modes) in [(2usize, 3usize), (3, 6)] {
        let g = GeomNd {
            batch: 2,
            k_in: 4,
            k_out: 8,
            rank,
            n_inner: 32,
            m_inner: 32,
            outer_modes,
        };
        let mut dev = GpuDevice::a100();
        let in_len = g.batch * g.k_in * g.outer_modes * g.n_inner;
        let out_len = g.batch * g.k_out * g.outer_modes * g.n_inner;
        let x = dev.memory.alloc_virtual("x", in_len);
        let w = dev.memory.alloc_virtual("w", g.k_in * g.k_out);
        let y = dev.memory.alloc_virtual("y", out_len);
        let kernel = FusedKernel::new("accnd", g, true, true, 16, x, w, y, 0.1);
        let acc = kernel.access().expect("fused kernel declares access");
        assert_eq!(count(&acc, x), in_len, "rank={rank}");
        assert_eq!(count(&acc, w), g.k_in * g.k_out, "rank={rank}");
        assert_eq!(write_once(&acc, y), out_len, "rank={rank}");
    }
}
