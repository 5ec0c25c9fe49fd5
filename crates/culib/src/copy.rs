//! The memory-copy kernels the PyTorch baseline needs around cuFFT.
//!
//! cuFFT has no built-in truncation or zero-padding (paper §2.2), so the
//! PyTorch FNO implementation materializes the frequency filter with
//! dedicated copy kernels: a gather of the kept modes after the forward
//! FFT (`x_ft[..., :modes]`) and a scatter-with-zeros before the inverse
//! FFT (`out_ft` padding). Both are pure global-memory traffic — exactly
//! the overhead TurboFNO's built-in truncation removes.

use crate::problem::{SpectralShape, MAX_RANK};
use std::hash::Hash;
use tfno_gpu_sim::{
    structural_fingerprint, AccessSpan, BlockCtx, BufferId, Kernel, KernelAccess, LaunchDims,
    WarpIdx, WARP_SIZE,
};
use tfno_num::C32;

/// Row-structured copy addressing: `rows` rows; row `r` reads
/// `in_len(r)` elements from `in_addr(r, i)` and writes `out_len(r)`
/// elements to `out_addr(r, i)`; positions `i >= in_len(r)` are written as
/// zero (the padding tail).
///
/// Contract: within one row the addressing is contiguous in `i`
/// (`in_addr(r, i) == in_addr(r, 0) + i`, likewise `out_addr`) — the
/// declared access sets rely on it.
pub trait CopyAddressing: Sync {
    fn rows(&self) -> usize;
    fn in_len(&self, row: usize) -> usize;
    fn out_len(&self, row: usize) -> usize;
    fn in_addr(&self, row: usize, i: usize) -> usize;
    fn out_addr(&self, row: usize, i: usize) -> usize;
    /// Structural hash of the addressing scheme for the analytical launch
    /// memo: must cover every field that shapes addresses or row lengths.
    fn fingerprint(&self) -> u64;
}

/// The geometry both filter copies share: `grids` dense row-major grids
/// `dims[..rank]` whose low-frequency corner `modes[..rank]` is kept.
/// Axes `>= rank` are 1, as in [`SpectralShape`]. Each copy row is one
/// pencil along the innermost axis; rows run over the outer axes
/// row-major, grid index slowest.
#[derive(Clone, Copy, Debug, Hash)]
pub struct Corner {
    pub grids: usize,
    pub rank: usize,
    pub dims: [usize; MAX_RANK],
    pub modes: [usize; MAX_RANK],
}

impl Corner {
    /// The corner of `s`'s grids, `grids` of them (`batch * k_in` before
    /// the CGEMM, `batch * k_out` after it).
    pub fn new(grids: usize, s: &SpectralShape) -> Self {
        Corner {
            grids,
            rank: s.rank,
            dims: s.dims,
            modes: s.modes,
        }
    }

    /// Outer-axis coordinates and grid index of row `row` when rows run
    /// over the outer extents `rows_ext[..rank - 1]`.
    fn decode(&self, row: usize, rows_ext: &[usize; MAX_RANK]) -> ([usize; MAX_RANK], usize) {
        let mut coords = [0; MAX_RANK];
        let mut rest = row;
        for a in (0..self.rank - 1).rev() {
            coords[a] = rest % rows_ext[a];
            rest /= rows_ext[a];
        }
        (coords, rest)
    }

    /// Start of row `row`'s pencil in a dense `[grids, ext[..rank]]`
    /// tensor, rows running over `rows_ext`.
    fn pencil_start(
        &self,
        row: usize,
        rows_ext: &[usize; MAX_RANK],
        ext: &[usize; MAX_RANK],
    ) -> usize {
        let (coords, grid) = self.decode(row, rows_ext);
        let outer = (0..self.rank - 1).fold(grid, |acc, a| acc * ext[a] + coords[a]);
        outer * ext[self.rank - 1]
    }

    fn outer_rows(&self, ext: &[usize; MAX_RANK]) -> usize {
        self.grids * ext[..self.rank - 1].iter().product::<usize>()
    }
}

/// Truncation gather (`x_ft[..., :modes]`): copy the retained corner of
/// every grid into a packed `[grids, modes..]` tensor. One row per
/// retained innermost-axis pencil; at rank 1 that is the first `nf` of
/// every length-`n` row.
#[derive(Clone, Copy, Debug)]
pub struct CornerTruncate(pub Corner);

impl CopyAddressing for CornerTruncate {
    fn rows(&self) -> usize {
        self.0.outer_rows(&self.0.modes)
    }
    fn in_len(&self, _r: usize) -> usize {
        self.0.modes[self.0.rank - 1]
    }
    fn out_len(&self, _r: usize) -> usize {
        self.0.modes[self.0.rank - 1]
    }
    fn in_addr(&self, r: usize, i: usize) -> usize {
        self.0.pencil_start(r, &self.0.modes, &self.0.dims) + i
    }
    fn out_addr(&self, r: usize, i: usize) -> usize {
        r * self.0.modes[self.0.rank - 1] + i
    }
    fn fingerprint(&self) -> u64 {
        structural_fingerprint("copy.corner_truncate", |h| self.0.hash(h))
    }
}

/// Zero-padding scatter: write packed `[grids, modes..]` corners into
/// zeroed `[grids, dims..]` grids. Every output row is written in full;
/// rows outside the corner on an outer axis read nothing and are pure
/// zero-fill.
#[derive(Clone, Copy, Debug)]
pub struct CornerPad(pub Corner);

impl CopyAddressing for CornerPad {
    fn rows(&self) -> usize {
        self.0.outer_rows(&self.0.dims)
    }
    fn in_len(&self, r: usize) -> usize {
        let c = &self.0;
        let (coords, _) = c.decode(r, &c.dims);
        if (0..c.rank - 1).all(|a| coords[a] < c.modes[a]) {
            c.modes[c.rank - 1]
        } else {
            0
        }
    }
    fn out_len(&self, _r: usize) -> usize {
        self.0.dims[self.0.rank - 1]
    }
    fn in_addr(&self, r: usize, i: usize) -> usize {
        self.0.pencil_start(r, &self.0.dims, &self.0.modes) + i
    }
    fn out_addr(&self, r: usize, i: usize) -> usize {
        r * self.0.dims[self.0.rank - 1] + i
    }
    fn fingerprint(&self) -> u64 {
        structural_fingerprint("copy.corner_pad", |h| self.0.hash(h))
    }
}

/// Rows handled by each thread block of the copy kernel.
pub const COPY_ROWS_PER_BLOCK: usize = 8;

/// A generic strided copy kernel (the "PyTorch built-in memory kernel").
pub struct StridedCopyKernel<A: CopyAddressing> {
    pub name: String,
    pub addressing: A,
    pub input: BufferId,
    pub output: BufferId,
}

impl<A: CopyAddressing> StridedCopyKernel<A> {
    pub fn new(name: impl Into<String>, addressing: A, input: BufferId, output: BufferId) -> Self {
        StridedCopyKernel {
            name: name.into(),
            addressing,
            input,
            output,
        }
    }

    fn grid(&self) -> usize {
        self.addressing.rows().div_ceil(COPY_ROWS_PER_BLOCK)
    }
}

impl<A: CopyAddressing> Kernel for StridedCopyKernel<A> {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn dims(&self) -> LaunchDims {
        LaunchDims::new(self.grid(), 256).with_regs(16)
    }

    fn run_block(&self, block_id: usize, ctx: &mut BlockCtx<'_>) {
        let a = &self.addressing;
        let r0 = block_id * COPY_ROWS_PER_BLOCK;
        let rows = COPY_ROWS_PER_BLOCK.min(a.rows() - r0);
        let src = ctx.global(self.input);
        for r in r0..r0 + rows {
            let (n_in, n_out) = (a.in_len(r), a.out_len(r));
            if ctx.is_metered() {
                // One warp per 32 output positions: lanes past the row's
                // input read nothing and store zero.
                for i in (0..n_out).step_by(WARP_SIZE) {
                    let read_idx =
                        WarpIdx::from_fn(|l| (i + l < n_in).then(|| a.in_addr(r, i + l)));
                    if read_idx.active_lanes() > 0 {
                        ctx.charge_global_load(self.input, &read_idx);
                    }
                    let write_idx =
                        WarpIdx::from_fn(|l| (i + l < n_out).then(|| a.out_addr(r, i + l)));
                    ctx.charge_global_store(self.output, &write_idx);
                }
            }
            let (in0, out0) = (a.in_addr(r, 0), a.out_addr(r, 0));
            ctx.global_store_run(self.output, out0, |_| {
                (0..n_out).map(move |i| {
                    if i < n_in {
                        src.get(in0 + i)
                    } else {
                        C32::ZERO
                    }
                })
            });
        }
    }

    fn access(&self) -> Option<KernelAccess> {
        let mut acc = KernelAccess::new();
        for block_id in 0..self.grid() {
            let r0 = block_id * COPY_ROWS_PER_BLOCK;
            let rows = COPY_ROWS_PER_BLOCK.min(self.addressing.rows() - r0);
            for r in r0..r0 + rows {
                acc.read(AccessSpan::contiguous(
                    self.input,
                    self.addressing.in_addr(r, 0),
                    self.addressing.in_len(r),
                ));
                acc.write(
                    block_id,
                    AccessSpan::contiguous(
                        self.output,
                        self.addressing.out_addr(r, 0),
                        self.addressing.out_len(r),
                    ),
                );
            }
        }
        Some(acc)
    }

    fn fingerprint(&self) -> Option<u64> {
        Some(structural_fingerprint("copy.strided", |h| {
            self.addressing.fingerprint().hash(h);
        }))
    }

    fn block_classes(&self) -> Vec<(usize, u64)> {
        // Copy kernels can have heterogeneous rows (e.g. CornerPad's
        // zero-fill rows), and blocks are cheap: enumerate every block as
        // its own class only when patterns vary per block; here we group
        // conservatively by running each block (they are O(rows) cheap).
        (0..self.grid()).map(|b| (b, 1)).collect()
    }
}

/// One contiguous span moved by a [`SegmentedCopyKernel`].
#[derive(Clone, Copy, Debug)]
pub struct CopySegment {
    pub src: BufferId,
    pub src_base: usize,
    pub dst: BufferId,
    pub dst_base: usize,
    pub len: usize,
}

/// Elements each thread block of the segmented copy handles.
pub const SEGMENT_COPY_BLOCK_ELEMS: usize = 2048;

/// Device-side gather/scatter across buffers in ONE launch.
///
/// Each segment copies `len` elements from `src[src_base..]` to
/// `dst[dst_base..]`; different segments may name different buffers, which
/// is what lets a serving stack assemble its batched input (and packed
/// strided weight buffer) and redistribute its output without host
/// round trips: one gather launch in, one scatter launch out, regardless
/// of how many requests are stacked.
///
/// Destination spans must not overlap (each element is written once).
pub struct SegmentedCopyKernel {
    pub name: String,
    segments: Vec<CopySegment>,
    /// Per-block `(segment index, element offset within the segment)`.
    blocks: Vec<(usize, usize)>,
}

impl SegmentedCopyKernel {
    pub fn new(name: impl Into<String>, segments: Vec<CopySegment>) -> Self {
        assert!(!segments.is_empty(), "segmented copy needs >= 1 segment");
        let mut blocks = Vec::new();
        for (s, seg) in segments.iter().enumerate() {
            let mut off = 0;
            while off < seg.len {
                blocks.push((s, off));
                off += SEGMENT_COPY_BLOCK_ELEMS;
            }
        }
        SegmentedCopyKernel {
            name: name.into(),
            segments,
            blocks,
        }
    }
}

impl Kernel for SegmentedCopyKernel {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn dims(&self) -> LaunchDims {
        LaunchDims::new(self.blocks.len(), 256).with_regs(16)
    }

    fn run_block(&self, block_id: usize, ctx: &mut BlockCtx<'_>) {
        let (s, off) = self.blocks[block_id];
        let seg = &self.segments[s];
        let len = SEGMENT_COPY_BLOCK_ELEMS.min(seg.len - off);
        let (src0, dst0) = (seg.src_base + off, seg.dst_base + off);
        if ctx.is_metered() {
            for rel in (0..len).step_by(WARP_SIZE) {
                let active = WARP_SIZE.min(len - rel);
                ctx.charge_global_load(seg.src, &WarpIdx::contiguous_partial(src0 + rel, active));
                ctx.charge_global_store(seg.dst, &WarpIdx::contiguous_partial(dst0 + rel, active));
            }
        }
        let src = ctx.global(seg.src);
        ctx.global_store_run(seg.dst, dst0, |_| {
            (src0..src0 + len).map(move |i| src.get(i))
        });
    }

    fn access(&self) -> Option<KernelAccess> {
        let mut acc = KernelAccess::new();
        for (block_id, &(s, off)) in self.blocks.iter().enumerate() {
            let seg = &self.segments[s];
            let end = seg.len.min(off + SEGMENT_COPY_BLOCK_ELEMS);
            acc.read(AccessSpan::contiguous(
                seg.src,
                seg.src_base + off,
                end - off,
            ));
            acc.write(
                block_id,
                AccessSpan::contiguous(seg.dst, seg.dst_base + off, end - off),
            );
        }
        Some(acc)
    }

    fn fingerprint(&self) -> Option<u64> {
        // Buffer ids are excluded by convention: the access pattern is
        // fully described by the span bases and lengths.
        Some(structural_fingerprint("copy.segmented", |h| {
            self.segments.len().hash(h);
            for seg in &self.segments {
                seg.src_base.hash(h);
                seg.dst_base.hash(h);
                seg.len.hash(h);
            }
        }))
    }

    fn block_classes(&self) -> Vec<(usize, u64)> {
        // Tail blocks of each segment differ; blocks are O(elements) cheap,
        // so enumerate each one like the strided copy kernel does.
        (0..self.blocks.len()).map(|b| (b, 1)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfno_gpu_sim::{ExecMode, GpuDevice};

    fn seq(n: usize) -> Vec<C32> {
        (0..n).map(|i| C32::new(i as f32, -(i as f32))).collect()
    }

    /// The corner of `grids` grids of extents `dims`, keeping `modes`.
    fn corner(grids: usize, dims: &[usize], modes: &[usize]) -> Corner {
        let mut c = Corner {
            grids,
            rank: dims.len(),
            dims: [1; MAX_RANK],
            modes: [1; MAX_RANK],
        };
        c.dims[..dims.len()].copy_from_slice(dims);
        c.modes[..modes.len()].copy_from_slice(modes);
        c
    }

    #[test]
    fn truncate_gathers_prefix() {
        let (rows, n, nf) = (5usize, 64usize, 16usize);
        let mut dev = GpuDevice::a100();
        let src = dev.alloc("src", rows * n);
        let dst = dev.alloc("dst", rows * nf);
        dev.upload(src, &seq(rows * n));
        let k =
            StridedCopyKernel::new("trunc", CornerTruncate(corner(rows, &[n], &[nf])), src, dst);
        let rec = dev.launch(&k, ExecMode::Functional);
        let out = dev.download(dst);
        for r in 0..rows {
            for i in 0..nf {
                assert_eq!(out[r * nf + i], C32::new((r * n + i) as f32, -((r * n + i) as f32)));
            }
        }
        // traffic: reads nf, writes nf per row
        assert_eq!(rec.stats.global_load_bytes, (rows * nf * 8) as u64);
        assert_eq!(rec.stats.global_store_bytes, (rows * nf * 8) as u64);
    }

    #[test]
    fn pad_writes_zero_tail() {
        let (rows, nf, n) = (3usize, 8usize, 32usize);
        let mut dev = GpuDevice::a100();
        let src = dev.alloc("src", rows * nf);
        let dst = dev.alloc("dst", rows * n);
        dev.upload(src, &seq(rows * nf));
        // poison dst to prove zeros are written, not assumed
        dev.upload(dst, &vec![C32::new(9.0, 9.0); rows * n]);
        let k = StridedCopyKernel::new("pad", CornerPad(corner(rows, &[n], &[nf])), src, dst);
        let rec = dev.launch(&k, ExecMode::Functional);
        let out = dev.download(dst);
        for r in 0..rows {
            for i in 0..n {
                let want = if i < nf {
                    C32::new((r * nf + i) as f32, -((r * nf + i) as f32))
                } else {
                    C32::ZERO
                };
                assert_eq!(out[r * n + i], want, "r={r} i={i}");
            }
        }
        // writes the FULL padded row (the waste the paper points at)
        assert_eq!(rec.stats.global_store_bytes, (rows * n * 8) as u64);
    }

    #[test]
    fn corner_truncate_2d() {
        let (grids, nx, ny, nfx, nfy) = (2usize, 8usize, 8usize, 2usize, 4usize);
        let mut dev = GpuDevice::a100();
        let src = dev.alloc("src", grids * nx * ny);
        let dst = dev.alloc("dst", grids * nfx * nfy);
        dev.upload(src, &seq(grids * nx * ny));
        let k = StridedCopyKernel::new(
            "corner",
            CornerTruncate(corner(grids, &[nx, ny], &[nfx, nfy])),
            src,
            dst,
        );
        dev.launch(&k, ExecMode::Functional);
        let out = dev.download(dst);
        for g in 0..grids {
            for x in 0..nfx {
                for y in 0..nfy {
                    let src_i = g * nx * ny + x * ny + y;
                    assert_eq!(
                        out[(g * nfx + x) * nfy + y],
                        C32::new(src_i as f32, -(src_i as f32))
                    );
                }
            }
        }
    }

    #[test]
    fn corner_pad_2d_zero_rows() {
        let (grids, nfx, nfy, nx, ny) = (1usize, 2usize, 2usize, 4usize, 4usize);
        let mut dev = GpuDevice::a100();
        let src = dev.alloc("src", grids * nfx * nfy);
        let dst = dev.alloc("dst", grids * nx * ny);
        dev.upload(src, &seq(grids * nfx * nfy));
        dev.upload(dst, &vec![C32::new(7.0, 7.0); grids * nx * ny]);
        let k = StridedCopyKernel::new(
            "cpad",
            CornerPad(corner(grids, &[nx, ny], &[nfx, nfy])),
            src,
            dst,
        );
        dev.launch(&k, ExecMode::Functional);
        let out = dev.download(dst);
        for x in 0..nx {
            for y in 0..ny {
                let want = if x < nfx && y < nfy {
                    let i = x * nfy + y;
                    C32::new(i as f32, -(i as f32))
                } else {
                    C32::ZERO
                };
                assert_eq!(out[x * ny + y], want, "x={x} y={y}");
            }
        }
    }

    #[test]
    fn corner_truncate_3d() {
        let (grids, nx, ny, nz, nfx, nfy, nfz) = (2usize, 4, 4, 8, 2, 3, 4);
        let mut dev = GpuDevice::a100();
        let src = dev.alloc("src", grids * nx * ny * nz);
        let dst = dev.alloc("dst", grids * nfx * nfy * nfz);
        dev.upload(src, &seq(grids * nx * ny * nz));
        let k = StridedCopyKernel::new(
            "corner3",
            CornerTruncate(corner(grids, &[nx, ny, nz], &[nfx, nfy, nfz])),
            src,
            dst,
        );
        dev.launch(&k, ExecMode::Functional);
        let out = dev.download(dst);
        for g in 0..grids {
            for x in 0..nfx {
                for y in 0..nfy {
                    for z in 0..nfz {
                        let src_i = ((g * nx + x) * ny + y) * nz + z;
                        assert_eq!(
                            out[((g * nfx + x) * nfy + y) * nfz + z],
                            C32::new(src_i as f32, -(src_i as f32)),
                            "g={g} x={x} y={y} z={z}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn corner_pad_3d_zero_fills_outside_corner() {
        let (grids, nfx, nfy, nfz, nx, ny, nz) = (1usize, 2, 2, 2, 4, 4, 4);
        let mut dev = GpuDevice::a100();
        let src = dev.alloc("src", grids * nfx * nfy * nfz);
        let dst = dev.alloc("dst", grids * nx * ny * nz);
        dev.upload(src, &seq(grids * nfx * nfy * nfz));
        dev.upload(dst, &vec![C32::new(7.0, 7.0); grids * nx * ny * nz]);
        let k = StridedCopyKernel::new(
            "cpad3",
            CornerPad(corner(grids, &[nx, ny, nz], &[nfx, nfy, nfz])),
            src,
            dst,
        );
        dev.launch(&k, ExecMode::Functional);
        let out = dev.download(dst);
        for x in 0..nx {
            for y in 0..ny {
                for z in 0..nz {
                    let want = if x < nfx && y < nfy && z < nfz {
                        let i = (x * nfy + y) * nfz + z;
                        C32::new(i as f32, -(i as f32))
                    } else {
                        C32::ZERO
                    };
                    assert_eq!(out[(x * ny + y) * nz + z], want, "x={x} y={y} z={z}");
                }
            }
        }
    }

    #[test]
    fn segmented_copy_gathers_across_buffers() {
        let mut dev = GpuDevice::a100();
        let srcs: Vec<_> = (0..3).map(|i| dev.alloc(&format!("s{i}"), 100)).collect();
        for (i, &s) in srcs.iter().enumerate() {
            dev.upload(s, &seq(100).iter().map(|v| *v + C32::new(i as f32 * 1000.0, 0.0)).collect::<Vec<_>>());
        }
        let dst = dev.alloc("dst", 300);
        let segs: Vec<CopySegment> = srcs
            .iter()
            .enumerate()
            .map(|(i, &s)| CopySegment {
                src: s,
                src_base: 0,
                dst,
                dst_base: i * 100,
                len: 100,
            })
            .collect();
        let k = SegmentedCopyKernel::new("gather", segs);
        let rec = dev.launch(&k, ExecMode::Functional);
        let out = dev.download(dst);
        for i in 0..3 {
            for j in 0..100 {
                assert_eq!(
                    out[i * 100 + j],
                    C32::new(j as f32 + i as f32 * 1000.0, -(j as f32)),
                    "segment {i} elem {j}"
                );
            }
        }
        assert_eq!(rec.stats.global_load_bytes, 300 * 8);
        assert_eq!(rec.stats.global_store_bytes, 300 * 8);
    }

    #[test]
    fn segmented_copy_scatters_and_respects_bases() {
        let mut dev = GpuDevice::a100();
        let src = dev.alloc("src", 64);
        dev.upload(src, &seq(64));
        let d0 = dev.alloc("d0", 40);
        let d1 = dev.alloc("d1", 40);
        dev.upload(d0, &vec![C32::new(9.0, 9.0); 40]);
        dev.upload(d1, &vec![C32::new(9.0, 9.0); 40]);
        let k = SegmentedCopyKernel::new(
            "scatter",
            vec![
                CopySegment { src, src_base: 0, dst: d0, dst_base: 8, len: 32 },
                CopySegment { src, src_base: 32, dst: d1, dst_base: 0, len: 32 },
            ],
        );
        dev.launch(&k, ExecMode::Functional);
        let (o0, o1) = (dev.download(d0), dev.download(d1));
        for j in 0..32 {
            assert_eq!(o0[8 + j], C32::new(j as f32, -(j as f32)));
            assert_eq!(o1[j], C32::new((32 + j) as f32, -((32 + j) as f32)));
        }
        // untouched regions keep their poison
        assert_eq!(o0[0], C32::new(9.0, 9.0));
        assert_eq!(o1[39], C32::new(9.0, 9.0));
    }

    #[test]
    fn segmented_copy_splits_long_segments_into_blocks() {
        let len = SEGMENT_COPY_BLOCK_ELEMS * 2 + 17;
        let mut dev = GpuDevice::a100();
        let src = dev.alloc("src", len);
        let dst = dev.alloc("dst", len);
        dev.upload(src, &seq(len));
        let k = SegmentedCopyKernel::new(
            "long",
            vec![CopySegment { src, src_base: 0, dst, dst_base: 0, len }],
        );
        let rec = dev.launch(&k, ExecMode::Functional);
        assert_eq!(rec.stats.blocks, 3);
        assert_eq!(dev.download(dst), seq(len));
    }

    /// The segmented copy moves every element exactly once, to its offset
    /// in the destination, and charges exactly its bytes: `8 * len` loaded
    /// and `8 * len` stored, over a full chunk plus an odd tail landing at
    /// an unaligned destination base. (The name predates the element path;
    /// it once compared address templates against per-lane reads.)
    #[test]
    fn templated_copy_matches_legacy_path_bitwise() {
        let (len, dst_base) = (SEGMENT_COPY_BLOCK_ELEMS + 77, 13);
        let mut dev = GpuDevice::a100();
        let src = dev.alloc("src", len);
        let dst = dev.alloc("dst", len + dst_base);
        dev.upload(src, &seq(len));
        let k = SegmentedCopyKernel::new(
            "tmpl",
            vec![CopySegment { src, src_base: 0, dst, dst_base, len }],
        );
        let stats = dev.launch(&k, ExecMode::Functional).stats;
        let bytes = (len * tfno_num::C32_BYTES) as u64;
        assert_eq!((stats.global_load_bytes, stats.global_store_bytes), (bytes, bytes));
        let out = dev.download(dst);
        assert!(out[..dst_base].iter().all(|&v| v == C32::ZERO), "wrote before the offset");
        assert_eq!(out[dst_base..], seq(len)[..], "the copy changed data movement");
    }

    #[test]
    fn segmented_analytical_matches_functional() {
        let mut dev = GpuDevice::a100();
        let src = dev.alloc("src", 500);
        let dst = dev.alloc("dst", 500);
        dev.upload(src, &seq(500));
        let k = SegmentedCopyKernel::new(
            "seg",
            vec![
                CopySegment { src, src_base: 0, dst, dst_base: 250, len: 250 },
                CopySegment { src, src_base: 250, dst, dst_base: 0, len: 250 },
            ],
        );
        let f = dev.launch(&k, ExecMode::Functional);
        let a = dev.launch(&k, ExecMode::Analytical);
        assert_eq!(f.stats, a.stats);
    }

    /// Declared access sets must match the real footprint: every output
    /// element written exactly once (block partitions disjoint), reads
    /// covering exactly the source elements — including CornerPad's
    /// zero-fill rows, which read nothing but still write full rows.
    #[test]
    fn declared_access_matches_footprint() {
        use std::collections::HashSet;
        let mut dev = GpuDevice::a100();
        let (grids, nfx, nfy, nx, ny) = (2usize, 2usize, 3usize, 5usize, 7usize);
        let src = dev.alloc("src", grids * nfx * nfy);
        let dst = dev.alloc("dst", grids * nx * ny);
        let k = StridedCopyKernel::new(
            "cpad",
            CornerPad(corner(grids, &[nx, ny], &[nfx, nfy])),
            src,
            dst,
        );
        let acc = k.access().expect("copy declares access");
        let mut written = HashSet::new();
        for (_, spans) in &acc.block_writes {
            for span in spans {
                assert_eq!(span.buf, dst);
                for (lo, hi) in span.runs() {
                    for e in lo..hi {
                        assert!(written.insert(e), "element {e} written twice");
                    }
                }
            }
        }
        assert_eq!(written.len(), grids * nx * ny);
        let read_elems: usize = acc.reads.iter().map(|s| s.run * s.count).sum();
        assert_eq!(read_elems, grids * nfx * nfy);
        assert!(acc.reads.iter().all(|s| s.buf == src));

        // Segmented copy: per-block 2048-element chunks over each segment.
        let len = SEGMENT_COPY_BLOCK_ELEMS + 77;
        let a = dev.alloc("a", len);
        let b = dev.alloc("b", len + 13);
        let k = SegmentedCopyKernel::new(
            "seg",
            vec![CopySegment { src: a, src_base: 0, dst: b, dst_base: 13, len }],
        );
        let acc = k.access().expect("segmented copy declares access");
        assert_eq!(acc.block_writes.len(), 2);
        let mut written = HashSet::new();
        for (_, spans) in &acc.block_writes {
            for span in spans {
                assert_eq!(span.buf, b);
                for (lo, hi) in span.runs() {
                    for e in lo..hi {
                        assert!(written.insert(e), "element {e} written twice");
                    }
                }
            }
        }
        assert_eq!(written.len(), len);
        assert!(written.contains(&13) && !written.contains(&12));
        let read_elems: usize = acc.reads.iter().map(|s| s.run * s.count).sum();
        assert_eq!(read_elems, len);
    }

    #[test]
    fn analytical_matches_functional() {
        let (rows, n, nf) = (19usize, 64usize, 16usize);
        let mut dev = GpuDevice::a100();
        let src = dev.alloc("src", rows * n);
        let dst = dev.alloc("dst", rows * nf);
        dev.upload(src, &seq(rows * n));
        let k =
            StridedCopyKernel::new("trunc", CornerTruncate(corner(rows, &[n], &[nf])), src, dst);
        let f = dev.launch(&k, ExecMode::Functional);
        let a = dev.launch(&k, ExecMode::Analytical);
        assert_eq!(f.stats, a.stats);
    }

    /// The corner layouts match their closed-form per-rank addressing:
    /// row counts, lengths and start addresses at ranks 1-3, zero-fill rows
    /// of the pad included.
    #[test]
    fn corner_rows_match_the_per_rank_layouts() {
        let g = 3;
        // rank 1: `[rows, n] <-> [rows, nf]`
        let (n, nf) = (64, 16);
        let t = CornerTruncate(corner(g, &[n], &[nf]));
        let p = CornerPad(corner(g, &[n], &[nf]));
        assert_eq!((t.rows(), p.rows()), (g, g));
        for r in 0..g {
            assert_eq!((t.in_len(r), t.out_len(r)), (nf, nf));
            assert_eq!((t.in_addr(r, 5), t.out_addr(r, 5)), (r * n + 5, r * nf + 5));
            assert_eq!((p.in_len(r), p.out_len(r)), (nf, n));
            assert_eq!((p.in_addr(r, 5), p.out_addr(r, 5)), (r * nf + 5, r * n + 5));
        }
        // rank 2: one row per x pencil
        let (nx, ny, nfx, nfy) = (8, 16, 3, 5);
        let t = CornerTruncate(corner(g, &[nx, ny], &[nfx, nfy]));
        let p = CornerPad(corner(g, &[nx, ny], &[nfx, nfy]));
        assert_eq!((t.rows(), p.rows()), (g * nfx, g * nx));
        for r in 0..t.rows() {
            let (gi, x) = (r / nfx, r % nfx);
            assert_eq!(t.in_addr(r, 0), gi * nx * ny + x * ny);
            assert_eq!((t.in_len(r), t.out_addr(r, 0)), (nfy, r * nfy));
        }
        for r in 0..p.rows() {
            let (gi, x) = (r / nx, r % nx);
            assert_eq!(p.in_len(r), if x < nfx { nfy } else { 0 });
            assert_eq!(p.in_addr(r, 0), (gi * nfx + x) * nfy);
            assert_eq!((p.out_len(r), p.out_addr(r, 0)), (ny, r * ny));
        }
        // rank 3: one row per (x, y) pencil
        let (nx, ny, nz, nfx, nfy, nfz) = (4, 8, 16, 2, 3, 5);
        let t = CornerTruncate(corner(g, &[nx, ny, nz], &[nfx, nfy, nfz]));
        let p = CornerPad(corner(g, &[nx, ny, nz], &[nfx, nfy, nfz]));
        assert_eq!((t.rows(), p.rows()), (g * nfx * nfy, g * nx * ny));
        for r in 0..t.rows() {
            let (gi, x, y) = (r / (nfx * nfy), (r / nfy) % nfx, r % nfy);
            assert_eq!(t.in_addr(r, 0), ((gi * nx + x) * ny + y) * nz);
            assert_eq!((t.in_len(r), t.out_addr(r, 0)), (nfz, r * nfz));
        }
        for r in 0..p.rows() {
            let (gi, x, y) = (r / (nx * ny), (r / ny) % nx, r % ny);
            assert_eq!(p.in_len(r), if x < nfx && y < nfy { nfz } else { 0 });
            assert_eq!(p.in_addr(r, 0), ((gi * nfx + x) * nfy + y) * nfz);
            assert_eq!((p.out_len(r), p.out_addr(r, 0)), (nz, r * nz));
        }
    }
}
