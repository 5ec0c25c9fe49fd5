//! The memory-copy kernels the PyTorch baseline needs around cuFFT.
//!
//! cuFFT has no built-in truncation or zero-padding (paper §2.2), so the
//! PyTorch FNO implementation materializes the frequency filter with
//! dedicated copy kernels: a gather of the kept modes after the forward
//! FFT (`x_ft[..., :modes]`) and a scatter-with-zeros before the inverse
//! FFT (`out_ft` padding). Both are pure global-memory traffic — exactly
//! the overhead TurboFNO's built-in truncation removes.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, OnceLock};
use tfno_gpu_sim::{
    lock_unpoisoned, structural_fingerprint, AccessSpan, BlockCtx, BufferId, Kernel, KernelAccess,
    LaunchDims, WarpIdx, WARP_SIZE,
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

/// Truncation gather: keep the first `nf` of every length-`n` row
/// (`[rows, n] -> [rows, nf]`, both packed).
#[derive(Clone, Copy, Debug)]
pub struct RowTruncate {
    pub rows: usize,
    pub n: usize,
    pub nf: usize,
}

impl CopyAddressing for RowTruncate {
    fn rows(&self) -> usize {
        self.rows
    }
    fn in_len(&self, _r: usize) -> usize {
        self.nf
    }
    fn out_len(&self, _r: usize) -> usize {
        self.nf
    }
    fn in_addr(&self, r: usize, i: usize) -> usize {
        r * self.n + i
    }
    fn out_addr(&self, r: usize, i: usize) -> usize {
        r * self.nf + i
    }
    fn fingerprint(&self) -> u64 {
        structural_fingerprint("copy.row_truncate", |h| {
            self.rows.hash(h);
            self.n.hash(h);
            self.nf.hash(h);
        })
    }
}

/// Zero-padding scatter: `[rows, nf] -> [rows, n]` with a zero tail.
#[derive(Clone, Copy, Debug)]
pub struct RowPad {
    pub rows: usize,
    pub nf: usize,
    pub n: usize,
}

impl CopyAddressing for RowPad {
    fn rows(&self) -> usize {
        self.rows
    }
    fn in_len(&self, _r: usize) -> usize {
        self.nf
    }
    fn out_len(&self, _r: usize) -> usize {
        self.n
    }
    fn in_addr(&self, r: usize, i: usize) -> usize {
        r * self.nf + i
    }
    fn out_addr(&self, r: usize, i: usize) -> usize {
        r * self.n + i
    }
    fn fingerprint(&self) -> u64 {
        structural_fingerprint("copy.row_pad", |h| {
            self.rows.hash(h);
            self.nf.hash(h);
            self.n.hash(h);
        })
    }
}

/// 2D corner truncation: gather the `[nfx, nfy]` low-frequency corner out
/// of each `[nx, ny]` grid (`grids` of them), packed output.
#[derive(Clone, Copy, Debug)]
pub struct CornerTruncate2d {
    pub grids: usize,
    pub nx: usize,
    pub ny: usize,
    pub nfx: usize,
    pub nfy: usize,
}

impl CopyAddressing for CornerTruncate2d {
    fn rows(&self) -> usize {
        self.grids * self.nfx
    }
    fn in_len(&self, _r: usize) -> usize {
        self.nfy
    }
    fn out_len(&self, _r: usize) -> usize {
        self.nfy
    }
    fn in_addr(&self, r: usize, i: usize) -> usize {
        let g = r / self.nfx;
        let x = r % self.nfx;
        g * self.nx * self.ny + x * self.ny + i
    }
    fn out_addr(&self, r: usize, i: usize) -> usize {
        r * self.nfy + i
    }
    fn fingerprint(&self) -> u64 {
        structural_fingerprint("copy.corner_truncate2d", |h| {
            self.grids.hash(h);
            self.nx.hash(h);
            self.ny.hash(h);
            self.nfx.hash(h);
            self.nfy.hash(h);
        })
    }
}

/// 2D corner padding: scatter packed `[nfx, nfy]` corners into zeroed
/// `[nx, ny]` grids. Rows with `x >= nfx` are pure zero-fill.
#[derive(Clone, Copy, Debug)]
pub struct CornerPad2d {
    pub grids: usize,
    pub nfx: usize,
    pub nfy: usize,
    pub nx: usize,
    pub ny: usize,
}

impl CopyAddressing for CornerPad2d {
    fn rows(&self) -> usize {
        self.grids * self.nx
    }
    fn in_len(&self, r: usize) -> usize {
        let x = r % self.nx;
        if x < self.nfx {
            self.nfy
        } else {
            0
        }
    }
    fn out_len(&self, _r: usize) -> usize {
        self.ny
    }
    fn in_addr(&self, r: usize, i: usize) -> usize {
        let g = r / self.nx;
        let x = r % self.nx;
        (g * self.nfx + x) * self.nfy + i
    }
    fn out_addr(&self, r: usize, i: usize) -> usize {
        r * self.ny + i
    }
    fn fingerprint(&self) -> u64 {
        structural_fingerprint("copy.corner_pad2d", |h| {
            self.grids.hash(h);
            self.nfx.hash(h);
            self.nfy.hash(h);
            self.nx.hash(h);
            self.ny.hash(h);
        })
    }
}

/// 3D corner truncation: gather the `[nfx, nfy, nfz]` low-frequency corner
/// out of each `[nx, ny, nz]` volume (`grids` of them), packed output. One
/// row per retained `(x, y)` pencil, contiguous along z.
#[derive(Clone, Copy, Debug)]
pub struct CornerTruncate3d {
    pub grids: usize,
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    pub nfx: usize,
    pub nfy: usize,
    pub nfz: usize,
}

impl CopyAddressing for CornerTruncate3d {
    fn rows(&self) -> usize {
        self.grids * self.nfx * self.nfy
    }
    fn in_len(&self, _r: usize) -> usize {
        self.nfz
    }
    fn out_len(&self, _r: usize) -> usize {
        self.nfz
    }
    fn in_addr(&self, r: usize, i: usize) -> usize {
        let g = r / (self.nfx * self.nfy);
        let x = (r / self.nfy) % self.nfx;
        let y = r % self.nfy;
        ((g * self.nx + x) * self.ny + y) * self.nz + i
    }
    fn out_addr(&self, r: usize, i: usize) -> usize {
        r * self.nfz + i
    }
    fn fingerprint(&self) -> u64 {
        structural_fingerprint("copy.corner_truncate3d", |h| {
            self.grids.hash(h);
            self.nx.hash(h);
            self.ny.hash(h);
            self.nz.hash(h);
            self.nfx.hash(h);
            self.nfy.hash(h);
            self.nfz.hash(h);
        })
    }
}

/// 3D corner padding: scatter packed `[nfx, nfy, nfz]` corners into zeroed
/// `[nx, ny, nz]` volumes. Rows with `x >= nfx` or `y >= nfy` are pure
/// zero-fill, like [`CornerPad2d`]'s tail rows.
#[derive(Clone, Copy, Debug)]
pub struct CornerPad3d {
    pub grids: usize,
    pub nfx: usize,
    pub nfy: usize,
    pub nfz: usize,
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
}

impl CopyAddressing for CornerPad3d {
    fn rows(&self) -> usize {
        self.grids * self.nx * self.ny
    }
    fn in_len(&self, r: usize) -> usize {
        let x = (r / self.ny) % self.nx;
        let y = r % self.ny;
        if x < self.nfx && y < self.nfy {
            self.nfz
        } else {
            0
        }
    }
    fn out_len(&self, _r: usize) -> usize {
        self.nz
    }
    fn in_addr(&self, r: usize, i: usize) -> usize {
        let g = r / (self.nx * self.ny);
        let x = (r / self.ny) % self.nx;
        let y = r % self.ny;
        ((g * self.nfx + x) * self.nfy + y) * self.nfz + i
    }
    fn out_addr(&self, r: usize, i: usize) -> usize {
        r * self.nz + i
    }
    fn fingerprint(&self) -> u64 {
        structural_fingerprint("copy.corner_pad3d", |h| {
            self.grids.hash(h);
            self.nfx.hash(h);
            self.nfy.hash(h);
            self.nfz.hash(h);
            self.nx.hash(h);
            self.ny.hash(h);
            self.nz.hash(h);
        })
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
        let r0 = block_id * COPY_ROWS_PER_BLOCK;
        let rows = COPY_ROWS_PER_BLOCK.min(self.addressing.rows() - r0);
        for r in r0..r0 + rows {
            let n_in = self.addressing.in_len(r);
            let n_out = self.addressing.out_len(r);
            let mut i = 0;
            while i < n_out {
                let read_idx = WarpIdx::from_fn(|l| {
                    (i + l < n_in).then(|| self.addressing.in_addr(r, i + l))
                });
                let vals = if read_idx.active_lanes() > 0 {
                    ctx.global_read(self.input, &read_idx)
                } else {
                    [C32::ZERO; WARP_SIZE]
                };
                let write_idx = WarpIdx::from_fn(|l| {
                    (i + l < n_out).then(|| self.addressing.out_addr(r, i + l))
                });
                ctx.global_write(self.output, &write_idx, &vals);
                i += WARP_SIZE;
            }
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
        // Copy kernels can have heterogeneous rows (e.g. CornerPad2d's
        // zero-fill rows), and blocks are cheap: enumerate every block as
        // its own class only when patterns vary per block; here we group
        // conservatively by running each block (they are O(rows) cheap).
        (0..self.grid()).map(|b| (b, 1)).collect()
    }
}

/// Affine per-block address template for the segmented copy: the warp
/// schedule of a chunk depends only on its element count, so the relative
/// pattern — `(element offset, active lanes)` per warp transaction — is
/// built once per distinct chunk length and shared process-wide, then
/// offset by each block's segment bases at run time. This is the
/// transfer-phase analogue of the FFT butterfly trace cache: a warm
/// serving loop's gather/scatter launches replay templates instead of
/// re-deriving per-lane addresses.
#[derive(Debug)]
struct CopyTemplate {
    /// `(relative element offset, active lanes)` per warp transaction.
    iters: Vec<(usize, usize)>,
}

fn copy_template(chunk_len: usize) -> Arc<CopyTemplate> {
    static TEMPLATES: OnceLock<Mutex<HashMap<usize, Arc<CopyTemplate>>>> = OnceLock::new();
    let table = TEMPLATES.get_or_init(|| Mutex::new(HashMap::new()));
    let mut table = lock_unpoisoned(table);
    Arc::clone(table.entry(chunk_len).or_insert_with(|| {
        let mut iters = Vec::with_capacity(chunk_len.div_ceil(WARP_SIZE));
        let mut i = 0;
        while i < chunk_len {
            iters.push((i, WARP_SIZE.min(chunk_len - i)));
            i += WARP_SIZE;
        }
        Arc::new(CopyTemplate { iters })
    }))
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
        let end = seg.len.min(off + SEGMENT_COPY_BLOCK_ELEMS);
        let template = copy_template(end - off);
        for &(rel, active) in &template.iters {
            let read_idx = WarpIdx::contiguous_partial(seg.src_base + off + rel, active);
            let vals = ctx.global_read(seg.src, &read_idx);
            let write_idx = WarpIdx::contiguous_partial(seg.dst_base + off + rel, active);
            ctx.global_write(seg.dst, &write_idx, &vals);
        }
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

    #[test]
    fn truncate_gathers_prefix() {
        let (rows, n, nf) = (5usize, 64usize, 16usize);
        let mut dev = GpuDevice::a100();
        let src = dev.alloc("src", rows * n);
        let dst = dev.alloc("dst", rows * nf);
        dev.upload(src, &seq(rows * n));
        let k = StridedCopyKernel::new("trunc", RowTruncate { rows, n, nf }, src, dst);
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
        let k = StridedCopyKernel::new("pad", RowPad { rows, nf, n }, src, dst);
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
            CornerTruncate2d {
                grids,
                nx,
                ny,
                nfx,
                nfy,
            },
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
            CornerPad2d {
                grids,
                nfx,
                nfy,
                nx,
                ny,
            },
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
            CornerTruncate3d { grids, nx, ny, nz, nfx, nfy, nfz },
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
            CornerPad3d { grids, nfx, nfy, nfz, nx, ny, nz },
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

    /// The affine address templates move every element exactly once, to
    /// its offset in the destination, and charge exactly its bytes: `8 *
    /// len` loaded and `8 * len` stored, over a full chunk plus an odd
    /// tail landing at an unaligned destination base. (The name predates
    /// the per-lane path it used to compare against.)
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
        assert_eq!(out[dst_base..], seq(len)[..], "templates changed data movement");
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
    /// covering exactly the source elements — including CornerPad2d's
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
            CornerPad2d { grids, nfx, nfy, nx, ny },
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
        let k = StridedCopyKernel::new("trunc", RowTruncate { rows, n, nf }, src, dst);
        let f = dev.launch(&k, ExecMode::Functional);
        let a = dev.launch(&k, ExecMode::Analytical);
        assert_eq!(f.stats, a.stats);
    }
}
