//! Standalone batched FFT kernels on the simulated GPU.
//!
//! [`BatchedFftKernel`] is the paper's non-fused custom FFT stage: one
//! thread block processes `bs = 8` pencils (Table 1), with built-in
//! truncation (only the first `n_out_keep` modes are written back — the
//! global-store saving of Fig. 4), built-in zero-padding (only the first
//! `n_in_valid` inputs are read) and butterfly pruning from the plan.
//!
//! Pencil placement in global memory is abstracted by [`PencilAddressing`]
//! so the same kernel serves 1D rows, the hidden-dim-ordered variant the
//! fused pipeline uses, and the strided second stage of 2D FFTs.

use crate::engine::{FftBlockEngine, FftIo, PencilTarget, TraceCache};
use crate::plan::{FftDirection, FftPlan};
use crate::FftBlockConfig;
use std::hash::Hash;
use std::sync::Arc;
use tfno_gpu_sim::{
    structural_fingerprint, AccessSpan, BlockCtx, BufferId, Kernel, KernelAccess, LaunchDims,
    WARP_SIZE,
};
use tfno_num::C32_BYTES;

/// Maps block-global pencil ids to input/output element addresses.
pub trait PencilAddressing: Sync {
    /// Total number of pencils in the launch.
    fn count(&self) -> usize;
    /// Input element address of `(pencil, idx)`.
    fn in_addr(&self, pencil: usize, idx: usize) -> usize;
    /// Output element address of `(pencil, idx)`.
    fn out_addr(&self, pencil: usize, idx: usize) -> usize;
    /// Stride in elements between `idx` and `idx + 1` of one pencil's
    /// input. Addressing is affine in `idx` by contract
    /// (`in_addr(p, idx) = in_addr(p, 0) + idx * in_idx_stride()`) —
    /// that is what lets the kernel declare exact static access sets.
    fn in_idx_stride(&self) -> usize;
    /// Output-side counterpart of [`PencilAddressing::in_idx_stride`].
    fn out_idx_stride(&self) -> usize;
    /// Structural hash of the addressing scheme for the analytical launch
    /// memo: must cover every field that shapes the produced addresses.
    fn fingerprint(&self) -> u64;
}

/// [`AccessSpan`] of one pencil's `len` elements starting at `start` with
/// the addressing's affine `idx` stride.
fn pencil_span(buf: BufferId, start: usize, idx_stride: usize, len: usize) -> AccessSpan {
    if idx_stride == 1 {
        AccessSpan::contiguous(buf, start, len)
    } else {
        AccessSpan::strided(buf, start, 1, idx_stride, len)
    }
}

/// Pencils stored as contiguous rows (the 1D FNO layout `[pencil, n]`),
/// with possibly different input and output row lengths (truncation).
#[derive(Clone, Copy, Debug)]
pub struct RowPencils {
    pub count: usize,
    pub in_row_len: usize,
    pub out_row_len: usize,
}

impl PencilAddressing for RowPencils {
    fn count(&self) -> usize {
        self.count
    }
    fn in_addr(&self, pencil: usize, idx: usize) -> usize {
        pencil * self.in_row_len + idx
    }
    fn out_addr(&self, pencil: usize, idx: usize) -> usize {
        pencil * self.out_row_len + idx
    }
    fn in_idx_stride(&self) -> usize {
        1
    }
    fn out_idx_stride(&self) -> usize {
        1
    }
    fn fingerprint(&self) -> u64 {
        structural_fingerprint("fft.addr.rows", |h| {
            self.count.hash(h);
            self.in_row_len.hash(h);
            self.out_row_len.hash(h);
        })
    }
}

/// Strided pencils: pencil `p` belongs to group `p / group` and slot
/// `p % group`; element `idx` lives at
/// `group_stride * (p / group) + pencil_stride * (p % group) + idx_stride * idx`.
///
/// This covers the second (along-X) stage of the 2D FFT, where pencils of a
/// fixed x-row are adjacent in the fy direction and the transform walks the
/// x axis with stride `nfy`.
#[derive(Clone, Copy, Debug)]
pub struct StridedPencils {
    pub count: usize,
    pub group: usize,
    pub in_group_stride: usize,
    pub in_pencil_stride: usize,
    pub in_idx_stride: usize,
    pub out_group_stride: usize,
    pub out_pencil_stride: usize,
    pub out_idx_stride: usize,
}

impl StridedPencils {
    /// Pencils along one non-innermost axis of a dense row-major tensor
    /// `[slabs, len, inner]`: every `(slab, inner)` position is one pencil,
    /// the transform walks the middle axis with stride `inner`, and the
    /// output replaces `in_len` by `out_len` (truncation or padding).
    ///
    /// This is the staging rule every outer axis of a rank-generic
    /// spectral pipeline uses: for axis `a` of an N-D grid, `slabs` is the
    /// product of all axes left of `a` (batch and hidden included) and
    /// `inner` the product of all axes right of it.
    pub fn along_axis(slabs: usize, in_len: usize, out_len: usize, inner: usize) -> Self {
        StridedPencils {
            count: slabs * inner,
            group: inner,
            in_group_stride: in_len * inner,
            in_pencil_stride: 1,
            in_idx_stride: inner,
            out_group_stride: out_len * inner,
            out_pencil_stride: 1,
            out_idx_stride: inner,
        }
    }
}

impl PencilAddressing for StridedPencils {
    fn count(&self) -> usize {
        self.count
    }
    fn in_addr(&self, pencil: usize, idx: usize) -> usize {
        self.in_group_stride * (pencil / self.group)
            + self.in_pencil_stride * (pencil % self.group)
            + self.in_idx_stride * idx
    }
    fn out_addr(&self, pencil: usize, idx: usize) -> usize {
        self.out_group_stride * (pencil / self.group)
            + self.out_pencil_stride * (pencil % self.group)
            + self.out_idx_stride * idx
    }
    fn in_idx_stride(&self) -> usize {
        self.in_idx_stride
    }
    fn out_idx_stride(&self) -> usize {
        self.out_idx_stride
    }
    fn fingerprint(&self) -> u64 {
        structural_fingerprint("fft.addr.strided", |h| {
            self.count.hash(h);
            self.group.hash(h);
            self.in_group_stride.hash(h);
            self.in_pencil_stride.hash(h);
            self.in_idx_stride.hash(h);
            self.out_group_stride.hash(h);
            self.out_pencil_stride.hash(h);
            self.out_idx_stride.hash(h);
        })
    }
}

/// Static kernel configuration.
#[derive(Clone, Debug)]
pub struct FftKernelConfig {
    pub block: FftBlockConfig,
    /// Fraction of load bytes served by L1/L2. The paper observes that the
    /// spatial-order baseline FFT caches better than the hidden-dim-ordered
    /// variant; callers encode that here (see `turbofno::pipeline`).
    pub l1_hit_rate: f64,
    /// Registers per thread (occupancy input); per-thread FFT state is
    /// `n_thread` complex values plus indices.
    pub regs_per_thread: u32,
    /// Pencil groups one thread block iterates sequentially. 1 = the
    /// library layout (maximum grid parallelism). The paper's hidden-dim-
    /// ordered FFT sets this to `ceil(K / bs)` so a block walks the hidden
    /// dimension like a GEMM k-loop — same traffic, far fewer blocks, which
    /// is what degrades SM utilization at small batch sizes (the Fig. 14
    /// "blue regions").
    pub k_iters: usize,
}

impl FftKernelConfig {
    pub fn new(block: FftBlockConfig) -> Self {
        FftKernelConfig {
            block,
            l1_hit_rate: 0.0,
            regs_per_thread: (2 * block.n_thread as u32 + 16).min(255),
            k_iters: 1,
        }
    }

    pub fn with_l1_hit_rate(mut self, rate: f64) -> Self {
        self.l1_hit_rate = rate;
        self
    }

    pub fn with_k_iters(mut self, iters: usize) -> Self {
        self.k_iters = iters.max(1);
        self
    }

    /// Shared memory one block requests: the engine's ping/pong staging
    /// of `bs` pencils of `n` points.
    pub fn shared_bytes(&self) -> usize {
        FftBlockEngine::staging_elems(self.block.n, self.block.bs) * C32_BYTES
    }
}

/// Pencils one block of a [`BatchedFftKernel`] may stage
/// ([`FftBlockConfig::bs`]): a warp's worth, so a block's pencil bases
/// live on its stack.
pub const MAX_BLOCK_PENCILS: usize = WARP_SIZE;

/// Batched 1D FFT kernel: `ceil(count / bs)` blocks of `bs` pencils each.
pub struct BatchedFftKernel<A: PencilAddressing> {
    pub name: String,
    pub cfg: FftKernelConfig,
    /// Usually [`FftPlan::shared`], so kernels of one structure hold one plan.
    pub plan: Arc<FftPlan>,
    pub addressing: A,
    pub input: BufferId,
    pub output: BufferId,
    /// Butterfly schedules shared by every block of a launch (the index
    /// patterns are block-invariant; only data differs) and, through the
    /// process-wide cache, by every kernel of the same structure.
    pub traces: TraceCache,
}

impl<A: PencilAddressing> BatchedFftKernel<A> {
    pub fn new(
        name: impl Into<String>,
        cfg: FftKernelConfig,
        plan: impl Into<Arc<FftPlan>>,
        addressing: A,
        input: BufferId,
        output: BufferId,
    ) -> Self {
        let plan = plan.into();
        assert_eq!(plan.n, cfg.block.n, "plan length must match block config");
        assert!(
            cfg.block.bs <= MAX_BLOCK_PENCILS,
            "a block stages at most {MAX_BLOCK_PENCILS} pencils, got {}",
            cfg.block.bs
        );
        BatchedFftKernel {
            name: name.into(),
            traces: TraceCache::new(cfg.block.bs),
            cfg,
            plan,
            addressing,
            input,
            output,
        }
    }

    fn grid_blocks(&self) -> usize {
        self.addressing
            .count()
            .div_ceil(self.cfg.block.bs * self.cfg.k_iters)
    }

    /// Pencil groups of `bs` this launch contains.
    fn groups(&self) -> usize {
        self.addressing.count().div_ceil(self.cfg.block.bs)
    }
}

impl<A: PencilAddressing> Kernel for BatchedFftKernel<A> {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn dims(&self) -> LaunchDims {
        LaunchDims::new(
            self.grid_blocks(),
            self.cfg.block.threads_per_block() as u32,
        )
        .with_shared(self.cfg.shared_bytes())
        .with_regs(self.cfg.regs_per_thread)
        .with_l1_hit_rate(self.cfg.l1_hit_rate)
    }

    fn run_block(&self, block_id: usize, ctx: &mut BlockCtx<'_>) {
        let bs = self.cfg.block.bs;
        let groups = self.groups();
        let (mut in_bases, mut out_bases) = ([0; MAX_BLOCK_PENCILS], [0; MAX_BLOCK_PENCILS]);
        for g in 0..self.cfg.k_iters {
            let group = block_id * self.cfg.k_iters + g;
            if group >= groups {
                break;
            }
            let p0 = group * bs;
            let active = bs.min(self.addressing.count() - p0);
            let engine = FftBlockEngine {
                plan: &self.plan,
                active_pencils: active,
                bs_layout: bs,
                ping_base: 0,
                pong_base: self.plan.n * bs,
                reg_group_bits: self.cfg.block.n_thread.max(1).trailing_zeros() as usize,
            };
            for (j, p) in (p0..p0 + active).enumerate() {
                in_bases[j] = self.addressing.in_addr(p, 0);
                out_bases[j] = self.addressing.out_addr(p, 0);
            }
            let io = FftIo::new(
                PencilTarget::Global {
                    buf: self.input,
                    bases: &in_bases[..active],
                    stride: self.addressing.in_idx_stride(),
                },
                PencilTarget::Global {
                    buf: self.output,
                    bases: &out_bases[..active],
                    stride: self.addressing.out_idx_stride(),
                },
            );
            engine.run_traced(ctx, &io, self.traces.get(&engine));
            if self.cfg.k_iters > 1 {
                ctx.syncthreads();
            }
        }
    }

    fn fingerprint(&self) -> Option<u64> {
        Some(structural_fingerprint("fft.batched", |h| {
            self.cfg.block.n.hash(h);
            self.cfg.block.n_thread.hash(h);
            self.cfg.block.bs.hash(h);
            self.cfg.l1_hit_rate.to_bits().hash(h);
            self.cfg.regs_per_thread.hash(h);
            self.cfg.k_iters.hash(h);
            self.plan.n.hash(h);
            (self.plan.direction == FftDirection::Forward).hash(h);
            self.plan.n_in_valid.hash(h);
            self.plan.n_out_keep.hash(h);
            self.addressing.fingerprint().hash(h);
        }))
    }

    fn block_classes(&self) -> Vec<(usize, u64)> {
        let grid = self.grid_blocks();
        let bs = self.cfg.block.bs;
        let full =
            self.addressing.count().is_multiple_of(bs * self.cfg.k_iters);
        if full {
            vec![(0, grid as u64)]
        } else if grid == 1 {
            vec![(0, 1)]
        } else {
            vec![(0, grid as u64 - 1), (grid - 1, 1)]
        }
    }

    fn access(&self) -> Option<KernelAccess> {
        let mut acc = KernelAccess::new();
        let bs = self.cfg.block.bs;
        let count = self.addressing.count();
        let groups = self.groups();
        let (si, so) = (
            self.addressing.in_idx_stride(),
            self.addressing.out_idx_stride(),
        );
        // Mirror run_block's group walk exactly: per k-iteration a block
        // reads the valid prefix and writes the kept prefix of each of its
        // `active` pencils.
        for block in 0..self.grid_blocks() {
            for g in 0..self.cfg.k_iters {
                let group = block * self.cfg.k_iters + g;
                if group >= groups {
                    break;
                }
                let (p0, end) = (group * bs, (group * bs + bs).min(count));
                for p in p0..end {
                    acc.read(pencil_span(
                        self.input,
                        self.addressing.in_addr(p, 0),
                        si,
                        self.plan.n_in_valid,
                    ));
                }
                // `k` pencils whose outputs start side by side (the
                // stride-1 pencils of a strided axis) write one span of
                // `k`-element runs, so the verifier walks a run per kept
                // index instead of an element per pencil and index.
                let mut p = p0;
                while p < end {
                    let start = self.addressing.out_addr(p, 0);
                    let mut k = 1;
                    while k < so && p + k < end && self.addressing.out_addr(p + k, 0) == start + k {
                        k += 1;
                    }
                    let keep = self.plan.n_out_keep;
                    acc.write(
                        block,
                        if k == 1 {
                            pencil_span(self.output, start, so, keep)
                        } else {
                            AccessSpan::strided(self.output, start, k, so, keep)
                        },
                    );
                    p += k;
                }
            }
        }
        Some(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FftDirection;
    use tfno_gpu_sim::{ExecMode, GpuDevice};
    use tfno_num::error::{assert_close, fft_tolerance};
    use tfno_num::reference;
    use tfno_num::C32;

    fn signals(pencils: usize, n: usize) -> Vec<C32> {
        (0..pencils * n)
            .map(|i| C32::new((i as f32 * 0.13).sin(), (i as f32 * 0.29).cos()))
            .collect()
    }

    fn run_rows(
        pencils: usize,
        n: usize,
        nf_out: usize,
        nv_in: usize,
        dir: FftDirection,
    ) -> (Vec<C32>, tfno_gpu_sim::LaunchRecord, tfno_gpu_sim::LaunchRecord) {
        let mut dev = GpuDevice::a100();
        let input = dev.alloc("in", pencils * nv_in);
        let output = dev.alloc("out", pencils * nf_out);
        let data = signals(pencils, nv_in);
        dev.upload(input, &data);

        let cfg = FftKernelConfig::new(FftBlockConfig::for_len(n));
        let plan = FftPlan::new(n, dir, nv_in, nf_out);
        let addr = RowPencils {
            count: pencils,
            in_row_len: nv_in,
            out_row_len: nf_out,
        };
        let k = BatchedFftKernel::new("fft", cfg, plan, addr, input, output);
        let rec_f = dev.launch(&k, ExecMode::Functional);
        let out = dev.download(output);
        let rec_a = dev.launch(&k, ExecMode::Analytical);
        (out, rec_f, rec_a)
    }

    #[test]
    fn forward_full_matches_reference() {
        let (n, pencils) = (128usize, 8usize);
        let (out, _, _) = run_rows(pencils, n, n, n, FftDirection::Forward);
        let data = signals(pencils, n);
        for p in 0..pencils {
            let want = reference::dft_full(&data[p * n..(p + 1) * n]);
            assert_close(
                &out[p * n..(p + 1) * n],
                &want,
                fft_tolerance(n, 2.0),
                &format!("pencil {p}"),
            );
        }
    }

    #[test]
    fn truncated_forward_writes_prefix_only() {
        let (n, nf, pencils) = (128usize, 32usize, 16usize);
        let (out, rec, _) = run_rows(pencils, n, nf, n, FftDirection::Forward);
        let data = signals(pencils, n);
        for p in 0..pencils {
            let mut want = vec![C32::ZERO; nf];
            reference::dft(&data[p * n..(p + 1) * n], &mut want);
            assert_close(
                &out[p * nf..(p + 1) * nf],
                &want,
                fft_tolerance(n, 2.0),
                &format!("pencil {p}"),
            );
        }
        // Truncation saves 75% of global stores (Fig. 4's claim).
        assert_eq!(
            rec.stats.global_store_bytes,
            (pencils * nf * C32_BYTES) as u64
        );
    }

    #[test]
    fn inverse_padded_matches_reference() {
        let (n, nv, pencils) = (64usize, 16usize, 8usize);
        let (out, _, _) = run_rows(pencils, n, n, nv, FftDirection::Inverse);
        let data = signals(pencils, nv);
        for p in 0..pencils {
            let mut want = vec![C32::ZERO; n];
            reference::idft(&data[p * nv..(p + 1) * nv], &mut want);
            assert_close(
                &out[p * n..(p + 1) * n],
                &want,
                fft_tolerance(n, 2.0),
                &format!("pencil {p}"),
            );
        }
    }

    #[test]
    fn analytical_equals_functional() {
        for pencils in [8usize, 16, 19] {
            let (_, rec_f, rec_a) = run_rows(pencils, 64, 16, 64, FftDirection::Forward);
            assert_eq!(rec_f.stats, rec_a.stats, "pencils={pencils}");
        }
    }

    #[test]
    fn remainder_block_handles_partial_pencils() {
        let (n, pencils) = (64usize, 11usize); // 8 + 3
        let (out, rec, _) = run_rows(pencils, n, n, n, FftDirection::Forward);
        assert_eq!(rec.stats.blocks, 2);
        let data = signals(pencils, n);
        let want = reference::dft_full(&data[10 * n..11 * n]);
        assert_close(
            &out[10 * n..11 * n],
            &want,
            fft_tolerance(n, 2.0),
            "last pencil",
        );
    }

    #[test]
    fn pruning_reduces_flops() {
        let (_, full, _) = run_rows(8, 128, 128, 128, FftDirection::Forward);
        let (_, trunc, _) = run_rows(8, 128, 32, 128, FftDirection::Forward);
        assert!(
            trunc.stats.flops < full.stats.flops,
            "pruned {} !< full {}",
            trunc.stats.flops,
            full.stats.flops
        );
    }

    #[test]
    fn loads_are_coalesced() {
        let (_, rec, _) = run_rows(8, 128, 128, 128, FftDirection::Forward);
        // 8 pencils x 128 elems x 8 B = 8192 B = 256 sectors if perfect.
        assert_eq!(rec.stats.global_load_bytes, 8192);
        assert!(
            rec.stats.global_load_sectors <= 288,
            "loads badly coalesced: {} sectors",
            rec.stats.global_load_sectors
        );
    }

    /// The declared access sets must cover exactly the elements the
    /// kernel touches: `count * n_in_valid` distinct reads and
    /// `count * n_out_keep` distinct writes, with write partitions
    /// disjoint across blocks — for contiguous rows and for the strided
    /// pencils whose adjacent outputs share one declared span.
    #[test]
    fn declared_access_matches_footprint() {
        fn check(k: &dyn Kernel, input: BufferId, output: BufferId, reads_want: usize, writes_want: usize) {
            let acc = k.access().expect("FFT kernels declare access sets");
            let mut reads = std::collections::HashSet::new();
            for s in &acc.reads {
                assert_eq!(s.buf, input);
                for (lo, hi) in s.runs() {
                    reads.extend(lo..hi);
                }
            }
            assert_eq!(reads.len(), reads_want, "{}", k.name());

            let mut writes = std::collections::HashSet::new();
            for (_, spans) in &acc.block_writes {
                for s in spans {
                    assert_eq!(s.buf, output);
                    for (lo, hi) in s.runs() {
                        for e in lo..hi {
                            assert!(writes.insert(e), "overlapping write at {e}");
                        }
                    }
                }
            }
            assert_eq!(writes.len(), writes_want, "{}", k.name());
        }
        for (pencils, n, nf) in [(8usize, 64usize, 64usize), (11, 64, 16), (19, 128, 32)] {
            let mut dev = GpuDevice::a100();
            let input = dev.alloc("in", pencils * n);
            let output = dev.alloc("out", pencils * nf);
            let cfg = FftKernelConfig::new(FftBlockConfig::for_len(n)).with_k_iters(2);
            let plan = FftPlan::new(n, FftDirection::Forward, n, nf);
            let addr = RowPencils {
                count: pencils,
                in_row_len: n,
                out_row_len: nf,
            };
            let k = BatchedFftKernel::new("rows", cfg, plan, addr, input, output);
            check(&k, input, output, pencils * n, pencils * nf);
        }
        // Pencils along the outer axis of `slabs` grids of `n x inner`,
        // truncated to `nf`: groups of `inner` adjacent pencils, some
        // split across blocks.
        for (slabs, n, nf, inner) in [(3usize, 16usize, 16usize, 8usize), (2, 32, 8, 12), (5, 16, 4, 3)] {
            let mut dev = GpuDevice::a100();
            let input = dev.alloc("in", slabs * n * inner);
            let output = dev.alloc("out", slabs * nf * inner);
            let cfg = FftKernelConfig::new(FftBlockConfig::for_len(n));
            let plan = FftPlan::new(n, FftDirection::Forward, n, nf);
            let addr = StridedPencils::along_axis(slabs, n, nf, inner);
            let k = BatchedFftKernel::new("strided", cfg, plan, addr, input, output);
            check(&k, input, output, slabs * n * inner, slabs * nf * inner);
        }
    }

    #[test]
    fn strided_addressing_2d_stage2() {
        // 2D grid nx=8, ny(=nfy)=4 for one (b,k): along-x FFT pencils are
        // fy-slots, idx stride = nfy.
        let (nx, nfy) = (8usize, 4usize);
        let mut dev = GpuDevice::a100();
        let input = dev.alloc("in", nx * nfy);
        let output = dev.alloc("out", nx * nfy);
        let grid: Vec<C32> = signals(1, nx * nfy);
        dev.upload(input, &grid);

        let cfg = FftKernelConfig::new(FftBlockConfig::for_len(nx));
        let plan = FftPlan::full(nx, FftDirection::Forward);
        let addr = StridedPencils {
            count: nfy,
            group: nfy,
            in_group_stride: 0,
            in_pencil_stride: 1,
            in_idx_stride: nfy,
            out_group_stride: 0,
            out_pencil_stride: 1,
            out_idx_stride: nfy,
        };
        let k = BatchedFftKernel::new("fft-x", cfg, plan, addr, input, output);
        dev.launch(&k, ExecMode::Functional);
        let out = dev.download(output);

        // reference: DFT each column
        for fy in 0..nfy {
            let col: Vec<C32> = (0..nx).map(|x| grid[x * nfy + fy]).collect();
            let want = reference::dft_full(&col);
            let got: Vec<C32> = (0..nx).map(|x| out[x * nfy + fy]).collect();
            assert_close(&got, &want, fft_tolerance(nx, 2.0), &format!("fy={fy}"));
        }
    }

    /// `along_axis` must address a middle axis of `[slabs, len, inner]`
    /// exactly like a hand-written strided stage, including truncation.
    #[test]
    fn along_axis_transforms_middle_axis() {
        let (slabs, len, keep, inner) = (3usize, 16usize, 4usize, 5usize);
        let mut dev = GpuDevice::a100();
        let input = dev.alloc("in", slabs * len * inner);
        let output = dev.alloc("out", slabs * keep * inner);
        let data = signals(1, slabs * len * inner);
        dev.upload(input, &data);

        let cfg = FftKernelConfig::new(FftBlockConfig::for_len(len));
        let plan = FftPlan::new(len, FftDirection::Forward, len, keep);
        let addr = StridedPencils::along_axis(slabs, len, keep, inner);
        assert_eq!(addr.count, slabs * inner);
        let k = BatchedFftKernel::new("fft-axis", cfg, plan, addr, input, output);
        dev.launch(&k, ExecMode::Functional);
        let out = dev.download(output);

        for s in 0..slabs {
            for j in 0..inner {
                let col: Vec<C32> =
                    (0..len).map(|t| data[(s * len + t) * inner + j]).collect();
                let mut want = vec![C32::ZERO; keep];
                reference::dft(&col, &mut want);
                let got: Vec<C32> =
                    (0..keep).map(|f| out[(s * keep + f) * inner + j]).collect();
                assert_close(&got, &want, fft_tolerance(len, 2.0), &format!("s={s} j={j}"));
            }
        }
    }
}
