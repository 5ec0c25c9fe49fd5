//! The fused FFT–CGEMM–iFFT kernels (paper §4, Figs. 6 and 9 right).
//!
//! One generic kernel implements all three fusion levels via two flags:
//!
//! * `fuse_fft` — the CGEMM `A` operand is produced *inside* the k-loop by
//!   the forward FFT writing its truncated output straight into the `As`
//!   shared tile (§4.1). With it off, `A` is read from global memory (the
//!   separate-FFT variants).
//! * `fuse_ifft` — the inverse FFT runs as a CGEMM epilogue: the `C`
//!   accumulators are staged into shared memory (with the Fig. 8 swizzle)
//!   and transformed in place, writing final spatial-domain rows to global
//!   memory (§4.2). With it off, `C` is stored to global memory.
//!
//! The geometry of the surrounding tensor — the innermost axis of a layer
//! at any rank, its outer axes already truncated — is a [`GeomNd`].
//!
//! Key structural constraint inherited from the paper's configuration: the
//! block's `m_tb` equals the retained mode count (`N = 64/128` in Table 1's
//! evaluation), so each block owns a complete mode pencil and no butterfly
//! work crosses blocks.

use crate::swizzle::{EpilogueStaging, ForwardLayout};
use std::hash::Hash;
use std::sync::{Arc, OnceLock};
use tfno_cgemm::{
    view_spans, AProvider, BOperand, CFragments, CgemmBlockEngine, MainloopBankCache, MatView,
    TileConfig, WeightStacking,
};
use tfno_fft::{FftBlockEngine, FftIo, FftPlan, InstanceOrder, PencilTarget, TraceCache};
use tfno_gpu_sim::{
    structural_fingerprint, warp_bank_cycles, AccessSpan, BankStats, BlockCtx, BufferId, Kernel,
    KernelAccess, LaunchDims, WarpIdx, WARP_SIZE,
};
use tfno_num::{C32, C32_BYTES};

/// Pencils per FFT batch inside the fused kernel — Table 1's `bs = 8`,
/// chosen to equal the CGEMM `k_tb`.
pub const FUSED_FFT_BS: usize = 8;

/// The fused kernels' M-tile is the innermost retained-mode count, and it
/// must fill whole warp tiles of this many rows.
pub const FUSED_MODES_MULTIPLE: usize = 32;

/// Whether the fused kernels can be built for `s` (see
/// [`FUSED_MODES_MULTIPLE`]); shapes that fail it run unfused.
pub fn fused_supported(s: &tfno_culib::SpectralShape) -> bool {
    s.modes[s.rank - 1].is_multiple_of(FUSED_MODES_MULTIPLE)
}

/// log2 of the per-thread FFT size for a given signal length (Table 1's
/// `n_1 = 8` / `n_2 = 16` scaling), for the engine's register grouping.
fn reg_bits_for(n: usize) -> usize {
    tfno_fft::FftBlockConfig::for_len(n)
        .n_thread
        .max(1)
        .trailing_zeros() as usize
}

/// Rank-generic fused-middle geometry (`[batch, k, outer modes..., n]`
/// tensors): the ONE geometry every rank shares.
///
/// The paper keeps the FFT stages along strided outer axes as standalone
/// kernels and fuses only the *innermost, contiguous* axis — that is what
/// makes the k-loop-ordered loads of the fused kernel coalesced
/// (§2.3 / Fig. 6). By the time the fused middle runs, all outer axes are
/// already truncated to their retained modes, so the only geometry the
/// kernel needs is the product of those outer modes (`outer_modes`, 1 for
/// rank 1) plus the innermost extent/mode pair:
///
/// * rank 1: input `[batch, k, n]`, `outer_modes = 1`;
/// * rank 2: input `[batch, k, nfx, ny]`, `outer_modes = nfx`;
/// * rank 3: input `[batch, k, nfx, nfy, nz]`, `outer_modes = nfx * nfy`.
///
/// Output is either truncated modes (`m_inner` per pencil) or the restored
/// innermost axis (`n_inner`) when the inverse stage is fused too.
#[derive(Clone, Copy, Debug)]
pub struct GeomNd {
    pub batch: usize,
    pub k_in: usize,
    pub k_out: usize,
    /// Spatial rank of the surrounding layer (serialization lookup only —
    /// the addressing is fully determined by the other fields).
    pub rank: usize,
    /// Spatial extent of the fused (innermost, contiguous) axis.
    pub n_inner: usize,
    /// Retained modes along the fused axis (= the tile's `m_tb`).
    pub m_inner: usize,
    /// Product of the retained modes of every already-transformed outer
    /// axis (1 for rank 1).
    pub outer_modes: usize,
}

impl GeomNd {
    /// The fused-middle geometry of a [`tfno_culib::SpectralShape`].
    pub fn from_shape(s: &tfno_culib::SpectralShape) -> Self {
        GeomNd {
            batch: s.batch,
            k_in: s.k_in,
            k_out: s.k_out,
            rank: s.rank,
            n_inner: s.dims[s.rank - 1],
            m_inner: s.modes[s.rank - 1],
            outer_modes: s.outer_modes(),
        }
    }

    fn split(&self, outer: usize) -> (usize, usize) {
        (outer / self.outer_modes, outer % self.outer_modes)
    }

    /// Product of retained modes across ALL axes (the CGEMM column
    /// stride of the packed spectral tensors).
    fn modes_total(&self) -> usize {
        self.outer_modes * self.m_inner
    }

    /// Blocks along the non-tiled axes: `batch * outer_modes`.
    pub fn outer_blocks(&self) -> usize {
        self.batch * self.outer_modes
    }

    /// Batch index of an `outer` block — the axis stacked weight slices
    /// are grouped along.
    pub fn outer_batch(&self, outer: usize) -> usize {
        self.split(outer).0
    }

    /// Element address of FFT input `(outer, hidden k, spatial idx)`.
    pub fn x_addr(&self, outer: usize, k: usize, idx: usize) -> usize {
        let (b, f) = self.split(outer);
        ((b * self.k_in + k) * self.outer_modes + f) * self.n_inner + idx
    }

    /// `A` view when the forward FFT is *not* fused (reads pre-truncated
    /// modes): `view.at(m, k_global)`.
    pub fn a_view(&self, outer: usize) -> MatView {
        let (b, f) = self.split(outer);
        MatView {
            base: (b * self.k_in * self.outer_modes + f) * self.m_inner,
            row_stride: 1,
            col_stride: self.modes_total(),
        }
    }

    /// `C` view when the inverse FFT is *not* fused (stores truncated
    /// modes): `view.at(m, n_local)`, already offset to channel `n0`.
    pub fn c_view(&self, outer: usize, n0: usize) -> MatView {
        let (b, f) = self.split(outer);
        MatView {
            base: ((b * self.k_out + n0) * self.outer_modes + f) * self.m_inner,
            row_stride: 1,
            col_stride: self.modes_total(),
        }
    }

    /// Element address of iFFT output `(outer, channel, spatial idx)`.
    pub fn y_addr(&self, outer: usize, ch: usize, idx: usize) -> usize {
        let (b, f) = self.split(outer);
        ((b * self.k_out + ch) * self.outer_modes + f) * self.n_inner + idx
    }

    /// Phase-serialization factors `(fully_fused, single_fusion)` for the
    /// cost model. Higher ranks overlap worse: the per-outer working set
    /// (one outer mode slice) shrinks as the outer-mode product grows, so
    /// the k-loop's FFT/MAC dependency chain leaves less independent work
    /// in flight — consistent with the paper's near-zero 2D fusion gains
    /// (§5.2 B.2); rank 3 extrapolates that trend.
    pub fn serialization(&self) -> (f64, f64) {
        match self.rank {
            1 => (0.40, 0.30),
            2 => (0.85, 0.65),
            _ => (0.90, 0.70),
        }
    }

    /// Structural hash of the geometry for the analytical launch memo:
    /// covers every field that shapes the kernel's addresses.
    pub fn fingerprint(&self) -> u64 {
        structural_fingerprint("fused.geomnd", |h| {
            self.batch.hash(h);
            self.k_in.hash(h);
            self.k_out.hash(h);
            self.rank.hash(h);
            self.n_inner.hash(h);
            self.m_inner.hash(h);
            self.outer_modes.hash(h);
        })
    }

    /// Equivalence classes of `outer` indices whose blocks issue identical
    /// access *patterns* (same sector/bank counts): outers whose base
    /// addresses sit at different sector phases get different classes.
    pub fn outer_classes(&self) -> Vec<(usize, u64)> {
        // Every base address is a multiple of m_inner / n_inner elements;
        // with m_inner % 4 == 0 all outers share one sector-alignment
        // phase (rank 1 always does: its only outer-mode index is 0).
        if self.m_inner.is_multiple_of(4) {
            return vec![(0, self.outer_blocks() as u64)];
        }
        // Group outers by the sector phase of their base addresses.
        let mut rep: [Option<usize>; 4] = [None; 4];
        let mut count = [0u64; 4];
        for f in 0..self.outer_modes {
            let ph = (f * self.m_inner) % 4;
            if rep[ph].is_none() {
                rep[ph] = Some(f);
            }
            count[ph] += 1;
        }
        (0..4)
            .filter_map(|ph| rep[ph].map(|r| (r, count[ph] * self.batch as u64)))
            .collect()
    }
}

/// The fused kernel (variants B, C and D of the evaluation).
pub struct FusedKernel {
    pub name: String,
    pub geom: GeomNd,
    pub fuse_fft: bool,
    pub fuse_ifft: bool,
    pub tile: TileConfig,
    /// Shared process-wide ([`FftPlan::shared`]).
    pub fwd_plan: Arc<FftPlan>,
    pub inv_plan: Arc<FftPlan>,
    /// `x` (fused FFT) or pre-truncated modes (separate FFT).
    pub input: BufferId,
    /// Weights `[k_in, k_out]` row-major — one slice, or a
    /// `weights`-strided stack of them.
    pub w: BufferId,
    /// How `w` advances across the batch axis ([`WeightStacking::SHARED`]
    /// unless the kernel serves a coalesced mixed-weight stack).
    pub weights: WeightStacking,
    /// `y` rows (fused iFFT) or truncated modes (separate iFFT).
    pub output: BufferId,
    pub forward_layout: ForwardLayout,
    pub epilogue_swizzle: bool,
    pub l1_hit_rate: f64,
    /// Butterfly counts of the fused forward / inverse FFT stages,
    /// shared across blocks and k-iterations of a launch.
    fwd_traces: TraceCache,
    inv_traces: TraceCache,
    /// Main-loop bank phases per block-extent class, counted by the
    /// first metered block of each class.
    mainloop: MainloopBankCache,
    /// Bank phases of the epilogue's C-fragment staging stores, keyed by
    /// the block's active channel count (full n-tiles and the last one),
    /// counted by the first metered block of each.
    epilogue: [OnceLock<(usize, BankStats)>; 2],
    /// Shared addresses of the epilogue staging (see
    /// [`FusedKernel::staging_table`]).
    staging_addrs: OnceLock<Vec<u32>>,
}

impl FusedKernel {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        geom: GeomNd,
        fuse_fft: bool,
        fuse_ifft: bool,
        n_tb: usize,
        input: BufferId,
        w: BufferId,
        output: BufferId,
        l1_hit_rate: f64,
    ) -> Self {
        assert!(fuse_fft || fuse_ifft, "use BatchedCgemmKernel when nothing is fused");
        let modes = geom.m_inner;
        assert!(
            modes.is_multiple_of(FUSED_MODES_MULTIPLE),
            "fused kernels need the retained mode count ({modes}) to be a multiple of the warp M-tile"
        );
        let tile = TileConfig::for_fused(modes, n_tb);
        tile.validate();
        let n = geom.n_inner;
        let fwd_plan = FftPlan::shared(n, tfno_fft::FftDirection::Forward, n, modes);
        let inv_plan = FftPlan::shared(n, tfno_fft::FftDirection::Inverse, modes, n);
        FusedKernel {
            name: name.into(),
            geom,
            fuse_fft,
            fuse_ifft,
            tile,
            fwd_plan,
            inv_plan,
            input,
            w,
            weights: WeightStacking::SHARED,
            output,
            forward_layout: ForwardLayout::TurboContiguous,
            epilogue_swizzle: true,
            l1_hit_rate,
            fwd_traces: TraceCache::new(FUSED_FFT_BS),
            inv_traces: TraceCache::new(FUSED_FFT_BS),
            mainloop: MainloopBankCache::new(),
            epilogue: Default::default(),
            staging_addrs: OnceLock::new(),
        }
    }

    pub fn with_forward_layout(mut self, layout: ForwardLayout) -> Self {
        self.forward_layout = layout;
        self
    }

    pub fn with_epilogue_swizzle(mut self, on: bool) -> Self {
        self.epilogue_swizzle = on;
        self
    }

    /// Serve a coalesced stack: `w` holds one `[k_in, k_out]` slice per
    /// `ws.group` batch entries, `ws.stride` elements apart.
    pub fn with_weight_stacking(mut self, ws: WeightStacking) -> Self {
        self.weights = ws;
        self
    }

    /// `B` view of the weight slice an `outer` block reads, shifted to
    /// channel tile `n0`.
    fn w_view(&self, outer: usize, n0: usize) -> MatView {
        let base = self.weights.slice_base(self.geom.outer_batch(outer));
        MatView::row_major(base, self.geom.k_out).tile(0, n0)
    }

    fn n_tiles(&self) -> usize {
        self.geom.k_out.div_ceil(self.tile.n_tb)
    }

    fn grid(&self) -> usize {
        self.geom.outer_blocks() * self.n_tiles()
    }

    fn staging(&self) -> EpilogueStaging {
        EpilogueStaging {
            ms: self.tile.m_tb,
            swizzled: self.epilogue_swizzle,
        }
    }

    /// Bank phases of staging a block's C fragments, `active_n` channels,
    /// into the Fig. 8 staging region: per group of `FUSED_FFT_BS`
    /// channels, every thread stores register `(i, j)` of its tile in one
    /// warp access when its channel falls in the group. Metering only.
    fn epilogue_stores(&self, staging_base: usize, active_n: usize) -> BankStats {
        let count = || {
            let tile = self.tile;
            let staging = self.staging();
            let mut stores = BankStats::default();
            for ch0 in (0..active_n).step_by(FUSED_FFT_BS) {
                let chs = FUSED_FFT_BS.min(active_n - ch0);
                for w in 0..tile.warps() {
                    for i in 0..tile.m_t {
                        for j in 0..tile.n_t {
                            let idx = WarpIdx::from_fn(|l| {
                                let (m0, n0) = CFragments::thread_origin(&tile, w * WARP_SIZE + l);
                                let (m, n) = (m0 + i, n0 + j);
                                (n >= ch0 && n < ch0 + chs)
                                    .then(|| staging_base + staging.addr(m, n - ch0))
                            });
                            stores += warp_bank_cycles(&idx);
                        }
                    }
                }
            }
            stores
        };
        for slot in &self.epilogue {
            let (k, stores) = slot.get_or_init(|| (active_n, count()));
            if *k == active_n {
                return *stores;
            }
        }
        count()
    }

    /// The shared address of staged C element `(m, ch0 + p)` of every
    /// channel group at `p * m_tb + m`: the Fig. 8 staging map resolved
    /// once per kernel, read by the staging stores and, as the inverse
    /// FFT's input table, by its loads.
    fn staging_table(&self, staging_base: usize) -> &[u32] {
        self.staging_addrs.get_or_init(|| {
            let (ms, staging) = (self.tile.m_tb, self.staging());
            (0..FUSED_FFT_BS)
                .flat_map(|p| (0..ms).map(move |m| staging_base + staging.addr(m, p)))
                .map(|a| u32::try_from(a).expect("shared addresses fit in u32"))
                .collect()
        })
    }

    /// Shared-memory layout: [GEMM tiles][FFT ping/pong][epilogue staging].
    fn shared_layout(&self) -> (usize, usize, usize) {
        shared_layout(
            self.tile,
            self.geom.n_inner,
            self.fuse_fft,
            self.fuse_ifft,
            self.epilogue_swizzle,
        )
    }
}

/// Element offsets of a fused block's shared-memory layout — `[GEMM
/// tiles][FFT ping/pong][epilogue staging]` — as `(fft_base,
/// staging_base, total)`, for a `tile` over `n_len`-point FFTs.
pub(crate) fn shared_layout(
    tile: TileConfig,
    n_len: usize,
    fuse_fft: bool,
    fuse_ifft: bool,
    swizzled: bool,
) -> (usize, usize, usize) {
    let engine = CgemmBlockEngine { tile, k_total: 0 };
    let gemm = if fuse_fft {
        engine.shared_elems_custom_a()
    } else {
        engine.shared_elems()
    };
    let fft_base = gemm;
    let fft = if fuse_fft || fuse_ifft {
        FftBlockEngine::staging_elems(n_len, FUSED_FFT_BS)
    } else {
        0
    };
    let staging_base = fft_base + fft;
    let staging = if fuse_ifft {
        EpilogueStaging {
            ms: tile.m_tb,
            swizzled,
        }
        .elems(FUSED_FFT_BS)
    } else {
        0
    };
    (fft_base, staging_base, staging_base + staging)
}

impl Kernel for FusedKernel {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn dims(&self) -> LaunchDims {
        let (_, _, total_elems) = self.shared_layout();
        // Blend the dataflow-dependent hit rate of the bulk loads with the
        // near-perfect reuse of the weight matrix (every block re-reads the
        // same [k_in, n_tb] tiles; only the first read misses L2).
        let g = &self.geom;
        let bulk_bytes = if self.fuse_fft {
            self.grid() * FUSED_FFT_BS * g.n_inner * C32_BYTES * g.k_in.div_ceil(FUSED_FFT_BS)
        } else {
            self.grid() * g.m_inner * g.k_in * C32_BYTES
        } as f64;
        let w_bytes = (self.grid() * g.k_in * self.tile.n_tb * C32_BYTES) as f64;
        let blended = (bulk_bytes * self.l1_hit_rate + w_bytes * 0.95) / (bulk_bytes + w_bytes);
        // Fusion serializes its sync-separated FFT / MAC / epilogue phases
        // against each other far more than a homogeneous streaming kernel.
        let (serial_full, serial_single) = self.geom.serialization();
        let serial = if self.fuse_fft && self.fuse_ifft {
            serial_full
        } else {
            serial_single
        };
        LaunchDims::new(self.grid(), self.tile.threads() as u32)
            .with_shared(total_elems * C32_BYTES)
            .with_regs(self.tile.regs_per_thread() + 16)
            .with_l1_hit_rate(blended)
            .with_serialization(serial)
    }

    fn run_block(&self, block_id: usize, ctx: &mut BlockCtx<'_>) {
        let geom = &self.geom;
        let tile = self.tile;
        let (fft_base, staging_base, _) = self.shared_layout();
        let outer = block_id / self.n_tiles();
        let ntile = block_id % self.n_tiles();
        let n0 = ntile * tile.n_tb;
        let active_n = tile.n_tb.min(geom.k_out - n0);
        let ms = tile.m_tb;
        let n_len = geom.n_inner;

        let engine = CgemmBlockEngine {
            tile,
            k_total: geom.k_in,
        };

        // ---- main loop with either a fused-FFT A provider or global A ----
        let b = BOperand {
            buf: self.w,
            view: self.w_view(outer, n0),
        };
        let frags = if self.fuse_fft {
            let fwd_plan = &self.fwd_plan;
            let order = match self.forward_layout {
                ForwardLayout::TurboContiguous => InstanceOrder::IdxFastest,
                ForwardLayout::VkFftStrided => InstanceOrder::PencilFastest,
            };
            let input = self.input;
            let k_in = geom.k_in;
            let fwd_traces = &self.fwd_traces;
            let mut provider_fn = |ctx: &mut BlockCtx<'_>, k0: usize, as_buf: usize| {
                let active_p = FUSED_FFT_BS.min(k_in - k0);
                let fft = FftBlockEngine {
                    plan: fwd_plan,
                    active_pencils: active_p,
                    bs_layout: FUSED_FFT_BS,
                    ping_base: fft_base,
                    pong_base: fft_base + n_len * FUSED_FFT_BS,
                    reg_group_bits: reg_bits_for(n_len),
                };
                let in_bases: [usize; FUSED_FFT_BS] =
                    std::array::from_fn(|p| geom.x_addr(outer, k0 + p, 0));
                let as_bases: [usize; FUSED_FFT_BS] = std::array::from_fn(|p| as_buf + p * ms);
                let io = FftIo::new(
                    PencilTarget::Global {
                        buf: input,
                        bases: &in_bases[..active_p],
                        stride: 1,
                    },
                    PencilTarget::Shared {
                        bases: &as_bases[..active_p],
                        stride: 1,
                    },
                )
                .with_output_order(order);
                fft.run_traced(ctx, &io, fwd_traces.get(&fft));
                ctx.syncthreads();
            };
            let mut a = AProvider::Custom(&mut provider_fn);
            engine.run_mainloop(ctx, &mut a, &b, ms, active_n, &self.mainloop)
        } else {
            let mut a = AProvider::Global {
                buf: self.input,
                view: geom.a_view(outer),
            };
            engine.run_mainloop(ctx, &mut a, &b, ms, active_n, &self.mainloop)
        };

        // ---- epilogue ----
        if self.fuse_ifft {
            let table = self.staging_table(staging_base);
            if ctx.is_metered() {
                let stores = self.epilogue_stores(staging_base, active_n);
                ctx.charge_shared(BankStats::default(), stores);
            }
            for ch0 in (0..active_n).step_by(FUSED_FFT_BS) {
                let chs = FUSED_FFT_BS.min(active_n - ch0);

                // Stage the group's C columns into shared memory with the
                // Fig. 8 access pattern.
                let sh = ctx.shared_mut();
                for p in 0..chs {
                    for (&a, &v) in table[p * ms..][..ms].iter().zip(frags.col(ch0 + p)) {
                        sh[a as usize] = v;
                    }
                }
                ctx.syncthreads();

                // Inverse FFT of the staged channels, writing spatial rows.
                let ifft = FftBlockEngine {
                    plan: &self.inv_plan,
                    active_pencils: chs,
                    bs_layout: FUSED_FFT_BS,
                    ping_base: fft_base,
                    pong_base: fft_base + n_len * FUSED_FFT_BS,
                    reg_group_bits: reg_bits_for(n_len),
                };
                let y_bases: [usize; FUSED_FFT_BS] =
                    std::array::from_fn(|p| geom.y_addr(outer, n0 + ch0 + p, 0));
                let io = FftIo::new(
                    PencilTarget::SharedTable { table, row: ms },
                    PencilTarget::Global {
                        buf: self.output,
                        bases: &y_bases[..chs],
                        stride: 1,
                    },
                )
                .with_input_order(InstanceOrder::IdxFastest);
                ifft.run_traced(ctx, &io, self.inv_traces.get(&ifft));
                ctx.syncthreads();
            }
        } else {
            let c_view = geom.c_view(outer, n0);
            tfno_cgemm::store_c_global(
                ctx,
                &frags,
                self.output,
                &c_view,
                ms,
                active_n,
                C32::ONE,
                C32::ZERO,
            );
        }
    }

    fn access(&self) -> Option<KernelAccess> {
        let geom = &self.geom;
        let ms = self.tile.m_tb;
        // Pencils are contiguous along the fused (innermost) axis.
        let mut acc = KernelAccess::new();
        for block_id in 0..self.grid() {
            let outer = block_id / self.n_tiles();
            let ntile = block_id % self.n_tiles();
            let n0 = ntile * self.tile.n_tb;
            let active_n = self.tile.n_tb.min(geom.k_out - n0);
            if self.fuse_fft {
                let len = self.fwd_plan.n_in_valid;
                for k in 0..geom.k_in {
                    let base = geom.x_addr(outer, k, 0);
                    acc.read(AccessSpan::contiguous(self.input, base, len));
                }
            } else {
                for s in view_spans(self.input, &geom.a_view(outer), ms, geom.k_in) {
                    acc.read(s);
                }
            }
            for s in view_spans(self.w, &self.w_view(outer, n0), geom.k_in, active_n) {
                acc.read(s);
            }
            if self.fuse_ifft {
                let len = self.inv_plan.n_out_keep;
                for ch in 0..active_n {
                    let base = geom.y_addr(outer, n0 + ch, 0);
                    acc.write(block_id, AccessSpan::contiguous(self.output, base, len));
                }
            } else {
                for s in view_spans(self.output, &geom.c_view(outer, n0), ms, active_n) {
                    acc.write(block_id, s);
                }
            }
        }
        Some(acc)
    }

    fn fingerprint(&self) -> Option<u64> {
        Some(structural_fingerprint("fused.kernel", |h| {
            self.geom.fingerprint().hash(h);
            self.fuse_fft.hash(h);
            self.fuse_ifft.hash(h);
            self.tile.hash(h);
            for plan in [&self.fwd_plan, &self.inv_plan] {
                plan.n.hash(h);
                plan.n_in_valid.hash(h);
                plan.n_out_keep.hash(h);
            }
            self.forward_layout.hash(h);
            self.epilogue_swizzle.hash(h);
            self.weights.hash(h);
            self.l1_hit_rate.to_bits().hash(h);
        }))
    }

    fn block_classes(&self) -> Vec<(usize, u64)> {
        let nt = self.n_tiles();
        let ntile_classes: Vec<(usize, u64)> =
            if self.geom.k_out.is_multiple_of(self.tile.n_tb) || nt == 1 {
                vec![(0, nt as u64)]
            } else {
                vec![(0, nt as u64 - 1), (nt - 1, 1)]
            };
        // Stacked weight slices whose stride is not sector-aligned give
        // each outer its own weight-base phase; fall back to enumerating
        // outers rather than reusing one representative's sector counts.
        let outer_classes = if !self.weights.is_shared() && !self.weights.stride.is_multiple_of(4) {
            (0..self.geom.outer_blocks()).map(|o| (o, 1)).collect()
        } else {
            self.geom.outer_classes()
        };
        let mut classes = Vec::new();
        for (outer_rep, outer_count) in outer_classes {
            for &(nt_rep, nt_count) in &ntile_classes {
                classes.push((outer_rep * nt + nt_rep, outer_count * nt_count));
            }
        }
        classes
    }
}
