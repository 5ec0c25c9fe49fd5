//! Pipeline variants of the paper's evaluation (Table 2) and their
//! executors.
//!
//! | Variant | Fusion | 1D kernels | 2D kernels | 3D kernels |
//! |---|---|---|---|---|
//! | `Pytorch`       | none (cuFFT/cuBLAS + copies) | 5 | 7 | 9 |
//! | `FftOpt` (A)    | none, but truncation/padding/pruning built into the FFT | 3 | 5 | 7 |
//! | `FusedFftGemm` (B) | FFT fused into the CGEMM k-loop | 2 | 4 | 6 |
//! | `FusedGemmIfft` (C) | iFFT fused as CGEMM epilogue | 2 | 4 | 6 |
//! | `FullyFused` (D) | both | 1 | 3 | 5 |
//! | `TurboBest` (E) | best of A–D per problem size | — | — | — |
//!
//! At every rank the stages along strided outer axes (forward first,
//! inverse last) stay standalone kernels in every Turbo variant — only the
//! stage along the contiguous innermost axis participates in fusion,
//! exactly as in the paper (§5.2: the first FFT's overhead is what masks
//! 2D fusion gains). The executor here is **rank-generic**: one body walks
//! the outer axes of a [`SpectralShape`] and hands the innermost axis to
//! the fused middle, so 1D, 2D and 3D layers all run through the same
//! code path (the pre-refactor `try_run_{1d,2d}` twins are gone).
//!
//! The public execution surface is [`crate::Session`]: it owns the device,
//! the memoizing [`crate::Planner`] and a scratch [`crate::BufferPool`],
//! and dispatches [`crate::LayerSpec`]s through the executors here.

use crate::backend::{
    Backend, BufferId, DeviceConfig, ExecMode, Kernel, LaunchError, LaunchRecord,
};
use crate::fused::{fused_supported, FusedKernel, GeomNd};
use crate::planner::TURBO_CANDIDATES;
use crate::pool::BufferPool;
use crate::swizzle::ForwardLayout;
use tfno_cgemm::{
    BatchedCgemmKernel, BatchedOperand, GemmShape, MatView, TileConfig, WeightStacking,
};
use tfno_culib::{try_run_pytorch_stacked, CuBlas, PipelineRun, SpectralShape, CUFFT_L1_HIT};
use tfno_fft::{
    BatchedFftKernel, FftBlockConfig, FftDirection, FftKernelConfig, FftPlan, RowPencils,
    StridedPencils,
};
use tfno_num::{C32, C32_BYTES};

/// L1/L2 hit rate of the hidden-dim-ordered Turbo FFT: the k-loop-aligned
/// dataflow gives up the spatial locality the baseline FFT enjoys (paper
/// §5.1 A.1 — the reason the A-variant speedup settles near 50% at large K
/// instead of staying at 100%).
pub const TURBO_FFT_L1_HIT: f64 = 0.10;

/// The evaluated pipeline variants.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Variant {
    Pytorch,
    FftOpt,
    FusedFftGemm,
    FusedGemmIfft,
    FullyFused,
    TurboBest,
}

impl Variant {
    /// All concrete variants (E excluded — it delegates).
    pub const CONCRETE: [Variant; 5] = [
        Variant::Pytorch,
        Variant::FftOpt,
        Variant::FusedFftGemm,
        Variant::FusedGemmIfft,
        Variant::FullyFused,
    ];

    /// The variants built around a [`FusedKernel`] (B, C and D).
    pub fn is_fused(self) -> bool {
        matches!(
            self,
            Variant::FusedFftGemm | Variant::FusedGemmIfft | Variant::FullyFused
        )
    }

    /// The paper's label for figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            Variant::Pytorch => "PyTorch",
            Variant::FftOpt => "FFT+GEMM+iFFT",
            Variant::FusedFftGemm => "Fused_FFT_GEMM+iFFT",
            Variant::FusedGemmIfft => "FFT+Fused_GEMM_iFFT",
            Variant::FullyFused => "Fused_FFT_GEMM_iFFT",
            Variant::TurboBest => "TurboFNO",
        }
    }
}

/// Tuning/ablation knobs of the Turbo variants.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TurboOptions {
    pub forward_layout: ForwardLayout,
    pub epilogue_swizzle: bool,
    /// L1 hit rate of the hidden-dim-ordered FFT stages.
    pub fft_l1_hit: f64,
}

impl Default for TurboOptions {
    fn default() -> Self {
        TurboOptions {
            forward_layout: ForwardLayout::TurboContiguous,
            epilogue_swizzle: true,
            fft_l1_hit: TURBO_FFT_L1_HIT,
        }
    }
}

/// GEMM tile width along the output-channel axis used by the fused
/// kernels. The paper runs the fused configurations with `N_tb = 128`
/// (§5.1 A.3): covering the whole hidden output dimension in one tile
/// avoids re-running the forward FFT per n-tile. Beyond 128 channels the
/// tile caps out and the recompute cost appears — the mechanism behind the
/// paper's observation that "for large hidden dimensions (K >= 128),
/// fusion may even degrade performance".
fn fused_n_tb(k_out: usize) -> usize {
    (k_out.div_ceil(16) * 16).clamp(16, 128)
}

/// Shared memory per block each kernel of a concrete Turbo or baseline
/// `variant` requests for `s`, labelled, from the arithmetic the kernels'
/// `LaunchDims` use. Copy kernels request none and are left out.
fn stage_shared_bytes(
    s: &SpectralShape,
    variant: Variant,
    opts: &TurboOptions,
) -> Vec<(String, usize)> {
    let r = s.rank;
    let fft = |a: usize| {
        let n = s.dims[a];
        let cfg = FftKernelConfig::new(FftBlockConfig::for_len(n));
        (format!("{n}-point FFT"), cfg.shared_bytes())
    };
    let gemm = || {
        let shape = GemmShape {
            batch: s.batch,
            m: s.modes_total(),
            n: s.k_out,
            k: s.k_in,
        };
        (
            "CGEMM".to_string(),
            CuBlas::select_tile(&shape).shared_bytes(),
        )
    };
    let fused = |fuse_fft: bool, fuse_ifft: bool| {
        let tile = TileConfig::for_fused(s.modes[r - 1], fused_n_tb(s.k_out));
        let (_, _, elems) = crate::fused::shared_layout(
            tile,
            s.dims[r - 1],
            fuse_fft,
            fuse_ifft,
            opts.epilogue_swizzle,
        );
        ("fused kernel".to_string(), elems * C32_BYTES)
    };
    // Every variant transforms the outer axes with standalone FFTs.
    let mut stages: Vec<(String, usize)> = (0..r - 1).map(fft).collect();
    match variant {
        Variant::Pytorch | Variant::FftOpt => stages.extend([fft(r - 1), gemm()]),
        Variant::FusedFftGemm => stages.extend([fused(true, false), fft(r - 1)]),
        Variant::FusedGemmIfft => stages.extend([fft(r - 1), fused(false, true)]),
        Variant::FullyFused => stages.push(fused(true, true)),
        Variant::TurboBest => unreachable!("TurboBest is resolved to a concrete variant first"),
    }
    stages
}

/// Why `variant` cannot run `s` on a device with `cfg`, or `None` when
/// every kernel it launches can be built: a fused kernel's M-tile must
/// fill whole warp tiles ([`fused_supported`]), and no kernel may request
/// more shared memory per block than the device allows. `TurboBest` fits
/// when any of its candidates does.
pub(crate) fn unfit_reason(
    cfg: &DeviceConfig,
    s: &SpectralShape,
    variant: Variant,
    opts: &TurboOptions,
) -> Option<String> {
    if variant == Variant::TurboBest {
        let reasons = TURBO_CANDIDATES
            .iter()
            .map(|&v| unfit_reason(cfg, s, v, opts))
            .collect::<Option<Vec<String>>>()?;
        return Some(format!("no Turbo variant fits ({})", reasons.join("; ")));
    }
    if variant.is_fused() && !fused_supported(s) {
        return Some(format!(
            "{variant:?} needs the innermost retained modes ({}) to be a multiple of {}; \
             use FftOpt or TurboBest for this shape",
            s.modes[s.rank - 1],
            crate::fused::FUSED_MODES_MULTIPLE
        ));
    }
    let max = cfg.shared_mem_per_block_max;
    let (what, bytes) = stage_shared_bytes(s, variant, opts)
        .into_iter()
        .max_by_key(|&(_, bytes)| bytes)?;
    (bytes > max).then(|| {
        format!(
            "{variant:?}'s {what} requests {bytes} B of shared memory per block, \
             more than the device's {max} B"
        )
    })
}

/// Per-rank kernel naming so traces and stats keep the
/// established `turbo.*` vocabulary (1D/2D names are byte-identical to the
/// pre-refactor twin pipelines).
struct StageNames {
    /// Forward outer-axis stages, outermost axis first (empty for rank 1).
    fwd_outer: &'static [&'static str],
    /// Inverse outer-axis stages, indexed by axis (applied in reverse).
    inv_outer: &'static [&'static str],
    fwd_inner: &'static str,
    inv_inner: &'static str,
    gemm: &'static str,
    fused_fft_gemm: &'static str,
    fused_gemm_ifft: &'static str,
    fused_all: &'static str,
}

static STAGE_NAMES: [StageNames; tfno_culib::MAX_RANK] = [
    StageNames {
        fwd_outer: &[],
        inv_outer: &[],
        fwd_inner: "turbo.fft",
        inv_inner: "turbo.ifft",
        gemm: "turbo.cgemm",
        fused_fft_gemm: "turbo.fused_fft_gemm",
        fused_gemm_ifft: "turbo.fused_gemm_ifft",
        fused_all: "turbo.fused_fft_gemm_ifft",
    },
    StageNames {
        fwd_outer: &["turbo.fft_x"],
        inv_outer: &["turbo.ifft_x"],
        fwd_inner: "turbo.fft_y",
        inv_inner: "turbo.ifft_y",
        gemm: "turbo.cgemm2d",
        fused_fft_gemm: "turbo.fused2d_fft_gemm",
        fused_gemm_ifft: "turbo.fused2d_gemm_ifft",
        fused_all: "turbo.fused2d_fft_gemm_ifft",
    },
    StageNames {
        fwd_outer: &["turbo.fft3_x", "turbo.fft3_y"],
        inv_outer: &["turbo.ifft3_x", "turbo.ifft3_y"],
        fwd_inner: "turbo.fft3_z",
        inv_inner: "turbo.ifft3_z",
        gemm: "turbo.cgemm3d",
        fused_fft_gemm: "turbo.fused3d_fft_gemm",
        fused_gemm_ifft: "turbo.fused3d_gemm_ifft",
        fused_all: "turbo.fused3d_fft_gemm_ifft",
    },
];

fn stage_names(rank: usize) -> &'static StageNames {
    &STAGE_NAMES[rank - 1]
}

/// The three tensor operands of one Fourier-layer execution, plus the
/// weight-stacking layout of `w` (shared single matrix unless the run is
/// a coalesced mixed-weight stack).
#[derive(Clone, Copy, Debug)]
pub(crate) struct LayerBufs {
    pub x: BufferId,
    pub w: BufferId,
    pub y: BufferId,
    pub ws: WeightStacking,
}

impl LayerBufs {
    /// The classic layout: one weight matrix for the whole batch.
    pub fn shared(x: BufferId, w: BufferId, y: BufferId) -> Self {
        LayerBufs {
            x,
            w,
            y,
            ws: WeightStacking::SHARED,
        }
    }
}

/// Everything a pipeline execution needs from its surrounding
/// [`Session`](crate::Session): the backend, the scratch pool, and the
/// planner consulted for `TurboBest` requests. Every executing `Session`
/// call builds one over its own state (see `session.rs`).
pub(crate) struct ExecCtx<'a> {
    pub dev: &'a mut dyn Backend,
    pub pool: &'a mut BufferPool,
    pub planner: &'a crate::Planner,
    /// Static launch-plan verifier (`verify.rs`). When present, every
    /// launch routed through `try_step` is proven
    /// hazard-free before it issues, and lease traffic is balanced; `None`
    /// when verification is disabled (see `verify::verifier_enabled`) and
    /// on planner cost probes, which re-run proven plans analytically.
    pub verify: Option<crate::verify::PlanVerifier>,
}

// -------------------------------------------------- stage builders ----

/// Forward FFT with built-in truncation along strided outer axis `axis`
/// (all Turbo variants, ranks >= 2). Pencils are adjacent along the inner
/// axes, so the reads coalesce across pencils — the baseline-quality
/// spatial dataflow, hence the cuFFT-grade L1 hit rate.
fn turbo_fft_outer(
    s: &SpectralShape,
    axis: usize,
    src: BufferId,
    dst: BufferId,
) -> BatchedFftKernel<StridedPencils> {
    let slabs = s.batch * s.k_in * s.modes[..axis].iter().product::<usize>();
    let inner: usize = s.dims[axis + 1..s.rank].iter().product();
    let cfg =
        FftKernelConfig::new(FftBlockConfig::for_len(s.dims[axis])).with_l1_hit_rate(CUFFT_L1_HIT);
    let plan = FftPlan::shared(s.dims[axis], FftDirection::Forward, s.dims[axis], s.modes[axis]);
    let addr = StridedPencils::along_axis(slabs, s.dims[axis], s.modes[axis], inner);
    BatchedFftKernel::new(stage_names(s.rank).fwd_outer[axis], cfg, plan, addr, src, dst)
}

/// Inverse FFT with built-in zero padding along strided outer axis `axis`.
fn turbo_ifft_outer(
    s: &SpectralShape,
    axis: usize,
    src: BufferId,
    dst: BufferId,
) -> BatchedFftKernel<StridedPencils> {
    let slabs = s.batch * s.k_out * s.modes[..axis].iter().product::<usize>();
    let inner: usize = s.dims[axis + 1..s.rank].iter().product();
    let cfg =
        FftKernelConfig::new(FftBlockConfig::for_len(s.dims[axis])).with_l1_hit_rate(CUFFT_L1_HIT);
    let plan = FftPlan::shared(s.dims[axis], FftDirection::Inverse, s.modes[axis], s.dims[axis]);
    let addr = StridedPencils::along_axis(slabs, s.modes[axis], s.dims[axis], inner);
    BatchedFftKernel::new(stage_names(s.rank).inv_outer[axis], cfg, plan, addr, src, dst)
}

/// Standalone truncated FFT along the contiguous innermost axis (variants
/// A and C). Hidden-dim-ordered (the fusable stage), hence the lower L1
/// hit rate and the k-blocked launch shape.
fn turbo_fft_inner(
    s: &SpectralShape,
    src: BufferId,
    dst: BufferId,
    opts: &TurboOptions,
) -> BatchedFftKernel<RowPencils> {
    let (n, m) = (s.dims[s.rank - 1], s.modes[s.rank - 1]);
    let cfg = FftKernelConfig::new(FftBlockConfig::for_len(n))
        .with_l1_hit_rate(opts.fft_l1_hit)
        .with_k_iters(s.k_in.div_ceil(8));
    let plan = FftPlan::shared(n, FftDirection::Forward, n, m);
    let addr = RowPencils {
        count: s.batch * s.k_in * s.outer_modes(),
        in_row_len: n,
        out_row_len: m,
    };
    BatchedFftKernel::new(stage_names(s.rank).fwd_inner, cfg, plan, addr, src, dst)
}

/// Standalone zero-padded inverse FFT along the innermost axis (variants
/// A and B).
fn turbo_ifft_inner(
    s: &SpectralShape,
    src: BufferId,
    dst: BufferId,
    opts: &TurboOptions,
) -> BatchedFftKernel<RowPencils> {
    let (n, m) = (s.dims[s.rank - 1], s.modes[s.rank - 1]);
    let cfg = FftKernelConfig::new(FftBlockConfig::for_len(n))
        .with_l1_hit_rate(opts.fft_l1_hit)
        .with_k_iters(s.k_out.div_ceil(8));
    let plan = FftPlan::shared(n, FftDirection::Inverse, m, n);
    let addr = RowPencils {
        count: s.batch * s.k_out * s.outer_modes(),
        in_row_len: m,
        out_row_len: n,
    };
    BatchedFftKernel::new(stage_names(s.rank).inv_inner, cfg, plan, addr, src, dst)
}

/// Standalone CGEMM over the retained modes of every axis (variant A).
fn turbo_gemm(
    s: &SpectralShape,
    xf_t: BufferId,
    w: BufferId,
    ws: WeightStacking,
    yf_t: BufferId,
) -> BatchedCgemmKernel {
    let m = s.modes_total();
    CuBlas::kernel(
        stage_names(s.rank).gemm,
        GemmShape {
            batch: s.batch,
            m,
            n: s.k_out,
            k: s.k_in,
        },
        BatchedOperand::strided(
            xf_t,
            MatView {
                base: 0,
                row_stride: 1,
                col_stride: m,
            },
            s.k_in * m,
        ),
        BatchedOperand::stacked(w, MatView::row_major(0, s.k_out), ws),
        BatchedOperand::strided(
            yf_t,
            MatView {
                base: 0,
                row_stride: 1,
                col_stride: m,
            },
            s.k_out * m,
        ),
        C32::ONE,
        C32::ZERO,
    )
}

impl ExecCtx<'_> {
    /// Lease pipeline scratch matching the virtualness of the layer input.
    /// A faulted lease leaves the pool untouched and nothing to release.
    fn try_scratch(
        &mut self,
        like: BufferId,
        len: usize,
        leases: &mut Vec<BufferId>,
    ) -> Result<BufferId, LaunchError> {
        let id = self.pool.try_acquire_like(self.dev, like, len)?;
        if let Some(v) = &mut self.verify {
            v.acquire(id);
        }
        leases.push(id);
        Ok(id)
    }

    /// Lease a real staging buffer (serving-queue gather/scatter scratch),
    /// keeping the verifier's lease ledger in step with the pool's.
    pub(crate) fn try_stage(
        &mut self,
        len: usize,
        leases: &mut Vec<BufferId>,
    ) -> Result<BufferId, LaunchError> {
        let id = self.pool.try_acquire(self.dev, len)?;
        if let Some(v) = &mut self.verify {
            v.acquire(id);
        }
        leases.push(id);
        Ok(id)
    }

    pub(crate) fn release(&mut self, leases: Vec<BufferId>) {
        for id in leases {
            self.pool.release(self.dev, id);
            if let Some(v) = &mut self.verify {
                // The pool's own panics fire first on a bad release, so
                // the ledgers cannot disagree here.
                let balanced = v.release(id);
                debug_assert!(balanced.is_ok(), "verifier and pool lease ledgers diverged");
            }
        }
    }

    /// Prove a launch hazard-free before it issues (no-op when the
    /// verifier is off). A rejection surfaces as
    /// [`LaunchError::PlanRejected`], which the session's error layer maps
    /// to non-retryable `TfnoError::Validation`.
    fn check_plan(&mut self, kernel: &dyn Kernel) -> Result<(), LaunchError> {
        let Some(v) = &mut self.verify else {
            return Ok(());
        };
        v.check_launch(self.dev, kernel)
            .map_err(|hazard| LaunchError::PlanRejected {
                kernel: kernel.name(),
                reason: hazard.to_string(),
            })
    }

    /// End-of-sequence verifier check: every lease this sequence took must
    /// have been released.
    pub(crate) fn verify_finish(&mut self) -> Result<(), crate::error::TfnoError> {
        if let Some(v) = &mut self.verify {
            v.finish()?;
        }
        Ok(())
    }

    /// Check a kernel against the plan verifier, then launch it.
    pub(crate) fn try_step(
        &mut self,
        kernel: impl Kernel,
        mode: ExecMode,
    ) -> Result<LaunchRecord, LaunchError> {
        self.check_plan(&kernel)?;
        self.dev.try_launch(&kernel, mode)
    }

    /// Run one variant of the rank-`s.rank` Fourier layer.
    ///
    /// * `x`: `[batch, k_in, dims...]`, `w`: `[k_in, k_out]`,
    ///   `y`: `[batch, k_out, dims...]`
    ///
    /// A faulted launch aborts the remaining stages and returns the fault;
    /// leases are always released, and completed stages only wrote scratch
    /// or `y` — both fully overwritten on a retry — so re-running the layer
    /// whole is always sound.
    pub(crate) fn try_run_spectral(
        &mut self,
        s: &SpectralShape,
        variant: Variant,
        b: LayerBufs,
        opts: &TurboOptions,
        mode: ExecMode,
    ) -> Result<PipelineRun, LaunchError> {
        match variant {
            // The baseline allocates its copy temporaries per call on
            // purpose: that churn is part of the library stack it emulates
            // (only Turbo scratch goes through the pool).
            Variant::Pytorch => {
                return try_run_pytorch_stacked(self.dev, s, b.x, b.w, b.ws, b.y, mode);
            }
            Variant::TurboBest => {
                // Admission rejects a shape no candidate fits before any
                // call gets here; the planner still reports it typed.
                let best = self
                    .planner
                    .try_plan_shape(self.dev.config(), s, opts)
                    .map_err(|e| LaunchError::PlanRejected {
                        kernel: "TurboBest".to_string(),
                        reason: e.to_string(),
                    })?;
                return self.try_run_spectral(s, best, b, opts, mode);
            }
            _ => {}
        }
        let mut leases = Vec::new();
        let out = self.turbo_spectral(s, variant, b, opts, mode, &mut leases);
        self.release(leases);
        out
    }

    /// Turbo-variant body of [`ExecCtx::try_run_spectral`]; `leases` is
    /// owned by the caller so scratch is returned on every exit path.
    ///
    /// Stage plan (rank r): forward outer FFTs along axes `0..r-1`
    /// (outermost first, each truncating its axis to the retained modes),
    /// then the fusable innermost middle (FFT/CGEMM/iFFT in the
    /// variant-chosen fusion), then inverse outer FFTs along axes
    /// `r-2..=0` (each zero-padding its axis back to full extent).
    fn turbo_spectral(
        &mut self,
        s: &SpectralShape,
        variant: Variant,
        b: LayerBufs,
        opts: &TurboOptions,
        mode: ExecMode,
        leases: &mut Vec<BufferId>,
    ) -> Result<PipelineRun, LaunchError> {
        let mut run = PipelineRun::default();
        let geom = GeomNd::from_shape(s);
        let names = stage_names(s.rank);
        let LayerBufs { x, w, y, ws } = b;
        let r = s.rank;

        // Outer-axis scratch. `fwd[a]` holds the forward chain after axis
        // `a` is truncated (axes `..=a` at modes, axes `a+1..` full);
        // `inv[a]` is its k_out-sized mirror on the inverse chain.
        let mut fwd = Vec::new();
        let mut inv = Vec::new();
        for a in 0..r - 1 {
            let len = s.batch
                * s.k_in
                * s.modes[..=a].iter().product::<usize>()
                * s.dims[a + 1..r].iter().product::<usize>();
            fwd.push(self.try_scratch(x, len, leases)?);
        }
        for a in 0..r - 1 {
            let len = s.batch
                * s.k_out
                * s.modes[..=a].iter().product::<usize>()
                * s.dims[a + 1..r].iter().product::<usize>();
            inv.push(self.try_scratch(x, len, leases)?);
        }

        // Forward outer stages, outermost axis first.
        for a in 0..r - 1 {
            let src = if a == 0 { x } else { fwd[a - 1] };
            run.push(self.try_step(turbo_fft_outer(s, a, src, fwd[a]), mode)?);
        }

        // The fusable middle along the innermost, contiguous axis.
        let mid_in = if r == 1 { x } else { fwd[r - 2] };
        let mid_out = if r == 1 { y } else { inv[r - 2] };
        match variant {
            Variant::FftOpt => {
                let xf_t = self.try_scratch(x, s.batch * s.k_in * s.modes_total(), leases)?;
                let yf_t = self.try_scratch(x, s.batch * s.k_out * s.modes_total(), leases)?;
                run.push(self.try_step(turbo_fft_inner(s, mid_in, xf_t, opts), mode)?);
                run.push(self.try_step(turbo_gemm(s, xf_t, w, ws, yf_t), mode)?);
                run.push(self.try_step(turbo_ifft_inner(s, yf_t, mid_out, opts), mode)?);
            }
            Variant::FusedFftGemm => {
                let yf_t = self.try_scratch(x, s.batch * s.k_out * s.modes_total(), leases)?;
                let k = FusedKernel::new(
                    names.fused_fft_gemm,
                    geom,
                    true,
                    false,
                    fused_n_tb(s.k_out),
                    mid_in,
                    w,
                    yf_t,
                    opts.fft_l1_hit,
                )
                .with_forward_layout(opts.forward_layout)
                .with_epilogue_swizzle(opts.epilogue_swizzle)
                .with_weight_stacking(ws);
                run.push(self.try_step(k, mode)?);
                run.push(self.try_step(turbo_ifft_inner(s, yf_t, mid_out, opts), mode)?);
            }
            Variant::FusedGemmIfft => {
                let xf_t = self.try_scratch(x, s.batch * s.k_in * s.modes_total(), leases)?;
                run.push(self.try_step(turbo_fft_inner(s, mid_in, xf_t, opts), mode)?);
                let k = FusedKernel::new(
                    names.fused_gemm_ifft,
                    geom,
                    false,
                    true,
                    fused_n_tb(s.k_out),
                    xf_t,
                    w,
                    mid_out,
                    opts.fft_l1_hit,
                )
                .with_forward_layout(opts.forward_layout)
                .with_epilogue_swizzle(opts.epilogue_swizzle)
                .with_weight_stacking(ws);
                run.push(self.try_step(k, mode)?);
            }
            Variant::FullyFused => {
                let k = FusedKernel::new(
                    names.fused_all,
                    geom,
                    true,
                    true,
                    fused_n_tb(s.k_out),
                    mid_in,
                    w,
                    mid_out,
                    opts.fft_l1_hit,
                )
                .with_forward_layout(opts.forward_layout)
                .with_epilogue_swizzle(opts.epilogue_swizzle)
                .with_weight_stacking(ws);
                run.push(self.try_step(k, mode)?);
            }
            Variant::Pytorch | Variant::TurboBest => unreachable!("handled by try_run_spectral"),
        }

        // Inverse outer stages, innermost remaining axis first.
        for a in (0..r - 1).rev() {
            let dst = if a == 0 { y } else { inv[a - 1] };
            run.push(self.try_step(turbo_ifft_outer(s, a, inv[a], dst), mode)?);
        }
        Ok(run)
    }
}
