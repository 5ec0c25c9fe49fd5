//! The CGEMM block engine: main loop of Fig. 9 (left), reusable by the
//! fused kernels.
//!
//! One call to [`CgemmBlockEngine::run_mainloop`] executes a thread block's
//! whole `k`-loop: stage the `A`/`B` tiles into double-buffered shared
//! memory, then per `k_tb`-chunk run the warp/thread-tiled multiply-
//! accumulate with fragments read straight from the block's shared slice.
//! The `A` tile can come from global memory (standalone GEMM) or from a
//! custom provider — the hook the fused FFT→CGEMM kernel uses to write FFT
//! output straight into `As` (paper §4.1).
//!
//! The loop's shared-memory traffic (staging stores, fragment loads) and
//! flops depend only on the block shape, so a [`MainloopTrace`] counts
//! them once per shape and a metered block charges the counts; global
//! staging loads are charged per warp from the lane addresses.
//!
//! The accumulators are returned as [`CFragments`] so the caller chooses an
//! epilogue: [`store_c_global`] (standalone, `alpha/beta` supported) or the
//! fused CGEMM→iFFT epilogue in the `turbofno` crate (paper §4.2).

use crate::tile::TileConfig;
use crate::view::MatView;
use std::sync::{Arc, OnceLock};
use tfno_gpu_sim::{
    warp_bank_cycles, warp_bank_cycles_wide, BankStats, BlockCtx, BufferId, WarpIdx, WARP_SIZE,
};
use tfno_num::C32;

/// Where the `A` tile of each `k`-chunk comes from.
pub enum AProvider<'a> {
    /// Load from a global buffer; `view.at(m_local, k_global)`.
    Global { buf: BufferId, view: MatView },
    /// Custom filler: called as `(ctx, k0, as_base)` and must store the
    /// `m_tb x k_tb` chunk (column-major, `as_base + kt * m_tb + m`) into
    /// shared memory itself, charging its own traffic. Used by the fused
    /// FFT→CGEMM kernel.
    Custom(&'a mut (dyn FnMut(&mut BlockCtx<'_>, usize, usize) + Send)),
}

/// `B` operand (always global in this pipeline; `view.at(k_global, n_local)`).
/// Callers resolve any batch/weight-slice addressing before the main loop:
/// the view already points at the slice this block reads (for stacked
/// weights, `WeightStacking::slice_base` of the block's batch entry).
pub struct BOperand {
    pub buf: BufferId,
    pub view: MatView,
}

/// Per-thread register accumulators of one block.
pub struct CFragments {
    pub tile: TileConfig,
    /// `acc[tid * m_t * n_t + i * n_t + j]`
    pub acc: Vec<C32>,
}

impl CFragments {
    pub fn get(&self, tid: usize, i: usize, j: usize) -> C32 {
        self.acc[tid * self.tile.m_t * self.tile.n_t + i * self.tile.n_t + j]
    }

    /// The accumulator of tile-local element `(m, n)`, whichever thread
    /// holds it (the inverse of [`CFragments::thread_origin`]).
    pub fn at(&self, m: usize, n: usize) -> C32 {
        let t = &self.tile;
        let warp = (n / t.n_w) * (t.m_tb / t.m_w) + m / t.m_w;
        let lane = ((n % t.n_w) / t.n_t) * t.lanes_m() + (m % t.m_w) / t.m_t;
        self.get(warp * WARP_SIZE + lane, m % t.m_t, n % t.n_t)
    }

    /// Tile-local `(m, n)` origin of a thread's register tile.
    pub fn thread_origin(tile: &TileConfig, tid: usize) -> (usize, usize) {
        let warp = tid / WARP_SIZE;
        let lane = tid % WARP_SIZE;
        let warps_m = tile.m_tb / tile.m_w;
        let wm = warp % warps_m;
        let wn = warp / warps_m;
        let tm = lane % tile.lanes_m();
        let tn = lane / tile.lanes_m();
        (
            wm * tile.m_w + tm * tile.m_t,
            wn * tile.n_w + tn * tile.n_t,
        )
    }
}

/// The block-level GEMM main loop.
pub struct CgemmBlockEngine {
    pub tile: TileConfig,
    pub k_total: usize,
}

/// One thread's share of the MACs: its accumulator base, register-tile
/// origin, and how many of its `m_t x n_t` elements lie inside the
/// block's active extent (the edge predicates are prefixes).
#[derive(Clone, Copy)]
struct ThreadMac {
    acc_base: usize,
    m0: usize,
    n0: usize,
    ni: usize,
    nj: usize,
}

/// What one block shape of the main loop charges, plus its staging
/// layout.
///
/// Every block of a launch executes the same loop over different data:
/// the shared-memory bank phases of the staging stores and of the
/// fragment loads (summed over every `(warp, kt)` step of every chunk),
/// and the MAC count per `kt` step, depend only on the tile config,
/// `k_total`, the `A` source and the block's `(active_m, active_n)`.
/// The trace counts them once, from the lane patterns the real kernel
/// issues; the MACs themselves read their fragments straight from the
/// shared slice at every block.
pub struct MainloopTrace {
    active_m: usize,
    active_n: usize,
    as_base: usize,
    /// Elements between the two `As` buffers (0 when single-buffered).
    as_stride: usize,
    bs_base: usize,
    loads: BankStats,
    stores: BankStats,
    macs: Vec<ThreadMac>,
    /// Flops of one `kt` step over the whole block.
    kt_flops: u64,
}

impl CgemmBlockEngine {
    /// Shared elements the double-buffered tiles need.
    pub fn shared_elems(&self) -> usize {
        self.tile.shared_elems()
    }

    /// Shared elements when `A` comes from a custom provider: the paper
    /// single-buffers `As` in that case ("there is no need to apply double
    /// buffering to the A block", §3.1).
    pub fn shared_elems_custom_a(&self) -> usize {
        self.tile.m_tb * self.tile.k_tb + 2 * self.tile.k_tb * self.tile.n_tb
    }

    /// Count the main loop of one block shape. `custom_a` selects the
    /// single-buffered `As` layout of [`AProvider::Custom`], whose staging
    /// the provider charges itself; `shared_base` is where this engine's
    /// staging starts.
    pub fn build_trace(
        &self,
        custom_a: bool,
        active_m: usize,
        active_n: usize,
        shared_base: usize,
    ) -> MainloopTrace {
        let tile = self.tile;
        tile.validate();
        let (ms, ns, ks) = (tile.m_tb, tile.n_tb, tile.k_tb);
        // A is double-buffered only when loaded from global memory; a custom
        // provider (the fused FFT) synchronizes anyway, so As is single-
        // buffered (paper §3.1).
        let (as_base, as_stride, bs_base) = if custom_a {
            (shared_base, 0, shared_base + ms * ks)
        } else {
            (shared_base, ms * ks, shared_base + 2 * ms * ks)
        };
        let contiguous = |base: usize, extent: usize| {
            (0..extent)
                .step_by(WARP_SIZE)
                .map(move |e0| WarpIdx::from_fn(|l| (e0 + l < extent).then(|| base + e0 + l)))
        };

        let mut loads = BankStats::default();
        let mut stores = BankStats::default();
        for chunk in 0..self.k_total.div_ceil(ks) {
            let active_k = ks.min(self.k_total - chunk * ks);
            let as_buf = as_base + (chunk % 2) * as_stride;
            let bs_buf = bs_base + (chunk % 2) * ks * ns;
            for kt in 0..active_k {
                if !custom_a {
                    for idx in contiguous(as_buf + kt * ms, active_m) {
                        stores += warp_bank_cycles(&idx);
                    }
                }
                for idx in contiguous(bs_buf + kt * ns, active_n) {
                    stores += warp_bank_cycles(&idx);
                }
            }
            // Fragment loads are vectorized (LDS.128-class): each thread
            // pulls its m_t / n_t consecutive elements in one wide access —
            // the conflict-free pattern production GEMMs use.
            for w in 0..tile.warps() {
                let origin = |l: usize| CFragments::thread_origin(&tile, w * WARP_SIZE + l);
                for kt in 0..active_k {
                    let idx_a = WarpIdx::from_fn(|l| {
                        let (m0, _) = origin(l);
                        (m0 < active_m).then(|| as_buf + kt * ms + m0)
                    });
                    let idx_b = WarpIdx::from_fn(|l| {
                        let (_, n0) = origin(l);
                        (n0 < active_n).then(|| bs_buf + kt * ns + n0)
                    });
                    loads += warp_bank_cycles_wide(&idx_a, tile.m_t);
                    loads += warp_bank_cycles_wide(&idx_b, tile.n_t);
                }
            }
        }

        let mut macs = Vec::new();
        let mut kt_flops = 0u64;
        for tid in 0..tile.threads() {
            let (m0, n0) = CFragments::thread_origin(&tile, tid);
            let ni = tile.m_t.min(active_m.saturating_sub(m0));
            let nj = tile.n_t.min(active_n.saturating_sub(n0));
            if ni == 0 || nj == 0 {
                continue;
            }
            macs.push(ThreadMac {
                acc_base: tid * tile.m_t * tile.n_t,
                m0,
                n0,
                ni,
                nj,
            });
            kt_flops += (ni * nj) as u64 * tfno_num::FLOPS_PER_CMAC;
        }

        MainloopTrace {
            active_m,
            active_n,
            as_base,
            as_stride,
            bs_base,
            loads,
            stores,
            macs,
            kt_flops,
        }
    }

    /// Execute the main loop of a block shaped like `trace` (built by
    /// [`Self::build_trace`] for this engine and `a`'s source); returns
    /// the C accumulators.
    pub fn run_mainloop(
        &self,
        ctx: &mut BlockCtx<'_>,
        a: &mut AProvider<'_>,
        b: &BOperand,
        trace: &MainloopTrace,
    ) -> CFragments {
        let tile = self.tile;
        let (ms, ns, ks) = (tile.m_tb, tile.n_tb, tile.k_tb);
        let mut acc = vec![C32::ZERO; tile.threads() * tile.m_t * tile.n_t];

        for chunk in 0..self.k_total.div_ceil(ks) {
            let k0 = chunk * ks;
            let active_k = ks.min(self.k_total - k0);
            let as_buf = trace.as_base + (chunk % 2) * trace.as_stride;
            let bs_buf = trace.bs_base + (chunk % 2) * ks * ns;

            // ---- stage A and B tiles ----
            match a {
                AProvider::Global { buf, view } => stage_tile(
                    ctx,
                    *buf,
                    active_k,
                    trace.active_m,
                    |kt, m| view.at(m, k0 + kt),
                    |kt, m| as_buf + kt * ms + m,
                ),
                AProvider::Custom(f) => f(ctx, k0, as_buf),
            }
            stage_tile(
                ctx,
                b.buf,
                active_k,
                trace.active_n,
                |kt, n| b.view.at(k0 + kt, n),
                |kt, n| bs_buf + kt * ns + n,
            );
            ctx.syncthreads();

            // ---- compute: MACs on fragments read from the shared tiles ----
            let sh = ctx.shared();
            for mac in &trace.macs {
                for kt in 0..active_k {
                    let a0 = as_buf + kt * ms + mac.m0;
                    let b0 = bs_buf + kt * ns + mac.n0;
                    for i in 0..mac.ni {
                        let av = sh[a0 + i];
                        for j in 0..mac.nj {
                            let idx = mac.acc_base + i * tile.n_t + j;
                            acc[idx] = acc[idx].mac(av, sh[b0 + j]);
                        }
                    }
                }
            }
            ctx.add_flops(trace.kt_flops * active_k as u64);
            ctx.syncthreads();
        }
        ctx.charge_shared(trace.loads, trace.stores);

        CFragments { tile, acc }
    }
}

/// Copy an `active_k x extent` operand slice from global memory into the
/// shared staging tile: element `(kt, e)` moves from `src(kt, e)` to
/// `dst(kt, e)`. A metered block charges each warp of 32 consecutive `e`
/// from its lane addresses.
fn stage_tile(
    ctx: &mut BlockCtx<'_>,
    buf: BufferId,
    active_k: usize,
    extent: usize,
    src: impl Fn(usize, usize) -> usize,
    dst: impl Fn(usize, usize) -> usize,
) {
    if ctx.is_metered() {
        for kt in 0..active_k {
            for e0 in (0..extent).step_by(WARP_SIZE) {
                let idx = WarpIdx::from_fn(|l| (e0 + l < extent).then(|| src(kt, e0 + l)));
                ctx.charge_global_load(buf, &idx);
            }
        }
    }
    let g = ctx.global(buf);
    let sh = ctx.shared_mut();
    for kt in 0..active_k {
        for e in 0..extent {
            sh[dst(kt, e)] = g.get(src(kt, e));
        }
    }
}

/// Per-kernel cache of [`MainloopTrace`]s, keyed by `(active_m, active_n)`.
/// The owning kernel must use one cache per distinct (tile, `k_total`,
/// `A` source, `shared_base`) configuration — everything except the
/// active extents must be constant across the cache's users.
///
/// A launch sees at most four distinct extents (interior blocks plus the
/// m-edge, n-edge, and corner), so the cache is four lock-free `OnceLock`
/// slots, each claimed by the first extent that reaches it; an extent
/// beyond them (no kernel launches one) is counted on the spot.
#[derive(Default)]
pub struct MainloopTraceCache {
    slots: [TraceSlot; 4],
}

/// One slot: the `(active_m, active_n)` key plus its trace.
type TraceSlot = OnceLock<((usize, usize), Arc<MainloopTrace>)>;

impl MainloopTraceCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// Fetch (or build) the trace for one block-extent class.
    pub fn get(
        &self,
        engine: &CgemmBlockEngine,
        custom_a: bool,
        active_m: usize,
        active_n: usize,
        shared_base: usize,
    ) -> Arc<MainloopTrace> {
        let key = (active_m, active_n);
        let build = || Arc::new(engine.build_trace(custom_a, active_m, active_n, shared_base));
        for slot in &self.slots {
            let (k, trace) = slot.get_or_init(|| (key, build()));
            if *k == key {
                return Arc::clone(trace);
            }
        }
        build()
    }
}

/// Standard epilogue: `C = alpha * acc + beta * C` written to global memory.
/// `c_view.at(m_local, n_local)`.
#[allow(clippy::too_many_arguments)]
pub fn store_c_global(
    ctx: &mut BlockCtx<'_>,
    frags: &CFragments,
    buf: BufferId,
    c_view: &MatView,
    active_m: usize,
    active_n: usize,
    alpha: C32,
    beta: C32,
) {
    let tile = frags.tile;
    let plain = alpha == C32::ONE && beta == C32::ZERO;
    if ctx.is_metered() {
        // Each thread stores register (i, j) of its tile per warp access.
        for w in 0..tile.warps() {
            for i in 0..tile.m_t {
                for j in 0..tile.n_t {
                    let idx = WarpIdx::from_fn(|l| {
                        let (m0, n0) = CFragments::thread_origin(&tile, w * WARP_SIZE + l);
                        let (m, n) = (m0 + i, n0 + j);
                        (m < active_m && n < active_n).then(|| c_view.at(m, n))
                    });
                    if beta != C32::ZERO {
                        ctx.charge_global_load(buf, &idx);
                    }
                    ctx.charge_global_store(buf, &idx);
                }
            }
        }
    }
    if !plain {
        ctx.add_flops(12 * (active_m * active_n) as u64);
    }
    let old = ctx.global(buf);
    let mut put = |m: usize, n: usize| {
        let addr = c_view.at(m, n);
        let a = frags.at(m, n);
        let v = if plain {
            a
        } else {
            let c = if beta != C32::ZERO {
                old.get(addr)
            } else {
                C32::ZERO
            };
            alpha * a + beta * c
        };
        ctx.global_store(buf, addr, v);
    };
    // Walk C contiguously so the write journal keeps long runs.
    if c_view.row_stride == 1 {
        for n in 0..active_n {
            for m in 0..active_m {
                put(m, n);
            }
        }
    } else {
        for m in 0..active_m {
            for n in 0..active_n {
                put(m, n);
            }
        }
    }
}
