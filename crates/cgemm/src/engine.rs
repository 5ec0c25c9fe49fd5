//! The CGEMM block engine: main loop of Fig. 9 (left), reusable by the
//! fused kernels.
//!
//! One call to [`CgemmBlockEngine::run_mainloop`] executes a thread block's
//! whole `k`-loop: stage the `A`/`B` tiles into double-buffered shared
//! memory, then per `k_tb`-chunk multiply-accumulate into the block's C
//! tile. The functional model moves whole rows: staging copies one run per
//! `k` row of each operand tile, and the MACs walk `kt → n → m` over the
//! contiguous rows of the shared tiles into a dense column-major C tile,
//! so every C element accumulates over ascending `k` exactly as the
//! thread-tiled kernel's registers do. The `A` tile can come from global
//! memory (standalone GEMM) or from a custom provider — the hook the fused
//! FFT→CGEMM kernel uses to write FFT output straight into `As` (paper
//! §4.1).
//!
//! The staging layout and the flops of each `kt` step are O(1) arithmetic
//! on the tile, `k_total`, the `A` source and the block's active extent.
//! The loop's shared-memory bank phases (staging stores, fragment loads)
//! depend on the same inputs, but counting them walks every lane pattern
//! of the warp/thread tiling, so only a metered block does it: the first
//! metered block of each block-extent class counts them into its kernel's
//! [`MainloopBankCache`], and every metered block charges them from there.
//! An unmetered block neither counts nor charges them. Global staging
//! loads are charged per warp from the lane addresses.
//!
//! The accumulators are returned as [`CFragments`] so the caller chooses an
//! epilogue: [`store_c_global`] (standalone, `alpha/beta` supported) or the
//! fused CGEMM→iFFT epilogue in the `turbofno` crate (paper §4.2).

use crate::tile::TileConfig;
use crate::view::MatView;
use std::sync::OnceLock;
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

/// The C accumulators of one block: the dense column-major
/// `m_tb x n_tb` tile, element `(m, n)` at `acc[n * m_tb + m]`. Elements
/// outside the block's active extent stay zero.
pub struct CFragments {
    pub tile: TileConfig,
    pub acc: Vec<C32>,
}

impl CFragments {
    /// The accumulator of tile-local element `(m, n)`.
    pub fn at(&self, m: usize, n: usize) -> C32 {
        self.acc[n * self.tile.m_tb + m]
    }

    /// Column `n` of the tile: the accumulators of `(0..m_tb, n)`.
    pub fn col(&self, n: usize) -> &[C32] {
        &self.acc[n * self.tile.m_tb..][..self.tile.m_tb]
    }

    /// Tile-local `(m, n)` origin of a thread's register tile in the
    /// warp/thread tiling of Fig. 9 (the lane patterns metering charges).
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

    /// Shared offsets of the `As` and `Bs` tiles of `k`-chunk `chunk`.
    /// The tiles start at element 0 and `B` is double-buffered; `A` is
    /// double-buffered only when loaded from global memory, since a custom
    /// provider (the fused FFT) synchronizes anyway (paper §3.1).
    fn staging_bufs(&self, custom_a: bool, chunk: usize) -> (usize, usize) {
        let (ms, ns, ks) = (self.tile.m_tb, self.tile.n_tb, self.tile.k_tb);
        let parity = chunk % 2;
        if custom_a {
            (0, ms * ks + parity * ks * ns)
        } else {
            (parity * ms * ks, 2 * ms * ks + parity * ks * ns)
        }
    }

    /// Count the shared-memory bank phases, `(loads, stores)`, of one
    /// block's main loop over an `active_m x active_n` C tile, from the
    /// lane patterns the real kernel issues: the staging stores (of `B`
    /// only when `custom_a`, whose provider charges its own) and the
    /// fragment loads, over every `(warp, kt)` step of every chunk.
    fn count_banks(&self, custom_a: bool, active_m: usize, active_n: usize) -> LoopBanks {
        let tile = self.tile;
        tile.validate();
        let (ms, ns, ks) = (tile.m_tb, tile.n_tb, tile.k_tb);
        let contiguous = |base: usize, extent: usize| {
            (0..extent)
                .step_by(WARP_SIZE)
                .map(move |e0| WarpIdx::from_fn(|l| (e0 + l < extent).then(|| base + e0 + l)))
        };

        let mut loads = BankStats::default();
        let mut stores = BankStats::default();
        for chunk in 0..self.k_total.div_ceil(ks) {
            let active_k = ks.min(self.k_total - chunk * ks);
            let (as_buf, bs_buf) = self.staging_bufs(custom_a, chunk);
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
        (loads, stores)
    }

    /// Execute the main loop of a block whose C tile is `active_m x
    /// active_n`; returns the C accumulators. A metered block charges the
    /// loop's bank phases from `banks`, its kernel's cache.
    pub fn run_mainloop(
        &self,
        ctx: &mut BlockCtx<'_>,
        a: &mut AProvider<'_>,
        b: &BOperand,
        active_m: usize,
        active_n: usize,
        banks: &MainloopBankCache,
    ) -> CFragments {
        let tile = self.tile;
        let (ms, ns, ks) = (tile.m_tb, tile.n_tb, tile.k_tb);
        let custom_a = matches!(a, AProvider::Custom(_));
        let kt_flops = (active_m * active_n) as u64 * tfno_num::FLOPS_PER_CMAC;
        let mut acc = vec![C32::ZERO; ms * ns];

        for chunk in 0..self.k_total.div_ceil(ks) {
            let k0 = chunk * ks;
            let active_k = ks.min(self.k_total - k0);
            let (as_buf, bs_buf) = self.staging_bufs(custom_a, chunk);

            // ---- stage A and B tiles, one row per kt ----
            match a {
                AProvider::Global { buf, view } => {
                    stage_tile(ctx, *buf, active_k, active_m, view.tile(0, k0), as_buf, ms)
                }
                AProvider::Custom(f) => f(ctx, k0, as_buf),
            }
            let b_rows = MatView {
                base: b.view.at(k0, 0),
                row_stride: b.view.col_stride,
                col_stride: b.view.row_stride,
            };
            stage_tile(ctx, b.buf, active_k, active_n, b_rows, bs_buf, ns);
            ctx.syncthreads();

            // ---- compute: kt -> n -> m over contiguous tile rows ----
            let sh = ctx.shared();
            for kt in 0..active_k {
                let a_row = &sh[as_buf + kt * ms..][..active_m];
                let b_row = &sh[bs_buf + kt * ns..][..active_n];
                for (col, &bv) in acc.chunks_exact_mut(ms).zip(b_row) {
                    for (c, &av) in col.iter_mut().zip(a_row) {
                        *c = c.mac(av, bv);
                    }
                }
            }
            ctx.add_flops(kt_flops * active_k as u64);
            ctx.syncthreads();
        }
        if ctx.is_metered() {
            let (loads, stores) = banks.get(self, custom_a, active_m, active_n);
            ctx.charge_shared(loads, stores);
        }

        CFragments { tile, acc }
    }
}

/// Copy `active_k` rows of `len` elements of an operand tile from global
/// memory into the shared staging tile: element `e` of row `kt` moves
/// from `src.at(e, kt)` to `dst + kt * ld + e`, one run per row when the
/// row is contiguous in global memory. A metered block charges each warp
/// of 32 consecutive row elements from its lane addresses.
fn stage_tile(
    ctx: &mut BlockCtx<'_>,
    buf: BufferId,
    active_k: usize,
    len: usize,
    src: MatView,
    dst: usize,
    ld: usize,
) {
    if ctx.is_metered() {
        for kt in 0..active_k {
            for e0 in (0..len).step_by(WARP_SIZE) {
                let idx = WarpIdx::from_fn(|l| (e0 + l < len).then(|| src.at(e0 + l, kt)));
                ctx.charge_global_load(buf, &idx);
            }
        }
    }
    let g = ctx.global(buf);
    let sh = ctx.shared_mut();
    for kt in 0..active_k {
        let row = &mut sh[dst + kt * ld..][..len];
        if src.row_stride == 1 {
            g.read_into(src.at(0, kt), row);
        } else {
            for (e, v) in row.iter_mut().enumerate() {
                *v = g.get(src.at(e, kt));
            }
        }
    }
}

/// The `(loads, stores)` bank phases of one block's main loop.
type LoopBanks = (BankStats, BankStats);

/// Per-kernel cache of the main loop's bank phases, one `(loads, stores)`
/// slot per block-extent class: interior blocks, the m-edge, the n-edge
/// and the corner. The owning kernel must use one cache per distinct
/// (tile, `k_total`, `A` source, problem extent) configuration — so each
/// class has one `(active_m, active_n)`, which the slot checks.
///
/// Only metered blocks read it, so a slot is counted by the first metered
/// block of its class and an unmetered launch leaves the cache empty. The
/// warm path is a lock-free `OnceLock` read.
#[derive(Default)]
pub struct MainloopBankCache {
    slots: [OnceLock<((usize, usize), LoopBanks)>; 4],
}

impl MainloopBankCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// The `(loads, stores)` of one block-extent class, counted on first
    /// use.
    fn get(
        &self,
        engine: &CgemmBlockEngine,
        custom_a: bool,
        active_m: usize,
        active_n: usize,
    ) -> LoopBanks {
        let key = (active_m, active_n);
        let class = usize::from(active_m != engine.tile.m_tb)
            + 2 * usize::from(active_n != engine.tile.n_tb);
        let (k, banks) = self.slots[class]
            .get_or_init(|| (key, engine.count_banks(custom_a, active_m, active_n)));
        assert_eq!(*k, key, "one MainloopBankCache serves one problem extent");
        *banks
    }
}

/// Standard epilogue: `C = alpha * acc + beta * C` written to global
/// memory, `c_view.at(m_local, n_local)`: one run per tile column (or
/// row) that is contiguous in global memory.
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
    let value = |a: C32, addr: usize| {
        if plain {
            a
        } else {
            let c = if beta != C32::ZERO {
                old.get(addr)
            } else {
                C32::ZERO
            };
            alpha * a + beta * c
        }
    };
    if c_view.row_stride == 1 {
        for n in 0..active_n {
            let start = c_view.at(0, n);
            let col = &frags.col(n)[..active_m];
            ctx.global_store_run(buf, start, |_| {
                col.iter().enumerate().map(|(m, &a)| value(a, start + m))
            });
        }
    } else if c_view.col_stride == 1 {
        for m in 0..active_m {
            let start = c_view.at(m, 0);
            ctx.global_store_run(buf, start, |_| {
                (0..active_n).map(|n| value(frags.at(m, n), start + n))
            });
        }
    } else {
        for m in 0..active_m {
            for n in 0..active_n {
                let addr = c_view.at(m, n);
                ctx.global_store(buf, addr, value(frags.at(m, n), addr));
            }
        }
    }
}
