//! Executes an [`FftPlan`] inside one simulated thread block.
//!
//! The engine owns the shared-memory choreography of the paper's FFT
//! kernel: pencils are staged in a ping/pong pair of shared regions using
//! the interleaved layout `elem = idx * bs + pencil` (consecutive threads
//! work on consecutive pencils — the conflict-free arrangement batched FFTs
//! use internally), the butterfly stages run straight from the plan's op
//! lists on the block's shared slice, and a `__syncthreads()` separates
//! the stages that exchange data through shared memory.
//!
//! Data moves in runs and slices, with every index map resolved once per
//! pencil or once per kernel. A [`PencilTarget`] names each pencil's base
//! address plus one `idx` stride (the affine contract of
//! [`crate::PencilAddressing`]), or a per-kernel index table for layouts
//! that are not affine (the Fig. 8 swizzled epilogue staging). A global
//! transfer is a handful of runs: one per pencil when its `idx` stride is
//! 1, otherwise one per `idx` across each group of pencils whose bases
//! are adjacent. Each run is one
//! [`GlobalView::read_into`](tfno_gpu_sim::GlobalView::read_into) or
//! [`BlockCtx::global_store_run`]. A butterfly op runs over the active
//! pencils of split ping/pong slices, with one dispatch per op on which
//! operands survived pruning, its kind and its twiddle.
//!
//! Metering is split by what an access depends on. The butterfly stages'
//! bank phases and flops depend only on the block shape, so a
//! [`ButterflyTrace`] counts them once per structure in the process (the
//! process-wide cache), whichever block first needs it, and a metered
//! block charges the counts. The transfers in and out depend on the
//! caller's addressing, so a metered block charges them per warp from the
//! lane addresses of the same targets (sectors for global memory, bank
//! phases for shared targets); an unmetered block builds no transfer lane
//! patterns.
//!
//! The shared-memory targets serve the fused FFT→CGEMM forwarding and the
//! CGEMM→iFFT epilogue (where the bank-conflict story of the paper's
//! Figs. 7–8 plays out — the fused kernel in `turbofno` drives those
//! patterns through this same engine).

use crate::cache::shared_trace;
use crate::plan::{FftOp, FftOpKind, FftPlan};
use std::sync::{Arc, OnceLock};
use tfno_gpu_sim::{warp_bank_cycles, BankStats, BlockCtx, BufferId, WarpIdx, WARP_SIZE};
use tfno_num::C32;

/// Where a block's pencils come from / go to. Pencils are block-local
/// (`0..active_pencils`).
#[derive(Clone, Copy, Debug)]
pub enum PencilTarget<'a> {
    /// Global buffer: element `idx` of pencil `p` at
    /// `bases[p] + idx * stride`.
    Global {
        buf: BufferId,
        bases: &'a [usize],
        stride: usize,
    },
    /// Block shared memory, addressed like [`PencilTarget::Global`].
    Shared { bases: &'a [usize], stride: usize },
    /// Block shared memory through an index table: element `idx` of
    /// pencil `p` at `table[p * row + idx]`.
    SharedTable { table: &'a [u32], row: usize },
}

impl PencilTarget<'_> {
    /// Element address of `(pencil, idx)`.
    fn addr(&self, p: usize, idx: usize) -> usize {
        match *self {
            PencilTarget::Global { bases, stride, .. } | PencilTarget::Shared { bases, stride } => {
                bases[p] + idx * stride
            }
            PencilTarget::SharedTable { table, row } => table[p * row + idx] as usize,
        }
    }

    /// Call `f(idx, addr)` for the first `n` elements of pencil `p`.
    #[inline(always)]
    fn for_each_elem(&self, p: usize, n: usize, mut f: impl FnMut(usize, usize)) {
        match *self {
            PencilTarget::Global { bases, stride, .. } | PencilTarget::Shared { bases, stride } => {
                let base = bases[p];
                for i in 0..n {
                    f(i, base + i * stride);
                }
            }
            PencilTarget::SharedTable { table, row } => {
                for (i, &a) in table[p * row..][..n].iter().enumerate() {
                    f(i, a as usize);
                }
            }
        }
    }
}

/// Visit the runs of a global transfer of the first `n` elements of each
/// pencil in `bases` (stride `stride` along `idx`) as `f(start, off, len,
/// step)`: global elements `start..start + len` pair with staging
/// elements `off + j * step` of the interleaved `bs`-pencil layout. A
/// pencil with `stride == 1` is one run; otherwise each `idx` of a group
/// of pencils whose bases are adjacent is one run.
fn global_runs(
    bases: &[usize],
    stride: usize,
    n: usize,
    bs: usize,
    mut f: impl FnMut(usize, usize, usize, usize),
) {
    if stride == 1 {
        for (p, &base) in bases.iter().enumerate() {
            f(base, p, n, bs);
        }
        return;
    }
    let mut p0 = 0;
    while p0 < bases.len() {
        let k = 1 + bases[p0 + 1..]
            .iter()
            .zip(1..)
            .take_while(|&(&b, j)| b == bases[p0] + j)
            .count();
        for i in 0..n {
            f(bases[p0] + i * stride, i * bs + p0, k, 1);
        }
        p0 += k;
    }
}

/// How the (pencil, idx) instances of a transfer phase map onto lanes.
///
/// This is the thread-to-data assignment the paper's Fig. 7 is about:
/// `PencilFastest` is the VkFFT-style layout (consecutive threads touch the
/// same offset of different pencils), `IdxFastest` is TurboFNO's layout
/// (consecutive threads touch consecutive elements of the same pencil),
/// which is what makes the forwarded `As` tile bank-aligned for CGEMM.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InstanceOrder {
    PencilFastest,
    IdxFastest,
}

/// Input/output binding for one engine run.
pub struct FftIo<'a> {
    pub input: PencilTarget<'a>,
    pub output: PencilTarget<'a>,
    pub input_order: InstanceOrder,
    pub output_order: InstanceOrder,
}

impl<'a> FftIo<'a> {
    /// Default binding: pencil-fastest on both sides (the conflict-free
    /// interleaved-staging order of batched FFTs).
    pub fn new(input: PencilTarget<'a>, output: PencilTarget<'a>) -> Self {
        FftIo {
            input,
            output,
            input_order: InstanceOrder::PencilFastest,
            output_order: InstanceOrder::PencilFastest,
        }
    }

    pub fn with_output_order(mut self, order: InstanceOrder) -> Self {
        self.output_order = order;
        self
    }

    pub fn with_input_order(mut self, order: InstanceOrder) -> Self {
        self.input_order = order;
        self
    }
}

/// What a metered block charges for one butterfly stage, plus the
/// staging regions it reads and writes.
struct TraceStage {
    src_base: usize,
    dst_base: usize,
    /// The stage ends a register group: its results go through shared
    /// memory and a `__syncthreads` follows.
    store_shared: bool,
    /// Bank phases of the stage's operand loads (zero inside a register
    /// group, where the real kernel reads registers).
    loads: BankStats,
    /// Bank phases of the stage's result stores (zero unless
    /// `store_shared`).
    stores: BankStats,
    flops: u64,
}

/// Per-stage counts of one block shape.
///
/// Every block of a launch executes the same butterfly network over
/// different data, so what a stage costs — its shared-memory bank phases
/// and flops — is block-invariant. The trace computes it once, from the
/// warp grouping the real kernel uses (op `j` of pencil `p` runs on lane
/// `(j * bs + p) % 32`), and keeps only the counts: the butterflies
/// themselves run straight from the plan's op lists at every block.
pub struct ButterflyTrace {
    stages: Vec<TraceStage>,
    /// Staging region holding the final values (after ping/pong swaps).
    final_base: usize,
}

impl ButterflyTrace {
    /// Heap plus inline bytes this trace occupies: a fixed amount per
    /// stage, independent of the transform length and the pencil count.
    pub(crate) fn bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.stages.capacity() * std::mem::size_of::<TraceStage>()
    }
}

/// Per-kernel front of the process-wide trace cache ([`crate::cache`]),
/// with one slot per active-pencil count (full blocks vs. the remainder
/// block). The owning kernel must use one cache per distinct (plan,
/// layout, staging-bases, grouping) engine configuration — all fields
/// except `active_pencils` must be constant across the cache's users.
///
/// The warm path is a lock-free `OnceLock` read that lends the slot's
/// trace, so the work-stealing workers' per-block lookups never contend
/// or touch a shared reference count. An empty slot is filled from the
/// shared cache, so every kernel of one structure holds the same trace.
pub struct TraceCache {
    slots: Box<[OnceLock<Arc<ButterflyTrace>>]>,
}

impl TraceCache {
    /// A cache for engines staging `bs_layout` pencils per block.
    pub fn new(bs_layout: usize) -> Self {
        TraceCache {
            slots: (0..bs_layout).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Lend the trace for this engine configuration.
    pub fn get(&self, engine: &FftBlockEngine<'_>) -> &ButterflyTrace {
        self.slots[engine.active_pencils - 1].get_or_init(|| shared_trace(engine))
    }
}

/// Per-block FFT executor.
pub struct FftBlockEngine<'p> {
    pub plan: &'p FftPlan,
    /// Active pencils in this block (may be < `bs_layout` in the last
    /// block of a launch).
    pub active_pencils: usize,
    /// Layout stride of the shared staging regions (the configured batch
    /// size, Table 1's `bs = 8`), kept constant across remainder blocks so
    /// all blocks share address patterns per active lane.
    pub bs_layout: usize,
    /// Element offset of the ping region in block shared memory.
    pub ping_base: usize,
    /// Element offset of the pong region.
    pub pong_base: usize,
    /// log2 of the per-thread FFT size (Table 1's `n_t`): that many
    /// consecutive butterfly stages execute in registers; only the exchange
    /// between groups is charged as shared-memory traffic and synchronized.
    /// 0 disables grouping (every stage goes through shared memory).
    pub reg_group_bits: usize,
}

impl<'p> FftBlockEngine<'p> {
    /// Shared elements the ping+pong staging of an `n`-point, `bs`-pencil
    /// engine needs.
    pub fn staging_elems(n: usize, bs_layout: usize) -> usize {
        2 * n * bs_layout
    }

    /// Count what each butterfly stage of this block shape charges.
    ///
    /// Stages within a register group move data without shared-memory
    /// charges (the real kernel holds them in per-thread registers); only
    /// the exchanges *between* groups pay shared traffic and a barrier.
    /// The final stage hands its registers directly to the writeback, so
    /// it is never an exchange either.
    pub fn build_trace(&self) -> ButterflyTrace {
        let plan = self.plan;
        let bs = self.bs_layout;
        let group = self.reg_group_bits.max(1);
        let last_stage = plan.stages.len() - 1;
        let mut src_base = self.ping_base;
        let mut dst_base = self.pong_base;
        let mut stages = Vec::with_capacity(plan.stages.len());
        for (t, stage) in plan.stages.iter().enumerate() {
            let store_shared = (t + 1) % group == 0 && t != last_stage;
            let load_shared = t % group == 0 && t != 0;
            let mut loads = BankStats::default();
            let mut stores = BankStats::default();
            let instances = stage.ops.len() * bs;
            // Register-resident stages charge nothing: skip their lanes.
            let charged = if load_shared || store_shared {
                instances
            } else {
                0
            };
            for inst in (0..charged).step_by(WARP_SIZE) {
                // Lane l runs instance inst + l: op (inst + l) / bs of
                // pencil (inst + l) % bs, predicated off past the last
                // active pencil.
                let lane = |l: usize| {
                    let i = inst + l;
                    (i < instances && i % bs < self.active_pencils)
                        .then(|| (i % bs, &stage.ops[i / bs]))
                };
                if load_shared {
                    for operand in [|op: &FftOp| op.a, |op: &FftOp| op.b] {
                        let idx = WarpIdx::from_fn(|l| {
                            lane(l).and_then(|(p, op)| {
                                operand(op).map(|i| src_base + i as usize * bs + p)
                            })
                        });
                        loads += warp_bank_cycles(&idx);
                    }
                }
                if store_shared {
                    let idx = WarpIdx::from_fn(|l| {
                        lane(l).map(|(p, op)| dst_base + op.dst as usize * bs + p)
                    });
                    stores += warp_bank_cycles(&idx);
                }
            }
            let op_flops: u64 = stage.ops.iter().map(FftOp::flops).sum();
            stages.push(TraceStage {
                src_base,
                dst_base,
                store_shared,
                loads,
                stores,
                flops: op_flops * self.active_pencils as u64,
            });
            std::mem::swap(&mut src_base, &mut dst_base);
        }
        ButterflyTrace {
            stages,
            final_base: src_base,
        }
    }

    /// Run the planned FFT on the block's shared slice, charging the
    /// counts of a [`ButterflyTrace`] built from an identically-configured
    /// engine.
    pub fn run_traced(&self, ctx: &mut BlockCtx<'_>, io: &FftIo<'_>, trace: &ButterflyTrace) {
        let plan = self.plan;
        let bs = self.bs_layout;
        let active = self.active_pencils;
        let region = plan.n * bs;
        debug_assert!(active <= bs);
        debug_assert!(
            ctx.shared().len() >= self.pong_base.max(self.ping_base) + region,
            "shared staging region out of bounds"
        );
        debug_assert!(self.ping_base.abs_diff(self.pong_base) >= region);
        debug_assert_eq!(trace.stages.len(), plan.stages.len());

        // ---- load: input -> ping region ----
        // The real kernel gathers straight into registers; the staging
        // store is bookkeeping of the functional model, not shared traffic.
        self.transfer_in(ctx, io);

        // ---- butterfly stages, ping-pong, straight from the plan ----
        for (stage, counts) in plan.stages.iter().zip(&trace.stages) {
            let sh = ctx.shared_mut();
            let (src, dst) = if counts.src_base < counts.dst_base {
                let (lo, hi) = sh.split_at_mut(counts.dst_base);
                (&lo[counts.src_base..][..region], &mut hi[..region])
            } else {
                let (lo, hi) = sh.split_at_mut(counts.src_base);
                (&hi[..region], &mut lo[counts.dst_base..][..region])
            };
            for op in &stage.ops {
                butterfly(op, src, dst, bs, active);
            }
            ctx.add_flops(counts.flops);
            ctx.charge_shared(counts.loads, counts.stores);
            if counts.store_shared {
                ctx.syncthreads();
            }
        }

        // ---- writeback: final region -> output ----
        self.transfer_out(ctx, io, trace.final_base);
    }

    /// Decompose a flat instance into `(pencil, idx)` per the given order.
    fn split(i: usize, bs: usize, n: usize, order: InstanceOrder) -> (usize, usize) {
        match order {
            InstanceOrder::PencilFastest => (i % bs, i / bs),
            InstanceOrder::IdxFastest => (i / n, i % n),
        }
    }

    /// Call `f` with the lane pattern of every warp of a transfer phase
    /// moving `n` elements per pencil of `target` in `order`: each active
    /// lane's element address, `None` past the end or on an inactive
    /// pencil. Metering only — the data moves in runs.
    fn for_each_transfer_warp(
        &self,
        n: usize,
        order: InstanceOrder,
        target: &PencilTarget<'_>,
        mut f: impl FnMut(&WarpIdx),
    ) {
        let bs = self.bs_layout;
        let instances = n * bs;
        for inst in (0..instances).step_by(WARP_SIZE) {
            f(&WarpIdx::from_fn(|l| {
                let i = inst + l;
                (i < instances)
                    .then(|| Self::split(i, bs, n, order))
                    .filter(|&(p, _)| p < self.active_pencils)
                    .map(|(p, idx)| target.addr(p, idx))
            }));
        }
    }

    /// Gather input pencils into the ping region (zero-padding applied by
    /// only loading the `n_in_valid` prefix — the padded tail is never read
    /// thanks to plan pruning).
    fn transfer_in(&self, ctx: &mut BlockCtx<'_>, io: &FftIo<'_>) {
        let bs = self.bs_layout;
        let n_in = self.plan.n_in_valid;
        let ping = self.ping_base;
        let target = &io.input;
        if ctx.is_metered() {
            self.for_each_transfer_warp(n_in, io.input_order, target, |idx| match target {
                PencilTarget::Global { buf, .. } => ctx.charge_global_load(*buf, idx),
                _ => ctx.charge_shared(warp_bank_cycles(idx), BankStats::default()),
            });
        }
        match *target {
            PencilTarget::Global { buf, bases, stride } => {
                let src = ctx.global(buf);
                let staging = &mut ctx.shared_mut()[ping..][..n_in * bs];
                let bases = &bases[..self.active_pencils];
                global_runs(bases, stride, n_in, bs, |start, off, len, step| {
                    src.read_into(start, staging[off..].iter_mut().step_by(step).take(len))
                });
            }
            _ => {
                let sh = ctx.shared_mut();
                for p in 0..self.active_pencils {
                    target.for_each_elem(p, n_in, |i, a| sh[ping + i * bs + p] = sh[a]);
                }
            }
        }
    }

    /// Scatter the kept outputs (applying the inverse-FFT scale).
    fn transfer_out(&self, ctx: &mut BlockCtx<'_>, io: &FftIo<'_>, final_base: usize) {
        let bs = self.bs_layout;
        let n_out = self.plan.n_out_keep;
        let scale = self.plan.scale;
        // The final values live in registers; reading the staging region
        // is free.
        let scaled = move |v: &C32| if scale != 1.0 { v.scale(scale) } else { *v };
        if scale != 1.0 {
            ctx.add_flops(2 * (n_out * self.active_pencils) as u64);
        }
        let target = &io.output;
        if ctx.is_metered() {
            self.for_each_transfer_warp(n_out, io.output_order, target, |idx| match target {
                PencilTarget::Global { buf, .. } => ctx.charge_global_store(*buf, idx),
                _ => ctx.charge_shared(BankStats::default(), warp_bank_cycles(idx)),
            });
        }
        match *target {
            PencilTarget::Global { buf, bases, stride } => {
                let bases = &bases[..self.active_pencils];
                global_runs(bases, stride, n_out, bs, |start, off, len, step| {
                    ctx.global_store_run(buf, start, |sh| {
                        sh[final_base + off..]
                            .iter()
                            .step_by(step)
                            .take(len)
                            .map(scaled)
                    })
                });
            }
            _ => {
                let sh = ctx.shared_mut();
                for p in 0..self.active_pencils {
                    target.for_each_elem(p, n_out, |i, a| {
                        sh[a] = scaled(&sh[final_base + i * bs + p]);
                    });
                }
            }
        }
    }
}

/// One butterfly op over the `active` pencils: `dst = (a ± b) * w` with
/// a pruned operand read as `C32::ZERO` (exactly [`FftOp::eval`], signed
/// zeros included), dispatched once per op so the pencil loop carries no
/// branch.
#[inline(always)]
fn butterfly(op: &FftOp, src: &[C32], dst: &mut [C32], bs: usize, active: usize) {
    let d = &mut dst[op.dst as usize * bs..][..active];
    let operand = |i: Option<u32>| i.map(|i| &src[i as usize * bs..][..active]);
    let zero = |_: usize| C32::ZERO;
    match (operand(op.a), operand(op.b)) {
        (Some(a), Some(b)) => lanes(d, op, |p| a[p], |p| b[p]),
        (Some(a), None) => lanes(d, op, |p| a[p], zero),
        (None, Some(b)) => lanes(d, op, zero, |p| b[p]),
        (None, None) => lanes(d, op, zero, zero),
    }
}

/// `d[p] = (a(p) ± b(p)) [* w]` for every pencil `p`, one loop per
/// `(kind, w)`.
#[inline(always)]
fn lanes(d: &mut [C32], op: &FftOp, a: impl Fn(usize) -> C32, b: impl Fn(usize) -> C32) {
    #[inline(always)]
    fn fill(d: &mut [C32], f: impl Fn(usize) -> C32) {
        d.iter_mut().enumerate().for_each(|(p, v)| *v = f(p));
    }
    match (op.kind, op.w) {
        (FftOpKind::Sum, None) => fill(d, |p| a(p) + b(p)),
        (FftOpKind::Diff, None) => fill(d, |p| a(p) - b(p)),
        (FftOpKind::Sum, Some(w)) => fill(d, |p| (a(p) + b(p)) * w),
        (FftOpKind::Diff, Some(w)) => fill(d, |p| (a(p) - b(p)) * w),
    }
}
