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
//! Metering is split by what an access depends on. The butterfly stages'
//! bank phases and flops depend only on the block shape, so a
//! [`ButterflyTrace`] counts them once per shape and a metered block
//! charges the counts. The transfers in and out depend on the caller's
//! addressing, so a metered block charges them per warp from the lane
//! addresses (sectors for global memory, bank phases for shared targets);
//! an unmetered block builds no lane patterns at all.
//!
//! Input and output are pluggable ([`PencilTarget`]): global memory for the
//! standalone kernels, shared memory for the fused FFT→CGEMM forwarding and
//! the CGEMM→iFFT epilogue (where the bank-conflict story of the paper's
//! Figs. 7–8 plays out — the fused kernel in `turbofno` drives those
//! patterns through this same engine).

use crate::cache::shared_trace;
use crate::plan::{FftOp, FftOpKind, FftPlan};
use std::sync::{Arc, OnceLock};
use tfno_gpu_sim::{warp_bank_cycles, BankStats, BlockCtx, BufferId, WarpIdx, WARP_SIZE};
use tfno_num::C32;

/// Where a block's pencils come from / go to.
pub enum PencilTarget<'a> {
    /// Global buffer; `addr(pencil, idx)` maps to an element index.
    /// `pencil` is block-local (0..bs).
    Global {
        buf: BufferId,
        addr: &'a (dyn Fn(usize, usize) -> usize + Sync),
    },
    /// Block shared memory; `addr(pencil, idx)` maps to a shared element.
    Shared {
        addr: &'a (dyn Fn(usize, usize) -> usize + Sync),
    },
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
/// keyed by the active-pencil count (full blocks vs. the remainder block).
/// The owning kernel must use one cache per distinct (plan, layout,
/// staging-bases, grouping) engine configuration — all fields except
/// `active_pencils` must be constant across the cache's users.
///
/// A launch sees at most two distinct shapes (full and remainder), so the
/// warm path is two lock-free `OnceLock` slots — the work-stealing
/// workers' per-block lookups never contend. An empty slot is filled from
/// the shared cache, so every kernel of one structure holds the same
/// trace; a shape beyond the two slots reads the shared cache directly.
#[derive(Default)]
pub struct TraceCache {
    slots: [OnceLock<(usize, Arc<ButterflyTrace>)>; 2],
}

impl TraceCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// Fetch the trace for this engine configuration.
    pub fn get(&self, engine: &FftBlockEngine<'_>) -> Arc<ButterflyTrace> {
        let key = engine.active_pencils;
        for slot in &self.slots {
            let (k, trace) = slot.get_or_init(|| (key, shared_trace(engine)));
            if *k == key {
                return Arc::clone(trace);
            }
        }
        shared_trace(engine)
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
        debug_assert!(active <= bs);
        debug_assert!(
            ctx.shared().len() >= self.pong_base + plan.n * bs,
            "shared staging region out of bounds"
        );
        debug_assert_eq!(trace.stages.len(), plan.stages.len());

        // ---- load: input -> ping region ----
        // The real kernel gathers straight into registers; the staging
        // store is bookkeeping of the functional model, not shared traffic.
        self.transfer_in(ctx, io);

        // ---- butterfly stages, ping-pong, straight from the plan ----
        for (stage, counts) in plan.stages.iter().zip(&trace.stages) {
            let sh = ctx.shared_mut();
            for op in &stage.ops {
                let a = op.a.map(|i| counts.src_base + i as usize * bs);
                let b = op.b.map(|i| counts.src_base + i as usize * bs);
                let dst = counts.dst_base + op.dst as usize * bs;
                for p in 0..active {
                    // A pruned operand is structurally zero (FftOp::eval).
                    let va = a.map_or(C32::ZERO, |o| sh[o + p]);
                    let vb = b.map_or(C32::ZERO, |o| sh[o + p]);
                    let v = match op.kind {
                        FftOpKind::Sum => va + vb,
                        FftOpKind::Diff => va - vb,
                    };
                    sh[dst + p] = match op.w {
                        Some(w) => v * w,
                        None => v,
                    };
                }
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
    /// moving `n` elements per pencil in `order`: each active lane's
    /// element address, `None` past the end or on an inactive pencil.
    /// Metering only — the data moves in [`Self::for_each_instance`].
    fn for_each_transfer_warp(
        &self,
        n: usize,
        order: InstanceOrder,
        addr: &(dyn Fn(usize, usize) -> usize + Sync),
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
                    .map(|(p, idx)| addr(p, idx))
            }));
        }
    }

    /// Visit every active `(pencil, idx)` instance with `idx < n`, in the
    /// order that walks `addr` (the side of the transfer outside the
    /// staging regions) contiguously when its `idx` stride is 1.
    fn for_each_instance(
        &self,
        n: usize,
        addr: &(dyn Fn(usize, usize) -> usize + Sync),
        mut f: impl FnMut(usize, usize),
    ) {
        if n > 1 && addr(0, 1) == addr(0, 0) + 1 {
            for p in 0..self.active_pencils {
                for i in 0..n {
                    f(p, i);
                }
            }
        } else {
            for i in 0..n {
                for p in 0..self.active_pencils {
                    f(p, i);
                }
            }
        }
    }

    /// Gather input pencils into the ping region (zero-padding applied by
    /// only loading the `n_in_valid` prefix — the padded tail is never read
    /// thanks to plan pruning).
    fn transfer_in(&self, ctx: &mut BlockCtx<'_>, io: &FftIo<'_>) {
        let bs = self.bs_layout;
        let n_in = self.plan.n_in_valid;
        let ping = self.ping_base;
        match &io.input {
            PencilTarget::Global { buf, addr } => {
                if ctx.is_metered() {
                    self.for_each_transfer_warp(n_in, io.input_order, *addr, |idx| {
                        ctx.charge_global_load(*buf, idx)
                    });
                }
                let src = ctx.global(*buf);
                let sh = ctx.shared_mut();
                self.for_each_instance(n_in, *addr, |p, i| {
                    sh[ping + i * bs + p] = src.get(addr(p, i))
                });
            }
            PencilTarget::Shared { addr } => {
                if ctx.is_metered() {
                    self.for_each_transfer_warp(n_in, io.input_order, *addr, |idx| {
                        ctx.charge_shared(warp_bank_cycles(idx), BankStats::default())
                    });
                }
                let sh = ctx.shared_mut();
                self.for_each_instance(n_in, *addr, |p, i| sh[ping + i * bs + p] = sh[addr(p, i)]);
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
        let value = |sh: &[C32], p: usize, i: usize| {
            let v = sh[final_base + i * bs + p];
            if scale != 1.0 {
                v.scale(scale)
            } else {
                v
            }
        };
        if scale != 1.0 {
            ctx.add_flops(2 * (n_out * self.active_pencils) as u64);
        }
        match &io.output {
            PencilTarget::Global { buf, addr } => {
                if ctx.is_metered() {
                    self.for_each_transfer_warp(n_out, io.output_order, *addr, |idx| {
                        ctx.charge_global_store(*buf, idx)
                    });
                }
                self.for_each_instance(n_out, *addr, |p, i| {
                    let v = value(ctx.shared(), p, i);
                    ctx.global_store(*buf, addr(p, i), v);
                });
            }
            PencilTarget::Shared { addr } => {
                if ctx.is_metered() {
                    self.for_each_transfer_warp(n_out, io.output_order, *addr, |idx| {
                        ctx.charge_shared(BankStats::default(), warp_bank_cycles(idx))
                    });
                }
                let sh = ctx.shared_mut();
                self.for_each_instance(n_out, *addr, |p, i| sh[addr(p, i)] = value(sh, p, i));
            }
        }
    }
}
