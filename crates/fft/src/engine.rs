//! Executes an [`FftPlan`] inside one simulated thread block.
//!
//! The engine owns the shared-memory choreography of the paper's FFT
//! kernel: pencils are staged in a ping/pong pair of shared regions using
//! the interleaved layout `elem = idx * bs + pencil` (consecutive threads
//! work on consecutive pencils — the conflict-free arrangement batched FFTs
//! use internally), every butterfly stage issues its loads/stores as
//! warp-level transactions, and a `__syncthreads()` separates stages.
//!
//! Input and output are pluggable ([`PencilTarget`]): global memory for the
//! standalone kernels, shared memory for the fused FFT→CGEMM forwarding and
//! the CGEMM→iFFT epilogue (where the bank-conflict story of the paper's
//! Figs. 7–8 plays out — the fused kernel in `turbofno` drives those
//! patterns through this same engine).

use crate::cache::shared_trace;
use crate::plan::{FftOpKind, FftPlan};
use std::sync::{Arc, OnceLock};
use tfno_gpu_sim::{BlockCtx, BufferId, WarpIdx, WARP_SIZE};
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

/// One lane's butterfly operation, resolved at trace-build time.
#[derive(Clone, Copy)]
struct TraceLaneOp {
    sum: bool,
    has_a: bool,
    has_b: bool,
    w: Option<C32>,
}

/// One warp-sized chunk of a butterfly stage with every index pattern and
/// per-lane op precomputed.
struct TraceChunk {
    /// `None` when no lane reads this operand (fully pruned input) — the
    /// load is skipped entirely at replay.
    idx_a: Option<WarpIdx>,
    idx_b: Option<WarpIdx>,
    idx_dst: WarpIdx,
    lane: [Option<TraceLaneOp>; WARP_SIZE],
    flops: u64,
}

struct TraceStage {
    chunks: Vec<TraceChunk>,
    load_shared: bool,
    store_shared: bool,
}

/// Precomputed butterfly schedule of one block shape.
///
/// Every block of a launch executes the same instruction sequence over
/// different data, so the warp index patterns and per-lane op selections of
/// the butterfly stages are block-invariant. Building them once and
/// replaying per block removes the per-block address arithmetic that
/// dominated the functional executor's FFT cost (only the actual data
/// movement, compute, and event accounting remain per block).
pub struct ButterflyTrace {
    stages: Vec<TraceStage>,
    /// Staging region holding the final values (after ping/pong swaps).
    final_base: usize,
}

impl ButterflyTrace {
    /// Heap plus inline bytes this trace occupies.
    pub(crate) fn bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .stages
                .iter()
                .map(|s| {
                    std::mem::size_of::<TraceStage>()
                        + s.chunks.capacity() * std::mem::size_of::<TraceChunk>()
                })
                .sum::<usize>()
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

    /// Precompute the butterfly schedule for this block shape.
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
            let instances = stage.ops.len() * bs;
            let mut chunks = Vec::with_capacity(instances.div_ceil(WARP_SIZE));
            let mut inst = 0;
            while inst < instances {
                let mut lane_ops: [Option<(usize, usize)>; WARP_SIZE] = [None; WARP_SIZE];
                for (lane, slot) in lane_ops.iter_mut().enumerate() {
                    let i = inst + lane;
                    if i < instances {
                        let pencil = i % bs;
                        *slot = (pencil < self.active_pencils).then_some((pencil, i / bs));
                    }
                }
                let idx_a = WarpIdx::from_fn(|l| {
                    lane_ops[l].and_then(|(p, j)| {
                        stage.ops[j].a.map(|a| src_base + a as usize * bs + p)
                    })
                });
                let idx_b = WarpIdx::from_fn(|l| {
                    lane_ops[l].and_then(|(p, j)| {
                        stage.ops[j].b.map(|b| src_base + b as usize * bs + p)
                    })
                });
                let idx_dst = WarpIdx::from_fn(|l| {
                    lane_ops[l].map(|(p, j)| dst_base + stage.ops[j].dst as usize * bs + p)
                });
                let mut lane = [None; WARP_SIZE];
                let mut flops = 0u64;
                for l in 0..WARP_SIZE {
                    if let Some((_p, j)) = lane_ops[l] {
                        let op = &stage.ops[j];
                        lane[l] = Some(TraceLaneOp {
                            sum: matches!(op.kind, FftOpKind::Sum),
                            has_a: op.a.is_some(),
                            has_b: op.b.is_some(),
                            w: op.w,
                        });
                        flops += op.flops();
                    }
                }
                chunks.push(TraceChunk {
                    idx_a: (idx_a.active_lanes() > 0).then_some(idx_a),
                    idx_b: (idx_b.active_lanes() > 0).then_some(idx_b),
                    idx_dst,
                    lane,
                    flops,
                });
                inst += WARP_SIZE;
            }
            stages.push(TraceStage {
                chunks,
                load_shared,
                store_shared,
            });
            std::mem::swap(&mut src_base, &mut dst_base);
        }
        ButterflyTrace {
            stages,
            final_base: src_base,
        }
    }

    /// Run the planned FFT using a precomputed [`ButterflyTrace`] (which
    /// must have been built from an identically-configured engine).
    pub fn run_traced(&self, ctx: &mut BlockCtx<'_>, io: &FftIo<'_>, trace: &ButterflyTrace) {
        let plan = self.plan;
        let bs = self.bs_layout;
        debug_assert!(self.active_pencils <= bs);
        debug_assert!(
            ctx.shared_len() >= self.pong_base + plan.n * bs,
            "shared staging region out of bounds"
        );
        debug_assert_eq!(trace.stages.len(), plan.stages.len());

        // ---- load: input -> ping region ----
        // The real kernel gathers straight into registers; the staging
        // store is bookkeeping of the functional model, not shared traffic.
        self.transfer_in(ctx, io);

        // ---- butterfly stages, ping-pong (precomputed schedule) ----
        for stage in &trace.stages {
            for chunk in &stage.chunks {
                ctx.set_shared_metering(stage.load_shared);
                let zero = [C32::ZERO; WARP_SIZE];
                let a_vals = match &chunk.idx_a {
                    Some(idx) => ctx.shared_load(idx),
                    None => zero,
                };
                let b_vals = match &chunk.idx_b {
                    Some(idx) => ctx.shared_load(idx),
                    None => zero,
                };
                ctx.set_shared_metering(true);

                let mut out = [C32::ZERO; WARP_SIZE];
                for l in 0..WARP_SIZE {
                    if let Some(op) = chunk.lane[l] {
                        let a = if op.has_a { a_vals[l] } else { C32::ZERO };
                        let b = if op.has_b { b_vals[l] } else { C32::ZERO };
                        let v = if op.sum { a + b } else { a - b };
                        out[l] = match op.w {
                            Some(w) => v * w,
                            None => v,
                        };
                    }
                }
                ctx.add_flops(chunk.flops);

                ctx.set_shared_metering(stage.store_shared);
                ctx.shared_store(&chunk.idx_dst, &out);
                ctx.set_shared_metering(true);
            }
            if stage.store_shared {
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

    /// Gather input pencils into the ping region (zero-padding applied by
    /// only loading the `n_in_valid` prefix — the padded tail is never read
    /// thanks to plan pruning).
    fn transfer_in(&self, ctx: &mut BlockCtx<'_>, io: &FftIo<'_>) {
        let plan = self.plan;
        let bs = self.bs_layout;
        let n_in = plan.n_in_valid;
        let instances = n_in * bs;
        let mut inst = 0;
        while inst < instances {
            let mut lane_pi = [None; WARP_SIZE];
            for (lane, slot) in lane_pi.iter_mut().enumerate() {
                let i = inst + lane;
                if i < instances {
                    let (pencil, idx) = Self::split(i, bs, n_in, io.input_order);
                    *slot = (pencil < self.active_pencils).then_some((pencil, idx));
                }
            }
            let vals = match &io.input {
                PencilTarget::Global { buf, addr } => {
                    let gidx =
                        WarpIdx::from_fn(|l| lane_pi[l].map(|(p, i): (usize, usize)| addr(p, i)));
                    ctx.global_read(*buf, &gidx)
                }
                PencilTarget::Shared { addr } => {
                    let sidx =
                        WarpIdx::from_fn(|l| lane_pi[l].map(|(p, i): (usize, usize)| addr(p, i)));
                    ctx.shared_load(&sidx)
                }
            };
            // staging store models registers, not a shared transaction
            let dst = WarpIdx::from_fn(|l| lane_pi[l].map(|(p, i)| self.ping_base + i * bs + p));
            ctx.set_shared_metering(false);
            ctx.shared_store(&dst, &vals);
            ctx.set_shared_metering(true);
            inst += WARP_SIZE;
        }
    }

    /// Scatter the kept outputs (applying the inverse-FFT scale).
    fn transfer_out(&self, ctx: &mut BlockCtx<'_>, io: &FftIo<'_>, final_base: usize) {
        let plan = self.plan;
        let bs = self.bs_layout;
        let n_out = plan.n_out_keep;
        let scale = plan.scale;
        let instances = n_out * bs;
        let mut inst = 0;
        while inst < instances {
            let mut lane_pi = [None; WARP_SIZE];
            for (lane, slot) in lane_pi.iter_mut().enumerate() {
                let i = inst + lane;
                if i < instances {
                    let (pencil, idx) = Self::split(i, bs, n_out, io.output_order);
                    *slot = (pencil < self.active_pencils).then_some((pencil, idx));
                }
            }
            // the final values live in registers; the staging read is free
            let src = WarpIdx::from_fn(|l| {
                lane_pi[l].map(|(p, i): (usize, usize)| final_base + i * bs + p)
            });
            ctx.set_shared_metering(false);
            let mut vals = ctx.shared_load(&src);
            ctx.set_shared_metering(true);
            if scale != 1.0 {
                let mut flops = 0u64;
                for l in 0..WARP_SIZE {
                    if lane_pi[l].is_some() {
                        vals[l] = vals[l].scale(scale);
                        flops += 2;
                    }
                }
                ctx.add_flops(flops);
            }
            match &io.output {
                PencilTarget::Global { buf, addr } => {
                    let gidx = WarpIdx::from_fn(|l| lane_pi[l].map(|(p, i)| addr(p, i)));
                    ctx.global_write(*buf, &gidx, &vals);
                }
                PencilTarget::Shared { addr } => {
                    let sidx = WarpIdx::from_fn(|l| lane_pi[l].map(|(p, i)| addr(p, i)));
                    ctx.shared_store(&sidx, &vals);
                }
            }
            inst += WARP_SIZE;
        }
    }
}
