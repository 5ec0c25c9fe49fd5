//! Kernel trait, block execution context, and the launch machinery.
//!
//! Kernels are written warp-synchronously against [`BlockCtx`]; the device
//! executes blocks (in parallel across host threads via a work-stealing
//! cursor — blocks are independent by construction, exactly as on
//! hardware) and merges their event counts into a [`LaunchRecord`].
//!
//! Global-memory semantics are CUDA's: reads observe pre-launch state,
//! writes become visible after the launch. Cross-block write conflicts are
//! detected when `validate_writes` is enabled (default in debug builds).
//!
//! ## The functional executor
//!
//! Each worker owns one reusable [`BlockCtx`] (shared-memory scratch and
//! stats allocated once per launch, not per block) and one
//! [`WriteJournal`] that run-length-compresses contiguous stores. Workers
//! claim blocks from an atomic cursor — work stealing, so a slow remainder
//! block never idles the other workers the way static chunking would.
//! When the launch completes, the journals are validated (interval
//! overlap per buffer) and applied (`memcpy` per run), both sharded per
//! buffer across workers.
//!
//! ## Metering
//!
//! A metered [`BlockCtx`] charges every warp access as it moves data:
//! 32-byte sectors per global access, bank-conflict phases per shared
//! access. That per-access math is most of the executor's host time, and
//! it is a pure function of the kernel's structure: a kernel body has one
//! path and never branches on metering or on the data it moves. A
//! functional launch therefore runs its blocks unmetered — they move
//! exactly the same data but count only the structural events (blocks,
//! warps, flops, barriers) — and attaches the counts of its analytical
//! launch ([`run_analytical_stats`], memoized per structure by the
//! [launch memo](crate::memo)), so a functional and an analytical launch
//! of one kernel carry the same [`LaunchRecord`]. Two checks tie the
//! attached counts to the blocks that ran:
//!
//! * in every build, the unmetered run's structural counts must equal the
//!   attached ones (a mismatch means two kernels share a fingerprint but
//!   not a structure);
//! * with [`GpuDevice::validate_writes`] on (the debug-build default) the
//!   blocks run metered instead, and every counter must match (a mismatch
//!   also catches an access pattern that depends on the data it moves).
//!
//! [`run_functional_eager`], the host backend's data path, reports the
//! structural counts only.
//!
//! ## Analytical launches
//!
//! Analytical mode executes one representative block per equivalence class
//! and scales the counts. Kernels that implement
//! [`Kernel::fingerprint`] additionally get memoized through the
//! process-wide [launch memo](crate::memo): a repeated launch of an
//! identical shape returns the cached [`KernelStats`] without touching a
//! single block.

use crate::access::KernelAccess;
use crate::cost::CostModel;
use crate::device::DeviceConfig;
use crate::exec::{self, PendingLaunch};
use crate::fault::{FaultKind, FaultPlan, FaultState, FaultStats, LaunchError};
use crate::journal::{self, WriteJournal};
use crate::memo;
use crate::memory::{BufferId, GlobalMemory};
use crate::shared::SharedMem;
use crate::stats::KernelStats;
use crate::warp::{WarpIdx, WARP_SIZE};
use std::sync::atomic::{AtomicUsize, Ordering};
use tfno_num::C32;

/// Launch geometry + static kernel metadata used by the cost model.
#[derive(Clone, Copy, Debug)]
pub struct LaunchDims {
    /// Number of thread blocks in the grid.
    pub grid_blocks: usize,
    /// Threads per block (multiple of 32 in every kernel we build).
    pub threads_per_block: u32,
    /// Dynamic shared memory per block in bytes.
    pub shared_bytes: usize,
    /// Registers per thread (an estimate the kernel declares; feeds the
    /// occupancy calculation like `-maxrregcount` would).
    pub regs_per_thread: u32,
    /// Fraction of global *load* bytes served by L1/L2 instead of DRAM.
    /// Encodes the dataflow-locality differences the paper discusses
    /// (spatial-order FFT reads cache well; k-loop-ordered reads do not).
    pub l1_hit_rate: f64,
    /// Fraction of the non-dominant resource times that cannot be hidden
    /// under the dominant one. Homogeneous streaming kernels overlap well
    /// (small values); fused kernels whose phases are separated by
    /// `__syncthreads` serialize much of their compute against their
    /// memory traffic — the intra-kernel dependency cost the paper pays
    /// for fusion (§5.1 A.2).
    pub serialization: f64,
}

impl LaunchDims {
    pub fn new(grid_blocks: usize, threads_per_block: u32) -> Self {
        LaunchDims {
            grid_blocks,
            threads_per_block,
            shared_bytes: 0,
            regs_per_thread: 32,
            l1_hit_rate: 0.0,
            serialization: 0.08,
        }
    }

    pub fn with_shared(mut self, bytes: usize) -> Self {
        self.shared_bytes = bytes;
        self
    }

    pub fn with_regs(mut self, regs: u32) -> Self {
        self.regs_per_thread = regs;
        self
    }

    pub fn with_l1_hit_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate));
        self.l1_hit_rate = rate;
        self
    }

    pub fn with_serialization(mut self, s: f64) -> Self {
        assert!((0.0..=1.0).contains(&s));
        self.serialization = s;
        self
    }

    pub fn warps_per_block(&self) -> u32 {
        self.threads_per_block.div_ceil(WARP_SIZE as u32)
    }
}

/// A simulated GPU kernel.
pub trait Kernel: Sync {
    /// Kernel name for launch records and reports.
    fn name(&self) -> String;

    /// Launch geometry and static metadata.
    fn dims(&self) -> LaunchDims;

    /// Execute one thread block functionally, issuing all memory traffic
    /// through `ctx` so it is counted.
    fn run_block(&self, block_id: usize, ctx: &mut BlockCtx<'_>);

    /// Equivalence classes of blocks for analytical launches: pairs of
    /// `(representative_block_id, class_size)`. Analytical mode executes one
    /// representative per class (writes discarded) and scales its event
    /// counts by the class size — exact whenever all blocks of a class issue
    /// the same access *pattern* (ours all do; property tests in the kernel
    /// crates verify functional == analytical).
    ///
    /// The default declares the whole grid one class. Kernels with remainder
    /// blocks (partial tiles) must override this.
    fn block_classes(&self) -> Vec<(usize, u64)> {
        vec![(0, self.dims().grid_blocks as u64)]
    }

    /// Name-independent structural fingerprint of this kernel's access
    /// pattern, or `None` (the default) to opt out of the analytical
    /// launch memo.
    ///
    /// Contract: two kernels with equal fingerprints, equal [`dims`]
    /// (bitwise) and equal [`block_classes`] must record identical
    /// [`KernelStats`] from an analytical launch — so the fingerprint must
    /// cover every parameter that shapes address patterns or operation
    /// counts (plans, tile configs, strides, view bases, epilogue flags),
    /// while kernel names and buffer identities stay out. Build it with
    /// [`memo::structural_fingerprint`], whose type tag keeps different
    /// kernel families from ever colliding.
    ///
    /// [`dims`]: Kernel::dims
    /// [`block_classes`]: Kernel::block_classes
    fn fingerprint(&self) -> Option<u64> {
        None
    }

    /// Declared static access sets (see [`crate::access`]), or `None` (the
    /// default) to opt out of plan verification — the verifier skips
    /// opaque kernels rather than guess.
    ///
    /// Contract: the returned sets are *exact* — every element any block
    /// reads appears in `reads`, every element a block writes appears in
    /// that block's `block_writes` partition, and nothing else does. Like
    /// [`Kernel::fingerprint`], the sets are a pure function of the
    /// kernel's structure; only the [`BufferId`]s carry identity.
    fn access(&self) -> Option<KernelAccess> {
        None
    }
}

/// One recorded kernel launch.
#[derive(Clone, Debug)]
pub struct LaunchRecord {
    pub name: String,
    pub dims_grid: usize,
    pub stats: KernelStats,
    /// Modeled execution time in microseconds (includes launch overhead).
    pub time_us: f64,
}

/// Execution mode for a launch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Run every block, move real data, count real events.
    Functional,
    /// Skip execution; use the kernel's closed-form `predict_stats`.
    Analytical,
}

/// Per-block execution context handed to `Kernel::run_block`.
///
/// One context is reused for every block a worker executes: shared-memory
/// scratch is zeroed between blocks (allocation and bank statistics
/// persist) and global writes accumulate in the worker's journal.
pub struct BlockCtx<'a> {
    pub block_id: usize,
    pub dims: LaunchDims,
    shared: SharedMem,
    stats: KernelStats,
    gmem: &'a GlobalMemory,
    journal: WriteJournal,
    /// When false, global and shared accesses move data but skip all
    /// traffic accounting (sector math, bank-conflict cycles) — see the
    /// module docs on metering.
    metered: bool,
}

impl<'a> BlockCtx<'a> {
    fn new(dims: LaunchDims, gmem: &'a GlobalMemory) -> Self {
        BlockCtx {
            block_id: 0,
            dims,
            shared: SharedMem::new(dims.shared_bytes),
            stats: KernelStats::ZERO,
            gmem,
            journal: WriteJournal::new(),
            metered: true,
        }
    }

    fn new_unmetered(dims: LaunchDims, gmem: &'a GlobalMemory) -> Self {
        let mut ctx = Self::new(dims, gmem);
        ctx.metered = false;
        ctx.shared.metered = false;
        ctx
    }

    /// Arm the context for the next block: fresh zeroed shared scratch,
    /// block/warp counters bumped, journal kept accumulating.
    fn begin_block(&mut self, block_id: usize) {
        self.block_id = block_id;
        self.stats.blocks += 1;
        self.stats.warps += self.dims.warps_per_block() as u64;
        self.shared.reset_for_block();
        // reset_for_block unconditionally re-arms shared metering; an
        // unmetered context must stay unmetered for every block it runs.
        self.shared.metered = self.metered;
    }

    /// Warp-level global load. Observes pre-launch buffer contents.
    pub fn global_read(&mut self, buf: BufferId, idx: &WarpIdx) -> [C32; WARP_SIZE] {
        if self.metered {
            let cost = self.gmem.access_cost(buf, idx);
            self.stats.global_load_bytes += cost.bytes;
            self.stats.global_load_sectors += cost.sectors;
        }
        self.gmem.read_warp(buf, idx)
    }

    /// Warp-level global store. Becomes visible after the launch.
    pub fn global_write(&mut self, buf: BufferId, idx: &WarpIdx, vals: &[C32; WARP_SIZE]) {
        if self.metered {
            let cost = self.gmem.access_cost(buf, idx);
            self.stats.global_store_bytes += cost.bytes;
            self.stats.global_store_sectors += cost.sectors;
        }
        for (lane, elem) in idx.iter_active() {
            self.journal.push(buf, elem, vals[lane]);
        }
    }

    /// Warp-level shared-memory store (bank conflicts counted).
    pub fn shared_store(&mut self, idx: &WarpIdx, vals: &[C32; WARP_SIZE]) {
        self.shared.store_warp(idx, vals);
    }

    /// Warp-level shared-memory load (bank conflicts counted).
    pub fn shared_load(&mut self, idx: &WarpIdx) -> [C32; WARP_SIZE] {
        self.shared.load_warp(idx)
    }

    /// Vectorized shared load: each lane reads `width` consecutive elements
    /// (models LDS.64/LDS.128 fragment loads in the GEMM main loop).
    pub fn shared_load_wide(&mut self, idx: &WarpIdx, width: usize) -> Vec<[C32; WARP_SIZE]> {
        self.shared.load_warp_wide(idx, width)
    }

    /// Vectorized shared store (`vals[v][lane]`).
    pub fn shared_store_wide(&mut self, idx: &WarpIdx, vals: &[[C32; WARP_SIZE]], width: usize) {
        self.shared.store_warp_wide(idx, vals, width)
    }

    /// Toggle shared-memory traffic accounting. While off, accesses still
    /// move data (so functional results stay exact) but are charged as
    /// register traffic — used by the FFT engine to model butterfly stages
    /// that a real kernel keeps entirely in registers within a radix pass.
    /// A context that is itself unmetered never re-enables accounting.
    pub fn set_shared_metering(&mut self, on: bool) {
        self.shared.metered = on && self.metered;
    }

    /// Block-wide barrier. In the functional model execution is already
    /// sequential per block, so this only records the event for costing.
    pub fn syncthreads(&mut self) {
        self.stats.syncthreads += 1;
    }

    /// Record `n` real floating-point operations.
    pub fn add_flops(&mut self, n: u64) {
        self.stats.flops += n;
    }

    /// Size of this block's shared memory in `C32` elements.
    pub fn shared_len(&self) -> usize {
        self.shared.len()
    }

    /// Unmetered shared-memory view for debug assertions in kernels/tests.
    pub fn shared_raw(&self) -> &[C32] {
        self.shared.raw()
    }

    fn finish(mut self) -> WorkerResult {
        self.stats.shared_ideal_cycles =
            self.shared.load_stats.ideal_cycles + self.shared.store_stats.ideal_cycles;
        self.stats.shared_actual_cycles =
            self.shared.load_stats.actual_cycles + self.shared.store_stats.actual_cycles;
        (self.stats, self.journal)
    }
}

/// What one worker's blocks produce: their summed event stats and the
/// journal of global writes to apply when the launch completes.
type WorkerResult = (KernelStats, WriteJournal);

/// The simulated device: global memory + config + launch history.
pub struct GpuDevice {
    pub config: DeviceConfig,
    pub memory: GlobalMemory,
    cost: CostModel,
    launches: Vec<LaunchRecord>,
    /// Detect two blocks writing the same element in one launch, and run
    /// functional blocks metered to cross-check every attached count (see
    /// the module docs on metering).
    pub validate_writes: bool,
    /// Execute blocks on multiple host threads when the grid is large.
    pub parallel: bool,
    /// Use the memoized-analytical launch path (see [`crate::memo`]).
    pub analytical_memo: bool,
    /// Explicit worker-count override; `None` follows the
    /// `TFNO_THREADS`-aware default policy in [`crate::exec`].
    workers: Option<usize>,
    /// Installed fault-injection schedule (see [`crate::fault`]); `None`
    /// keeps every launch/alloc on the infallible fast path.
    faults: Option<FaultState>,
}

impl GpuDevice {
    pub fn new(config: DeviceConfig) -> Self {
        let cost = CostModel::new(config.clone());
        GpuDevice {
            config,
            memory: GlobalMemory::new(),
            cost,
            launches: Vec::new(),
            validate_writes: cfg!(debug_assertions),
            parallel: true,
            analytical_memo: true,
            workers: None,
            faults: None,
        }
    }

    pub fn a100() -> Self {
        Self::new(DeviceConfig::a100())
    }

    /// Pin the functional executor to exactly `n` workers (capped at the
    /// grid size per launch), overriding `TFNO_THREADS` and the
    /// block-count heuristic.
    pub fn with_workers(mut self, n: usize) -> Self {
        self.set_workers(Some(n));
        self
    }

    /// Set or clear the explicit worker-count override.
    pub fn set_workers(&mut self, workers: Option<usize>) {
        self.workers = workers.map(|n| n.max(1));
    }

    /// Worker count the functional executor will use for a grid of
    /// `n_blocks` under the current policy.
    pub fn effective_workers(&self, n_blocks: usize) -> usize {
        if !self.parallel || n_blocks == 0 {
            return 1;
        }
        match self.workers {
            Some(n) => n.min(n_blocks).max(1),
            None => exec::workers_for(n_blocks),
        }
    }

    /// Install a fault-injection schedule (see [`crate::fault`]).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.set_fault_plan(Some(plan));
        self
    }

    /// Install or clear the fault-injection schedule. Installing a plan
    /// resets its event cursors and [`FaultStats`].
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.faults = plan.map(FaultState::new);
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref().map(|f| f.plan())
    }

    /// Injection counters of the installed plan (all-zero when none is
    /// installed).
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.as_ref().map(|f| f.stats()).unwrap_or_default()
    }

    pub fn alloc(&mut self, name: &str, len: usize) -> BufferId {
        self.try_alloc(name, len).unwrap_or_else(|e| {
            panic!("injected device fault unhandled by this call path: {e}; use GpuDevice::try_alloc")
        })
    }

    /// [`GpuDevice::alloc`] with a typed error path: when the installed
    /// [`FaultPlan`] fails this allocation event, returns
    /// [`LaunchError::Oom`] instead of allocating.
    pub fn try_alloc(&mut self, name: &str, len: usize) -> Result<BufferId, LaunchError> {
        if let Some(f) = &self.faults {
            if let Some(idx) = f.next_alloc() {
                return Err(LaunchError::Oom {
                    name: name.to_string(),
                    requested: len,
                    alloc_index: idx,
                });
            }
        }
        Ok(self.memory.alloc(name, len))
    }

    pub fn upload(&mut self, id: BufferId, data: &[C32]) {
        self.memory.upload(id, data);
    }

    pub fn download(&self, id: BufferId) -> Vec<C32> {
        self.memory.download(id)
    }

    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    pub fn launches(&self) -> &[LaunchRecord] {
        &self.launches
    }

    pub fn clear_launches(&mut self) {
        self.launches.clear();
    }

    /// Total modeled time of all recorded launches (a "pipeline time").
    pub fn total_time_us(&self) -> f64 {
        self.launches.iter().map(|l| l.time_us).sum()
    }

    /// Launch a kernel. Returns the record (also appended to history).
    ///
    /// Equivalent to [`GpuDevice::launch_deferred`] immediately followed
    /// by [`GpuDevice::complete`] — the synchronous contract every
    /// pipeline stage relies on (stage N+1 reads stage N's output).
    pub fn launch(&mut self, kernel: &dyn Kernel, mode: ExecMode) -> LaunchRecord {
        self.try_launch(kernel, mode).unwrap_or_else(|e| {
            panic!("injected device fault unhandled by this call path: {e}; use GpuDevice::try_launch")
        })
    }

    /// [`GpuDevice::launch`] with a typed error path: a fault injected by
    /// the installed [`FaultPlan`] returns a [`LaunchError`] instead of
    /// unwinding. A failed launch is clean — no writes applied, nothing in
    /// the history — so retrying it is always sound.
    pub fn try_launch(
        &mut self,
        kernel: &dyn Kernel,
        mode: ExecMode,
    ) -> Result<LaunchRecord, LaunchError> {
        let pending = self.try_launch_deferred(kernel, mode)?;
        Ok(self.complete(pending))
    }

    /// Issue a launch without applying its writes — the asynchronous half
    /// of [`GpuDevice::launch`]. Blocks execute now (reads observe the
    /// current memory state; global stores accumulate in write journals),
    /// but memory is untouched and nothing lands in the launch history
    /// until the returned [`PendingLaunch`] goes through
    /// [`GpuDevice::complete`]. Note the `&self` receiver: between issue
    /// and completion the caller keeps shared access to the device, which
    /// models a CUDA host thread continuing past an async kernel launch.
    pub fn launch_deferred(&self, kernel: &dyn Kernel, mode: ExecMode) -> PendingLaunch {
        self.try_launch_deferred(kernel, mode).unwrap_or_else(|e| {
            panic!(
                "injected device fault unhandled by this call path: {e}; \
                 use GpuDevice::try_launch_deferred"
            )
        })
    }

    /// [`GpuDevice::launch_deferred`] with a typed error path (see
    /// [`GpuDevice::try_launch`]).
    pub fn try_launch_deferred(
        &self,
        kernel: &dyn Kernel,
        mode: ExecMode,
    ) -> Result<PendingLaunch, LaunchError> {
        let dims = kernel.dims();
        assert!(dims.grid_blocks > 0, "empty grid for kernel {}", kernel.name());
        self.check_launch_fault(kernel, mode)?;
        let (stats, journals, workers) = match mode {
            ExecMode::Analytical => (self.run_analytical(kernel, dims), Vec::new(), 1),
            ExecMode::Functional => self.run_functional(kernel, dims),
        };
        Ok(PendingLaunch {
            name: kernel.name(),
            dims,
            stats,
            journals,
            workers,
        })
    }

    /// Roll the installed fault plan for one functional launch. A drawn
    /// stall blocks the caller and then lets the launch proceed; the
    /// failure kinds abort it before any block runs (a worker panic is
    /// modeled at its observable boundary — the launch discarded whole, as
    /// if every journal died with the worker — so no thread actually
    /// unwinds and chaos soaks stay quiet). Analytical launches model
    /// host-side cost math, not device work, and are never faulted.
    fn check_launch_fault(&self, kernel: &dyn Kernel, mode: ExecMode) -> Result<(), LaunchError> {
        if mode != ExecMode::Functional {
            return Ok(());
        }
        let Some(f) = &self.faults else {
            return Ok(());
        };
        match f.next_launch() {
            None => Ok(()),
            Some((_, FaultKind::Stall)) => {
                std::thread::sleep(std::time::Duration::from_micros(f.stall_us()));
                Ok(())
            }
            Some((launch_index, FaultKind::TransientLaunch)) => Err(LaunchError::Transient {
                kernel: kernel.name(),
                launch_index,
            }),
            Some((launch_index, FaultKind::WorkerPanic)) => Err(LaunchError::WorkerPanic {
                kernel: kernel.name(),
                launch_index,
            }),
            Some((_, FaultKind::Alloc)) => unreachable!("at_launch rejects FaultKind::Alloc"),
        }
    }

    /// Complete a deferred launch: validate and apply its write journals
    /// (making the kernel's stores visible, as a stream synchronize
    /// would), cost it, and append it to the launch history.
    pub fn complete(&mut self, pending: PendingLaunch) -> LaunchRecord {
        let PendingLaunch {
            name,
            dims,
            stats,
            journals,
            workers,
        } = pending;
        if !journals.is_empty() {
            journal::apply_journals(
                &mut self.memory,
                &journals,
                self.validate_writes,
                workers,
                &name,
            );
        }
        let time_us = self.cost.kernel_time_us(&dims, &stats);
        let rec = LaunchRecord {
            name,
            dims_grid: dims.grid_blocks,
            stats,
            time_us,
        };
        self.launches.push(rec.clone());
        rec
    }

    /// Analytical launch: run one representative block per class (writes
    /// discarded) and scale the counts — unless a memoized launch of the
    /// same signature already did.
    fn run_analytical(&self, kernel: &dyn Kernel, dims: LaunchDims) -> KernelStats {
        debug_assert_eq!(dims.grid_blocks, kernel.dims().grid_blocks);
        run_analytical_stats(&self.memory, kernel, self.analytical_memo)
    }

    /// Functional launch body: run every block — metered only with
    /// `validate_writes` on — and return the analytical counts, checked
    /// against what the blocks counted (see the module docs on metering),
    /// plus the unapplied per-worker write journals.
    fn run_functional(
        &self,
        kernel: &dyn Kernel,
        dims: LaunchDims,
    ) -> (KernelStats, Vec<WriteJournal>, usize) {
        let metered = self.validate_writes;
        let (counted, journals, workers) = self.run_blocks(kernel, dims, metered);
        let stats = self.run_analytical(kernel, dims);
        if metered {
            assert_eq!(
                counted,
                stats,
                "kernel '{}' counted different events than its analytical launch: its \
                 access pattern depends on the data it moves, or its fingerprint does \
                 not cover its structure",
                kernel.name()
            );
        } else {
            assert_eq!(
                counted,
                stats.structural(),
                "kernel '{}' ran different structural counts than its memoized analytical \
                 launch: its fingerprint does not cover its structure",
                kernel.name()
            );
        }
        (stats, journals, workers)
    }

    /// Work-stealing block execution (see the module docs): run every
    /// block and return the summed stats plus the unapplied per-worker
    /// write journals. The synchronous launch path applies the journals
    /// immediately; the deferred path hands them to the caller inside a
    /// [`PendingLaunch`].
    fn run_blocks(
        &self,
        kernel: &dyn Kernel,
        dims: LaunchDims,
        metered: bool,
    ) -> (KernelStats, Vec<WriteJournal>, usize) {
        let n_blocks = dims.grid_blocks;
        let workers = self.effective_workers(n_blocks);
        let new_ctx = if metered { BlockCtx::new } else { BlockCtx::new_unmetered };

        let (total, journals) = if workers <= 1 {
            let mut ctx = new_ctx(dims, &self.memory);
            for b in 0..n_blocks {
                ctx.begin_block(b);
                kernel.run_block(b, &mut ctx);
            }
            let (stats, journal) = ctx.finish();
            (stats, vec![journal])
        } else {
            let gmem = &self.memory;
            let cursor = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut ctx = new_ctx(dims, gmem);
                            loop {
                                let b = cursor.fetch_add(1, Ordering::Relaxed);
                                if b >= n_blocks {
                                    break;
                                }
                                ctx.begin_block(b);
                                kernel.run_block(b, &mut ctx);
                            }
                            ctx.finish()
                        })
                    })
                    .collect();
                let mut total = KernelStats::ZERO;
                let mut journals = Vec::with_capacity(workers);
                for h in handles {
                    // Invariant: workers run user kernels, whose documented
                    // failure modes (validation asserts) fire on the host
                    // side of the launch, not inside `run_block`; a worker
                    // panic here is a kernel bug, so re-raising is correct.
                    // Injected worker-panic faults never reach this point —
                    // they abort the launch at issue (see `crate::fault`).
                    let (stats, journal) = h.join().expect("block worker panicked");
                    total += stats;
                    journals.push(journal);
                }
                (total, journals)
            })
        };
        (total, journals, workers)
    }
}

/// Analytical stats of one launch against `memory` — one representative
/// block per equivalence class, counts scaled by class size, memoized
/// through the process-wide [launch memo](crate::memo) when `use_memo`
/// is set.
///
/// This is the device-independent core of the analytical launch path,
/// shared by [`GpuDevice`] and the `tfno-backend` host backend so both
/// produce bit-identical stats (and share the same memo entries) for the
/// same kernel and device geometry.
pub fn run_analytical_stats(
    memory: &GlobalMemory,
    kernel: &dyn Kernel,
    use_memo: bool,
) -> KernelStats {
    let dims = kernel.dims();
    let classes = kernel.block_classes();
    let declared: u64 = classes.iter().map(|(_, c)| c).sum();
    assert_eq!(
        declared,
        dims.grid_blocks as u64,
        "block_classes of '{}' cover {declared} blocks but the grid has {}",
        kernel.name(),
        dims.grid_blocks
    );
    let key = if use_memo {
        memo::signature(kernel.fingerprint(), &dims, &classes)
    } else {
        None
    };
    if let Some(key) = key {
        if let Some(stats) = memo::lookup(key) {
            return stats;
        }
    }
    let mut total = KernelStats::ZERO;
    for (rep, count) in classes {
        assert!(rep < dims.grid_blocks, "representative block out of grid");
        let mut ctx = BlockCtx::new(dims, memory);
        ctx.begin_block(rep);
        kernel.run_block(rep, &mut ctx);
        let (stats, _writes) = ctx.finish();
        total += stats.scaled(count);
    }
    if let Some(key) = key {
        memo::insert(key, total);
    }
    total
}

/// Execute a kernel's functional body eagerly against `memory`: every
/// block runs with traffic accounting switched off (no sector math, no
/// bank-conflict cycles), writes are applied immediately at return with no
/// conflict validation, and nothing is journaled past the call.
///
/// This is the `tfno-backend` host backend's data path. It is functionally
/// exact — the same `run_block` bodies execute, reads observe pre-launch
/// memory (writes buffer per worker until the blocks finish, preserving
/// CUDA read visibility), and block writes are disjoint by the kernel
/// contract — but it pays none of the simulator's modeling costs. The
/// returned stats carry only the structural counters (blocks, warps,
/// flops, syncthreads); all traffic fields are zero.
///
/// Blocks are statically chunked across `workers` host threads (capped at
/// the grid size), so the execution — and therefore the journal
/// application order — is deterministic for a fixed worker count.
pub fn run_functional_eager(
    memory: &mut GlobalMemory,
    kernel: &dyn Kernel,
    workers: usize,
) -> KernelStats {
    let dims = kernel.dims();
    let n_blocks = dims.grid_blocks;
    assert!(n_blocks > 0, "empty grid for kernel {}", kernel.name());
    let workers = workers.clamp(1, n_blocks);

    let results: Vec<WorkerResult> = if workers <= 1 {
        let mut ctx = BlockCtx::new_unmetered(dims, memory);
        for b in 0..n_blocks {
            ctx.begin_block(b);
            kernel.run_block(b, &mut ctx);
        }
        vec![ctx.finish()]
    } else {
        let gmem = &*memory;
        let chunk = n_blocks.div_ceil(workers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    scope.spawn(move || {
                        let mut ctx = BlockCtx::new_unmetered(dims, gmem);
                        let lo = w * chunk;
                        let hi = ((w + 1) * chunk).min(n_blocks);
                        for b in lo..hi {
                            ctx.begin_block(b);
                            kernel.run_block(b, &mut ctx);
                        }
                        ctx.finish()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("eager block worker panicked"))
                .collect()
        })
    };

    let mut total = KernelStats::ZERO;
    let journals: Vec<WriteJournal> = results
        .into_iter()
        .map(|(stats, journal)| {
            total += stats;
            journal
        })
        .collect();
    journal::apply_journals(memory, &journals, false, workers, &kernel.name());
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceConfig;

    /// A toy kernel: each block scales 32 contiguous elements by 2.
    struct ScaleKernel {
        src: BufferId,
        dst: BufferId,
        blocks: usize,
    }

    impl Kernel for ScaleKernel {
        fn name(&self) -> String {
            "scale2".into()
        }
        fn dims(&self) -> LaunchDims {
            LaunchDims::new(self.blocks, 32).with_shared(1024)
        }
        fn run_block(&self, block_id: usize, ctx: &mut BlockCtx<'_>) {
            let idx = WarpIdx::contiguous(block_id * 32);
            let vals = ctx.global_read(self.src, &idx);
            let mut out = [C32::ZERO; 32];
            for (o, v) in out.iter_mut().zip(vals.iter()) {
                *o = v.scale(2.0);
            }
            ctx.add_flops(64);
            ctx.syncthreads();
            ctx.global_write(self.dst, &idx, &out);
        }
        fn fingerprint(&self) -> Option<u64> {
            Some(memo::structural_fingerprint("test.scale2", |h| {
                use std::hash::Hash;
                self.blocks.hash(h);
            }))
        }
    }

    fn expected_stats(blocks: u64) -> KernelStats {
        KernelStats {
            blocks,
            warps: blocks,
            flops: 64 * blocks,
            global_load_bytes: 256 * blocks,
            global_store_bytes: 256 * blocks,
            global_load_sectors: 8 * blocks,
            global_store_sectors: 8 * blocks,
            syncthreads: blocks,
            ..KernelStats::ZERO
        }
    }

    fn setup(blocks: usize) -> (GpuDevice, BufferId, BufferId) {
        let mut dev = GpuDevice::new(DeviceConfig::a100());
        let n = blocks * 32;
        let src = dev.alloc("src", n);
        let dst = dev.alloc("dst", n);
        let data: Vec<C32> = (0..n).map(|i| C32::real(i as f32)).collect();
        dev.upload(src, &data);
        (dev, src, dst)
    }

    #[test]
    fn functional_execution_moves_data() {
        let (mut dev, src, dst) = setup(4);
        let k = ScaleKernel { src, dst, blocks: 4 };
        dev.launch(&k, ExecMode::Functional);
        let out = dev.download(dst);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, C32::real(2.0 * i as f32));
        }
    }

    #[test]
    fn functional_stats_match_prediction() {
        let (mut dev, src, dst) = setup(7);
        let k = ScaleKernel { src, dst, blocks: 7 };
        let rec = dev.launch(&k, ExecMode::Functional);
        assert_eq!(rec.stats, expected_stats(7));
        let rec_a = dev.launch(&k, ExecMode::Analytical);
        assert_eq!(rec_a.stats, rec.stats, "analytical must equal functional");
    }

    #[test]
    fn parallel_execution_matches_sequential() {
        let (mut dev_seq, src, dst) = setup(64);
        dev_seq.parallel = false;
        let k = ScaleKernel { src, dst, blocks: 64 };
        let rec_seq = dev_seq.launch(&k, ExecMode::Functional);
        let out_seq = dev_seq.download(dst);

        let (dev_par, src2, dst2) = setup(64);
        let mut dev_par = dev_par.with_workers(4);
        let k2 = ScaleKernel {
            src: src2,
            dst: dst2,
            blocks: 64,
        };
        let rec_par = dev_par.launch(&k2, ExecMode::Functional);
        assert_eq!(rec_seq.stats, rec_par.stats);
        assert_eq!(out_seq, dev_par.download(dst2));
    }

    /// Worker policy: explicit overrides beat the env var and the
    /// block-count gate. (Env-var *parsing* is tested in `exec::tests`
    /// through the pure parser — mutating `TFNO_THREADS` from a test
    /// would race other tests' executors reading it.)
    #[test]
    fn worker_policy_respects_overrides() {
        let dev2 = GpuDevice::new(DeviceConfig::a100()).with_workers(8);
        assert_eq!(dev2.effective_workers(4), 4, "capped at grid");
        assert_eq!(dev2.effective_workers(100), 8);
        let mut dev3 = GpuDevice::new(DeviceConfig::a100()).with_workers(8);
        dev3.parallel = false;
        assert_eq!(dev3.effective_workers(100), 1, "parallel=false wins");
        if std::env::var_os("TFNO_THREADS").is_none() {
            let dev = GpuDevice::new(DeviceConfig::a100());
            assert_eq!(dev.effective_workers(4), 1, "default: small grids stay serial");
        }
    }

    #[test]
    fn analytical_mode_discards_writes() {
        let (mut dev, src, dst) = setup(4);
        let k = ScaleKernel { src, dst, blocks: 4 };
        let rec = dev.launch(&k, ExecMode::Analytical);
        assert_eq!(rec.stats, expected_stats(4));
        // data untouched
        assert_eq!(dev.download(dst)[5], C32::ZERO);
    }

    #[test]
    fn analytical_mode_works_on_virtual_buffers() {
        let mut dev = GpuDevice::new(DeviceConfig::a100());
        let blocks = 1 << 20; // far beyond what we'd want to materialize
        let src = dev.memory.alloc_virtual("src", blocks * 32);
        let dst = dev.memory.alloc_virtual("dst", blocks * 32);
        let k = ScaleKernel { src, dst, blocks };
        let rec = dev.launch(&k, ExecMode::Analytical);
        assert_eq!(rec.stats, expected_stats(blocks as u64));
    }

    #[test]
    fn memoized_analytical_launch_returns_identical_stats() {
        let (mut dev, src, dst) = setup(9);
        let k = ScaleKernel { src, dst, blocks: 9 };
        let cold = dev.launch(&k, ExecMode::Analytical).stats;
        let before = memo::launch_memo_stats();
        let warm = dev.launch(&k, ExecMode::Analytical).stats;
        let after = memo::launch_memo_stats();
        assert_eq!(cold, warm);
        assert!(after.hits > before.hits, "second launch must hit the memo");

        // Disabling the memo on the device gives the same stats, freshly.
        dev.analytical_memo = false;
        let fresh = dev.launch(&k, ExecMode::Analytical).stats;
        assert_eq!(cold, fresh);
    }

    /// A kernel whose block_classes under-covers the grid must be rejected.
    struct BadClassesKernel;
    impl Kernel for BadClassesKernel {
        fn name(&self) -> String {
            "bad".into()
        }
        fn dims(&self) -> LaunchDims {
            LaunchDims::new(4, 32)
        }
        fn run_block(&self, _b: usize, _ctx: &mut BlockCtx<'_>) {}
        fn block_classes(&self) -> Vec<(usize, u64)> {
            vec![(0, 3)]
        }
    }

    #[test]
    #[should_panic(expected = "cover 3 blocks")]
    fn bad_block_classes_rejected() {
        let mut dev = GpuDevice::new(DeviceConfig::a100());
        dev.launch(&BadClassesKernel, ExecMode::Analytical);
    }

    #[test]
    fn launch_history_accumulates() {
        let (mut dev, src, dst) = setup(2);
        let k = ScaleKernel { src, dst, blocks: 2 };
        dev.launch(&k, ExecMode::Analytical);
        dev.launch(&k, ExecMode::Analytical);
        assert_eq!(dev.launches().len(), 2);
        assert!(dev.total_time_us() > 0.0);
        dev.clear_launches();
        assert!(dev.launches().is_empty());
    }

    /// Two blocks writing the same element must be rejected.
    struct ConflictKernel {
        dst: BufferId,
    }
    impl Kernel for ConflictKernel {
        fn name(&self) -> String {
            "conflict".into()
        }
        fn dims(&self) -> LaunchDims {
            LaunchDims::new(2, 32)
        }
        fn run_block(&self, _block: usize, ctx: &mut BlockCtx<'_>) {
            let idx = WarpIdx::contiguous(0); // same elements from both blocks
            ctx.global_write(self.dst, &idx, &[C32::ONE; 32]);
        }
    }

    #[test]
    #[should_panic(expected = "write conflict")]
    fn write_conflicts_detected() {
        let mut dev = GpuDevice::new(DeviceConfig::a100());
        let dst = dev.alloc("dst", 64);
        dev.validate_writes = true;
        dev.parallel = false;
        let k = ConflictKernel { dst };
        dev.launch(&k, ExecMode::Functional);
    }

    /// Deferred issue + complete must be indistinguishable from a
    /// synchronous launch: same stats, same data, same history entry.
    #[test]
    fn deferred_launch_equals_synchronous_launch() {
        let (mut dev_sync, src, dst) = setup(16);
        let k = ScaleKernel { src, dst, blocks: 16 };
        let rec_sync = dev_sync.launch(&k, ExecMode::Functional);
        let out_sync = dev_sync.download(dst);

        let (mut dev_def, src2, dst2) = setup(16);
        let k2 = ScaleKernel {
            src: src2,
            dst: dst2,
            blocks: 16,
        };
        let pending = dev_def.launch_deferred(&k2, ExecMode::Functional);
        assert_eq!(pending.name(), "scale2");
        assert_eq!(*pending.stats(), rec_sync.stats);
        let rec_def = dev_def.complete(pending);
        assert_eq!(rec_def.stats, rec_sync.stats);
        assert_eq!(rec_def.time_us, rec_sync.time_us);
        assert_eq!(dev_def.download(dst2), out_sync);
        assert_eq!(dev_def.launches().len(), 1);
    }

    /// CUDA visibility semantics: between issue and completion the host
    /// observes pre-launch memory, and nothing is in the launch history.
    #[test]
    fn deferred_writes_invisible_until_complete() {
        let (mut dev, src, dst) = setup(4);
        let k = ScaleKernel { src, dst, blocks: 4 };
        let pending = dev.launch_deferred(&k, ExecMode::Functional);
        assert_eq!(
            dev.download(dst)[5],
            C32::ZERO,
            "writes must stay journaled until completion"
        );
        assert!(dev.launches().is_empty(), "history records completions, not issues");
        dev.complete(pending);
        assert_eq!(dev.download(dst)[5], C32::real(10.0));
        assert_eq!(dev.launches().len(), 1);
    }

    /// A depth-D launch queue must end in exactly the state a sequence of
    /// synchronous launches produces, as long as the queued launches are
    /// write-independent (disjoint destinations here).
    #[test]
    fn launch_queue_matches_synchronous_completion() {
        let (mut dev_sync, src, dst) = setup(8);
        let dst2 = dev_sync.alloc("dst2", 8 * 32);
        let k1 = ScaleKernel { src, dst, blocks: 8 };
        let k2 = ScaleKernel { src, dst: dst2, blocks: 8 };
        let r1 = dev_sync.launch(&k1, ExecMode::Functional);
        let r2 = dev_sync.launch(&k2, ExecMode::Functional);
        let want_a = dev_sync.download(dst);
        let want_b = dev_sync.download(dst2);

        let (mut dev_q, src_q, dst_q) = setup(8);
        let dst2_q = dev_q.alloc("dst2", 8 * 32);
        let q1 = ScaleKernel { src: src_q, dst: dst_q, blocks: 8 };
        let q2 = ScaleKernel { src: src_q, dst: dst2_q, blocks: 8 };
        let mut queue = crate::exec::LaunchQueue::new(2);
        let p1 = dev_q.launch_deferred(&q1, ExecMode::Functional);
        assert!(queue.push(&mut dev_q, p1).is_empty(), "window not full yet");
        let p2 = dev_q.launch_deferred(&q2, ExecMode::Functional);
        assert!(queue.push(&mut dev_q, p2).is_empty());
        assert_eq!(queue.in_flight(), 2);
        // Nothing visible until the window drains.
        assert_eq!(dev_q.download(dst_q)[5], C32::ZERO);
        let done = queue.flush(&mut dev_q);
        assert_eq!(done.len(), 2);
        assert_eq!(queue.in_flight(), 0);
        assert_eq!(done[0].stats, r1.stats);
        assert_eq!(done[1].stats, r2.stats);
        assert_eq!(dev_q.download(dst_q), want_a);
        assert_eq!(dev_q.download(dst2_q), want_b);
        assert_eq!(dev_q.launches().len(), 2);
    }

    /// Overflowing the window completes the oldest launch first.
    #[test]
    fn launch_queue_completes_oldest_on_overflow() {
        let (mut dev, src, dst) = setup(4);
        let dst2 = dev.alloc("q.dst2", 4 * 32);
        let k1 = ScaleKernel { src, dst, blocks: 4 };
        let k2 = ScaleKernel { src, dst: dst2, blocks: 4 };
        let mut queue = crate::exec::LaunchQueue::new(1);
        let p1 = dev.launch_deferred(&k1, ExecMode::Functional);
        queue.push(&mut dev, p1);
        let p2 = dev.launch_deferred(&k2, ExecMode::Functional);
        let done = queue.push(&mut dev, p2);
        assert_eq!(done.len(), 1, "depth-1 window completes on the next push");
        assert_eq!(done[0].name, "scale2");
        assert_eq!(dev.download(dst)[5], C32::real(10.0), "oldest applied");
        assert_eq!(dev.download(dst2)[5], C32::ZERO, "newest still journaled");
        queue.flush(&mut dev);
        assert_eq!(dev.download(dst2)[5], C32::real(10.0));
    }

    #[test]
    fn time_increases_with_work() {
        let (mut dev, src, dst) = setup(256);
        let small = ScaleKernel { src, dst, blocks: 4 };
        let t_small = dev.launch(&small, ExecMode::Analytical).time_us;
        let big = ScaleKernel {
            src,
            dst,
            blocks: 256,
        };
        let t_big = dev.launch(&big, ExecMode::Analytical).time_us;
        assert!(t_big > t_small);
    }

    use crate::fault::{FaultKind, FaultPlan, LaunchError};

    /// A faulted launch must be invisible: no writes, no history entry,
    /// and the immediate retry (next launch index) produces the exact
    /// result an unfaulted device would.
    #[test]
    fn transient_fault_leaves_device_clean_and_retry_is_bitwise() {
        let (mut dev, src, dst) = setup(4);
        dev.set_fault_plan(Some(
            FaultPlan::seeded(11).at_launch(0, FaultKind::TransientLaunch),
        ));
        let k = ScaleKernel { src, dst, blocks: 4 };
        let err = dev.try_launch(&k, ExecMode::Functional).unwrap_err();
        assert!(matches!(err, LaunchError::Transient { launch_index: 0, .. }));
        assert!(dev.launches().is_empty(), "failed launch left history");
        assert_eq!(dev.download(dst)[3], C32::ZERO, "failed launch wrote memory");

        let rec = dev.try_launch(&k, ExecMode::Functional).expect("retry succeeds");
        assert_eq!(rec.stats, expected_stats(4));
        let (mut clean, csrc, cdst) = setup(4);
        clean.launch(&ScaleKernel { src: csrc, dst: cdst, blocks: 4 }, ExecMode::Functional);
        assert_eq!(dev.download(dst), clean.download(cdst), "retry is bitwise-equal");
        let st = dev.fault_stats();
        assert_eq!((st.launches_checked, st.transient), (2, 1));
    }

    #[test]
    fn worker_panic_fault_discards_the_whole_launch() {
        let (mut dev, src, dst) = setup(64);
        dev.set_fault_plan(Some(FaultPlan::seeded(3).at_launch(0, FaultKind::WorkerPanic)));
        let k = ScaleKernel { src, dst, blocks: 64 };
        let err = dev.try_launch(&k, ExecMode::Functional).unwrap_err();
        assert!(matches!(err, LaunchError::WorkerPanic { .. }));
        assert!(dev.launches().is_empty());
        assert_eq!(dev.download(dst)[63], C32::ZERO);
        assert_eq!(dev.fault_stats().worker_panics, 1);
        dev.try_launch(&k, ExecMode::Functional).expect("retry succeeds");
        assert_eq!(dev.download(dst)[63], C32::real(126.0));
    }

    #[test]
    fn stall_fault_delays_but_succeeds() {
        let (mut dev, src, dst) = setup(2);
        dev.set_fault_plan(Some(
            FaultPlan::seeded(0).at_launch(0, FaultKind::Stall).stall_us(100),
        ));
        let k = ScaleKernel { src, dst, blocks: 2 };
        let rec = dev.try_launch(&k, ExecMode::Functional).expect("stall still succeeds");
        assert_eq!(rec.stats, expected_stats(2));
        let st = dev.fault_stats();
        assert_eq!((st.stalls, st.injected()), (1, 0));
    }

    #[test]
    fn oom_fault_fails_alloc_then_recovers() {
        let mut dev = GpuDevice::a100().with_faults(FaultPlan::seeded(9).at_alloc(0));
        let err = dev.try_alloc("victim", 128).unwrap_err();
        assert!(matches!(err, LaunchError::Oom { requested: 128, alloc_index: 0, .. }));
        let id = dev.try_alloc("survivor", 128).expect("next alloc succeeds");
        assert_eq!(dev.download(id).len(), 128);
        assert_eq!(dev.fault_stats().oom, 1);
    }

    /// Analytical launches model cost math, not device work: never faulted.
    #[test]
    fn analytical_launches_are_never_faulted() {
        let (mut dev, src, dst) = setup(4);
        dev.set_fault_plan(Some(FaultPlan::seeded(1).transient(1.0)));
        let k = ScaleKernel { src, dst, blocks: 4 };
        dev.try_launch(&k, ExecMode::Analytical).expect("analytical is exempt");
        assert_eq!(dev.fault_stats().launches_checked, 0);
    }

    /// The legacy panicking wrapper converts an injected fault into a
    /// clearly attributed panic pointing at the typed API.
    #[test]
    #[should_panic(expected = "injected device fault")]
    fn panicking_launch_names_the_typed_api() {
        let (mut dev, src, dst) = setup(2);
        dev.set_fault_plan(Some(
            FaultPlan::seeded(2).at_launch(0, FaultKind::TransientLaunch),
        ));
        let k = ScaleKernel { src, dst, blocks: 2 };
        let _ = dev.launch(&k, ExecMode::Functional);
    }

    /// The eager executor moves exactly the data a simulated launch moves
    /// (serial and chunked), with only structural counters recorded.
    #[test]
    fn eager_execution_matches_simulated_launch() {
        let (mut dev, src, dst) = setup(64);
        let k = ScaleKernel { src, dst, blocks: 64 };
        dev.launch(&k, ExecMode::Functional);
        let want = dev.download(dst);

        for workers in [1usize, 4] {
            let (mut eager, src2, dst2) = setup(64);
            let k2 = ScaleKernel { src: src2, dst: dst2, blocks: 64 };
            let stats = run_functional_eager(&mut eager.memory, &k2, workers);
            assert_eq!(eager.download(dst2), want, "workers={workers}");
            assert_eq!(stats.blocks, 64);
            assert_eq!(stats.flops, 64 * 64);
            assert_eq!(stats.syncthreads, 64);
            assert_eq!(
                (stats.global_load_sectors, stats.global_store_sectors),
                (0, 0),
                "eager execution must skip traffic accounting"
            );
        }
    }

    /// With `validate_writes` off (the release default) the blocks run
    /// unmetered, yet the record carries the full analytical counts.
    #[test]
    fn unmetered_functional_launch_attaches_analytical_counts() {
        let (mut dev, src, dst) = setup(8);
        dev.validate_writes = false;
        let rec = dev.launch(&ScaleKernel { src, dst, blocks: 8 }, ExecMode::Functional);
        assert_eq!(rec.stats, expected_stats(8));
        assert_eq!(dev.download(dst)[37], C32::real(74.0));
    }

    /// Scales like [`ScaleKernel`] but counts `flops` per block, while its
    /// fingerprint covers only `tag`: two of them with different `flops`
    /// share a fingerprint and dims but not a structure.
    struct FlopKernel {
        src: BufferId,
        dst: BufferId,
        flops: u64,
        tag: &'static str,
    }

    impl Kernel for FlopKernel {
        fn name(&self) -> String {
            "flops".into()
        }
        fn dims(&self) -> LaunchDims {
            LaunchDims::new(4, 32)
        }
        fn run_block(&self, block_id: usize, ctx: &mut BlockCtx<'_>) {
            let idx = WarpIdx::contiguous(block_id * 32);
            let vals = ctx.global_read(self.src, &idx);
            ctx.add_flops(self.flops);
            ctx.global_write(self.dst, &idx, &vals);
        }
        fn fingerprint(&self) -> Option<u64> {
            Some(memo::structural_fingerprint(self.tag, |_| {}))
        }
    }

    /// Launch two [`FlopKernel`] twins functionally, one after the other:
    /// the second gets the first one's memoized counts attached.
    fn launch_flop_twins(tag: &'static str, validate_writes: bool) {
        let (mut dev, src, dst) = setup(4);
        dev.validate_writes = validate_writes;
        dev.launch(&FlopKernel { src, dst, flops: 64, tag }, ExecMode::Functional);
        dev.launch(&FlopKernel { src, dst, flops: 128, tag }, ExecMode::Functional);
    }

    #[test]
    #[should_panic(expected = "ran different structural counts")]
    fn structural_check_catches_a_fingerprint_that_misses_structure() {
        launch_flop_twins("test.flops.unmetered", false);
    }

    #[test]
    #[should_panic(expected = "counted different events than its analytical launch")]
    fn metered_cross_check_catches_a_fingerprint_that_misses_structure() {
        launch_flop_twins("test.flops.metered", true);
    }

    /// A kernel whose addresses depend on the data it reads: each block
    /// loads a control word and gathers contiguously when it is positive,
    /// with stride 8 otherwise. Its fingerprint covers its structure, not
    /// its data, so a later launch gets counts memoized under another
    /// control word, which is what the metered cross-check exists to catch.
    struct DataDependentKernel {
        ctrl: BufferId,
        src: BufferId,
        dst: BufferId,
        blocks: usize,
    }

    impl Kernel for DataDependentKernel {
        fn name(&self) -> String {
            "data_dependent".into()
        }
        fn dims(&self) -> LaunchDims {
            LaunchDims::new(self.blocks, 32)
        }
        fn run_block(&self, block_id: usize, ctx: &mut BlockCtx<'_>) {
            let ctrl = ctx.global_read(self.ctrl, &WarpIdx::contiguous(0))[0];
            let stride = if ctrl.re > 0.0 { 1 } else { 8 };
            let gather = WarpIdx::from_fn(|l| Some(block_id * 256 + l * stride));
            let vals = ctx.global_read(self.src, &gather);
            ctx.global_write(self.dst, &WarpIdx::contiguous(block_id * 32), &vals);
        }
        fn fingerprint(&self) -> Option<u64> {
            Some(memo::structural_fingerprint("test.data_dependent", |h| {
                use std::hash::Hash;
                self.blocks.hash(h);
            }))
        }
    }

    fn data_dependent_setup(blocks: usize) -> (GpuDevice, DataDependentKernel) {
        let mut dev = GpuDevice::a100();
        let ctrl = dev.alloc("ctrl", 32);
        let src = dev.alloc("src", blocks * 256);
        let dst = dev.alloc("dst", blocks * 32);
        dev.upload(ctrl, &[C32::ONE; 32]);
        (dev, DataDependentKernel { ctrl, src, dst, blocks })
    }

    /// A second launch of the same kernel after the control word flips:
    /// its metered blocks disagree with the counts memoized by the first.
    #[test]
    #[should_panic(expected = "access pattern depends on the data")]
    fn replay_cross_check_fires_on_data_dependent_access() {
        let (mut dev, k) = data_dependent_setup(4);
        dev.launch(&k, ExecMode::Functional);
        dev.upload(k.ctrl, &[-C32::ONE; 32]);
        dev.validate_writes = true;
        dev.launch(&k, ExecMode::Functional);
    }

    /// The same second launch with the cross-check off goes through and
    /// reports the (now stale) memoized counts, while a fresh count finds
    /// more sectors: the difference the cross-check guards against is real.
    #[test]
    fn unchecked_replay_of_data_dependent_access_reports_the_recording() {
        let (mut dev, k) = data_dependent_setup(4);
        dev.validate_writes = false;
        let cold = dev.launch(&k, ExecMode::Functional);
        dev.upload(k.ctrl, &[-C32::ONE; 32]);
        let warm = dev.launch(&k, ExecMode::Functional);
        dev.analytical_memo = false;
        let fresh = dev.launch(&k, ExecMode::Functional);
        assert_eq!(warm.stats, cold.stats);
        assert!(fresh.stats.global_load_sectors > cold.stats.global_load_sectors);
    }

    /// The shared analytical helper is bit-identical to the device path.
    #[test]
    fn analytical_stats_helper_matches_device_path() {
        let (mut dev, src, dst) = setup(7);
        let k = ScaleKernel { src, dst, blocks: 7 };
        let rec = dev.launch(&k, ExecMode::Analytical);
        let direct = run_analytical_stats(&dev.memory, &k, false);
        assert_eq!(rec.stats, direct);
        assert_eq!(direct, expected_stats(7));
    }

    /// Probability schedules resolve per launch index, so they replay
    /// identically on a device with a freshly reinstalled identical plan.
    #[test]
    fn probability_schedule_is_reproducible() {
        let run = |seed: u64| -> Vec<bool> {
            let (mut dev, src, dst) = setup(2);
            dev.set_fault_plan(Some(FaultPlan::seeded(seed).transient(0.4)));
            let k = ScaleKernel { src, dst, blocks: 2 };
            (0..32)
                .map(|_| dev.try_launch(&k, ExecMode::Functional).is_err())
                .collect()
        };
        assert_eq!(run(77), run(77));
        assert_ne!(run(77), run(78));
    }
}
