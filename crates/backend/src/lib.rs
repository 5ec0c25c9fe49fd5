//! # tfno-backend
//!
//! The execution-backend abstraction of the TurboFNO stack.
//!
//! Everything above the device — `turbofno::Session`, the planner, the
//! buffer pool, verification, async dispatch — talks to an
//! execution backend through the [`Backend`] trait, which is exactly the
//! surface of the simulated [`GpuDevice`] that the core crate consumed
//! before the split: buffer allocation/upload/download, synchronous and
//! deferred launches, worker policy, fault-plan arming, and the
//! analytical measurement hooks.
//!
//! Two backends implement it:
//!
//! * [`SimBackend`] (= [`GpuDevice`]) — the cycle-accounting simulator.
//!   The bit-level oracle: every launch is costed (sectors, bank
//!   conflicts, occupancy), writes are journaled with CUDA visibility
//!   semantics, and fault injection / deferred launches are supported.
//! * [`NativeBackend`] — an eager host executor. The same kernel bodies
//!   run (so results match the simulator bit-for-bit for
//!   order-deterministic kernels), but with no sector math, no
//!   bank-conflict accounting, and no write-conflict validation — a
//!   genuinely faster data path, and proof the abstraction doesn't leak
//!   sim-isms.
//!
//! Backends differ in capability, not by panicking: [`Backend::caps`]
//! reports what each supports ([`BackendCaps`]), and unsupported
//! operations return [`LaunchError::Unsupported`] typed errors.
//!
//! [`AnyBackend`] dispatches between the two at runtime and is what
//! `Session::a100()` constructs, honoring the `TFNO_BACKEND` environment
//! variable (`sim` | `native`, default `sim`).

use std::collections::VecDeque;
use std::sync::OnceLock;

use tfno_gpu_sim::{
    run_analytical_stats, run_functional_eager, workers_for, BufferId, CostModel, DeviceConfig,
    ExecMode, FaultPlan, FaultStats, GlobalMemory, GpuDevice, Kernel, LaunchError, LaunchHistory,
    LaunchRecord, PendingLaunch,
};
use tfno_num::C32;

/// The simulated device is the reference backend; the alias names its role
/// in the backend-generic stack (`Session<B: Backend = SimBackend>`).
pub type SimBackend = GpuDevice;

/// What a [`Backend`] implementation supports. Callers consult this
/// instead of probing with operations that would fail: every `false` here
/// corresponds to a typed [`LaunchError::Unsupported`] (never a panic) on
/// the operation's `try_` path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BackendCaps {
    /// [`Backend::try_set_fault_plan`] accepts a plan and the launch/alloc
    /// paths consult it.
    pub fault_injection: bool,
    /// [`Backend::try_launch_deferred`] can issue functional launches
    /// whose writes stay invisible until [`Backend::complete`] (CUDA async
    /// visibility semantics). The simulator always can; the native
    /// backend applies writes eagerly and cannot.
    pub deferred_launch: bool,
}

/// Which backend implementation is running.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The cycle-accounting simulator ([`SimBackend`]).
    Sim,
    /// The eager host executor ([`NativeBackend`]).
    Native,
}

impl BackendKind {
    /// The name `TFNO_BACKEND` selects this kind by.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Sim => "sim",
            BackendKind::Native => "native",
        }
    }
}

/// Parse a `TFNO_BACKEND`-style value (case-insensitive, trimmed).
pub fn parse_backend_kind(v: &str) -> Option<BackendKind> {
    match v.trim().to_ascii_lowercase().as_str() {
        "sim" | "simulator" => Some(BackendKind::Sim),
        "native" | "host" => Some(BackendKind::Native),
        _ => None,
    }
}

/// The backend kind selected for this process: `TFNO_BACKEND` when set,
/// otherwise [`BackendKind::Sim`]. Read once and cached — a CI matrix sets
/// the variable before the process starts.
///
/// # Panics
/// On an unrecognized `TFNO_BACKEND` value, so a typo in a CI matrix can
/// never silently fall back to the simulator.
pub fn env_backend_kind() -> BackendKind {
    static KIND: OnceLock<BackendKind> = OnceLock::new();
    *KIND.get_or_init(|| match std::env::var("TFNO_BACKEND") {
        Err(_) => BackendKind::Sim,
        Ok(v) => parse_backend_kind(&v).unwrap_or_else(|| {
            panic!("TFNO_BACKEND must be 'sim' or 'native', got '{v}'")
        }),
    })
}

/// An execution backend: the device surface the backend-generic stack
/// (`Session`, planner, pool, verifier, dispatch) runs against.
///
/// The contract is [`GpuDevice`]'s: `try_launch` executes a kernel's
/// functional body (or its analytical cost model) with reads observing
/// pre-launch memory and writes visible at return; `try_launch_deferred` /
/// `complete` split that into CUDA-style async issue and completion where
/// [`BackendCaps::deferred_launch`] allows; failed operations are clean
/// (nothing written, nothing recorded). Unsupported operations return
/// [`LaunchError::Unsupported`] — consult [`Backend::caps`] first.
pub trait Backend: Send + 'static {
    /// Which implementation this is.
    fn kind(&self) -> BackendKind;

    /// What this backend supports (may depend on runtime flags).
    fn caps(&self) -> BackendCaps;

    /// Device geometry/bandwidth configuration (also the planner's key).
    fn config(&self) -> &DeviceConfig;

    /// The backend's global memory.
    fn memory(&self) -> &GlobalMemory;

    /// Mutable global memory (virtual allocation, host-side clears).
    fn memory_mut(&mut self) -> &mut GlobalMemory;

    /// Allocate a zeroed device buffer; a fault-injecting backend may fail
    /// it with [`LaunchError::Oom`].
    fn try_alloc(&mut self, name: &str, len: usize) -> Result<BufferId, LaunchError>;

    /// Execute a kernel synchronously: writes are visible and the launch
    /// is in [`Backend::launches`] when this returns `Ok`.
    fn try_launch(
        &mut self,
        kernel: &dyn Kernel,
        mode: ExecMode,
    ) -> Result<LaunchRecord, LaunchError>;

    /// Issue a launch without applying its writes (see
    /// [`BackendCaps::deferred_launch`]).
    fn try_launch_deferred(
        &self,
        kernel: &dyn Kernel,
        mode: ExecMode,
    ) -> Result<PendingLaunch, LaunchError>;

    /// Apply a deferred launch's writes and record it.
    fn complete(&mut self, pending: PendingLaunch) -> LaunchRecord;

    /// Set or clear the explicit worker-count override.
    fn set_workers(&mut self, workers: Option<usize>);

    /// Whether analytical launches go through the process-wide memo.
    fn analytical_memo(&self) -> bool;

    /// Install or clear a fault-injection schedule. Backends without
    /// [`BackendCaps::fault_injection`] reject a `Some` plan with
    /// [`LaunchError::Unsupported`]; clearing (`None`) always succeeds.
    fn try_set_fault_plan(&mut self, plan: Option<FaultPlan>) -> Result<(), LaunchError>;

    /// Injection counters (all-zero when no plan is installed or fault
    /// injection is unsupported).
    fn fault_stats(&self) -> FaultStats;

    /// Completed-launch history: the newest records, a bounded window
    /// (see [`LaunchHistory`]).
    fn launches(&self) -> &[LaunchRecord];

    /// Drop the launch history.
    fn clear_launches(&mut self);

    // --- provided sugar, shared by every backend ---

    /// Panicking twin of [`Backend::try_alloc`].
    fn alloc(&mut self, name: &str, len: usize) -> BufferId {
        self.try_alloc(name, len).unwrap_or_else(|e| {
            panic!("injected device fault unhandled by this call path: {e}; use try_alloc")
        })
    }

    /// Panicking twin of [`Backend::try_launch`].
    fn launch(&mut self, kernel: &dyn Kernel, mode: ExecMode) -> LaunchRecord {
        self.try_launch(kernel, mode).unwrap_or_else(|e| {
            panic!("injected device fault unhandled by this call path: {e}; use try_launch")
        })
    }

    /// Host-side upload (outside the modeled/timed region).
    fn upload(&mut self, id: BufferId, data: &[C32]) {
        self.memory_mut().upload(id, data);
    }

    /// Host-side download.
    fn download(&self, id: BufferId) -> Vec<C32> {
        self.memory().download(id)
    }

    /// Host-side zero of a buffer.
    fn clear(&mut self, id: BufferId) {
        self.memory_mut().clear(id);
    }

    /// Total modeled time of all recorded launches.
    fn total_time_us(&self) -> f64 {
        self.launches().iter().map(|l| l.time_us).sum()
    }
}

impl Backend for GpuDevice {
    fn kind(&self) -> BackendKind {
        BackendKind::Sim
    }

    fn caps(&self) -> BackendCaps {
        BackendCaps {
            fault_injection: true,
            deferred_launch: true,
        }
    }

    fn config(&self) -> &DeviceConfig {
        &self.config
    }

    fn memory(&self) -> &GlobalMemory {
        &self.memory
    }

    fn memory_mut(&mut self) -> &mut GlobalMemory {
        &mut self.memory
    }

    fn try_alloc(&mut self, name: &str, len: usize) -> Result<BufferId, LaunchError> {
        GpuDevice::try_alloc(self, name, len)
    }

    fn try_launch(
        &mut self,
        kernel: &dyn Kernel,
        mode: ExecMode,
    ) -> Result<LaunchRecord, LaunchError> {
        GpuDevice::try_launch(self, kernel, mode)
    }

    fn try_launch_deferred(
        &self,
        kernel: &dyn Kernel,
        mode: ExecMode,
    ) -> Result<PendingLaunch, LaunchError> {
        GpuDevice::try_launch_deferred(self, kernel, mode)
    }

    fn complete(&mut self, pending: PendingLaunch) -> LaunchRecord {
        GpuDevice::complete(self, pending)
    }

    fn set_workers(&mut self, workers: Option<usize>) {
        GpuDevice::set_workers(self, workers);
    }

    fn analytical_memo(&self) -> bool {
        self.analytical_memo
    }

    fn try_set_fault_plan(&mut self, plan: Option<FaultPlan>) -> Result<(), LaunchError> {
        GpuDevice::set_fault_plan(self, plan);
        Ok(())
    }

    fn fault_stats(&self) -> FaultStats {
        GpuDevice::fault_stats(self)
    }

    fn launches(&self) -> &[LaunchRecord] {
        GpuDevice::launches(self)
    }

    fn clear_launches(&mut self) {
        GpuDevice::clear_launches(self);
    }
}

/// The eager host backend: kernels' functional bodies run immediately on
/// host threads with traffic accounting switched off and no write-conflict
/// validation (see [`tfno_gpu_sim::run_functional_eager`]). Analytical
/// launches share the simulator's exact code path and memo, so
/// `Session::measure` is bit-identical across backends.
///
/// Unsupported (typed, per [`BackendCaps`]): fault injection and deferred
/// functional launches — callers fall back to synchronous issue.
pub struct NativeBackend {
    config: DeviceConfig,
    memory: GlobalMemory,
    cost: CostModel,
    launches: LaunchHistory,
    /// Execute blocks on multiple host threads when the grid is large.
    pub parallel: bool,
    /// Use the memoized-analytical launch path.
    pub analytical_memo: bool,
    workers: Option<usize>,
}

impl NativeBackend {
    pub fn new(config: DeviceConfig) -> Self {
        let cost = CostModel::new(config.clone());
        NativeBackend {
            config,
            memory: GlobalMemory::new(),
            cost,
            launches: LaunchHistory::default(),
            parallel: true,
            analytical_memo: true,
            workers: None,
        }
    }

    pub fn a100() -> Self {
        Self::new(DeviceConfig::a100())
    }

    /// Pin the executor to exactly `n` workers (capped at the grid size
    /// per launch).
    pub fn with_workers(mut self, n: usize) -> Self {
        self.workers = Some(n.max(1));
        self
    }

    fn effective_workers(&self, n_blocks: usize) -> usize {
        if !self.parallel || n_blocks == 0 {
            return 1;
        }
        match self.workers {
            Some(n) => n.min(n_blocks).max(1),
            None => workers_for(n_blocks),
        }
    }
}

impl Backend for NativeBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Native
    }

    fn caps(&self) -> BackendCaps {
        BackendCaps {
            fault_injection: false,
            deferred_launch: false,
        }
    }

    fn config(&self) -> &DeviceConfig {
        &self.config
    }

    fn memory(&self) -> &GlobalMemory {
        &self.memory
    }

    fn memory_mut(&mut self) -> &mut GlobalMemory {
        &mut self.memory
    }

    fn try_alloc(&mut self, name: &str, len: usize) -> Result<BufferId, LaunchError> {
        Ok(self.memory.alloc(name, len))
    }

    fn try_launch(
        &mut self,
        kernel: &dyn Kernel,
        mode: ExecMode,
    ) -> Result<LaunchRecord, LaunchError> {
        let dims = kernel.dims();
        let stats = match mode {
            ExecMode::Analytical => {
                run_analytical_stats(&self.memory, kernel, self.analytical_memo)
            }
            ExecMode::Functional => {
                let workers = self.effective_workers(dims.grid_blocks);
                run_functional_eager(&mut self.memory, kernel, workers)
            }
        };
        // Eager functional stats carry no traffic counters, so the modeled
        // time is launch overhead plus the structural terms — fine for a
        // backend whose job is wall-clock speed, not cost fidelity.
        let time_us = self.cost.kernel_time_us(&dims, &stats);
        let rec = LaunchRecord {
            name: kernel.name(),
            dims_grid: dims.grid_blocks,
            stats,
            time_us,
        };
        self.launches.push(rec.clone());
        Ok(rec)
    }

    fn try_launch_deferred(
        &self,
        _kernel: &dyn Kernel,
        _mode: ExecMode,
    ) -> Result<PendingLaunch, LaunchError> {
        Err(LaunchError::Unsupported {
            backend: "native",
            op: "deferred launches",
        })
    }

    fn complete(&mut self, _pending: PendingLaunch) -> LaunchRecord {
        // INVARIANT: unreachable through this backend — try_launch_deferred
        // never produces a PendingLaunch here, and pendings from another
        // backend reference that backend's buffers. Completing one against
        // native memory would be a caller bug, so failing loudly is right.
        unreachable!("NativeBackend cannot complete a deferred launch (caps().deferred_launch is false)")
    }

    fn set_workers(&mut self, workers: Option<usize>) {
        self.workers = workers.map(|n| n.max(1));
    }

    fn analytical_memo(&self) -> bool {
        self.analytical_memo
    }

    fn try_set_fault_plan(&mut self, plan: Option<FaultPlan>) -> Result<(), LaunchError> {
        match plan {
            None => Ok(()),
            Some(_) => Err(LaunchError::Unsupported {
                backend: "native",
                op: "fault injection",
            }),
        }
    }

    fn fault_stats(&self) -> FaultStats {
        FaultStats::default()
    }

    fn launches(&self) -> &[LaunchRecord] {
        self.launches.as_slice()
    }

    fn clear_launches(&mut self) {
        self.launches.clear();
    }
}

/// Runtime-selected backend: what `Session::a100()` owns, so one binary
/// serves both flavors and the `TFNO_BACKEND` environment variable (or an
/// explicit constructor) picks at startup.
pub enum AnyBackend {
    Sim(SimBackend),
    Native(NativeBackend),
}

/// Delegate one method through the enum.
macro_rules! any_delegate {
    ($self:ident, $d:ident => $body:expr) => {
        match $self {
            AnyBackend::Sim($d) => $body,
            AnyBackend::Native($d) => $body,
        }
    };
}

impl AnyBackend {
    /// The backend `TFNO_BACKEND` selects, on the given config.
    pub fn from_env(config: DeviceConfig) -> Self {
        match env_backend_kind() {
            BackendKind::Sim => AnyBackend::Sim(SimBackend::new(config)),
            BackendKind::Native => AnyBackend::Native(NativeBackend::new(config)),
        }
    }

    /// The backend `TFNO_BACKEND` selects, on the A100 config.
    pub fn a100() -> Self {
        Self::from_env(DeviceConfig::a100())
    }

    // Inherent mirrors of the trait surface, so callers holding a concrete
    // `AnyBackend` (e.g. through `Session::device()`) don't need the trait
    // in scope.

    pub fn kind(&self) -> BackendKind {
        any_delegate!(self, d => Backend::kind(d))
    }

    pub fn caps(&self) -> BackendCaps {
        any_delegate!(self, d => Backend::caps(d))
    }

    pub fn config(&self) -> &DeviceConfig {
        any_delegate!(self, d => Backend::config(d))
    }

    pub fn memory(&self) -> &GlobalMemory {
        any_delegate!(self, d => Backend::memory(d))
    }

    pub fn memory_mut(&mut self) -> &mut GlobalMemory {
        any_delegate!(self, d => Backend::memory_mut(d))
    }

    pub fn try_alloc(&mut self, name: &str, len: usize) -> Result<BufferId, LaunchError> {
        any_delegate!(self, d => Backend::try_alloc(d, name, len))
    }

    pub fn alloc(&mut self, name: &str, len: usize) -> BufferId {
        any_delegate!(self, d => Backend::alloc(d, name, len))
    }

    pub fn upload(&mut self, id: BufferId, data: &[C32]) {
        any_delegate!(self, d => Backend::upload(d, id, data))
    }

    pub fn download(&self, id: BufferId) -> Vec<C32> {
        any_delegate!(self, d => Backend::download(d, id))
    }

    pub fn try_launch(
        &mut self,
        kernel: &dyn Kernel,
        mode: ExecMode,
    ) -> Result<LaunchRecord, LaunchError> {
        any_delegate!(self, d => Backend::try_launch(d, kernel, mode))
    }

    pub fn launch(&mut self, kernel: &dyn Kernel, mode: ExecMode) -> LaunchRecord {
        any_delegate!(self, d => Backend::launch(d, kernel, mode))
    }

    pub fn set_workers(&mut self, workers: Option<usize>) {
        any_delegate!(self, d => Backend::set_workers(d, workers))
    }

    pub fn fault_stats(&self) -> FaultStats {
        any_delegate!(self, d => Backend::fault_stats(d))
    }

    pub fn launches(&self) -> &[LaunchRecord] {
        any_delegate!(self, d => Backend::launches(d))
    }

    pub fn clear_launches(&mut self) {
        any_delegate!(self, d => Backend::clear_launches(d))
    }

    pub fn total_time_us(&self) -> f64 {
        any_delegate!(self, d => Backend::total_time_us(d))
    }
}

impl From<SimBackend> for AnyBackend {
    fn from(d: SimBackend) -> Self {
        AnyBackend::Sim(d)
    }
}

impl From<NativeBackend> for AnyBackend {
    fn from(d: NativeBackend) -> Self {
        AnyBackend::Native(d)
    }
}

impl Backend for AnyBackend {
    fn kind(&self) -> BackendKind {
        AnyBackend::kind(self)
    }
    fn caps(&self) -> BackendCaps {
        AnyBackend::caps(self)
    }
    fn config(&self) -> &DeviceConfig {
        AnyBackend::config(self)
    }
    fn memory(&self) -> &GlobalMemory {
        AnyBackend::memory(self)
    }
    fn memory_mut(&mut self) -> &mut GlobalMemory {
        AnyBackend::memory_mut(self)
    }
    fn try_alloc(&mut self, name: &str, len: usize) -> Result<BufferId, LaunchError> {
        AnyBackend::try_alloc(self, name, len)
    }
    fn try_launch(
        &mut self,
        kernel: &dyn Kernel,
        mode: ExecMode,
    ) -> Result<LaunchRecord, LaunchError> {
        AnyBackend::try_launch(self, kernel, mode)
    }
    fn try_launch_deferred(
        &self,
        kernel: &dyn Kernel,
        mode: ExecMode,
    ) -> Result<PendingLaunch, LaunchError> {
        any_delegate!(self, d => Backend::try_launch_deferred(d, kernel, mode))
    }
    fn complete(&mut self, pending: PendingLaunch) -> LaunchRecord {
        any_delegate!(self, d => Backend::complete(d, pending))
    }
    fn set_workers(&mut self, workers: Option<usize>) {
        AnyBackend::set_workers(self, workers)
    }
    fn analytical_memo(&self) -> bool {
        any_delegate!(self, d => Backend::analytical_memo(d))
    }
    fn try_set_fault_plan(&mut self, plan: Option<FaultPlan>) -> Result<(), LaunchError> {
        any_delegate!(self, d => Backend::try_set_fault_plan(d, plan))
    }
    fn fault_stats(&self) -> FaultStats {
        AnyBackend::fault_stats(self)
    }
    fn launches(&self) -> &[LaunchRecord] {
        AnyBackend::launches(self)
    }
    fn clear_launches(&mut self) {
        AnyBackend::clear_launches(self)
    }
}

/// Backend-generic twin of [`tfno_gpu_sim::LaunchQueue`]: a bounded
/// in-order window of deferred launches, completing the oldest when the
/// window overflows. The safety contract is the queue's — nothing issued
/// or read between a pending's issue and its completion may depend on that
/// pending's writes.
#[derive(Default)]
pub struct DeferredWindow {
    depth: usize,
    pending: VecDeque<PendingLaunch>,
}

impl DeferredWindow {
    /// A window completing eagerly past `depth` in-flight launches
    /// (clamped to ≥ 1).
    pub fn new(depth: usize) -> Self {
        DeferredWindow {
            depth: depth.max(1),
            pending: VecDeque::new(),
        }
    }

    /// Enqueue an issued launch; completes the oldest launches first if
    /// the window is full. Returns the records of whatever completed.
    pub fn push(&mut self, dev: &mut dyn Backend, launch: PendingLaunch) -> Vec<LaunchRecord> {
        let mut done = Vec::new();
        while self.pending.len() >= self.depth.max(1) {
            let oldest = self.pending.pop_front().expect("non-empty window");
            done.push(dev.complete(oldest));
        }
        self.pending.push_back(launch);
        done
    }

    /// Complete every in-flight launch, oldest first.
    pub fn flush(&mut self, dev: &mut dyn Backend) -> Vec<LaunchRecord> {
        self.pending.drain(..).map(|p| dev.complete(p)).collect()
    }

    /// Launches currently issued but not completed.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfno_gpu_sim::{BlockCtx, LaunchDims, WarpIdx};

    /// Each block scales 32 contiguous elements by 2 (the gpu-sim test
    /// kernel, reproduced here for cross-backend checks).
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
            ctx.global_write(self.dst, &idx, &out);
        }
    }

    fn seed_backend<B: Backend>(dev: &mut B, blocks: usize) -> (BufferId, BufferId) {
        let n = blocks * 32;
        let src = dev.alloc("src", n);
        let dst = dev.alloc("dst", n);
        let data: Vec<C32> = (0..n).map(|i| C32::real(i as f32)).collect();
        dev.upload(src, &data);
        (src, dst)
    }

    #[test]
    fn parse_backend_kind_accepts_both_flavors() {
        assert_eq!(parse_backend_kind("sim"), Some(BackendKind::Sim));
        assert_eq!(parse_backend_kind(" Native "), Some(BackendKind::Native));
        assert_eq!(parse_backend_kind("NATIVE"), Some(BackendKind::Native));
        assert_eq!(parse_backend_kind("host"), Some(BackendKind::Native));
        assert_eq!(parse_backend_kind("simulator"), Some(BackendKind::Sim));
        assert_eq!(parse_backend_kind("wgpu"), None);
        assert_eq!(parse_backend_kind(""), None);
    }

    #[test]
    fn caps_reflect_backend_abilities() {
        let sim = SimBackend::a100();
        assert_eq!(
            Backend::caps(&sim),
            BackendCaps { fault_injection: true, deferred_launch: true }
        );

        let native = NativeBackend::a100();
        let caps = native.caps();
        assert!(!caps.fault_injection && !caps.deferred_launch);
    }

    /// Launch history is a bounded window on both backends: after more
    /// than `2 * WINDOW` launches it holds at most `2 * WINDOW` records,
    /// and they are the newest ones, the last launch last.
    #[test]
    fn launch_history_stays_bounded() {
        fn check<B: Backend>(dev: &mut B) {
            let (src, dst) = seed_backend(dev, 4);
            let launches = 2 * LaunchHistory::WINDOW + 5;
            let grid = |i: usize| 1 + i % 4;
            let mut last = None;
            for i in 0..launches {
                let k = ScaleKernel {
                    src,
                    dst,
                    blocks: grid(i),
                };
                last = Some(dev.launch(&k, ExecMode::Analytical));
            }
            let hist = dev.launches();
            assert!(
                hist.len() <= 2 * LaunchHistory::WINDOW,
                "{} records kept",
                hist.len()
            );
            assert!(hist.len() >= LaunchHistory::WINDOW);
            for (back, rec) in hist.iter().rev().enumerate() {
                assert_eq!(
                    rec.dims_grid,
                    grid(launches - 1 - back),
                    "record {back} from the end"
                );
            }
            let (got, want) = (hist.last().unwrap(), last.unwrap());
            assert_eq!(got.stats, want.stats);
            assert_eq!(got.time_us.to_bits(), want.time_us.to_bits());
        }
        check(&mut SimBackend::a100());
        check(&mut NativeBackend::a100());
    }

    #[test]
    fn native_launch_is_bitwise_equal_to_sim() {
        let mut sim = SimBackend::a100();
        let (src, dst) = seed_backend(&mut sim, 16);
        let rec_sim = Backend::launch(&mut sim, &ScaleKernel { src, dst, blocks: 16 }, ExecMode::Functional);
        let want = Backend::download(&sim, dst);

        for workers in [1usize, 4] {
            let mut native = NativeBackend::a100().with_workers(workers);
            let (src2, dst2) = seed_backend(&mut native, 16);
            let rec = native
                .try_launch(&ScaleKernel { src: src2, dst: dst2, blocks: 16 }, ExecMode::Functional)
                .expect("native launch");
            assert_eq!(native.download(dst2), want, "workers={workers}");
            assert_eq!(rec.stats.blocks, rec_sim.stats.blocks);
            assert_eq!(rec.stats.flops, rec_sim.stats.flops);
            assert_eq!(rec.stats.global_load_sectors, 0, "native skips traffic accounting");
            assert!(rec.time_us > 0.0);
        }
        assert_eq!(sim.launches().len(), 1);
    }

    #[test]
    fn native_analytical_stats_match_sim_exactly() {
        let mut sim = SimBackend::a100();
        let (src, dst) = seed_backend(&mut sim, 9);
        let k = ScaleKernel { src, dst, blocks: 9 };
        let rec_sim = Backend::launch(&mut sim, &k, ExecMode::Analytical);

        let mut native = NativeBackend::a100();
        let (src2, dst2) = seed_backend(&mut native, 9);
        let k2 = ScaleKernel { src: src2, dst: dst2, blocks: 9 };
        let rec_native = native.try_launch(&k2, ExecMode::Analytical).expect("analytical");
        assert_eq!(rec_sim.stats, rec_native.stats, "shared analytical path");
        assert_eq!(rec_sim.time_us, rec_native.time_us);
        // Analytical mode discarded the writes on both.
        assert_eq!(native.download(dst2)[5], C32::ZERO);
    }

    #[test]
    fn native_unsupported_operations_are_typed() {
        let mut native = NativeBackend::a100();
        let (src, dst) = seed_backend(&mut native, 2);
        let k = ScaleKernel { src, dst, blocks: 2 };
        let Err(err) = native.try_launch_deferred(&k, ExecMode::Functional) else {
            panic!("native deferred launch must fail");
        };
        assert!(matches!(err, LaunchError::Unsupported { backend: "native", .. }), "{err}");
        assert!(err.to_string().contains("does not support"));

        let err = native.try_set_fault_plan(Some(FaultPlan::seeded(1))).unwrap_err();
        assert!(matches!(err, LaunchError::Unsupported { .. }));
        // Clearing is always fine (the no-plan state is every backend's
        // default), so generic teardown code never special-cases.
        native.try_set_fault_plan(None).expect("clearing a plan is supported");
        assert_eq!(native.fault_stats(), FaultStats::default());
    }

    #[test]
    fn deferred_window_matches_launch_queue_semantics() {
        let mut dev = AnyBackend::Sim(SimBackend::a100());
        let (src, dst) = seed_backend(&mut dev, 4);
        let dst2 = Backend::alloc(&mut dev, "dst2", 4 * 32);
        let k1 = ScaleKernel { src, dst, blocks: 4 };
        let k2 = ScaleKernel { src, dst: dst2, blocks: 4 };
        let mut window = DeferredWindow::new(1);
        let p1 = Backend::try_launch_deferred(&dev, &k1, ExecMode::Functional).unwrap();
        assert!(window.push(&mut dev, p1).is_empty(), "window not full yet");
        let p2 = Backend::try_launch_deferred(&dev, &k2, ExecMode::Functional).unwrap();
        let done = window.push(&mut dev, p2);
        assert_eq!(done.len(), 1, "depth-1 window completes on the next push");
        assert_eq!(Backend::download(&dev, dst)[5], C32::real(10.0), "oldest applied");
        assert_eq!(Backend::download(&dev, dst2)[5], C32::ZERO, "newest still journaled");
        assert_eq!(window.in_flight(), 1);
        window.flush(&mut dev);
        assert_eq!(Backend::download(&dev, dst2)[5], C32::real(10.0));
        assert_eq!(window.in_flight(), 0);
    }

    #[test]
    fn any_backend_dispatches_by_kind() {
        let sim = AnyBackend::Sim(SimBackend::a100());
        let native = AnyBackend::Native(NativeBackend::a100());
        assert_eq!(sim.kind(), BackendKind::Sim);
        assert_eq!(native.kind(), BackendKind::Native);
    }
}
