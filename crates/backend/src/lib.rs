//! # tfno-backend
//!
//! The execution-backend abstraction of the TurboFNO stack.
//!
//! Everything above the device — `turbofno::Session`, the planner, the
//! buffer pool, verification — talks to an execution backend through the
//! [`Backend`] trait: buffer allocation/upload/download, synchronous
//! launches, worker policy, fault-plan arming, and the analytical
//! measurement hooks.
//!
//! Every backend is a configuration of one simulated [`GpuDevice`]: an
//! implementor hands out its device, and every other method of the trait,
//! its [`BackendKind`] included, is provided from that device. So there
//! is one block executor, and a launch records the same [`LaunchRecord`]
//! (counts and modeled time) on every backend.
//!
//! * [`SimBackend`] (= [`GpuDevice`]) — the simulator as configured by
//!   default: in debug builds every functional launch runs its blocks
//!   metered and cross-checks every attached count, cross-block write
//!   conflicts are rejected, and fault injection is supported.
//! * [`NativeBackend`] — the simulator's release configuration in every
//!   build ([`GpuDevice::release`]): functional blocks run unmetered and
//!   carry their memoized analytical counts (checked structurally), with
//!   no write-conflict validation and no fault injection.
//!
//! Backends differ in capability, not by panicking: [`Backend::caps`]
//! reports what each device supports ([`BackendCaps`]), and unsupported
//! operations return [`LaunchError::Unsupported`] typed errors. The
//! device itself enforces the answer, so the release device refuses a
//! fault plan on every path, its own setters included.
//!
//! [`AnyBackend`] picks between the two at runtime and is what
//! `Session::a100()` constructs, honoring the `TFNO_BACKEND` environment
//! variable (`sim` | `native`, default `sim`).

use std::sync::OnceLock;

use tfno_gpu_sim::{
    BufferId, DeviceConfig, ExecMode, FaultPlan, FaultStats, GlobalMemory, GpuDevice, Kernel,
    LaunchError, LaunchRecord,
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
}

/// Which backend implementation is running.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The simulator with its default checks ([`SimBackend`]).
    Sim,
    /// The simulator's release configuration ([`NativeBackend`]).
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
/// (`Session`, planner, pool, verifier) runs against.
///
/// An implementor defines only [`Backend::device`] and
/// [`Backend::device_mut`]; every other method is provided from the
/// device. The contract is [`GpuDevice`]'s: `try_launch` executes a
/// kernel's functional body (or its analytical cost model) with reads
/// observing pre-launch memory and writes visible at return; failed
/// operations are clean (nothing written, nothing recorded). Unsupported
/// operations return [`LaunchError::Unsupported`] — consult
/// [`Backend::caps`] first.
pub trait Backend {
    /// Which configuration this is: `Native` for a [`GpuDevice::release`]
    /// device, `Sim` otherwise.
    fn kind(&self) -> BackendKind {
        if self.device().supports_fault_injection() {
            BackendKind::Sim
        } else {
            BackendKind::Native
        }
    }

    /// The simulated device every operation runs on.
    fn device(&self) -> &GpuDevice;

    /// The simulated device, mutably.
    fn device_mut(&mut self) -> &mut GpuDevice;

    /// What this backend supports, as its device answers it: fault
    /// injection everywhere but on a release device.
    fn caps(&self) -> BackendCaps {
        BackendCaps {
            fault_injection: self.device().supports_fault_injection(),
        }
    }

    /// Device geometry/bandwidth configuration (also the planner's key).
    fn config(&self) -> &DeviceConfig {
        &self.device().config
    }

    /// The backend's global memory.
    fn memory(&self) -> &GlobalMemory {
        &self.device().memory
    }

    /// Mutable global memory (virtual allocation, host-side clears).
    fn memory_mut(&mut self) -> &mut GlobalMemory {
        &mut self.device_mut().memory
    }

    /// Allocate a zeroed device buffer; a fault-injecting backend may fail
    /// it with [`LaunchError::Oom`].
    fn try_alloc(&mut self, name: &str, len: usize) -> Result<BufferId, LaunchError> {
        self.device_mut().try_alloc(name, len)
    }

    /// Execute a kernel synchronously: writes are visible and the launch
    /// is in [`Backend::launches`] when this returns `Ok`.
    fn try_launch(
        &mut self,
        kernel: &dyn Kernel,
        mode: ExecMode,
    ) -> Result<LaunchRecord, LaunchError> {
        self.device_mut().try_launch(kernel, mode)
    }

    /// Set or clear the explicit worker-count override.
    fn set_workers(&mut self, workers: Option<usize>) {
        self.device_mut().set_workers(workers);
    }

    /// Install or clear a fault-injection schedule. Backends without
    /// [`BackendCaps::fault_injection`] reject a `Some` plan with
    /// [`LaunchError::Unsupported`]; clearing (`None`) always succeeds.
    fn try_set_fault_plan(&mut self, plan: Option<FaultPlan>) -> Result<(), LaunchError> {
        if plan.is_some() && !self.caps().fault_injection {
            return Err(LaunchError::Unsupported {
                backend: self.kind().name(),
                op: "fault injection",
            });
        }
        self.device_mut().set_fault_plan(plan);
        Ok(())
    }

    /// Injection counters (all-zero when no plan is installed or fault
    /// injection is unsupported).
    fn fault_stats(&self) -> FaultStats {
        self.device().fault_stats()
    }

    /// Completed-launch history: the newest records, a bounded window
    /// (see [`tfno_gpu_sim::LaunchHistory`]).
    fn launches(&self) -> &[LaunchRecord] {
        self.device().launches()
    }

    /// Drop the launch history.
    fn clear_launches(&mut self) {
        self.device_mut().clear_launches();
    }

    // --- sugar over the methods above ---

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
    fn device(&self) -> &GpuDevice {
        self
    }

    fn device_mut(&mut self) -> &mut GpuDevice {
        self
    }
}

/// The simulator's release configuration, in every build: a [`GpuDevice`]
/// whose functional launches run their blocks unmetered and attach the
/// memoized analytical counts of their structure (checked structurally:
/// blocks, warps, flops, barriers), with no write-conflict validation. Its
/// launch records therefore equal the simulator's.
///
/// `validate_writes` stays off in debug builds too, so a debug test run
/// with `TFNO_BACKEND=native` covers the release data path — unmetered
/// blocks, attached counts, the structural check — while the default
/// [`SimBackend`] covers the metered one.
///
/// Unsupported (typed, per [`BackendCaps`]): fault injection.
pub struct NativeBackend {
    dev: GpuDevice,
}

impl NativeBackend {
    pub fn new(config: DeviceConfig) -> Self {
        NativeBackend {
            dev: GpuDevice::release(config),
        }
    }

    pub fn a100() -> Self {
        Self::new(DeviceConfig::a100())
    }

    /// Pin the executor to exactly `n` workers (capped at the grid size
    /// per launch).
    pub fn with_workers(mut self, n: usize) -> Self {
        self.dev.set_workers(Some(n));
        self
    }
}

impl Backend for NativeBackend {
    fn device(&self) -> &GpuDevice {
        &self.dev
    }

    fn device_mut(&mut self) -> &mut GpuDevice {
        &mut self.dev
    }
}

/// Runtime-selected backend: what `Session::a100()` owns, so one binary
/// serves both configurations and the `TFNO_BACKEND` environment variable
/// (or an explicit constructor) picks at startup. Its kind is its
/// device's profile.
pub struct AnyBackend {
    dev: GpuDevice,
}

impl AnyBackend {
    /// The backend `TFNO_BACKEND` selects, on the given config.
    pub fn from_env(config: DeviceConfig) -> Self {
        match env_backend_kind() {
            BackendKind::Sim => SimBackend::new(config).into(),
            BackendKind::Native => NativeBackend::new(config).into(),
        }
    }

    /// The backend `TFNO_BACKEND` selects, on the A100 config.
    pub fn a100() -> Self {
        Self::from_env(DeviceConfig::a100())
    }
}

impl From<SimBackend> for AnyBackend {
    fn from(dev: SimBackend) -> Self {
        AnyBackend { dev }
    }
}

impl From<NativeBackend> for AnyBackend {
    fn from(b: NativeBackend) -> Self {
        AnyBackend { dev: b.dev }
    }
}

impl Backend for AnyBackend {
    fn device(&self) -> &GpuDevice {
        &self.dev
    }

    fn device_mut(&mut self) -> &mut GpuDevice {
        &mut self.dev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfno_gpu_sim::{BlockCtx, LaunchDims, LaunchHistory, WarpIdx};

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
            let base = block_id * 32;
            let idx = WarpIdx::contiguous(base);
            ctx.charge_global_load(self.src, &idx);
            ctx.charge_global_store(self.dst, &idx);
            let src = ctx.global(self.src);
            for e in base..base + 32 {
                ctx.global_store(self.dst, e, src.get(e).scale(2.0));
            }
            ctx.add_flops(64);
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
        assert_eq!(Backend::caps(&sim), BackendCaps { fault_injection: true });

        let native = NativeBackend::a100();
        assert!(!native.caps().fault_injection);
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

    /// Native runs the simulator's executor unmetered and attaches the same
    /// analytical counts: equal data, stats and modeled time, at any worker
    /// count.
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
            assert_eq!(rec.stats, rec_sim.stats, "workers={workers}");
            assert_eq!(rec.time_us.to_bits(), rec_sim.time_us.to_bits(), "workers={workers}");
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
        let err = native.try_set_fault_plan(Some(FaultPlan::seeded(1))).unwrap_err();
        assert!(matches!(err, LaunchError::Unsupported { backend: "native", .. }), "{err}");
        assert!(err.to_string().contains("does not support"));
        // Clearing is always fine (the no-plan state is every backend's
        // default), so generic teardown code never special-cases.
        native.try_set_fault_plan(None).expect("clearing a plan is supported");
        assert_eq!(native.fault_stats(), FaultStats::default());
    }

    /// The release device refuses a fault plan on every path, not only
    /// through `try_set_fault_plan`: arming it through the device's own
    /// setters panics and installs nothing, so the next functional launch
    /// runs clean.
    #[test]
    fn native_device_refuses_fault_plans_on_every_path() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let plan = || FaultPlan::seeded(1).transient(1.0);
        let mut native = NativeBackend::a100();
        let (src, dst) = seed_backend(&mut native, 4);

        let armed = catch_unwind(AssertUnwindSafe(|| {
            native.device_mut().set_fault_plan(Some(plan()))
        }));
        let msg = armed.expect_err("set_fault_plan must refuse a plan");
        let msg = msg.downcast_ref::<String>().expect("a formatted panic");
        assert!(msg.contains("'native' does not support fault injection"), "{msg}");
        let built = catch_unwind(|| GpuDevice::release(DeviceConfig::a100()).with_faults(plan()));
        assert!(built.is_err(), "with_faults must refuse a plan");

        assert!(native.device().fault_plan().is_none());
        let rec = native.try_launch(&ScaleKernel { src, dst, blocks: 4 }, ExecMode::Functional);
        assert!(rec.is_ok(), "no plan may be armed: {rec:?}");
        assert_eq!(native.fault_stats(), FaultStats::default());
        native.device_mut().set_fault_plan(None); // clearing is always fine
    }

    #[test]
    fn any_backend_dispatches_by_kind() {
        let sim = AnyBackend::from(SimBackend::a100());
        let native = AnyBackend::from(NativeBackend::a100());
        assert_eq!(sim.kind(), BackendKind::Sim);
        assert_eq!(native.kind(), BackendKind::Native);
    }
}
