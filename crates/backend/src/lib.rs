//! # tfno-backend
//!
//! The backends the TurboFNO stack runs on, all of them one simulated
//! [`GpuDevice`].
//!
//! `turbofno::Session` owns a backend and runs its engine (the planner,
//! the buffer pool, the plan check) on the device the backend hands
//! out through the [`Backend`] trait. Every backend is a configuration
//! of that device, so there is one block executor, and a launch records
//! the same [`LaunchRecord`](tfno_gpu_sim::LaunchRecord) (counts and
//! modeled time) on every backend.
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
//! The device answers the capability question itself
//! ([`GpuDevice::supports_fault_injection`]) and enforces it: the release
//! device refuses a fault plan on every path, with a typed
//! [`LaunchError::Unsupported`](tfno_gpu_sim::LaunchError) from
//! [`GpuDevice::try_set_fault_plan`]. The `TFNO_BACKEND` environment
//! variable picks between the two profiles through
//! [`GpuDevice::from_env`], which is what `Session::a100()` builds on.
//!
//! A `Session` needs neither wrapper: `Session::new(GpuDevice::release(cfg))`
//! is a release session. The trait, [`SimBackend`] and [`NativeBackend`]
//! remain because the repo benchmark (`fnobench/`) builds its sessions
//! from them; they go with the `Session` type parameter when that
//! benchmark next changes.

use tfno_gpu_sim::{DeviceConfig, GpuDevice};

/// The simulated device is the reference backend; the alias names its role
/// in the backend-generic stack (`Session<B: Backend = SimBackend>`).
pub type SimBackend = GpuDevice;

/// An execution backend: the owner of the one simulated [`GpuDevice`]
/// the engine runs on. Every operation — allocation, launches, fault
/// plans, launch history — is the device's own method.
pub trait Backend {
    /// The simulated device every operation runs on.
    fn device(&self) -> &GpuDevice;

    /// The simulated device, mutably.
    fn device_mut(&mut self) -> &mut GpuDevice;
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
/// Unsupported: fault injection (the device refuses a plan).
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

#[cfg(test)]
mod tests {
    use super::*;
    use tfno_gpu_sim::{
        BlockCtx, BufferId, ExecMode, FaultPlan, FaultStats, Kernel, LaunchDims, LaunchError,
        LaunchHistory, WarpIdx,
    };
    use tfno_num::C32;

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

    fn seed_backend(dev: &mut GpuDevice, blocks: usize) -> (BufferId, BufferId) {
        let n = blocks * 32;
        let src = dev.alloc("src", n);
        let dst = dev.alloc("dst", n);
        let data: Vec<C32> = (0..n).map(|i| C32::real(i as f32)).collect();
        dev.upload(src, &data);
        (src, dst)
    }

    #[test]
    fn caps_reflect_backend_abilities() {
        assert!(SimBackend::a100().device().supports_fault_injection());
        assert!(!NativeBackend::a100().device().supports_fault_injection());
    }

    /// Launch history is a bounded window on both backends: after more
    /// than `2 * WINDOW` launches it holds at most `2 * WINDOW` records,
    /// and they are the newest ones, the last launch last.
    #[test]
    fn launch_history_stays_bounded() {
        fn check(dev: &mut GpuDevice) {
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
        check(NativeBackend::a100().device_mut());
    }

    /// Native runs the simulator's executor unmetered and attaches the same
    /// analytical counts: equal data, stats and modeled time, at any worker
    /// count.
    #[test]
    fn native_launch_is_bitwise_equal_to_sim() {
        let mut sim = SimBackend::a100();
        let (src, dst) = seed_backend(&mut sim, 16);
        let rec_sim = sim.launch(&ScaleKernel { src, dst, blocks: 16 }, ExecMode::Functional);
        let want = sim.download(dst);

        for workers in [1usize, 4] {
            let mut backend = NativeBackend::a100().with_workers(workers);
            let native = backend.device_mut();
            let (src2, dst2) = seed_backend(native, 16);
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
        let rec_sim = sim.launch(&k, ExecMode::Analytical);

        let mut backend = NativeBackend::a100();
        let native = backend.device_mut();
        let (src2, dst2) = seed_backend(native, 9);
        let k2 = ScaleKernel { src: src2, dst: dst2, blocks: 9 };
        let rec_native = native.try_launch(&k2, ExecMode::Analytical).expect("analytical");
        assert_eq!(rec_sim.stats, rec_native.stats, "shared analytical path");
        assert_eq!(rec_sim.time_us, rec_native.time_us);
        // Analytical mode discarded the writes on both.
        assert_eq!(native.download(dst2)[5], C32::ZERO);
    }

    #[test]
    fn native_unsupported_operations_are_typed() {
        let mut backend = NativeBackend::a100();
        let native = backend.device_mut();
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
        let mut backend = NativeBackend::a100();
        let native = backend.device_mut();
        let (src, dst) = seed_backend(native, 4);

        let armed = catch_unwind(AssertUnwindSafe(|| native.set_fault_plan(Some(plan()))));
        let msg = armed.expect_err("set_fault_plan must refuse a plan");
        let msg = msg.downcast_ref::<String>().expect("a formatted panic");
        assert!(msg.contains("'native' does not support fault injection"), "{msg}");
        let built = catch_unwind(|| GpuDevice::release(DeviceConfig::a100()).with_faults(plan()));
        assert!(built.is_err(), "with_faults must refuse a plan");

        assert!(native.fault_plan().is_none());
        let rec = native.try_launch(&ScaleKernel { src, dst, blocks: 4 }, ExecMode::Functional);
        assert!(rec.is_ok(), "no plan may be armed: {rec:?}");
        assert_eq!(native.fault_stats(), FaultStats::default());
        native.set_fault_plan(None); // clearing is always fine
    }
}
