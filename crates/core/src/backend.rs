//! The crate's single gateway to the simulated device.
//!
//! Every engine module in this crate (`session`, `pipeline`, `pytorch`,
//! `pool`, `planner`, `verify`, `error`) imports its device types from
//! here and *only* from here — `cargo xtask lint` enforces it
//! (`backend-isolation`: no `tfno_gpu_sim` path outside this module and
//! the kernel builders). The engine runs on one [`GpuDevice`] in one of
//! two profiles: the default one (metered blocks in debug builds, fault
//! injection) and the release one ([`GpuDevice::release`]: unmetered
//! blocks with attached counts, no fault injection), which record the
//! same launches. [`GpuDevice::from_env`] picks the profile from
//! `TFNO_BACKEND`. A `Session` reaches its device through
//! [`Backend::device`]/[`Backend::device_mut`] and nothing else; the
//! trait, [`SimBackend`] and [`NativeBackend`] remain for the repo
//! benchmark (see `tfno_backend`).
//!
//! The kernel-construction modules (`fused`, `swizzle`) are exempt: they
//! build [`Kernel`] objects against the simulator's launch geometry (a
//! kernel is data; only launching it touches the device).

pub use tfno_backend::{Backend, NativeBackend, SimBackend};
pub use tfno_gpu_sim::{
    configured_workers, for_each_mut, merge_runs, runs_overlap, BufferId, DeviceConfig, ExecMode,
    FaultKind, FaultPlan, FaultStats, GpuDevice, Kernel, KernelStats, LaunchError, LaunchRecord,
};
