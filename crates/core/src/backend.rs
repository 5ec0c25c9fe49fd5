//! The crate's single gateway to the simulated device.
//!
//! Every engine module in this crate (`session`, `pipeline`, `pytorch`,
//! `pool`, `planner`, `verify`, `error`) imports its device types from
//! here and *only* from here — `cargo xtask lint` enforces it
//! (`backend-isolation`: no `tfno_gpu_sim` path outside this module and
//! the kernel builders). The engine runs on the one [`GpuDevice`] every
//! backend wraps: [`SimBackend`] is the device with its default checks
//! (metered blocks in debug builds, fault injection), [`NativeBackend`]
//! its release configuration (unmetered blocks with attached counts, no
//! fault injection). They are interchangeable behind [`AnyBackend`] and
//! record the same launches; a `Session` reaches the device through
//! [`Backend::device`]/[`Backend::device_mut`] and nothing else.
//!
//! The kernel-construction modules (`fused`, `swizzle`) are exempt: they
//! build [`Kernel`] objects against the simulator's launch geometry (a
//! kernel is data; only launching it touches the device).

pub use tfno_backend::{
    env_backend_kind, parse_backend_kind, AnyBackend, Backend, BackendKind, NativeBackend,
    SimBackend,
};
pub use tfno_gpu_sim::{
    configured_workers, for_each_mut, merge_runs, runs_overlap, BufferId, DeviceConfig, ExecMode,
    FaultKind, FaultPlan, FaultStats, GpuDevice, Kernel, KernelStats, LaunchError, LaunchRecord,
};
