//! The crate's single gateway to the execution backends.
//!
//! Every execution-layer module in this crate (`session`, `pipeline`,
//! `pool`, `planner`, `verify`, `error`) imports its device
//! types from here and *only* from here — `cargo xtask lint` enforces it
//! (`backend-isolation`). That keeps the engine generic over the
//! [`Backend`] trait. Both backends are configurations of the one
//! simulated device: [`SimBackend`] with its default checks (metered
//! blocks in debug builds, fault injection) and [`NativeBackend`] in its
//! release configuration (unmetered blocks with attached counts, no fault
//! injection). They are interchangeable behind [`AnyBackend`] and record
//! the same launches; the engine only ever calls the trait.
//!
//! The kernel-construction modules (`fused`, `swizzle`) are exempt: they
//! build [`Kernel`] objects against the simulator's launch geometry and
//! are backend-agnostic by construction (a kernel is data; only launching
//! it touches a backend).

pub use tfno_backend::{
    env_backend_kind, parse_backend_kind, AnyBackend, Backend, BackendCaps, BackendKind,
    NativeBackend, SimBackend,
};
pub use tfno_gpu_sim::{
    configured_workers, for_each_mut, lock_unpoisoned, merge_runs, runs_overlap, BufferId,
    DeviceConfig, ExecMode, FaultKind, FaultPlan, FaultStats, Kernel, KernelAccess, LaunchError,
    LaunchRecord,
};
