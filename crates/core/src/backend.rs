//! The crate's single gateway to the execution backends.
//!
//! Every execution-layer module in this crate (`session`, `pipeline`,
//! `pool`, `planner`, `verify`, `error`) imports its device
//! types from here and *only* from here — `cargo xtask lint` enforces it
//! (`backend-isolation`). That keeps the engine generic over the
//! [`Backend`] trait: the simulated device ([`SimBackend`]) and the eager
//! host executor ([`NativeBackend`]) are interchangeable behind
//! [`AnyBackend`], and a hardware backend would slot in by implementing
//! the trait, not by editing the engine.
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
    configured_workers, lock_unpoisoned, merge_runs, runs_overlap, seq_insert, seq_lookup,
    wait_unpoisoned, BufferId, DeviceConfig, ExecMode, FaultKind, FaultPlan, FaultStats, Kernel,
    KernelAccess, LaunchError, LaunchRecord,
};
