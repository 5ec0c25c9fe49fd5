//! # tfno-gpu-sim
//!
//! A software model of an NVIDIA-A100-class GPU, built so the TurboFNO
//! kernels can be implemented, *functionally executed*, and *costed* without
//! physical hardware (the reproduction's substitution for CUDA; the README
//! introduction explains the approach).
//!
//! The model has two coupled halves:
//!
//! 1. **Functional execution** ([`kernel`], [`memory`], [`shared`]):
//!    kernels move real data through a block context (element reads of
//!    pre-launch global memory, journaled stores, the block's shared
//!    slice), so they produce real numerical results that are checked
//!    against `tfno-num` references. A metered block charges the traffic
//!    the hardware would see, warp by warp: global accesses as 32-lane
//!    transactions (coalescing counted in 32-byte sectors, like the
//!    hardware's L2 sectors) and shared-memory accesses through a 32-bank
//!    conflict model with replay accounting.
//! 2. **Analytical cost model** ([`cost`]): converts the recorded (or
//!    closed-form predicted) [`KernelStats`] into an estimated execution
//!    time using a roofline over DRAM bandwidth, FP32 throughput, shared
//!    memory throughput and `__syncthreads` latency, modulated by an
//!    occupancy model (blocks per SM limited by threads / shared memory /
//!    registers, then a saturation curve in resident blocks). This is what
//!    reproduces the paper's low-occupancy "blue regions" and
//!    bandwidth-bound large-batch regime.
//!
//! Execution semantics deliberately mirror CUDA's: global reads observe the
//! pre-launch state of the device (no cross-block communication within a
//! launch), global writes become visible when the launch completes, and
//! shared memory is per-block scratch. Writes from different blocks to the
//! same element are detected and rejected in debug builds.

pub mod access;
pub mod cost;
pub mod device;
pub mod exec;
pub mod fault;
pub mod journal;
pub mod kernel;
pub mod memo;
pub mod memory;
pub mod shared;
pub mod stats;
pub mod warp;

pub use access::{merge_runs, runs_overlap, AccessSpan, KernelAccess};
pub use cost::CostModel;
pub use device::{DeviceConfig, Occupancy};
pub use exec::{configured_workers, for_each_mut, lock_unpoisoned, PAR_BLOCK_THRESHOLD};
pub use fault::{FaultKind, FaultPlan, FaultStats, LaunchError};
pub use journal::WriteJournal;
pub use kernel::{BlockCtx, ExecMode, GpuDevice, Kernel, LaunchDims, LaunchHistory, LaunchRecord};
pub use memo::{launch_memo_stats, structural_fingerprint, MemoStats};
pub use memory::{BufferId, GlobalMemory, GlobalView};
pub use shared::{warp_bank_cycles, warp_bank_cycles_wide, BankStats};
pub use stats::KernelStats;
pub use warp::{WarpIdx, WARP_SIZE};
