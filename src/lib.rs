//! Umbrella crate: re-exports the whole TurboFNO reproduction workspace so
//! the examples and integration tests can `use turbofno_suite::*`.
pub use tfno_cgemm as cgemm;
pub use tfno_culib as culib;
pub use tfno_fft as fft;
pub use tfno_gpu_sim as gpu_sim;
pub use tfno_model as model;
pub use tfno_num as num;
pub use turbofno as core;

// The execution surface, re-exported flat: `turbofno_suite::Session` is
// the canonical way to run layers and models.
pub use turbofno::{
    BufferPool, DispatchStats, LayerSpec, PoolStats, RecoveryStats, ReplayStats, Request,
    RetryPolicy, Session, TfnoError, TurboOptions, Variant,
};

// The backend surface: a `Session` runs on one `GpuDevice`, in its
// checked (`sim`) or release (`native`, `GpuDevice::release`) profile,
// which record the same launches; `Session::a100()` picks the profile
// from `TFNO_BACKEND` (`GpuDevice::from_env`).
pub use turbofno::{Backend, NativeBackend, SimBackend};

// The fault-injection surface (see `tfno_gpu_sim::fault`): install a
// seeded `FaultPlan` with `Session::set_fault_plan` to chaos-test against
// deterministic launch/allocation failures.
pub use tfno_gpu_sim::{FaultKind, FaultPlan, FaultStats, LaunchError};
