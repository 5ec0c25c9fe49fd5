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

// The backend surface: `Session` is generic over `Backend`; `AnyBackend`
// switches between the simulator's two configurations, checked (`sim`)
// and release (`native`), which record the same launches
// (`TFNO_BACKEND`, or `Session::with_backend`).
pub use turbofno::{AnyBackend, Backend, BackendKind, NativeBackend, SimBackend};

// The fault-injection surface (see `tfno_gpu_sim::fault`): install a
// seeded `FaultPlan` with `Session::set_fault_plan` to chaos-test against
// deterministic launch/allocation failures.
pub use tfno_gpu_sim::{FaultKind, FaultPlan, FaultStats, LaunchError};
