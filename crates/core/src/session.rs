//! `Session` — the batch-first execution surface of the crate.
//!
//! The paper's thesis is that FNO performance is lost to per-stage round
//! trips; the pre-Session host API re-created that problem one level up:
//! every `run_variant_*` call took eight positional arguments, allocated
//! its scratch fresh, and callers threaded device, planner, options and
//! mode through every layer by hand. A [`Session`] owns that state once —
//! the simulated [`GpuDevice`], the memoizing [`Planner`], and a
//! size-class [`BufferPool`] — and executes [`LayerSpec`]s against it:
//!
//! ```
//! use turbofno::{LayerSpec, Session, Variant};
//!
//! let mut sess = Session::a100();
//! let spec = LayerSpec::d1(2, 16, 16, 128).modes(32).variant(Variant::FftOpt);
//! let x = sess.alloc("x", spec.input_len());
//! let w = sess.alloc("w", spec.weight_len());
//! let y = sess.alloc("y", spec.output_len());
//! // ... upload x/w ...
//! let run = sess.run(&spec, x, w, y);
//! assert_eq!(run.kernel_count(), 3); // FFT, CGEMM, iFFT
//! // A second same-shape run leases its scratch from the pool — no new
//! // device allocation — and launches the same sequence:
//! let misses = sess.pool_stats().misses;
//! let warm = sess.run(&spec, x, w, y);
//! assert_eq!(warm.kernel_count(), 3);
//! assert_eq!(sess.pool_stats().misses, misses);
//! ```
//!
//! [`Session::run_many`] is the serving entry point: requests of the same
//! shape share one `TurboBest` planning decision, run back-to-back through
//! the same pooled scratch, and — when they also share a weight buffer —
//! coalesce into a single stacked-batch launch sequence.
//!
//! There is one request path and one call shape: [`Session::run`],
//! [`Session::run_many`], their `try_` twins and [`Session::measure`]
//! return their runs once the work has finished. A single `run` is a
//! queue of one through the same admission check and the same engine as
//! `run_many` (a lone request runs unstacked, so its launch sequence is
//! unchanged); the only difference is the aliasing rule: a queue is a
//! parallel batch, so no request's `y` may be any request's operand,
//! while a single call may update in place (`y == x`).
//!
//! Every call runs on the caller's thread. No work runs beside it: the
//! simulator's block executor and the host `pointwise` each already fan
//! out to every core, so a second thread would have nothing to overlap.
//! The repo benchmark still calls two older names, which now delegate to
//! `try_run_many` (see [`Session::try_submit_many`]).
//!
//! ## Warm calls
//!
//! Every call runs the same path; nothing records or replays a launch
//! sequence. A second call of a known shape is cheap because its inputs
//! are already warm: the [`Planner`] has its `TurboBest` decision cached,
//! the [`BufferPool`] hands back the scratch the first call released, the
//! process-wide FFT plan/trace cache (`tfno_fft::cache`) shares every
//! pruned plan and butterfly trace, and a functional sim launch attaches
//! its memoized analytical counts instead of metering every access.
//! [`Session::measure`] is a `try_run` in analytical mode on leased
//! virtual operands, so a warm one issues the same launches as a cold one,
//! each answered from the analytical launch memo. The planner's cold
//! probes are such measurements too, each on a scratch session.
//!
//! ## Failure semantics
//!
//! Both request entry points have a typed twin — [`Session::try_run`]
//! and [`Session::try_run_many`] — returning `Result<_, `[`TfnoError`]`>`.
//! Each panicking entry point *is* its twin plus `panic!("{e}")`, so the
//! success path is the same code and the panic message is the
//! [`TfnoError`] text. Validation is typed at its source
//! ([`SpectralShape::try_validate`]); nothing on a validation path
//! catches a panic.
//!
//! Transient device faults (see [`FaultPlan`]) are retried
//! under the session's [`RetryPolicy`]; a fused variant that keeps
//! faulting is re-planned onto the unfused `FftOpt` pipeline (the
//! *degradation ladder*) before the error surfaces. Failed launches write
//! nothing, so every retry — and the final success — is bitwise-identical
//! to a fault-free run of the same variant.
//!
//! Every call's work runs through one function, which reconciles the
//! pool's lease ledger when the work ends: a lease the work took and left
//! behind is released on every exit path. A panic in the engine is a
//! bug, not a [`TfnoError`], but it does not wedge the session: the
//! leases the unwind leaked are released, then the panic resumes, so it
//! surfaces at that `run` call (or its `_many` or `try_` form).
//! A leak on a successful call is a defect of the plan: with verification
//! on (see [`crate::verify`]) the call returns [`TfnoError::Validation`].
//! Later calls proceed unaffected, and [`Session::recovery_stats`] counts
//! all of it.

use crate::error::{RecoveryStats, RetryPolicy, TfnoError};
use crate::pipeline::{unfit_reason, ExecCtx, LayerBufs, TurboOptions, Variant};
use crate::planner::{Planner, PlannerStats};
use crate::pool::{BufferPool, PoolStats};
use crate::verify::{verifier_enabled, PlanHazard};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use tfno_cgemm::WeightStacking;
use crate::pipeline::PipelineRun;
use tfno_culib::{CopySegment, SegmentedCopyKernel, SpectralShape, MAX_RANK};
use crate::backend::{
    Backend, BufferId, DeviceConfig, ExecMode, FaultPlan, FaultStats, GpuDevice, LaunchError,
    SimBackend,
};
use tfno_num::C32;

/// Rank-generic description of one Fourier-layer execution.
///
/// Built with [`LayerSpec::d1`]/[`LayerSpec::d2`]/[`LayerSpec::d3`] (or
/// [`LayerSpec::from_shape`] over any [`SpectralShape`]) plus chained
/// setters; consumed by [`Session::run`]/[`Session::run_many`]. Until
/// `.modes(..)` is called the spec keeps the full spectrum on every axis.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LayerSpec {
    shape: SpectralShape,
    /// Pipeline variant to execute (default [`Variant::TurboBest`]).
    pub variant: Variant,
    /// Turbo tuning/ablation knobs.
    pub opts: TurboOptions,
    /// Execution mode (default [`ExecMode::Functional`]).
    pub exec: ExecMode,
}

impl LayerSpec {
    /// A spec over an arbitrary-rank spectral shape (the generic entry the
    /// `d1`/`d2`/`d3` conveniences delegate to).
    pub fn from_shape(shape: SpectralShape) -> Self {
        LayerSpec {
            shape,
            variant: Variant::TurboBest,
            opts: TurboOptions::default(),
            exec: ExecMode::Functional,
        }
    }

    /// A 1D Fourier layer: `x [batch, k_in, n] -> y [batch, k_out, n]`.
    pub fn d1(batch: usize, k_in: usize, k_out: usize, n: usize) -> Self {
        LayerSpec::from_shape(SpectralShape::d1(batch, k_in, k_out, n))
    }

    /// A 2D Fourier layer: `x [batch, k_in, nx, ny] -> y [batch, k_out, nx, ny]`.
    pub fn d2(batch: usize, k_in: usize, k_out: usize, nx: usize, ny: usize) -> Self {
        LayerSpec::from_shape(SpectralShape::d2(batch, k_in, k_out, nx, ny))
    }

    /// A 3D Fourier layer:
    /// `x [batch, k_in, nx, ny, nz] -> y [batch, k_out, nx, ny, nz]`.
    pub fn d3(batch: usize, k_in: usize, k_out: usize, nx: usize, ny: usize, nz: usize) -> Self {
        LayerSpec::from_shape(SpectralShape::d3(batch, k_in, k_out, nx, ny, nz))
    }

    /// Retain `nf` low-frequency modes per transformed axis, clamped to
    /// each axis length — one clamp rule shared by every rank.
    ///
    /// The clamp is to the *full* axis length, not `n/2`: retained modes
    /// count complex spectrum entries from DC upward (this formulation has
    /// no Hermitian-symmetry truncation), so `.modes(n)` keeps the whole
    /// spectrum and any larger request degrades to exactly that instead of
    /// building an invalid problem that panics downstream.
    pub fn modes(mut self, nf: usize) -> Self {
        let per_axis = [nf; MAX_RANK];
        self.shape = self.shape.with_modes(&per_axis[..self.shape.rank]);
        self
    }

    /// Retain an `nfx x nfy` corner (2D only), with the same per-axis
    /// clamping as [`LayerSpec::modes`] — `.modes(k)` and `.modes_xy(k, k)`
    /// agree on every input, in and out of range.
    ///
    /// # Panics
    /// On any other rank — a 1D layer has a single mode count (use
    /// [`LayerSpec::modes`]); a 3D layer has three
    /// ([`LayerSpec::modes_xyz`]).
    pub fn modes_xy(mut self, nfx: usize, nfy: usize) -> Self {
        match self.shape.rank {
            1 => panic!("modes_xy on a 1D LayerSpec; use .modes(nf)"),
            2 => {}
            r => panic!("modes_xy on a {r}D LayerSpec; use .modes_xyz(nfx, nfy, nfz)"),
        }
        self.shape = self.shape.with_modes(&[nfx, nfy]);
        self
    }

    /// Retain an `nfx x nfy x nfz` corner (3D only), with the same
    /// per-axis clamping as [`LayerSpec::modes`].
    ///
    /// # Panics
    /// On any other rank.
    pub fn modes_xyz(mut self, nfx: usize, nfy: usize, nfz: usize) -> Self {
        let r = self.shape.rank;
        assert!(r == 3, "modes_xyz on a {r}D LayerSpec; use .modes(nf) or .modes_xy(nfx, nfy)");
        self.shape = self.shape.with_modes(&[nfx, nfy, nfz]);
        self
    }

    /// Select the pipeline variant (default `TurboBest`).
    pub fn variant(mut self, v: Variant) -> Self {
        self.variant = v;
        self
    }

    /// Override the Turbo tuning knobs.
    pub fn options(mut self, opts: TurboOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Select the execution mode (default `Functional`).
    pub fn exec(mut self, mode: ExecMode) -> Self {
        self.exec = mode;
        self
    }

    /// The spectral shape this spec executes.
    pub fn shape(&self) -> SpectralShape {
        self.shape
    }

    /// The buffer-free half of admission: an executable shape (power-of-two
    /// lengths, mode bounds) whose kernels the variant can build on a
    /// device with `cfg` — fused M-tiles that fill whole warp tiles, and
    /// every block within the device's shared memory. `TurboBest` is
    /// admitted when any candidate fits, and plans only among those.
    fn check_shape(&self, cfg: &DeviceConfig) -> Result<(), TfnoError> {
        self.shape.try_validate().map_err(TfnoError::Validation)?;
        match unfit_reason(cfg, &self.shape, self.variant, &self.opts) {
            None => Ok(()),
            Some(reason) => Err(TfnoError::Validation(reason)),
        }
    }

    /// Leading (batch) dimension.
    pub fn batch(&self) -> usize {
        self.shape.batch
    }

    /// Required length of the `x` operand in complex elements.
    pub fn input_len(&self) -> usize {
        self.shape.input_len()
    }

    /// Required length of the `w` operand (`k_in * k_out`).
    pub fn weight_len(&self) -> usize {
        self.shape.weight_len()
    }

    /// Required length of the `y` operand.
    pub fn output_len(&self) -> usize {
        self.shape.output_len()
    }

    /// The same layer with the batch dimension scaled by `factor` — the
    /// shape of a coalesced stack of `factor` identical requests.
    fn stacked(&self, factor: usize) -> LayerSpec {
        let mut s = *self;
        s.shape.batch *= factor;
        s
    }
}

/// One queued layer execution for [`Session::run_many`].
#[derive(Clone, Copy, Debug)]
pub struct Request {
    pub spec: LayerSpec,
    pub x: BufferId,
    pub w: BufferId,
    pub y: BufferId,
}

/// Always zero: every call runs on the caller's thread, so nothing is
/// dispatched and nothing is ever in flight. Kept only because the repo
/// benchmark's counter adapter (`fnobench/src/counters.rs`) reads both
/// fields; it goes together with that benchmark's `session.dispatch_jobs`
/// and `session.max_in_flight` metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DispatchStats {
    pub jobs_dispatched: u64,
    pub max_in_flight: u64,
}

/// Counters [`Session::replay_stats`] reports: always zero, since no
/// call records or replays a launch sequence.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayStats {
    pub hits: u64,
    pub misses: u64,
}

/// An owning execution handle: simulated device + memoizing planner +
/// scratch buffer pool. The single way to execute Fourier layers (and,
/// via `tfno-model`, whole FNO forwards).
///
/// Sessions are cheap to create but meant to be long-lived: planner and
/// pool state warm up over the first request of each shape and every later
/// same-shape request skips planning and scratch allocation entirely.
///
/// Every call runs on the caller's thread and returns once its work has
/// finished (see the [module docs](self)).
pub struct Session<B: Backend = SimBackend> {
    dev: B,
    pool: BufferPool,
    planner: Planner,
    /// Bounded retry budget for transient faults (see [`RetryPolicy`]).
    retry: RetryPolicy,
    recovery: RecoveryStats,
}

impl Session {
    /// A session over the paper's evaluation device, in the profile the
    /// `TFNO_BACKEND` environment variable selects
    /// ([`GpuDevice::from_env`]): the default one when it is unset or
    /// `sim`, the release one ([`GpuDevice::release`]) when it is
    /// `native`.
    pub fn a100() -> Self {
        Session::new(GpuDevice::from_env(DeviceConfig::a100()))
    }
}

impl<B: Backend> Session<B> {
    /// Wrap an existing backend (its executor/memo configuration is kept).
    pub fn new(dev: B) -> Self {
        Session {
            dev,
            pool: BufferPool::new(),
            planner: Planner::new(),
            retry: RetryPolicy::default(),
            recovery: RecoveryStats::default(),
        }
    }

    /// The simulated device the session's backend wraps.
    pub fn device(&self) -> &GpuDevice {
        self.dev.device()
    }

    pub fn device_mut(&mut self) -> &mut GpuDevice {
        self.dev.device_mut()
    }

    /// The session-local `TurboBest` planner.
    pub fn planner(&mut self) -> &mut Planner {
        &mut self.planner
    }

    /// Planning counters: a warm same-shape request must add zero
    /// `simulated_launches`.
    pub fn planner_stats(&self) -> PlannerStats {
        self.planner.stats()
    }

    /// Scratch-pool counters: a warm same-shape request must report
    /// `hits > 0`.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Install (or clear, with `None`) a deterministic fault-injection
    /// plan on the session's device.
    ///
    /// # Panics
    /// If the device does not support fault injection (see
    /// [`GpuDevice::supports_fault_injection`]) — use
    /// [`Session::try_set_fault_plan`] for the typed twin. Clearing with
    /// `None` succeeds on every backend.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.try_set_fault_plan(plan)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Typed twin of [`Session::set_fault_plan`]: a device that does not
    /// support fault injection (a release device) reports
    /// [`TfnoError::Validation`] instead of panicking (asking for a missing
    /// capability is a request error — check
    /// [`GpuDevice::supports_fault_injection`] first).
    pub fn try_set_fault_plan(&mut self, plan: Option<FaultPlan>) -> Result<(), TfnoError> {
        self.device_mut().try_set_fault_plan(plan).map_err(TfnoError::from)
    }

    /// Fault-injection counters of the session's device (all zero when no
    /// plan is installed).
    pub fn fault_stats(&self) -> FaultStats {
        self.device().fault_stats()
    }

    /// Set the bounded retry budget every executing entry point (`try_run`,
    /// `try_run_many` and their panicking forms) applies to transient
    /// device faults.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    /// Counters of the recovery machinery: transient retries, degradations
    /// to the unfused pipeline, exhausted operations, healed panics and
    /// the leases they leaked.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery
    }

    /// Allocate a named long-lived buffer (weights, persistent activations).
    pub fn alloc(&mut self, name: &str, len: usize) -> BufferId {
        self.device_mut().alloc(name, len)
    }

    /// Lease a real buffer from the pool (return it with [`Session::release`]).
    pub fn acquire(&mut self, len: usize) -> BufferId {
        self.pool.acquire(self.dev.device_mut(), len)
    }

    /// Lease a storage-free virtual buffer from the pool.
    pub fn acquire_virtual(&mut self, len: usize) -> BufferId {
        self.pool.acquire_virtual(self.dev.device_mut(), len)
    }

    /// Return a leased buffer to the pool.
    pub fn release(&mut self, id: BufferId) {
        self.pool.release(self.dev.device(), id);
    }

    pub fn upload(&mut self, id: BufferId, data: &[C32]) {
        self.device_mut().upload(id, data);
    }

    pub fn download(&self, id: BufferId) -> Vec<C32> {
        self.device().download(id)
    }

    /// The one admission check, run by every entry point before anything
    /// launches or is leased, so a bad request fails at its call site:
    /// operand ids this session's device allocated and that are not pool
    /// leases already released, operand lengths, shape and fusability for
    /// every request, plus — for a `run_many` queue (`parallel`) — the
    /// aliasing rules. A single `run` is never reordered against other
    /// work, so it may update in place (`y == x`).
    ///
    /// A released lease sits in the pool's free list, where the engine
    /// could lease it again as scratch and overwrite the operand mid-run.
    ///
    /// Buffer ids are per-device indices: an id from another session's
    /// device that is out of range here is rejected, but an in-range one
    /// names one of this device's buffers and cannot be detected.
    fn try_admit(&self, reqs: &[Request], parallel: bool) -> Result<(), TfnoError> {
        let memory = &self.device().memory;
        for r in reqs {
            for (operand, id) in [("x", r.x), ("w", r.w), ("y", r.y)] {
                if !memory.contains(id) {
                    return Err(TfnoError::Validation(format!(
                        "{operand} is buffer {id:?}, which this session's device never allocated"
                    )));
                }
                if self.pool.is_pooled(id) {
                    return Err(TfnoError::Validation(format!(
                        "{operand} is buffer {id:?}, a pool lease this session already released"
                    )));
                }
            }
        }
        let len = |id: BufferId| memory.len(id);
        for r in reqs {
            for (got, want, msg) in [
                (len(r.x), r.spec.input_len(), "x length != spec input_len"),
                (len(r.w), r.spec.weight_len(), "w length != spec weight_len"),
                (len(r.y), r.spec.output_len(), "y length != spec output_len"),
            ] {
                if got != want {
                    return Err(TfnoError::Validation(format!("{msg} ({got} != {want})")));
                }
            }
            r.spec.check_shape(&self.device().config)?;
        }
        if !parallel {
            return Ok(());
        }
        // Queues run group-reordered, so no request's output may be its
        // own operand or any other request's operand or output. The scan
        // order is pinned by the API tests' messages: writer-major, and a
        // request's self-alias before any cross-alias it takes part in.
        for (i, a) in reqs.iter().enumerate() {
            let own = [("x", a.x), ("w", a.w)]
                .into_iter()
                .find(|&(_, b)| b == a.y);
            if let Some((operand, _)) = own {
                return Err(TfnoError::Validation(format!(
                    "run_many request {i} is self-aliased (y == {operand}): group-reordered \
                     execution would run it in-place; use a distinct output buffer or a \
                     sequential `run` call"
                )));
            }
            let reader = reqs
                .iter()
                .enumerate()
                .position(|(j, b)| j != i && [b.x, b.w, b.y].contains(&a.y));
            if let Some(j) = reader {
                return Err(TfnoError::Validation(format!(
                    "run_many requests must not alias outputs: request {i}'s y is an \
                     operand of request {j}; chain dependent layers through \
                     sequential `run` calls instead"
                )));
            }
        }
        Ok(())
    }

    /// The one request path: admit, then run the resilient engine through
    /// [`Session::run_work`].
    fn try_run_requests(
        &mut self,
        reqs: &[Request],
        parallel: bool,
    ) -> Result<Vec<PipelineRun>, TfnoError> {
        self.try_admit(reqs, parallel)?;
        let (policy, reqs) = (self.retry, reqs.to_vec());
        self.run_work(move |ctx, planner, recovery| {
            run_queue_resilient(ctx, planner, recovery, policy, reqs)
        })
    }

    /// Run `work` against the session state and return its result: the
    /// one place an [`ExecCtx`] is built (`cargo xtask lint` keeps it so)
    /// and the one place the pool's lease ledger is reconciled.
    ///
    /// A snapshot of the pool's leases is taken first, and on every exit
    /// path each lease `work` took and left behind (pipeline scratch,
    /// staging buffers) is released and counted in
    /// [`RecoveryStats::leases_recovered`]. When `work` unwinds, the panic
    /// then resumes here, at the call that ran the work. When it succeeds
    /// with verification on, a leak is a defect of the plan and returns
    /// [`PlanHazard::UnreleasedLease`] as [`TfnoError::Validation`].
    fn run_work(
        &mut self,
        work: impl FnOnce(
            &mut ExecCtx<'_>,
            &mut Planner,
            &mut RecoveryStats,
        ) -> Result<Vec<PipelineRun>, TfnoError>,
    ) -> Result<Vec<PipelineRun>, TfnoError> {
        let before = self.pool.leased_snapshot();
        let verify = verifier_enabled();
        let mut ctx = ExecCtx {
            dev: self.dev.device_mut(),
            pool: &mut self.pool,
            verify,
        };
        let (planner, recovery) = (&mut self.planner, &mut self.recovery);
        let out = catch_unwind(AssertUnwindSafe(|| work(&mut ctx, planner, recovery)));
        let mut leaked: Vec<BufferId> = self
            .pool
            .leased_snapshot()
            .difference(&before)
            .copied()
            .collect();
        // Release in id order, so the free lists do not depend on the
        // set's iteration order.
        leaked.sort_unstable();
        self.recovery.leases_recovered += leaked.len() as u64;
        for &id in &leaked {
            self.pool.release(self.dev.device(), id);
        }
        match out {
            Err(payload) => {
                self.recovery.jobs_healed += 1;
                resume_unwind(payload)
            }
            Ok(Ok(_)) if verify && !leaked.is_empty() => {
                let count = leaked.len();
                Err(PlanHazard::UnreleasedLease { count }.into())
            }
            Ok(out) => out,
        }
    }

    /// Execute one layer spec. `TurboBest` consults the session planner
    /// (memoized per shape); scratch comes from the session pool (see the
    /// module docs on warm calls).
    ///
    /// A single call is a queue of one through the [`Session::run_many`]
    /// engine, which runs a lone request unstacked. Unlike `run_many`, it
    /// may update in place: `y == x` is allowed.
    ///
    /// # Panics
    /// With the [`TfnoError`] text wherever [`Session::try_run`] returns
    /// `Err`: validation failures (with the documented messages), and
    /// faults that outlast the retry/degradation budget of an installed
    /// fault plan.
    pub fn run(&mut self, spec: &LayerSpec, x: BufferId, w: BufferId, y: BufferId) -> PipelineRun {
        self.try_run(spec, x, w, y)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Typed twin of [`Session::run`]: validation errors, and transient
    /// faults that survived the session's [`RetryPolicy`] and the
    /// degradation ladder, come back as [`TfnoError`] instead of panics.
    pub fn try_run(
        &mut self,
        spec: &LayerSpec,
        x: BufferId,
        w: BufferId,
        y: BufferId,
    ) -> Result<PipelineRun, TfnoError> {
        let runs = self.try_run_requests(&[Request { spec: *spec, x, w, y }], false)?;
        // INVARIANT: the engine returns one run per request.
        Ok(runs.into_iter().next().expect("one run per request"))
    }

    /// Execute a queue of layer requests, coalescing where possible.
    ///
    /// * Requests with identical specs share one planning decision —
    ///   `TurboBest` is resolved once per shape group, so N same-shape
    ///   requests cost exactly one (possibly cached) plan.
    /// * Within a shape group, every stackable request (functional mode,
    ///   value-carrying buffers) joins **one** stack along the batch axis
    ///   and executes as a single batched launch sequence — *even when the
    ///   requests use different weight buffers*: the weights are packed
    ///   into a pooled strided buffer and the kernels read one slice per
    ///   stacked sub-batch ([`WeightStacking`]). Per-sample results are
    ///   bitwise-identical to sequential [`Session::run`] calls because
    ///   every kernel treats batch entries independently.
    /// * Everything else (virtual buffers, analytical mode, a group of one)
    ///   runs back-to-back through the shared scratch pool, so N
    ///   same-shape requests allocate scratch once and reuse it N−1 times.
    ///
    /// Returns one [`PipelineRun`] per request, in order. A coalesced
    /// group reports its launches (a device-side gather, the pipeline
    /// kernels, a device-side scatter) on the group's first request; the
    /// other members report empty runs (their outputs are still written).
    ///
    /// The queue is a *parallel batch*: no request's output buffer may be
    /// one of its own or another request's operands (coalescing and shape
    /// grouping reorder execution, so chained or in-place layers must go
    /// through sequential [`Session::run`] calls).
    ///
    /// # Panics
    /// With the [`TfnoError`] text wherever [`Session::try_run_many`]
    /// returns `Err` (aliasing violations included).
    pub fn run_many(&mut self, reqs: &[Request]) -> Vec<PipelineRun> {
        self.try_run_many(reqs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Typed twin of [`Session::run_many`] (same coalescing, same
    /// aliasing contract, typed errors instead of panics).
    pub fn try_run_many(&mut self, reqs: &[Request]) -> Result<Vec<PipelineRun>, TfnoError> {
        self.try_run_requests(reqs, true)
    }

    /// Model one spec analytically on pooled virtual buffers (no values
    /// move; addresses and event counts only): a [`Session::try_run`] of
    /// the spec in [`ExecMode::Analytical`] (its own `exec` mode is
    /// ignored) on three leased virtual operands, released afterwards.
    /// `TurboBest` is resolved through the session planner, like every
    /// other call; each launch goes through the analytical launch memo
    /// and, with verification on, the plan check. Analytical launches on
    /// virtual buffers are exempt from fault injection, so an installed
    /// [`FaultPlan`] never fails a measurement.
    ///
    /// # Panics
    /// With the [`TfnoError`] text wherever that `try_run` returns `Err`:
    /// the shape half of admission — an invalid shape, or a variant whose
    /// kernels cannot be built for it on this device.
    pub fn measure(&mut self, spec: &LayerSpec) -> PipelineRun {
        let [x, w, y] = [spec.input_len(), spec.weight_len(), spec.output_len()]
            .map(|len| self.acquire_virtual(len));
        let run = self.try_run(&spec.exec(ExecMode::Analytical), x, w, y);
        for id in [x, w, y] {
            self.release(id);
        }
        run.unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Calls kept only for the repo benchmark (`fnobench/`), their one
/// caller outside tests. That benchmark changes only on its own, so these
/// keep the names and signatures it was written against and add no
/// behaviour; the next change to the benchmark deletes all five.
impl<B: Backend> Session<B> {
    /// [`Session::try_run_many`], under the benchmark's name for it: the
    /// work has run, and the outputs are written, when this returns.
    pub fn try_submit_many(&mut self, reqs: &[Request]) -> Result<Vec<PipelineRun>, TfnoError> {
        self.try_run_many(reqs)
    }

    /// Hands back the runs of a [`Session::try_submit_many`].
    pub fn try_wait_many(&mut self, runs: Vec<PipelineRun>) -> Result<Vec<PipelineRun>, TfnoError> {
        Ok(runs)
    }

    /// Always zero: no call records or replays a launch sequence.
    pub fn replay_stats(&self) -> ReplayStats {
        ReplayStats::default()
    }

    /// Always zero (see [`DispatchStats`]).
    pub fn dispatch_stats(&self) -> DispatchStats {
        DispatchStats::default()
    }

    /// A no-op: nothing is ever in flight.
    pub fn synchronize(&mut self) {}
}

/// Resolve `TurboBest` to a concrete variant (one planner consult; a
/// cache hit for every shape the session has planned before).
fn resolve(planner: &mut Planner, cfg: &DeviceConfig, spec: &LayerSpec) -> Variant {
    if spec.variant != Variant::TurboBest {
        return spec.variant;
    }
    planner.plan_shape(cfg, &spec.shape, &spec.opts)
}

/// The execution engine behind every entry point: everything here runs
/// against an [`ExecCtx`].
impl ExecCtx<'_> {
    /// Execute one layer spec against this context. A launch fault
    /// surfaces as `Err` with nothing written and no lease held (the
    /// pipeline bodies release scratch on every exit path).
    pub(crate) fn try_run_spec(
        &mut self,
        spec: &LayerSpec,
        variant: Variant,
        bufs: LayerBufs,
    ) -> Result<PipelineRun, LaunchError> {
        let (opts, exec) = (spec.opts, spec.exec);
        self.try_run_spectral(&spec.shape, variant, bufs, &opts, exec)
    }

    /// The body of every request entry point (queue already admitted);
    /// `planner` resolves each shape group's `TurboBest`.
    ///
    /// A coalesced group reports its launches on the group's first
    /// request; the other members report empty runs (their outputs are
    /// still written).
    pub(crate) fn try_run_queue(
        &mut self,
        planner: &mut Planner,
        reqs: &[Request],
    ) -> Result<Vec<PipelineRun>, LaunchError> {
        let mut out: Vec<PipelineRun> = (0..reqs.len()).map(|_| PipelineRun::default()).collect();
        let mut claimed = vec![false; reqs.len()];
        for i in 0..reqs.len() {
            if claimed[i] {
                continue;
            }
            // The shape group: every unclaimed request with an identical spec.
            let group: Vec<usize> = (i..reqs.len())
                .filter(|&j| !claimed[j] && reqs[j].spec == reqs[i].spec)
                .collect();
            for &j in &group {
                claimed[j] = true;
            }
            let concrete = resolve(planner, &self.dev.config, &reqs[i].spec);

            // One stack for the whole shape group, mixed weights included;
            // non-stackable members (virtual buffers, analytical mode) run
            // sequentially, as does a singleton — it gains nothing from
            // the staging copies.
            let (mut stack, mut rest): (Vec<usize>, Vec<usize>) = group
                .iter()
                .copied()
                .partition(|&j| self.stackable(&reqs[j]));
            if stack.len() < 2 {
                rest.append(&mut stack);
                rest.sort_unstable();
            }
            if !stack.is_empty() {
                self.try_run_stacked(reqs, &stack, concrete, &mut out)?;
            }
            for j in rest {
                let r = &reqs[j];
                let run = self.try_run_spec(&r.spec, concrete, LayerBufs::shared(r.x, r.w, r.y))?;
                out[j].launches.extend(run.launches);
            }
        }
        Ok(out)
    }

    /// Stacking moves values through device-side gather/scatter copies, so
    /// it requires functional execution on real buffers.
    fn stackable(&self, r: &Request) -> bool {
        r.spec.exec == ExecMode::Functional
            && !self.dev.memory.is_virtual(r.x)
            && !self.dev.memory.is_virtual(r.y)
            && !self.dev.memory.is_virtual(r.w)
    }

    /// Execute a same-spec stack of requests as one batched launch
    /// sequence:
    ///
    /// 1. one device-side gather launch assembles the stacked input
    ///    `[x_0 .. x_{k-1}]` — and, when the requests use different weight
    ///    buffers, packs `[w_0 .. w_{k-1}]` into a pooled strided weight
    ///    buffer in the same launch;
    /// 2. the pipeline runs once at `batch * stack_len`, with the weight
    ///    operand advancing one slice per stacked sub-batch
    ///    ([`WeightStacking`]);
    /// 3. one device-side scatter launch redistributes the stacked output
    ///    to the requests' `y` buffers.
    ///
    /// No values round-trip through the host, and the launch count is the
    /// same whether the stack shares one weight buffer or uses `k`
    /// distinct ones. Launches land in `out[stack[0]]`.
    fn try_run_stacked(
        &mut self,
        reqs: &[Request],
        stack: &[usize],
        concrete: Variant,
        out: &mut [PipelineRun],
    ) -> Result<(), LaunchError> {
        let mut leases = Vec::new();
        let r = self.stacked_body(reqs, stack, concrete, out, &mut leases);
        // On the error path this returns the staging leases too.
        self.release(leases);
        r
    }

    fn stacked_body(
        &mut self,
        reqs: &[Request],
        stack: &[usize],
        concrete: Variant,
        out: &mut [PipelineRun],
        leases: &mut Vec<BufferId>,
    ) -> Result<(), LaunchError> {
        let owner = stack[0];
        let base = reqs[owner].spec;
        let spec = base.stacked(stack.len());
        let (in_len, out_len, w_len) = (base.input_len(), base.output_len(), base.weight_len());

        // Stacked requests carry real buffers, so their staging is real.
        let like = reqs[owner].x;
        let sx = self.try_scratch(like, spec.input_len(), leases)?;
        let sy = self.try_scratch(like, spec.output_len(), leases)?;

        // Gather inputs (and, for mixed weights, the packed weight stack)
        // in one launch.
        let mut gather: Vec<CopySegment> = stack
            .iter()
            .enumerate()
            .map(|(pos, &j)| CopySegment {
                src: reqs[j].x,
                src_base: 0,
                dst: sx,
                dst_base: pos * in_len,
                len: in_len,
            })
            .collect();
        let mixed = stack.iter().any(|&j| reqs[j].w != reqs[stack[0]].w);
        let (w, ws) = if mixed {
            let sw = self.try_scratch(like, stack.len() * w_len, leases)?;
            gather.extend(stack.iter().enumerate().map(|(pos, &j)| CopySegment {
                src: reqs[j].w,
                src_base: 0,
                dst: sw,
                dst_base: pos * w_len,
                len: w_len,
            }));
            (sw, WeightStacking::strided(w_len, base.batch()))
        } else {
            (reqs[stack[0]].w, WeightStacking::SHARED)
        };

        let gather = SegmentedCopyKernel::new("serve.gather", gather);
        out[owner].push(self.try_step(gather, ExecMode::Functional)?);

        let pipeline = self.try_run_spec(&spec, concrete, LayerBufs { x: sx, w, y: sy, ws })?;
        out[owner].launches.extend(pipeline.launches);

        let scatter: Vec<CopySegment> = stack
            .iter()
            .enumerate()
            .map(|(pos, &j)| CopySegment {
                src: sy,
                src_base: pos * out_len,
                dst: reqs[j].y,
                dst_base: 0,
                len: out_len,
            })
            .collect();
        let scatter = SegmentedCopyKernel::new("serve.scatter", scatter);
        out[owner].push(self.try_step(scatter, ExecMode::Functional)?);
        Ok(())
    }
}

/// The resilient engine behind every request entry point (a single call
/// is a queue of one).
///
/// Two nested loops implement the recovery ladder:
///
/// 1. **Retry rung** — up to [`RetryPolicy::attempts`] tries of the
///    current queue. Transient faults are clean (nothing written), so a
///    retried success is bitwise-equal to an unfaulted run.
/// 2. **Degradation rung** — if the rung exhausts and any request resolves
///    to a fused variant, every such request is re-planned onto the
///    unfused [`Variant::FftOpt`] pipeline and the whole queue re-runs for
///    one more retry rung before the error is surfaced.
fn run_queue_resilient(
    ctx: &mut ExecCtx<'_>,
    planner: &mut Planner,
    recovery: &mut RecoveryStats,
    policy: RetryPolicy,
    mut reqs: Vec<Request>,
) -> Result<Vec<PipelineRun>, TfnoError> {
    let mut total_attempts = 0u32;
    loop {
        let mut last: Option<TfnoError> = None;
        for attempt in 1..=policy.attempts() {
            let out = ctx.try_run_queue(planner, &reqs).map_err(TfnoError::from);
            total_attempts += 1;
            match out {
                Ok(runs) => return Ok(runs),
                Err(e) if e.is_transient() => {
                    if attempt < policy.attempts() {
                        recovery.transient_retries += 1;
                    }
                    last = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        // FftOpt is unfused, so the rung can only be taken once.
        let mut degraded = false;
        for r in &mut reqs {
            if resolve(planner, &ctx.dev.config, &r.spec).is_fused() {
                r.spec = r.spec.variant(Variant::FftOpt);
                degraded = true;
            }
        }
        if degraded {
            recovery.degraded += 1;
            continue;
        }
        recovery.exhausted += 1;
        return Err(match last.expect("at least one attempt ran") {
            TfnoError::Transient { fault, .. } => TfnoError::Transient {
                fault,
                attempts: total_attempts,
            },
            e => e,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_builder_lengths() {
        let s = LayerSpec::d1(2, 8, 16, 128).modes(32);
        assert_eq!(s.input_len(), 2 * 8 * 128);
        assert_eq!(s.weight_len(), 8 * 16);
        assert_eq!(s.output_len(), 2 * 16 * 128);
        assert_eq!(
            s.shape(),
            SpectralShape::d1(2, 8, 16, 128).with_modes(&[32])
        );

        let s2 = LayerSpec::d2(1, 4, 4, 32, 64).modes(32);
        assert_eq!(s2.shape().modes, [32, 32, 1], "modes clamp to the axis");
        assert_eq!(
            LayerSpec::d2(1, 4, 4, 32, 64).modes_xy(8, 32).shape(),
            SpectralShape::d2(1, 4, 4, 32, 64).with_modes(&[8, 32])
        );
    }

    /// Regression: the 1D arm of `modes` documented the clamp but did not
    /// apply it — `.modes(nf > n)` built an invalid 1D shape that only
    /// failed later with an opaque downstream assert.
    #[test]
    fn modes_clamps_to_the_1d_axis() {
        let s = LayerSpec::d1(1, 2, 2, 64).modes(1000);
        assert_eq!(s.shape(), SpectralShape::d1(1, 2, 2, 64));
        s.shape().validate();
        // In-range requests are untouched.
        assert_eq!(LayerSpec::d1(1, 2, 2, 64).modes(16).shape().modes[0], 16);
    }

    /// Regression: `modes_xy` skipped the per-axis clamp `modes` applies,
    /// so the two builders disagreed on out-of-range inputs.
    #[test]
    fn modes_xy_clamps_like_modes() {
        let s = LayerSpec::d2(1, 2, 2, 32, 64).modes_xy(1000, 48);
        assert_eq!(s.shape().modes, [32, 48, 1]);
        // The two builders must agree on every input, in and out of range.
        for k in [1usize, 16, 32, 33, 64, 65, 1000] {
            assert_eq!(
                LayerSpec::d2(2, 4, 4, 32, 64).modes(k),
                LayerSpec::d2(2, 4, 4, 32, 64).modes_xy(k, k),
                "modes({k}) and modes_xy({k}, {k}) diverge"
            );
        }
    }

    #[test]
    fn spec_defaults_are_turbo_best_functional_full_spectrum() {
        let s = LayerSpec::d1(1, 4, 4, 64);
        assert_eq!(s.variant, Variant::TurboBest);
        assert_eq!(s.exec, ExecMode::Functional);
        assert_eq!(s.shape().modes[0], 64);
    }

    #[test]
    #[should_panic(expected = "modes_xy on a 1D")]
    fn modes_xy_rejects_1d() {
        let _ = LayerSpec::d1(1, 1, 1, 64).modes_xy(4, 4);
    }

    #[test]
    fn stacked_scales_only_batch() {
        let s = LayerSpec::d1(3, 8, 8, 128).modes(32).stacked(4);
        assert_eq!(
            s.shape(),
            SpectralShape::d1(12, 8, 8, 128).with_modes(&[32])
        );
    }

    #[test]
    #[should_panic(expected = "input_len")]
    fn run_validates_buffer_lengths() {
        let mut sess = Session::new(SimBackend::a100());
        let spec = LayerSpec::d1(1, 2, 2, 64).variant(Variant::FftOpt);
        let x = sess.alloc("x", 7); // wrong
        let w = sess.alloc("w", spec.weight_len());
        let y = sess.alloc("y", spec.output_len());
        sess.run(&spec, x, w, y);
    }

    /// A warm measure issues the cold one's launches again (each a
    /// launch-memo hit) and records the same sequence.
    #[test]
    fn measure_is_analytical_and_memoizes_the_sequence() {
        let mut sess = Session::new(SimBackend::a100());
        let spec = LayerSpec::d1(2, 8, 8, 128).modes(32).variant(Variant::FftOpt);
        let a = sess.measure(&spec);
        assert_eq!(a.kernel_count(), 3);
        assert!(a.total_us() > 0.0);
        let b = sess.measure(&spec);
        assert_eq!(a.total_stats(), b.total_stats());
        assert_eq!(
            sess.pool_stats().leased,
            0,
            "measure must release its virtual operands"
        );
    }

    fn seeded(len: usize, seed: f32) -> Vec<C32> {
        (0..len)
            .map(|i| {
                C32::new(
                    ((i as f32) * 0.17 + seed).sin(),
                    ((i as f32) * 0.23 - seed).cos(),
                )
            })
            .collect()
    }

    fn spec_with_operands(sess: &mut Session) -> (LayerSpec, BufferId, BufferId, BufferId) {
        let spec = LayerSpec::d1(2, 8, 8, 128).modes(32).variant(Variant::FftOpt);
        let x = sess.alloc("x", spec.input_len());
        let w = sess.alloc("w", spec.weight_len());
        let y = sess.alloc("y", spec.output_len());
        sess.upload(x, &seeded(spec.input_len(), 0.4));
        sess.upload(w, &seeded(spec.weight_len(), 0.9));
        (spec, x, w, y)
    }

    /// An invalid shape panics at the call, with the validation text,
    /// before anything launches.
    #[test]
    #[should_panic(expected = "mode count out of range")]
    fn run_rejects_invalid_shapes() {
        let mut sess = Session::new(SimBackend::a100());
        // Bypass the modes() clamp to build an invalid spec directly.
        let spec = LayerSpec {
            shape: SpectralShape {
                batch: 1,
                k_in: 2,
                k_out: 2,
                rank: 1,
                dims: [64, 1, 1],
                modes: [0, 1, 1],
            },
            variant: Variant::FftOpt,
            opts: TurboOptions::default(),
            exec: ExecMode::Functional,
        };
        let x = sess.alloc("x", spec.input_len());
        let w = sess.alloc("w", spec.weight_len());
        let y = sess.alloc("y", spec.output_len());
        sess.run(&spec, x, w, y);
    }

    #[test]
    fn transient_fault_is_retried_and_bitwise_equal() {
        let mut sess = Session::new(SimBackend::a100());
        let (spec, x, w, y) = spec_with_operands(&mut sess);
        sess.run(&spec, x, w, y);
        let want = sess.download(y);

        // A fresh output buffer, so only the retried run can have filled it.
        let y2 = sess.alloc("y2", spec.output_len());
        sess.set_fault_plan(Some(
            FaultPlan::seeded(11).at_launch(0, crate::backend::FaultKind::TransientLaunch),
        ));
        let run = sess.try_run(&spec, x, w, y2).expect("retry recovers");
        assert!(run.kernel_count() > 0);
        assert_eq!(sess.download(y2), want, "retried run is bitwise equal");
        let stats = sess.recovery_stats();
        assert_eq!(stats.transient_retries, 1);
        assert_eq!(stats.exhausted, 0);
        assert_eq!(sess.fault_stats().injected(), 1);
        assert_eq!(sess.pool_stats().leased, 0, "no lease leaked across the fault");
    }

    #[test]
    fn alloc_fault_is_retried_without_wedging_the_pool() {
        let mut sess = Session::new(SimBackend::a100());
        let (spec, x, w, y) = spec_with_operands(&mut sess);
        sess.set_fault_plan(Some(FaultPlan::seeded(3).at_alloc(0)));
        sess.try_run(&spec, x, w, y).expect("alloc retry recovers");
        assert!(sess.recovery_stats().transient_retries >= 1);
        assert_eq!(sess.pool_stats().leased, 0);
    }

    #[test]
    fn exhausted_retries_surface_attempt_count() {
        let mut sess = Session::new(SimBackend::a100());
        let (spec, x, w, y) = spec_with_operands(&mut sess);
        sess.set_retry_policy(RetryPolicy { max_attempts: 2 });
        // Every functional launch fails: no rung can succeed.
        sess.set_fault_plan(Some(FaultPlan::seeded(5).transient(1.0)));
        let err = sess.try_run(&spec, x, w, y).unwrap_err();
        match err {
            TfnoError::Transient { attempts, .. } => assert_eq!(attempts, 2),
            e => panic!("expected Transient, got {e}"),
        }
        assert_eq!(sess.recovery_stats().exhausted, 1);
        // The session is not wedged: lift the plan and run clean.
        sess.set_fault_plan(None);
        sess.run(&spec, x, w, y);
        assert_eq!(sess.pool_stats().leased, 0);
    }

    #[test]
    fn degradation_ladder_replans_fused_onto_fftopt() {
        let mut reference = Session::new(SimBackend::a100());
        let (spec_ref, xr, wr, yr) = spec_with_operands(&mut reference);
        let spec_ref = spec_ref.variant(Variant::FftOpt);
        reference.run(&spec_ref, xr, wr, yr);
        let want = reference.download(yr);

        let mut sess = Session::new(SimBackend::a100());
        let (spec, x, w, y) = spec_with_operands(&mut sess);
        let spec = spec.variant(Variant::FullyFused);
        sess.set_retry_policy(RetryPolicy::none());
        // Exactly the first launch faults: the fused rung's single attempt
        // dies, the ladder re-plans onto FftOpt, which then runs clean.
        sess.set_fault_plan(Some(
            FaultPlan::seeded(7).at_launch(0, crate::backend::FaultKind::TransientLaunch),
        ));
        sess.try_run(&spec, x, w, y).expect("degraded rung recovers");
        let stats = sess.recovery_stats();
        assert_eq!(stats.degraded, 1);
        assert_eq!(stats.exhausted, 0);
        assert_eq!(
            sess.download(y),
            want,
            "degraded run is bitwise equal to a fault-free FftOpt run"
        );
    }

    /// Work that leaks a lease and panics panics at the call that ran
    /// it, with the lease already released, and fails nothing else: the
    /// session keeps serving.
    #[test]
    fn job_panic_heals_leases_and_only_fails_its_handle() {
        let mut sess = Session::new(SimBackend::a100());
        let (spec, x, w, y) = spec_with_operands(&mut sess);
        // Work that leaks a lease and panics (only constructible from
        // inside the crate — the public surface never panics mid-lease
        // without the lease hygiene the pipelines provide).
        let err = catch_unwind(AssertUnwindSafe(|| {
            sess.run_work(|ctx, _, _| {
                let _leak = ctx
                    .pool
                    .try_acquire(ctx.dev, 64)
                    .expect("unfaulted acquire");
                panic!("chaos: job panic")
            })
        }));
        let payload = err.expect_err("the panic resumes at the call that ran the work");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"chaos: job panic"));
        // The leaked lease was released before the panic resumed.
        assert_eq!(sess.pool_stats().leased, 0);
        let stats = sess.recovery_stats();
        assert_eq!(stats.jobs_healed, 1);
        assert_eq!(stats.leases_recovered, 1);

        let run = sess.run(&spec, x, w, y); // still serviceable
        assert!(run.kernel_count() > 0);
        assert_eq!(sess.pool_stats().leased, 0);
    }

    /// Work that leaks a lease and returns `Ok` has the lease released
    /// and counted by `run_work`, and with verification on the call
    /// returns `Validation` instead of its runs.
    #[test]
    fn leaked_lease_on_success_is_released_counted_and_rejected_when_verified() {
        let mut sess = Session::new(SimBackend::a100());
        let out = sess.run_work(|ctx, _, _| {
            let _leak = ctx.pool.try_acquire(ctx.dev, 64).expect("unfaulted acquire");
            Ok(Vec::new())
        });
        assert_eq!(sess.pool_stats().leased, 0, "the leaked lease was released");
        let stats = sess.recovery_stats();
        assert_eq!((stats.leases_recovered, stats.jobs_healed), (1, 0));
        match (verifier_enabled(), out) {
            (true, Err(TfnoError::Validation(msg))) => {
                assert!(msg.contains("1 unreleased pool lease"), "{msg}")
            }
            (false, Ok(runs)) => assert!(runs.is_empty()),
            (verified, other) => panic!("verification {verified}: unexpected {other:?}"),
        }
    }

    /// Queue aliasing is an admission rule with a pinned scan order:
    /// shared operands and single in-place calls pass, a request's
    /// self-alias is reported before a cross-alias it takes part in, and
    /// cross-aliases are found writer-major, outputs included.
    #[test]
    fn queue_aliasing_scan_order_is_pinned() {
        let mut sess = Session::new(SimBackend::a100());
        let spec = LayerSpec::d1(1, 8, 8, 64).modes(32).variant(Variant::FftOpt);
        let b: Vec<BufferId> =
            (0..3).map(|i| sess.alloc(&format!("b{i}"), spec.input_len())).collect();
        let w = sess.alloc("w", spec.weight_len());
        let req = |x, y| Request { spec, x, w, y };
        let err = |reqs: &[Request]| sess.try_admit(reqs, true).unwrap_err().to_string();

        sess.try_admit(&[req(b[0], b[1]), req(b[0], b[2])], true).expect("shared operands");
        sess.try_admit(&[req(b[0], b[0])], false).expect("a single call may update in place");
        let earlier_writer = err(&[req(b[0], b[1]), req(b[1], b[1])]);
        assert!(
            earlier_writer.contains("request 0's y is an operand of request 1"),
            "{earlier_writer}"
        );
        let self_first = err(&[req(b[1], b[1]), req(b[0], b[1])]);
        assert!(self_first.contains("request 0 is self-aliased (y == x)"), "{self_first}");
        let writer_major = err(&[req(b[0], b[1]), req(b[1], b[0])]);
        assert!(
            writer_major.contains("request 0's y is an operand of request 1"),
            "{writer_major}"
        );
        let outputs = err(&[req(b[0], b[2]), req(b[1], b[2])]);
        assert!(outputs.contains("request 0's y is an operand of request 1"), "{outputs}");
    }
}
