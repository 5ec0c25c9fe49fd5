//! `Session` — the batch-first execution surface of the crate.
//!
//! The paper's thesis is that FNO performance is lost to per-stage round
//! trips; the pre-Session host API re-created that problem one level up:
//! every `run_variant_*` call took eight positional arguments, allocated
//! its scratch fresh, and callers threaded device, planner, options and
//! mode through every layer by hand. A [`Session`] owns that state once —
//! an execution [`Backend`] (the simulated
//! device by default), the memoizing [`Planner`], and a size-class
//! [`BufferPool`] — and executes [`LayerSpec`]s against it:
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
//! There is one request path. A single [`Session::run`] is a queue of one
//! through the same admission check and the same engine as `run_many`
//! (a lone request runs unstacked, so its launch sequence is unchanged);
//! the only difference is the aliasing rule: a queue is a parallel batch,
//! so no request's `y` may be any request's operand, while a single call
//! may update in place (`y == x`).
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
//!
//! ## Submit and wait
//!
//! [`Session::submit`]/[`Session::submit_many`] take the same admission
//! check and run the same engine as `run`/`run_many`, on the caller's
//! thread, before they return; `run` is `submit` followed by
//! [`Session::wait`]. The returned [`LaunchHandle`] owns the outcome —
//! the [`PipelineRun`]s, the typed error, or a caught panic — until
//! `wait`/[`Session::wait_many`] (or a `try_*` twin) takes it. The output
//! buffers hold their results as soon as `submit` returns, and nothing is
//! ever in flight, so every inspector ([`Session::download`],
//! [`Session::device`], [`Session::pool_stats`]) is safe at any time.
//!
//! No work runs beside the caller: the simulator's block executor and the
//! host `pointwise` each already fan out to every core, so a second
//! thread would have nothing to overlap.
//!
//! ## Failure semantics
//!
//! Every entry point has a typed twin — [`Session::try_run`],
//! [`Session::try_run_many`], [`Session::try_submit`],
//! [`Session::try_submit_many`], [`Session::try_wait`] /
//! [`Session::try_wait_many`] — returning `Result<_, `[`TfnoError`]`>`.
//! Each panicking entry point *is* its twin plus `panic!("{e}")`, so the
//! success path is the same code and the panic message is the
//! [`TfnoError`] text. Validation is typed at its source
//! ([`SpectralShape::try_validate`]); nothing on a validation path
//! catches a panic. A `try_submit` only validates: an engine error is
//! kept in the handle and surfaces at the `try_wait`.
//!
//! Transient device faults (see [`FaultPlan`]) are retried
//! under the session's [`RetryPolicy`]; a fused variant that keeps
//! faulting is re-planned onto the unfused `FftOpt` pipeline (the
//! *degradation ladder*) before the error surfaces. Failed launches write
//! nothing, so every retry — and the final success — is bitwise-identical
//! to a fault-free run of the same variant.
//!
//! A panic in the engine is a bug, not a [`TfnoError`], but it does not
//! wedge the session: the submit catches it, releases the scratch leases
//! the unwind leaked, and keeps the payload in the handle. The payload
//! re-raises at that handle's wait ([`Session::wait`] and
//! [`Session::try_wait`] alike) or, for a handle dropped without a wait,
//! from the handle's drop, so a panic never vanishes. Later calls proceed
//! unaffected, and [`Session::recovery_stats`] counts all of it.

use crate::error::{RecoveryStats, RetryPolicy, TfnoError};
use crate::pipeline::{unfit_reason, ExecCtx, LayerBufs, TurboOptions, Variant};
use crate::planner::{hash_device_config, Planner, PlannerStats};
use crate::pool::{BufferPool, PoolStats};
use crate::verify::{check_queue_aliasing, verifier_enabled, PlanHazard, PlanVerifier, QueueAccess};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use tfno_cgemm::WeightStacking;
use tfno_culib::{CopySegment, PipelineRun, SegmentedCopyKernel, SpectralShape, MAX_RANK};
use crate::backend::{
    seq_insert, seq_lookup, AnyBackend, Backend, BufferId, DeviceConfig, ExecMode, FaultPlan,
    FaultStats, LaunchError, SimBackend,
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

/// The outcome of work issued with [`Session::submit`] or
/// [`Session::submit_many`]. The work has already run; the handle holds
/// its [`PipelineRun`]s, its typed error or its caught panic until
/// [`Session::wait`] / [`Session::wait_many`] (or a `try_*` twin) on the
/// issuing session takes them. Handles are session-bound and single-use
/// (consumed by the wait).
///
/// Dropping a handle without a wait discards its runs or its error (the
/// outputs stay written). A caught panic re-raises from the drop instead,
/// unless the thread is already unwinding, so it never vanishes.
#[derive(Debug)]
#[must_use = "the work already ran, but its PipelineRun is lost unless the handle is waited on"]
pub struct LaunchHandle {
    session: u64,
    /// `None` once a wait has taken it.
    outcome: Option<Outcome>,
}

impl Drop for LaunchHandle {
    fn drop(&mut self) {
        if let Some(Outcome::Panicked(payload)) = self.outcome.take() {
            if !std::thread::panicking() {
                resume_unwind(payload);
            }
        }
    }
}

/// What one submit produced, held by its handle.
#[derive(Debug)]
enum Outcome {
    Done(Vec<PipelineRun>),
    /// The resilient engine exhausted retries/degradation, or the plan
    /// verifier rejected a launch.
    Failed(TfnoError),
    /// The work panicked; the submit released the leases it leaked.
    Panicked(Box<dyn std::any::Any + Send>),
}

/// Always zero: submits run on the caller's thread, so nothing is
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

static SESSION_IDS: AtomicU64 = AtomicU64::new(1);

/// An owning execution handle: simulated device + memoizing planner +
/// scratch buffer pool. The single way to execute Fourier layers (and,
/// via `tfno-model`, whole FNO forwards).
///
/// Sessions are cheap to create but meant to be long-lived: planner and
/// pool state warm up over the first request of each shape and every later
/// same-shape request skips planning and scratch allocation entirely.
///
/// Every call runs on the caller's thread: [`Session::run`] and
/// [`Session::run_many`] return their runs, while [`Session::submit`] and
/// [`Session::submit_many`] return them in a [`LaunchHandle`] (see the
/// [module docs](self)).
pub struct Session<B: Backend = SimBackend> {
    dev: B,
    pool: BufferPool,
    planner: Planner,
    /// Binds the handles this session issues to it.
    id: u64,
    /// Bounded retry budget for transient faults (see [`RetryPolicy`]).
    retry: RetryPolicy,
    recovery: RecoveryStats,
}

impl Session<AnyBackend> {
    /// A session over the paper's evaluation device, on the backend
    /// selected by the `TFNO_BACKEND` environment variable (`sim` — the
    /// default — or `native`).
    pub fn a100() -> Self {
        Session::new(AnyBackend::a100())
    }

    /// A session over an explicitly chosen backend (builder-style
    /// selection; bypasses the `TFNO_BACKEND` environment variable):
    ///
    /// ```
    /// use turbofno::{NativeBackend, Session};
    ///
    /// let sess = Session::with_backend(NativeBackend::a100());
    /// assert!(!sess.device().caps().fault_injection);
    /// ```
    pub fn with_backend(backend: impl Into<AnyBackend>) -> Self {
        Session::new(backend.into())
    }
}

impl<B: Backend> Session<B> {
    /// Wrap an existing backend (its executor/memo configuration is kept).
    pub fn new(dev: B) -> Self {
        Session {
            dev,
            pool: BufferPool::new(),
            planner: Planner::new(),
            id: SESSION_IDS.fetch_add(1, Ordering::Relaxed),
            retry: RetryPolicy::default(),
            recovery: RecoveryStats::default(),
        }
    }

    pub fn device(&self) -> &B {
        &self.dev
    }

    pub fn device_mut(&mut self) -> &mut B {
        &mut self.dev
    }

    /// The session-local `TurboBest` planner.
    pub fn planner(&self) -> &Planner {
        &self.planner
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
    /// If the backend does not advertise fault injection (see
    /// [`BackendCaps::fault_injection`](crate::backend::BackendCaps)) —
    /// use [`Session::try_set_fault_plan`] for the typed twin. Clearing
    /// with `None` succeeds on every backend.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.try_set_fault_plan(plan)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Typed twin of [`Session::set_fault_plan`]: a backend that does not
    /// advertise fault injection reports [`TfnoError::Validation`]
    /// instead of panicking (asking for an unadvertised capability is a
    /// request error — check [`Backend::caps`] first).
    pub fn try_set_fault_plan(&mut self, plan: Option<FaultPlan>) -> Result<(), TfnoError> {
        self.dev.try_set_fault_plan(plan).map_err(TfnoError::from)
    }

    /// Fault-injection counters of the session's device (all zero when no
    /// plan is installed).
    pub fn fault_stats(&self) -> FaultStats {
        self.dev.fault_stats()
    }

    /// Bounded retry budget applied by every executing entry point
    /// (`try_run`, `try_submit`, their queue forms and panicking wrappers)
    /// to transient device faults.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    /// Counters of the recovery machinery: transient retries, degradations
    /// to the unfused pipeline, exhausted operations, healed panics and
    /// the leases they leaked.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery
    }

    /// Always zero. Kept only because the repo benchmark's counter
    /// adapter (`fnobench/src/counters.rs`) reads `hits` and `misses`; it
    /// goes together with that benchmark's `session.replay_hit_ratio`
    /// metric.
    pub fn replay_stats(&self) -> ReplayStats {
        ReplayStats::default()
    }

    /// Always zero (see [`DispatchStats`]); kept for the repo benchmark's
    /// counter adapter and goes together with its dispatch metrics.
    pub fn dispatch_stats(&self) -> DispatchStats {
        DispatchStats::default()
    }

    /// A no-op: nothing is ever in flight. Kept only because the repo
    /// benchmark's counter adapter calls it; it goes together with that
    /// benchmark's dispatch metrics.
    pub fn synchronize(&mut self) {}

    /// Allocate a named long-lived buffer (weights, persistent activations).
    pub fn alloc(&mut self, name: &str, len: usize) -> BufferId {
        self.dev.alloc(name, len)
    }

    /// Lease a real buffer from the pool (return it with [`Session::release`]).
    pub fn acquire(&mut self, len: usize) -> BufferId {
        self.pool.acquire(&mut self.dev, len)
    }

    /// Lease a storage-free virtual buffer from the pool.
    pub fn acquire_virtual(&mut self, len: usize) -> BufferId {
        self.pool.acquire_virtual(&mut self.dev, len)
    }

    /// Return a leased buffer to the pool.
    pub fn release(&mut self, id: BufferId) {
        self.pool.release(&self.dev, id);
    }

    /// Donate a buffer the pool never leased (e.g. one created with
    /// [`Session::alloc`] that is no longer needed) to the free lists.
    pub fn adopt(&mut self, id: BufferId) {
        self.pool.adopt(&self.dev, id);
    }

    pub fn upload(&mut self, id: BufferId, data: &[C32]) {
        self.dev.upload(id, data);
    }

    pub fn download(&self, id: BufferId) -> Vec<C32> {
        self.dev.download(id)
    }

    /// The one admission check, run by every entry point before anything
    /// launches, so a bad request fails at its call site: operand lengths,
    /// shape and fusability for every request, plus — for a
    /// `run_many`/`submit_many` queue (`parallel`) — the aliasing rules.
    /// A single `run`/`submit` is never reordered against other work, so
    /// it may update in place (`y == x`).
    fn try_admit(&self, reqs: &[Request], parallel: bool) -> Result<(), TfnoError> {
        let len = |id: BufferId| self.dev.memory().len(id);
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
            r.spec.check_shape(self.dev.config())?;
        }
        if !parallel {
            return Ok(());
        }
        // The aliasing rules are one `PlanVerifier` code path; only the
        // message text — pinned by the API tests — is rendered here.
        let access: Vec<QueueAccess> = reqs
            .iter()
            .map(|r| QueueAccess {
                reads: vec![("x", r.x), ("w", r.w)],
                writes: vec![r.y],
            })
            .collect();
        match check_queue_aliasing(&access) {
            Ok(()) => Ok(()),
            Err(PlanHazard::SelfAlias { index, operand }) => Err(TfnoError::Validation(format!(
                "run_many request {index} is self-aliased (y == {operand}): group-reordered \
                 execution would run it in-place; use a distinct output buffer or a \
                 sequential `run` call"
            ))),
            Err(PlanHazard::CrossAlias { writer, reader }) => Err(TfnoError::Validation(format!(
                "run_many requests must not alias outputs: request {writer}'s y is an \
                 operand of request {reader}; chain dependent layers through \
                 sequential `run` calls instead"
            ))),
            Err(other) => Err(other.into()),
        }
    }

    /// The one request path: admit, then run the resilient engine through
    /// [`Session::submit_work`].
    fn try_submit_requests(
        &mut self,
        reqs: &[Request],
        parallel: bool,
    ) -> Result<LaunchHandle, TfnoError> {
        self.try_admit(reqs, parallel)?;
        let (policy, reqs) = (self.retry, reqs.to_vec());
        Ok(self.submit_work(move |ctx, recovery| run_queue_resilient(ctx, recovery, policy, reqs)))
    }

    /// Run `work` against the session state and hand back its outcome.
    ///
    /// Self-healing: a snapshot of the pool's lease ledger is taken first,
    /// so when `work` unwinds, every lease it acquired and leaked
    /// (pipeline scratch, staging buffers) is released here and the payload
    /// is kept in the handle instead of unwinding through the caller.
    fn submit_work(
        &mut self,
        work: impl FnOnce(&mut ExecCtx<'_>, &mut RecoveryStats) -> Result<Vec<PipelineRun>, TfnoError>,
    ) -> LaunchHandle {
        let before = self.pool.leased_snapshot();
        let mut ctx = ExecCtx {
            dev: &mut self.dev,
            pool: &mut self.pool,
            planner: &self.planner,
            verify: verifier_enabled().then(PlanVerifier::new),
        };
        let recovery = &mut self.recovery;
        let outcome = match catch_unwind(AssertUnwindSafe(|| work(&mut ctx, recovery))) {
            Ok(Ok(runs)) => Outcome::Done(runs),
            Ok(Err(e)) => Outcome::Failed(e),
            Err(payload) => {
                let leaked: Vec<BufferId> = self
                    .pool
                    .leased_snapshot()
                    .difference(&before)
                    .copied()
                    .collect();
                self.recovery.jobs_healed += 1;
                self.recovery.leases_recovered += leaked.len() as u64;
                for id in leaked {
                    self.pool.release(&self.dev, id);
                }
                Outcome::Panicked(payload)
            }
        };
        LaunchHandle {
            session: self.id,
            outcome: Some(outcome),
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
        let handle = self.try_submit(spec, x, w, y)?;
        self.try_wait(handle)
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
        let handle = self.try_submit_many(reqs)?;
        self.try_wait_many(handle)
    }

    /// [`Session::run`], with the [`PipelineRun`] handed over later by
    /// [`Session::wait`]: the launch sequence has run, and the output
    /// buffer holds its result, when this returns.
    ///
    /// # Panics
    /// With the [`TfnoError`] text wherever [`Session::try_submit`]
    /// returns `Err`.
    pub fn submit(&mut self, spec: &LayerSpec, x: BufferId, w: BufferId, y: BufferId) -> LaunchHandle {
        self.try_submit(spec, x, w, y)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Typed twin of [`Session::submit`]: validation failures come back as
    /// [`TfnoError::Validation`] instead of panics. An engine failure is
    /// not an error here: it is kept in the handle and surfaces at
    /// [`Session::try_wait`].
    pub fn try_submit(
        &mut self,
        spec: &LayerSpec,
        x: BufferId,
        w: BufferId,
        y: BufferId,
    ) -> Result<LaunchHandle, TfnoError> {
        self.try_submit_requests(&[Request { spec: *spec, x, w, y }], false)
    }

    /// [`Session::run_many`] with its runs handed over later by
    /// [`Session::wait_many`] (same coalescing, same aliasing contract).
    ///
    /// # Panics
    /// With the [`TfnoError`] text wherever [`Session::try_submit_many`]
    /// returns `Err`.
    pub fn submit_many(&mut self, reqs: &[Request]) -> LaunchHandle {
        self.try_submit_many(reqs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Typed twin of [`Session::submit_many`].
    pub fn try_submit_many(&mut self, reqs: &[Request]) -> Result<LaunchHandle, TfnoError> {
        self.try_submit_requests(reqs, true)
    }

    /// Take a [`Session::submit`] handle's [`PipelineRun`].
    ///
    /// # Panics
    /// With the [`TfnoError`] text wherever [`Session::try_wait`] returns
    /// `Err`; a panic from the submitted work re-raises here. Also panics
    /// if the handle came from another session or from a multi-request
    /// [`Session::submit_many`] (use [`Session::wait_many`]).
    pub fn wait(&mut self, handle: LaunchHandle) -> PipelineRun {
        self.try_wait(handle).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Take a [`Session::submit_many`] handle's runs: one [`PipelineRun`]
    /// per submitted request, in order, exactly as [`Session::run_many`]
    /// would have returned them.
    ///
    /// # Panics
    /// With the [`TfnoError`] text wherever [`Session::try_wait_many`]
    /// returns `Err`; a panic from the submitted work re-raises here.
    pub fn wait_many(&mut self, handle: LaunchHandle) -> Vec<PipelineRun> {
        self.try_wait_many(handle).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Typed twin of [`Session::wait`].
    pub fn try_wait(&mut self, handle: LaunchHandle) -> Result<PipelineRun, TfnoError> {
        let mut runs = self.try_wait_many(handle)?;
        assert_eq!(
            runs.len(),
            1,
            "wait() on a multi-request submit_many handle; use wait_many()"
        );
        // INVARIANT: the assert above just proved runs.len() == 1.
        Ok(runs.pop().expect("one run"))
    }

    /// Typed twin of [`Session::wait_many`]: work that exhausted the
    /// retry/degradation ladder reports its [`TfnoError`] here instead of
    /// panicking; work that *panicked* still re-raises its payload (a
    /// panic is a bug, not a recoverable condition).
    pub fn try_wait_many(&mut self, mut handle: LaunchHandle) -> Result<Vec<PipelineRun>, TfnoError> {
        assert_eq!(
            handle.session, self.id,
            "LaunchHandle was issued by a different Session"
        );
        // INVARIANT: only a wait takes the outcome, and it consumes the handle.
        match handle.outcome.take().expect("an unredeemed handle holds its outcome") {
            Outcome::Done(runs) => Ok(runs),
            Outcome::Failed(e) => Err(e),
            Outcome::Panicked(payload) => resume_unwind(payload),
        }
    }

    /// Model one spec analytically on pooled virtual buffers (no values
    /// move; addresses and event counts only). The spec's `exec` mode is
    /// ignored — measurement is always [`ExecMode::Analytical`].
    ///
    /// # Panics
    /// With the [`TfnoError::Validation`] text when the spec fails the
    /// shape half of admission — an invalid shape, or a variant whose
    /// kernels cannot be built for it on this device.
    pub fn measure(&mut self, spec: &LayerSpec) -> PipelineRun {
        if let Err(e) = spec.check_shape(self.dev.config()) {
            panic!("{e}");
        }
        ExecCtx {
            dev: &mut self.dev,
            pool: &mut self.pool,
            planner: &self.planner,
            verify: verifier_enabled().then(PlanVerifier::new),
        }
        .measure_spec(spec)
    }
}

/// Hash the spec fields that shape a launch sequence: geometry, variant,
/// the options that steer kernel assembly, and the functional/analytical
/// split (the `measure` sequence memo's key).
fn hash_spec(spec: &LayerSpec, h: &mut DefaultHasher) {
    let s = &spec.shape;
    (s.rank as u8).hash(h);
    [s.batch, s.k_in, s.k_out].hash(h);
    s.dims.hash(h);
    s.modes.hash(h);
    spec.variant.hash(h);
    spec.opts.forward_layout.hash(h);
    spec.opts.epilogue_swizzle.hash(h);
    spec.opts.fft_l1_hit.to_bits().hash(h);
    (spec.exec == ExecMode::Analytical).hash(h);
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

    /// Resolve `TurboBest` to a concrete variant (one planner consult; a
    /// cache hit for every shape the session has planned before).
    fn resolve(&self, spec: &LayerSpec) -> Variant {
        if spec.variant != Variant::TurboBest {
            return spec.variant;
        }
        self.planner.plan_shape(self.dev.config(), &spec.shape, &spec.opts)
    }

    /// The body of every request entry point (queue already admitted).
    ///
    /// A coalesced group reports its launches on the group's first
    /// request; the other members report empty runs (their outputs are
    /// still written).
    pub(crate) fn try_run_queue(&mut self, reqs: &[Request]) -> Result<Vec<PipelineRun>, LaunchError> {
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
            let concrete = self.resolve(&reqs[i].spec);

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
            && !self.dev.memory().is_virtual(r.x)
            && !self.dev.memory().is_virtual(r.y)
            && !self.dev.memory().is_virtual(r.w)
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

        let sx = self.try_stage(spec.input_len(), leases)?;
        let sy = self.try_stage(spec.output_len(), leases)?;

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
            let sw = self.try_stage(stack.len() * w_len, leases)?;
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

    /// The [`Session::measure`] body: analytical run on pooled virtual
    /// operands.
    ///
    /// Warm measurements are answered from the process-wide sequence memo
    /// ([`seq_lookup`](crate::backend::seq_lookup)) without issuing a
    /// single launch: the key covers device config, spec geometry, variant
    /// and options — never buffer identities or worker configuration,
    /// since analytical records are independent of both.
    /// [`Backend::analytical_memo`] opts a backend out.
    pub(crate) fn measure_spec(&mut self, spec: &LayerSpec) -> PipelineRun {
        let spec = spec.exec(ExecMode::Analytical);
        let key = {
            let mut h = DefaultHasher::new();
            0xF2u8.hash(&mut h);
            hash_device_config(self.dev.config(), &mut h);
            hash_spec(&spec, &mut h);
            h.finish()
        };
        if self.dev.analytical_memo() {
            if let Some(launches) = seq_lookup(key) {
                return PipelineRun { launches };
            }
        }
        let x = self.pool.acquire_virtual(self.dev, spec.input_len());
        let w = self.pool.acquire_virtual(self.dev, spec.weight_len());
        let y = self.pool.acquire_virtual(self.dev, spec.output_len());
        // INVARIANT: analytical launches on virtual buffers are exempt
        // from fault injection (a contract every backend upholds), so
        // this cannot fail even with a FaultPlan installed.
        let run = self
            .try_run_spec(&spec, spec.variant, LayerBufs::shared(x, w, y))
            .expect("analytical launches are never faulted");
        self.pool.release(self.dev, x);
        self.pool.release(self.dev, w);
        self.pool.release(self.dev, y);
        if self.dev.analytical_memo() {
            seq_insert(key, run.launches.clone());
        }
        run
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
    recovery: &mut RecoveryStats,
    policy: RetryPolicy,
    mut reqs: Vec<Request>,
) -> Result<Vec<PipelineRun>, TfnoError> {
    let mut total_attempts = 0u32;
    loop {
        let mut last: Option<TfnoError> = None;
        for attempt in 1..=policy.attempts() {
            let out = ctx.try_run_queue(&reqs).map_err(TfnoError::from);
            total_attempts += 1;
            match out {
                Ok(runs) => {
                    // Lease balance is part of the proof: a sequence that
                    // finished with outstanding verifier leases mis-declared
                    // its scratch traffic.
                    ctx.verify_finish()?;
                    return Ok(runs);
                }
                Err(e) if e.is_transient() => {
                    if attempt < policy.attempts() {
                        recovery.transient_retries += 1;
                        if policy.backoff > Duration::ZERO {
                            std::thread::sleep(policy.backoff);
                        }
                    }
                    last = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        // FftOpt is unfused, so the rung can only be taken once.
        let mut degraded = false;
        for r in &mut reqs {
            if ctx.resolve(&r.spec).is_fused() {
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

    #[test]
    fn measure_is_analytical_and_memoizes_the_sequence() {
        let mut sess = Session::new(SimBackend::a100());
        let spec = LayerSpec::d1(2, 8, 8, 128).modes(32).variant(Variant::FftOpt);
        let a = sess.measure(&spec);
        assert_eq!(a.kernel_count(), 3);
        assert!(a.total_us() > 0.0);
        let launched_cold = sess.device().launches().len();
        let b = sess.measure(&spec);
        assert_eq!(a.total_stats(), b.total_stats());
        assert_eq!(
            sess.device().launches().len(),
            launched_cold,
            "a warm measure is answered from the sequence memo, zero launches"
        );
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

    #[test]
    fn submit_wait_is_bitwise_equal_to_run() {
        let mut sync = Session::new(SimBackend::a100());
        let (spec, x, w, y) = spec_with_operands(&mut sync);
        let run_sync = sync.run(&spec, x, w, y);
        let want = sync.download(y);

        let mut agsync = Session::new(SimBackend::a100());
        let (spec2, x2, w2, y2) = spec_with_operands(&mut agsync);
        let handle = agsync.submit(&spec2, x2, w2, y2);
        let run_async = agsync.wait(handle);
        assert_eq!(agsync.download(y2), want);
        assert_eq!(run_async.kernel_count(), run_sync.kernel_count());
        assert_eq!(run_async.total_stats(), run_sync.total_stats());
    }

    #[test]
    #[should_panic(expected = "different Session")]
    fn foreign_handles_are_rejected() {
        let mut a = Session::new(SimBackend::a100());
        let (spec, x, w, y) = spec_with_operands(&mut a);
        let handle = a.submit(&spec, x, w, y);
        let mut b = Session::new(SimBackend::a100());
        let _ = b.wait(handle);
    }

    /// Shape panics surface at the submit, exactly like the run path —
    /// not at the wait.
    #[test]
    #[should_panic(expected = "mode count out of range")]
    fn submit_validates_shapes_synchronously() {
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
        let _ = sess.submit(&spec, x, w, y);
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
        sess.set_retry_policy(RetryPolicy {
            max_attempts: 2,
            backoff: Duration::ZERO,
        });
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

    #[test]
    fn job_panic_heals_leases_and_only_fails_its_handle() {
        let mut sess = Session::new(SimBackend::a100());
        let (spec, x, w, y) = spec_with_operands(&mut sess);
        // Work that leaks a lease and panics (only constructible from
        // inside the crate — the public surface never panics mid-lease
        // without the lease hygiene the pipelines provide).
        let bad = sess.submit_work(|ctx, _| {
            let _leak = ctx
                .pool
                .try_acquire(ctx.dev, 64)
                .expect("unfaulted acquire");
            panic!("chaos: job panic")
        });
        // The submit healed: the leaked lease is back before any wait.
        assert_eq!(sess.pool_stats().leased, 0);
        let good = sess.submit(&spec, x, w, y);

        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = sess.try_wait(bad);
        }));
        assert!(err.is_err(), "the panicked job re-raises at its wait");

        // The later submit is unaffected.
        let run = sess.wait(good);
        assert!(run.kernel_count() > 0);
        let stats = sess.recovery_stats();
        assert_eq!(stats.jobs_healed, 1);
        assert_eq!(stats.leases_recovered, 1);
        assert_eq!(sess.pool_stats().leased, 0);
        sess.run(&spec, x, w, y); // still serviceable
    }

    /// A handle dropped without a wait leaves no lease behind, and its
    /// output was written at the submit.
    #[test]
    fn abandoned_handle_leaves_no_lease_and_a_written_output() {
        let mut sess = Session::new(SimBackend::a100());
        let (spec, x, w, y) = spec_with_operands(&mut sess);
        drop(sess.submit(&spec, x, w, y));
        assert_eq!(sess.pool_stats().leased, 0);
        let mut reference = Session::new(SimBackend::a100());
        let (spec2, x2, w2, y2) = spec_with_operands(&mut reference);
        reference.run(&spec2, x2, w2, y2);
        assert_eq!(sess.download(y), reference.download(y2));
        sess.run(&spec, x, w, y); // still serviceable
    }

    /// A panicked handle dropped without a wait re-raises from its drop
    /// instead of disappearing.
    #[test]
    #[should_panic(expected = "chaos: abandoned panic")]
    fn abandoned_panicked_handle_reraises_on_drop() {
        let mut sess = Session::new(SimBackend::a100());
        let handle = sess.submit_work(|_, _| panic!("chaos: abandoned panic"));
        drop(handle);
    }

    #[test]
    fn typed_submit_waits_report_dispatch_failures() {
        let mut sess = Session::new(SimBackend::a100());
        let (spec, x, w, y) = spec_with_operands(&mut sess);
        sess.set_retry_policy(RetryPolicy::none());
        sess.set_fault_plan(Some(FaultPlan::seeded(23).transient(1.0)));
        let handle = sess.try_submit(&spec, x, w, y).expect("admission is clean");
        let err = sess.try_wait(handle).unwrap_err();
        assert!(err.is_transient(), "submitted fault surfaces typed at the wait: {err}");
        // Session heals: lift the plan, run clean.
        sess.set_fault_plan(None);
        sess.run(&spec, x, w, y);
        assert_eq!(sess.pool_stats().leased, 0);
    }
}
