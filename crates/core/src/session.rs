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
//! ## Async layer dispatch
//!
//! [`Session::submit`]/[`Session::submit_many`] are the asynchronous halves
//! of `run`/`run_many`: they enqueue the same launch sequence on the
//! session's *dispatch thread* — one long-lived thread, created at the
//! first submit and reused for every later one — and return a
//! [`LaunchHandle`] immediately, so the host can do unrelated work — an
//! FNO layer's pointwise bypass, the next batch's staging — while the
//! simulated device executes. Up to [`Session::pipeline_depth`] submits
//! ride the in-order queue concurrently; past that, `submit` waits for the
//! oldest job before enqueueing (backpressure, never reordering).
//! [`Session::wait`] (or [`Session::wait_many`]) synchronizes and returns
//! the same [`PipelineRun`]s the synchronous call would have; outputs are
//! bitwise-identical because the dispatched work *is* the synchronous code
//! path, merely running on another thread.
//!
//! While dispatched work is in flight the device and pool live on the
//! dispatch thread: any `&mut Session` method except `submit`/`submit_many`
//! first synchronizes (so `submit` → `run` is legal and simply
//! serializes), while `&self` inspection methods ([`Session::download`],
//! [`Session::device`], [`Session::pool_stats`]) panic rather than observe
//! half-complete state (their `try_*` twins return
//! [`TfnoError::InFlight`] instead). Submits themselves are admitted against a
//! shadow length ledger so a deep pipeline never drains just to check
//! shapes. Buffers leased before a `submit` stay leased until after the
//! `wait` — the lease ledger travels with the pool, so in-flight layers
//! keep their operands pinned.
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
//! catches a panic.
//!
//! Transient device faults (see [`FaultPlan`]) are retried
//! under the session's [`RetryPolicy`]; a fused variant that keeps
//! faulting is re-planned onto the unfused `FftOpt` pipeline (the
//! *degradation ladder*) before the error surfaces. Failed launches write
//! nothing, so every retry — and the final success — is bitwise-identical
//! to a fault-free run of the same variant.
//!
//! The dispatch thread *self-heals*: a dispatched job that panics is
//! caught there, scratch leases the unwind leaked are released, and only
//! that job's handle reports the failure — the payload parks per-handle
//! and re-raises at that handle's wait ([`Session::wait`] and
//! [`Session::try_wait`] alike: a panic is a bug, not a recoverable
//! error), and later submits proceed unaffected. A handle
//! dropped without `wait` is *abandoned*: its work still completes, its
//! result is discarded at the next synchronizing call (a parked panic is
//! re-raised there). [`Session::recovery_stats`] counts all of it.

use crate::error::{RecoveryStats, RetryPolicy, TfnoError};
use crate::pipeline::{ExecCtx, LayerBufs, TurboOptions, Variant};
use crate::planner::{hash_device_config, Planner, PlannerStats};
use crate::pool::{BufferPool, PoolStats};
use crate::verify::{check_queue_aliasing, verifier_enabled, PlanHazard, PlanVerifier, QueueAccess};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};
use tfno_cgemm::WeightStacking;
use tfno_culib::{
    CopySegment, FnoProblem1d, FnoProblem2d, PipelineRun, SegmentedCopyKernel, SpectralShape,
    MAX_RANK,
};
use crate::backend::{
    lock_unpoisoned, seq_insert, seq_lookup, AnyBackend, Backend, BufferId, DeferredWindow,
    ExecMode, FaultPlan, FaultStats, LaunchError, LaunchRecord, PendingLaunch, SimBackend,
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

    /// Spec matching an existing 1D problem descriptor.
    pub fn from_problem_1d(p: &FnoProblem1d) -> Self {
        LayerSpec::d1(p.batch, p.k_in, p.k_out, p.n).modes(p.nf)
    }

    /// Spec matching an existing 2D problem descriptor.
    pub fn from_problem_2d(p: &FnoProblem2d) -> Self {
        LayerSpec::d2(p.batch, p.k_in, p.k_out, p.nx, p.ny).modes_xy(p.nfx, p.nfy)
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

    /// The 1D problem descriptor, if this spec is rank 1.
    pub fn problem_1d(&self) -> Option<FnoProblem1d> {
        self.shape.to_problem_1d()
    }

    /// The 2D problem descriptor, if this spec is rank 2.
    pub fn problem_2d(&self) -> Option<FnoProblem2d> {
        self.shape.to_problem_2d()
    }

    /// The buffer-free half of admission: an executable shape (power-of-two
    /// lengths, mode bounds) and, for an explicitly fused variant, one the
    /// fused kernels can be built for (`TurboBest` never picks one it
    /// cannot build).
    fn check_shape(&self) -> Result<(), TfnoError> {
        self.shape.try_validate().map_err(TfnoError::Validation)?;
        if !self.variant.is_fused() || crate::fused::fused_supported(&self.shape) {
            return Ok(());
        }
        Err(TfnoError::Validation(format!(
            "{:?} needs the innermost retained modes ({}) to be a multiple of {}; \
             use FftOpt or TurboBest for this shape",
            self.variant,
            self.shape.modes[self.shape.rank - 1],
            crate::fused::FUSED_MODES_MULTIPLE
        )))
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

/// Ticket for work dispatched with [`Session::submit`] or
/// [`Session::submit_many`]. Redeem it with [`Session::wait`] /
/// [`Session::wait_many`] (or their `try_*` twins) on the session that
/// issued it — handles are session-bound and single-use (consumed by the
/// wait).
///
/// Dropping a handle without waiting does not cancel the work, but it no
/// longer strands its result either: the drop registers the handle as
/// *abandoned*, and the session's next synchronizing call discards the
/// parked result (re-raising its panic payload, if the work panicked) and
/// counts it in [`RecoveryStats::abandoned_handles`].
#[derive(Debug)]
#[must_use = "dispatched work completes, but its PipelineRun is lost unless the handle is waited on"]
pub struct LaunchHandle {
    session: u64,
    seq: u64,
    /// Shared abandoned-handle registry of the issuing session; disarmed
    /// (`None`) when a wait redeems the handle.
    abandoned: Option<Arc<Mutex<Vec<u64>>>>,
}

impl LaunchHandle {
    /// Redeem on the issuing session with a deadline — sugar for
    /// [`Session::wait_timeout`].
    pub fn wait_timeout<B: Backend>(
        self,
        sess: &mut Session<B>,
        timeout: Duration,
    ) -> Result<Vec<PipelineRun>, (Option<LaunchHandle>, TfnoError)> {
        sess.wait_timeout(self, timeout)
    }
}

impl Drop for LaunchHandle {
    fn drop(&mut self) {
        if let Some(reg) = self.abandoned.take() {
            lock_unpoisoned(&reg).push(self.seq);
        }
    }
}

/// A dispatched pipeline body: runs against the thread-resident state and
/// yields one `PipelineRun` per request, or the typed error the resilient
/// engine could not recover from.
type DispatchWork =
    Box<dyn FnOnce(&mut ExecCtx<'_>) -> Result<Vec<PipelineRun>, TfnoError> + Send>;

/// Parked terminal state of one dispatched job, held until its handle is
/// redeemed (or the handle is abandoned and a synchronize discards it).
enum Outcome {
    Done(Vec<PipelineRun>),
    /// The resilient engine exhausted retries/degradation, or the plan
    /// verifier rejected a launch; only this job's handle reports it.
    Failed(TfnoError),
    /// The work panicked; the dispatch thread healed (leaked leases
    /// released) and the payload waits here for the handle's wait.
    Panicked(Box<dyn std::any::Any + Send>),
}

/// Work items for the session's long-lived dispatch thread.
enum Job<B: Backend> {
    /// Move the device and pool onto the dispatch thread (boxed so the
    /// queue slot stays small).
    Install(Box<(B, BufferPool)>),
    /// Execute one dispatched pipeline; the result travels back over the
    /// in-order results channel tagged with `seq`.
    Work { seq: u64, work: DispatchWork },
    /// Hand the device and pool back to the session (synchronize).
    Return,
}

/// The session's persistent dispatch thread: created at the first
/// `submit`, reused for every later one, joined on drop. Holds the device
/// and pool between `Install` and `Return` so a deep pipeline of submits
/// pays zero thread spawns and zero state hand-offs per job.
/// What a dispatched job reports back: its sequence number plus either
/// the job's typed result or its panic payload (`std::thread::Result`
/// captures the unwind).
type JobOutcome = (u64, std::thread::Result<Result<Vec<PipelineRun>, TfnoError>>);

struct Dispatcher<B: Backend> {
    jobs: mpsc::Sender<Job<B>>,
    results: mpsc::Receiver<JobOutcome>,
    state_back: mpsc::Receiver<Box<(B, BufferPool)>>,
    join: std::thread::JoinHandle<()>,
}

/// Body of the dispatch thread: drain jobs in order until the session
/// drops its sender. The device and pool live in `state` and are only
/// *borrowed* per job, so a panicking pipeline can never lose them — the
/// panic payload rides the results channel and the thread keeps serving.
///
/// Self-healing: a snapshot of the pool's lease ledger is taken before
/// each job, so when the job unwinds, every lease it acquired and leaked
/// (pipeline scratch, staging buffers) is released here before the next
/// job runs. Only the panicked job's handle observes the failure.
fn dispatch_loop<B: Backend>(
    jobs: mpsc::Receiver<Job<B>>,
    results: mpsc::Sender<JobOutcome>,
    state_back: mpsc::Sender<Box<(B, BufferPool)>>,
    planner: Arc<Planner>,
    recovery: Arc<Mutex<RecoveryStats>>,
) {
    let mut state: Option<Box<(B, BufferPool)>> = None;
    while let Ok(job) = jobs.recv() {
        match job {
            Job::Install(s) => state = Some(s),
            Job::Work { seq, work } => {
                let s = state.as_mut().expect("Work job follows an Install");
                let (dev, pool) = &mut **s;
                let before = pool.leased_snapshot();
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let mut ctx = ExecCtx {
                        dev: &mut *dev,
                        pool: &mut *pool,
                        planner: &planner,
                        verify: verifier_enabled().then(PlanVerifier::new),
                    };
                    work(&mut ctx)
                }));
                if result.is_err() {
                    let leaked: Vec<BufferId> = pool
                        .leased_snapshot()
                        .difference(&before)
                        .copied()
                        .collect();
                    let mut r = lock_unpoisoned(&recovery);
                    r.jobs_healed += 1;
                    r.leases_recovered += leaked.len() as u64;
                    drop(r);
                    for id in leaked {
                        pool.release(&*dev, id);
                    }
                }
                if results.send((seq, result)).is_err() {
                    return; // session gone; nothing left to serve
                }
            }
            Job::Return => {
                let s = state.take().expect("Return job follows an Install");
                if state_back.send(s).is_err() {
                    return;
                }
            }
        }
    }
}

/// Counters for the persistent dispatch thread (see
/// [`Session::dispatch_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DispatchStats {
    /// Dispatch threads created over the session's lifetime. Stays at 1 no
    /// matter how many submits ran (the thread is reused, not respawned).
    pub threads_spawned: u64,
    /// Jobs enqueued on the dispatch thread.
    pub jobs_dispatched: u64,
    /// High-water mark of concurrently in-flight jobs (bounded by
    /// [`Session::pipeline_depth`]).
    pub max_in_flight: u64,
}

/// Counters [`Session::replay_stats`] reports: always zero, since no
/// call records or replays a launch sequence.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayStats {
    pub hits: u64,
    pub misses: u64,
}

/// Default in-flight depth of the dispatch pipeline: double-buffered — the
/// host stages submit N+1 while the device runs submit N.
const DEFAULT_PIPELINE_DEPTH: usize = 2;

static SESSION_IDS: AtomicU64 = AtomicU64::new(1);

const IN_FLIGHT: &str = "session has in-flight submitted work; wait on its LaunchHandle \
                         (any `&mut Session` method also synchronizes) before reading \
                         session state, or use the typed try_download/try_device/\
                         try_pool_stats inspectors for a recoverable InFlight error";

/// An owning execution handle: simulated device + memoizing planner +
/// scratch buffer pool. The single way to execute Fourier layers (and,
/// via `tfno-model`, whole FNO forwards).
///
/// Sessions are cheap to create but meant to be long-lived: planner and
/// pool state warm up over the first request of each shape and every later
/// same-shape request skips planning and scratch allocation entirely.
///
/// Execution is synchronous ([`Session::run`], [`Session::run_many`]) or
/// asynchronous ([`Session::submit`], [`Session::submit_many`] — see the
/// [module docs](self) for the dispatch model); both produce bitwise-equal
/// results.
pub struct Session<B: Backend = SimBackend> {
    /// `None` exactly while dispatched work is in flight (the device lives
    /// on the dispatch thread between `Install` and `Return`).
    dev: Option<B>,
    /// Travels with the device so in-flight pipelines lease scratch and
    /// leases pinned by the host stay tracked.
    pool: Option<BufferPool>,
    /// Shared with the dispatch thread; all planner state is interior-mutex.
    planner: Arc<Planner>,
    id: u64,
    next_seq: u64,
    /// Max jobs in flight before `submit` applies backpressure.
    depth: usize,
    dispatcher: Option<Dispatcher<B>>,
    /// Sequence numbers of jobs on the dispatch thread, oldest first.
    inflight: VecDeque<u64>,
    /// Terminal states of finished dispatches not yet redeemed by a `wait`.
    completed: HashMap<u64, Outcome>,
    /// Seqs of handles dropped without a wait; shared with every issued
    /// [`LaunchHandle`], drained (results discarded) at synchronize.
    abandoned: Arc<Mutex<Vec<u64>>>,
    /// Bounded retry budget for transient faults (see [`RetryPolicy`]).
    retry: RetryPolicy,
    /// Counters of the recovery machinery, shared with dispatched bodies
    /// and the dispatch loop's healing path.
    recovery: Arc<Mutex<RecoveryStats>>,
    stats: DispatchStats,
    /// Shadow operand-length ledger: lets `submit` check operand lengths while
    /// the authoritative memory ledger is away on the dispatch thread.
    buf_meta: HashMap<BufferId, usize>,
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
            dev: Some(dev),
            pool: Some(BufferPool::new()),
            planner: Arc::new(Planner::new()),
            id: SESSION_IDS.fetch_add(1, Ordering::Relaxed),
            next_seq: 0,
            depth: DEFAULT_PIPELINE_DEPTH,
            dispatcher: None,
            inflight: VecDeque::new(),
            completed: HashMap::new(),
            abandoned: Arc::new(Mutex::new(Vec::new())),
            retry: RetryPolicy::default(),
            recovery: Arc::new(Mutex::new(RecoveryStats::default())),
            stats: DispatchStats::default(),
            buf_meta: HashMap::new(),
        }
    }

    fn dev_ref(&self) -> &B {
        self.dev.as_ref().expect(IN_FLIGHT)
    }

    pub fn device(&self) -> &B {
        self.dev_ref()
    }

    /// Typed twin of [`Session::device`]: [`TfnoError::InFlight`] instead
    /// of a panic while submitted work holds the device.
    pub fn try_device(&self) -> Result<&B, TfnoError> {
        self.dev.as_ref().ok_or(TfnoError::InFlight)
    }

    pub fn device_mut(&mut self) -> &mut B {
        self.synchronize();
        self.dev.as_mut().expect("device resident after synchronize")
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
        self.pool.as_ref().expect(IN_FLIGHT).stats()
    }

    /// Typed twin of [`Session::pool_stats`].
    pub fn try_pool_stats(&self) -> Result<PoolStats, TfnoError> {
        self.pool
            .as_ref()
            .map(|p| p.stats())
            .ok_or(TfnoError::InFlight)
    }

    /// Install (or clear, with `None`) a deterministic fault-injection
    /// plan on the session's device. Synchronizes first so the plan's
    /// event cursors start from a quiescent state.
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
        self.device_mut()
            .try_set_fault_plan(plan)
            .map_err(TfnoError::from)
    }

    /// Fault-injection counters of the session's device (all zero when no
    /// plan is installed).
    ///
    /// # Panics
    /// While submitted work is in flight (the counters live on the
    /// device); synchronize or wait first.
    pub fn fault_stats(&self) -> FaultStats {
        self.dev_ref().fault_stats()
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
    /// to the unfused pipeline, exhausted operations, healed dispatch jobs
    /// and the leases they leaked, abandoned handles.
    pub fn recovery_stats(&self) -> RecoveryStats {
        *lock_unpoisoned(&self.recovery)
    }

    /// True while submitted work (or the session state that ran it) is
    /// still on the dispatch thread — it flips false at the next
    /// synchronizing call, not by itself.
    pub fn pending(&self) -> bool {
        self.dev.is_none()
    }

    /// Always zero. Kept only because the repo benchmark's counter
    /// adapter (`fnobench/src/counters.rs`) reads `hits` and `misses`; it
    /// goes together with that benchmark's `session.replay_hit_ratio`
    /// metric.
    pub fn replay_stats(&self) -> ReplayStats {
        ReplayStats::default()
    }

    /// Dispatch-thread counters: `threads_spawned` stays at 1 however many
    /// submits ran; `max_in_flight` shows how deep the pipeline actually got.
    pub fn dispatch_stats(&self) -> DispatchStats {
        self.stats
    }

    /// Max submitted jobs in flight before [`Session::submit`] blocks on
    /// the oldest (clamped to ≥ 1). Depth 1 is classic double-buffering's
    /// degenerate case: one job runs while the host stages the next submit.
    pub fn set_pipeline_depth(&mut self, depth: usize) {
        self.depth = depth.max(1);
    }

    /// Current in-flight depth bound (default 2).
    pub fn pipeline_depth(&self) -> usize {
        self.depth
    }

    /// Lazily create the session's one long-lived dispatch thread.
    fn ensure_dispatcher(&mut self) {
        if self.dispatcher.is_some() {
            return;
        }
        let (jobs_tx, jobs_rx) = mpsc::channel();
        let (res_tx, res_rx) = mpsc::channel();
        let (state_tx, state_rx) = mpsc::channel();
        let planner = Arc::clone(&self.planner);
        let recovery = Arc::clone(&self.recovery);
        let join = std::thread::Builder::new()
            .name("tfno-dispatch".into())
            .spawn(move || dispatch_loop(jobs_rx, res_tx, state_tx, planner, recovery))
            .expect("spawn dispatch thread");
        self.stats.threads_spawned += 1;
        self.dispatcher = Some(Dispatcher {
            jobs: jobs_tx,
            results: res_rx,
            state_back: state_rx,
            join,
        });
    }

    /// Park one received result under its seq, as a typed [`Outcome`].
    fn park(&mut self, seq: u64, result: std::thread::Result<Result<Vec<PipelineRun>, TfnoError>>) {
        let outcome = match result {
            Ok(Ok(runs)) => Outcome::Done(runs),
            Ok(Err(e)) => Outcome::Failed(e),
            Err(payload) => Outcome::Panicked(payload),
        };
        self.completed.insert(seq, outcome);
    }

    /// Receive the oldest in-flight job's result, parking it for its
    /// `wait`. Failures — typed or panic — park per-seq: only the handle
    /// that submitted the job observes them.
    fn collect_one(&mut self) {
        let Some(seq) = self.inflight.pop_front() else {
            return;
        };
        let d = self
            .dispatcher
            .as_ref()
            .expect("dispatcher alive while jobs are in flight");
        let (got, result) = d.results.recv().expect("dispatch thread alive");
        debug_assert_eq!(got, seq, "results arrive in submit order");
        self.park(got, result);
    }

    /// Drain the dispatch pipeline, restore the device and pool, and
    /// discard the parked results of abandoned handles — re-raising the
    /// first abandoned panic payload, so a dropped handle can never make a
    /// dispatched panic disappear silently. Every `&mut Session` entry
    /// point except `submit`/`submit_many` calls this first, so session
    /// state is never observed mid-dispatch.
    pub fn synchronize(&mut self) {
        while !self.inflight.is_empty() {
            self.collect_one();
        }
        if self.dev.is_none() {
            let d = self
                .dispatcher
                .as_ref()
                .expect("dispatcher holds the device while it is away");
            d.jobs.send(Job::Return).expect("dispatch thread alive");
            let state = d
                .state_back
                .recv()
                .expect("dispatch thread returns the device");
            let (dev, pool) = *state;
            self.dev = Some(dev);
            self.pool = Some(pool);
        }
        let drained: Vec<u64> = {
            let mut reg = lock_unpoisoned(&self.abandoned);
            reg.drain(..).collect()
        };
        if drained.is_empty() {
            return;
        }
        lock_unpoisoned(&self.recovery).abandoned_handles += drained.len() as u64;
        let mut first_panic = None;
        for seq in drained {
            if let Some(Outcome::Panicked(payload)) = self.completed.remove(&seq) {
                first_panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
    }

    /// Allocate a named long-lived buffer (weights, persistent activations).
    pub fn alloc(&mut self, name: &str, len: usize) -> BufferId {
        let id = self.device_mut().alloc(name, len);
        self.buf_meta.insert(id, len);
        id
    }

    /// Lease a real buffer from the pool (return it with [`Session::release`]).
    pub fn acquire(&mut self, len: usize) -> BufferId {
        self.synchronize();
        let (dev, pool) = self.resident_mut();
        let id = pool.acquire(&mut *dev, len);
        let n = dev.memory().len(id);
        self.buf_meta.insert(id, n);
        id
    }

    /// Lease a storage-free virtual buffer from the pool.
    pub fn acquire_virtual(&mut self, len: usize) -> BufferId {
        self.synchronize();
        let (dev, pool) = self.resident_mut();
        let id = pool.acquire_virtual(&mut *dev, len);
        let n = dev.memory().len(id);
        self.buf_meta.insert(id, n);
        id
    }

    /// Return a leased buffer to the pool.
    pub fn release(&mut self, id: BufferId) {
        self.synchronize();
        let (dev, pool) = self.resident_mut();
        pool.release(&*dev, id);
    }

    /// Donate a buffer the pool never leased (e.g. one created with
    /// [`Session::alloc`] that is no longer needed) to the free lists.
    pub fn adopt(&mut self, id: BufferId) {
        self.synchronize();
        let (dev, pool) = self.resident_mut();
        pool.adopt(&*dev, id);
    }

    pub fn upload(&mut self, id: BufferId, data: &[C32]) {
        self.device_mut().upload(id, data);
    }

    pub fn download(&self, id: BufferId) -> Vec<C32> {
        self.dev_ref().download(id)
    }

    /// Typed twin of [`Session::download`]: [`TfnoError::InFlight`]
    /// instead of a panic while submitted work holds the device.
    pub fn try_download(&self, id: BufferId) -> Result<Vec<C32>, TfnoError> {
        Ok(self.try_device()?.download(id))
    }

    /// Both halves of the resident state, after a `synchronize`.
    fn resident_mut(&mut self) -> (&mut B, &mut BufferPool) {
        (
            self.dev.as_mut().expect("device resident after synchronize"),
            self.pool.as_mut().expect("pool resident after synchronize"),
        )
    }

    fn ctx(&mut self) -> ExecCtx<'_> {
        ExecCtx {
            dev: self.dev.as_mut().expect("device resident after synchronize"),
            pool: self.pool.as_mut().expect("pool resident after synchronize"),
            planner: &self.planner,
            verify: verifier_enabled().then(PlanVerifier::new),
        }
    }

    /// The one admission check, run on the caller's thread by every entry
    /// point before anything launches or dispatches, so a bad request fails
    /// at its call site: operand lengths, shape and fusability for every
    /// request, plus — for a `run_many`/`submit_many` queue (`parallel`) —
    /// the aliasing rules. A single `run`/`submit` is never reordered
    /// against other work, so it may update in place (`y == x`).
    ///
    /// Lengths come from the resident memory ledger, or from the shadow
    /// ledger while the device is on the dispatch thread — so a deep
    /// pipeline of submits never drains just to check shapes. A buffer the
    /// shadow ledger has not seen (created directly via
    /// [`Session::device_mut`]) falls back to a synchronize plus the
    /// authoritative ledger.
    fn try_admit(&mut self, reqs: &[Request], parallel: bool) -> Result<(), TfnoError> {
        let unseen = |r: &Request| {
            [r.x, r.w, r.y]
                .iter()
                .any(|id| !self.buf_meta.contains_key(id))
        };
        if self.dev.is_none() && reqs.iter().any(unseen) {
            self.synchronize();
        }
        let len = |id: BufferId| match &self.dev {
            Some(dev) => dev.memory().len(id),
            None => self.buf_meta[&id],
        };
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
            r.spec.check_shape()?;
        }
        if !parallel {
            return Ok(());
        }
        // The aliasing rules are one `PlanVerifier` code path shared by the
        // sync and async entry points; only the message text —
        // pinned by the API tests — is rendered here.
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

    /// The resilient engine over `reqs`, bound to this session's recovery
    /// counters and retry policy: the one body the synchronous entry
    /// points run in place and the submitting ones ship to the dispatch
    /// thread.
    fn engine(
        &self,
        reqs: &[Request],
    ) -> impl FnOnce(&mut ExecCtx<'_>) -> Result<Vec<PipelineRun>, TfnoError> + Send + 'static {
        let recovery = Arc::clone(&self.recovery);
        let policy = self.retry;
        let reqs = reqs.to_vec();
        move |ctx| run_queue_resilient(ctx, &recovery, policy, reqs)
    }

    /// The synchronous request path: admit, then run the engine on the
    /// resident state.
    fn try_run_requests(
        &mut self,
        reqs: &[Request],
        parallel: bool,
    ) -> Result<Vec<PipelineRun>, TfnoError> {
        self.synchronize();
        self.try_admit(reqs, parallel)?;
        let engine = self.engine(reqs);
        engine(&mut self.ctx())
    }

    /// The submitting request path: admit here, run on the dispatch thread.
    fn try_submit_requests(
        &mut self,
        reqs: &[Request],
        parallel: bool,
    ) -> Result<LaunchHandle, TfnoError> {
        self.try_admit(reqs, parallel)?;
        let engine = self.engine(reqs);
        Ok(self.dispatch(Box::new(engine)))
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
        let mut runs = self.try_run_requests(&[Request { spec: *spec, x, w, y }], false)?;
        // INVARIANT: the engine returns one PipelineRun per request.
        Ok(runs.pop().expect("one run per request"))
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

    /// Issue [`Session::run`] asynchronously: the launch sequence executes
    /// on the session's dispatch thread while this call returns
    /// immediately. Redeem the handle with [`Session::wait`] for the
    /// [`PipelineRun`]; the output buffer holds its result from that point
    /// on, bitwise equal to the synchronous call. Admission (lengths,
    /// shape; in-place `y == x` allowed) still happens here, synchronously.
    ///
    /// Up to [`Session::pipeline_depth`] submits ride the in-order queue
    /// concurrently; past that, this call waits for the oldest job before
    /// enqueueing. Interleaving host work *between* submits and their
    /// waits is the profitable pattern.
    ///
    /// # Panics
    /// With the [`TfnoError`] text wherever [`Session::try_submit`]
    /// returns `Err`.
    pub fn submit(&mut self, spec: &LayerSpec, x: BufferId, w: BufferId, y: BufferId) -> LaunchHandle {
        self.try_submit(spec, x, w, y)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Typed twin of [`Session::submit`]: validation failures come back as
    /// [`TfnoError::Validation`] instead of panics. The dispatched body is
    /// the same resilient engine as [`Session::try_run`]; its outcome
    /// (typed error or panic payload) parks under the returned handle.
    pub fn try_submit(
        &mut self,
        spec: &LayerSpec,
        x: BufferId,
        w: BufferId,
        y: BufferId,
    ) -> Result<LaunchHandle, TfnoError> {
        self.try_submit_requests(&[Request { spec: *spec, x, w, y }], false)
    }

    /// Issue [`Session::run_many`] asynchronously (same coalescing, same
    /// aliasing contract — admitted here, synchronously). Redeem with
    /// [`Session::wait_many`].
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

    /// Enqueue `work` on the persistent dispatch thread, moving the device
    /// and pool there first if they are still resident. Applies the
    /// pipeline-depth backpressure and hands back the job's ticket.
    fn dispatch(&mut self, work: DispatchWork) -> LaunchHandle {
        self.ensure_dispatcher();
        if let (Some(dev), Some(pool)) = (self.dev.take(), self.pool.take()) {
            let d = self.dispatcher.as_ref().expect("dispatcher just ensured");
            d.jobs
                .send(Job::Install(Box::new((dev, pool))))
                .expect("dispatch thread alive");
        }
        while self.inflight.len() >= self.depth {
            self.collect_one();
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let d = self.dispatcher.as_ref().expect("dispatcher just ensured");
        d.jobs
            .send(Job::Work { seq, work })
            .expect("dispatch thread alive");
        self.inflight.push_back(seq);
        self.stats.jobs_dispatched += 1;
        self.stats.max_in_flight = self.stats.max_in_flight.max(self.inflight.len() as u64);
        LaunchHandle {
            session: self.id,
            seq,
            abandoned: Some(Arc::clone(&self.abandoned)),
        }
    }

    /// Redeem a [`Session::submit`] handle: synchronize with the dispatch
    /// and return its [`PipelineRun`].
    ///
    /// # Panics
    /// With the [`TfnoError`] text wherever [`Session::try_wait`] returns
    /// `Err`; a panic from the dispatched work re-raises here. Also panics
    /// if the handle came from another session or from a multi-request
    /// [`Session::submit_many`] (use [`Session::wait_many`]).
    pub fn wait(&mut self, handle: LaunchHandle) -> PipelineRun {
        self.try_wait(handle).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Redeem a [`Session::submit_many`] handle: one [`PipelineRun`] per
    /// submitted request, in order, exactly as [`Session::run_many`] would
    /// have returned them.
    ///
    /// # Panics
    /// With the [`TfnoError`] text wherever [`Session::try_wait_many`]
    /// returns `Err`; a panic from the dispatched work re-raises here.
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

    /// Typed twin of [`Session::wait_many`]: a job that exhausted the
    /// retry/degradation ladder reports its [`TfnoError`] here instead of
    /// panicking; a job that *panicked* still re-raises its payload (a
    /// panic is a bug, not a recoverable condition).
    pub fn try_wait_many(&mut self, handle: LaunchHandle) -> Result<Vec<PipelineRun>, TfnoError> {
        let seq = self.redeem(handle);
        self.synchronize();
        self.take_outcome(seq)
    }

    /// Redeem a handle with a deadline. On success the parked runs come
    /// back exactly as [`Session::wait_many`] would return them. On
    /// timeout the handle is returned *re-armed* alongside
    /// [`TfnoError::Timeout`], so the caller can keep waiting; any other
    /// error consumes the handle (`None`).
    ///
    /// Unlike the blocking waits this does not drain the whole pipeline:
    /// it collects completions in dispatch order only until this handle's
    /// job lands, so the device and pool stay on the dispatch thread.
    pub fn wait_timeout(
        &mut self,
        handle: LaunchHandle,
        timeout: Duration,
    ) -> Result<Vec<PipelineRun>, (Option<LaunchHandle>, TfnoError)> {
        assert_eq!(
            handle.session, self.id,
            "LaunchHandle was issued by a different Session"
        );
        let start = Instant::now();
        while !self.completed.contains_key(&handle.seq) {
            let Some(d) = self.dispatcher.as_ref() else {
                // No dispatcher ⇒ nothing in flight ⇒ the handle was
                // already redeemed (impossible: redeeming consumes it) or
                // parked; fall through to the lookup panic below.
                break;
            };
            let waited = start.elapsed();
            let Some(remaining) = timeout.checked_sub(waited) else {
                return Err((Some(handle), TfnoError::Timeout { waited }));
            };
            match d.results.recv_timeout(remaining) {
                Ok((seq, result)) => {
                    let front = self.inflight.pop_front();
                    debug_assert_eq!(front, Some(seq), "results arrive in dispatch order");
                    self.park(seq, result);
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    return Err((Some(handle), TfnoError::Timeout { waited: start.elapsed() }));
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err((
                        None,
                        TfnoError::Poisoned("dispatch thread exited unexpectedly".into()),
                    ));
                }
            }
        }
        let seq = self.redeem(handle);
        self.take_outcome(seq).map_err(|e| (None, e))
    }

    /// Consume a handle without tripping its abandoned-drop hook and hand
    /// back its sequence number.
    fn redeem(&self, mut handle: LaunchHandle) -> u64 {
        assert_eq!(
            handle.session, self.id,
            "LaunchHandle was issued by a different Session"
        );
        handle.abandoned = None;
        handle.seq
    }

    /// Hand back a redeemed job's parked result. A panicked job re-raises
    /// its payload; a missing result means the handle was already waited
    /// on — a caller bug, not an engine error.
    fn take_outcome(&mut self, seq: u64) -> Result<Vec<PipelineRun>, TfnoError> {
        match self.completed.remove(&seq) {
            Some(Outcome::Done(runs)) => Ok(runs),
            Some(Outcome::Failed(e)) => Err(e),
            Some(Outcome::Panicked(payload)) => std::panic::resume_unwind(payload),
            None => panic!("no parked result for this LaunchHandle (already waited on?)"),
        }
    }

    /// Model one spec analytically on pooled virtual buffers (no values
    /// move; addresses and event counts only). The spec's `exec` mode is
    /// ignored — measurement is always [`ExecMode::Analytical`].
    ///
    /// # Panics
    /// With the [`TfnoError::Validation`] text when the spec fails the
    /// shape half of admission — an invalid shape, or an explicitly fused
    /// variant on a shape the fused kernels cannot be built for.
    pub fn measure(&mut self, spec: &LayerSpec) -> PipelineRun {
        if let Err(e) = spec.check_shape() {
            panic!("{e}");
        }
        self.synchronize();
        self.ctx().measure_spec(spec)
    }
}

impl<B: Backend> Drop for Session<B> {
    /// Never leak the dispatch thread: drop its job queue (the loop exits
    /// at the closed channel, finishing any in-flight work first) and join
    /// it, discarding parked results and swallowing — not re-raising — any
    /// panic payload, since panicking in drop would abort.
    fn drop(&mut self) {
        if let Some(d) = self.dispatcher.take() {
            let Dispatcher { jobs, join, .. } = d;
            drop(jobs);
            let _ = join.join();
        }
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

/// Deferred serving-queue output scatters: a small [`DeferredWindow`]
/// completes each stacked group's scatter a couple of groups behind issue,
/// so the next group's gather and pipeline overlap the previous group's
/// output redistribution (double-buffered staging on the device side).
///
/// Safe by the `run_many` admission contract: no request's `y` is any
/// request's operand, so nothing issued while a scatter is pending reads
/// its writes. (A single call skips that rule, but a lone request never
/// stacks, so it issues no scatter.) The scatter itself read its sources
/// at issue time (execute-at-issue semantics), so releasing or reusing the
/// stacked scratch behind it is fine.
struct ScatterWindow {
    queue: DeferredWindow,
    /// `out` index owning each pending scatter, oldest first (parallel to
    /// the queue's in-flight order).
    owners: VecDeque<usize>,
}

impl ScatterWindow {
    fn new() -> Self {
        ScatterWindow {
            queue: DeferredWindow::new(2),
            owners: VecDeque::new(),
        }
    }

    /// Returns how many pending scatters *completed* during the push, so
    /// the caller can retire their verifier windows in the same order.
    fn push(
        &mut self,
        dev: &mut dyn Backend,
        pending: PendingLaunch,
        owner: usize,
        out: &mut [PipelineRun],
    ) -> usize {
        self.owners.push_back(owner);
        let done = self.queue.push(dev, pending);
        self.hand_out(done, out)
    }

    /// Returns how many pending scatters completed (see `push`).
    fn flush(&mut self, dev: &mut dyn Backend, out: &mut [PipelineRun]) -> usize {
        let done = self.queue.flush(dev);
        self.hand_out(done, out)
    }

    /// Append each completed record, oldest first, to its owner's run.
    fn hand_out(&mut self, done: Vec<LaunchRecord>, out: &mut [PipelineRun]) -> usize {
        let completed = done.len();
        for rec in done {
            let o = self.owners.pop_front().expect("one owner per completion");
            out[o].push(rec);
        }
        completed
    }
}

/// The execution engine shared by the synchronous entry points and the
/// dispatch threads: everything here runs against an [`ExecCtx`], so the
/// submitted path is the *same code* as the synchronous one — the bitwise
/// equality guarantee of async dispatch is structural, not re-verified
/// per feature.
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
    /// still written). Each group's output scatter is completed through a
    /// small [`DeferredWindow`] so the next group's work overlaps it.
    pub(crate) fn try_run_queue(&mut self, reqs: &[Request]) -> Result<Vec<PipelineRun>, LaunchError> {
        let mut out: Vec<PipelineRun> = (0..reqs.len()).map(|_| PipelineRun::default()).collect();
        let mut claimed = vec![false; reqs.len()];
        let mut window = ScatterWindow::new();
        // A retried queue starts with a fresh ScatterWindow — the aborted
        // run's deferred launches were dropped unexecuted — so the
        // verifier's pending tracking must restart with it.
        if let Some(v) = &mut self.verify {
            v.clear_pending();
        }
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
                // On a fault mid-group the window's pending scatters are
                // simply dropped with the queue run: deferred launches
                // never executed, so the device is consistent and a retry
                // rewrites every output from scratch.
                self.try_run_stacked(reqs, &stack, concrete, &mut window, &mut out)?;
            }
            for j in rest {
                let r = &reqs[j];
                let run = self.try_run_spec(&r.spec, concrete, LayerBufs::shared(r.x, r.w, r.y))?;
                out[j].launches.extend(run.launches);
            }
        }
        let completed = window.flush(self.dev, &mut out);
        self.note_completions(completed);
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
    /// distinct ones. Launches land in `out[stack[0]]`; the scatter is
    /// issued deferred through `window` (completed up to two groups later,
    /// or synchronously on a backend without deferred launches).
    fn try_run_stacked(
        &mut self,
        reqs: &[Request],
        stack: &[usize],
        concrete: Variant,
        window: &mut ScatterWindow,
        out: &mut [PipelineRun],
    ) -> Result<(), LaunchError> {
        let mut leases = Vec::new();
        let r = self.stacked_body(reqs, stack, concrete, window, out, &mut leases);
        // The pending scatter read sy at issue; releasing the staging
        // scratch (or recycling it for the next group) cannot disturb it.
        // On the error path this returns the staging leases too.
        self.release(leases);
        r
    }

    fn stacked_body(
        &mut self,
        reqs: &[Request],
        stack: &[usize],
        concrete: Variant,
        window: &mut ScatterWindow,
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
        if !self.dev.caps().deferred_launch {
            // A backend without deferred completion (the eager native
            // backend) runs the scatter synchronously (bitwise-identical
            // either way).
            out[owner].push(self.try_step(scatter, ExecMode::Functional)?);
        } else {
            let pending = self.try_step_deferred(scatter, ExecMode::Functional)?;
            let completed = window.push(self.dev, pending, owner, out);
            self.note_completions(completed);
        }
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

/// The resilient engine behind every request entry point: `try_run`/
/// `try_run_many` run it in place, and the dispatch thread runs it for
/// `try_submit`/`try_submit_many` (a single call is a queue of one).
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
    recovery: &Mutex<RecoveryStats>,
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
                        lock_unpoisoned(recovery).transient_retries += 1;
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
            lock_unpoisoned(recovery).degraded += 1;
            continue;
        }
        lock_unpoisoned(recovery).exhausted += 1;
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
        assert_eq!(s.problem_1d().unwrap(), FnoProblem1d::new(2, 8, 16, 128, 32));
        assert!(s.problem_2d().is_none());

        let s2 = LayerSpec::d2(1, 4, 4, 32, 64).modes(32);
        let p2 = s2.problem_2d().unwrap();
        assert_eq!((p2.nfx, p2.nfy), (32, 32), "modes clamp to the axis");
        assert_eq!(
            LayerSpec::d2(1, 4, 4, 32, 64).modes_xy(8, 32).problem_2d().unwrap(),
            FnoProblem2d::new(1, 4, 4, 32, 64, 8, 32)
        );
    }

    /// Regression: the 1D arm of `modes` documented the clamp but did not
    /// apply it — `.modes(nf > n)` built an invalid `FnoProblem1d` that
    /// only failed later with an opaque downstream assert.
    #[test]
    fn modes_clamps_to_the_1d_axis() {
        let s = LayerSpec::d1(1, 2, 2, 64).modes(1000);
        assert_eq!(s.problem_1d().unwrap(), FnoProblem1d::new(1, 2, 2, 64, 64));
        // In-range requests are untouched.
        assert_eq!(LayerSpec::d1(1, 2, 2, 64).modes(16).problem_1d().unwrap().nf, 16);
    }

    /// Regression: `modes_xy` skipped the per-axis clamp `modes` applies,
    /// so the two builders disagreed on out-of-range inputs.
    #[test]
    fn modes_xy_clamps_like_modes() {
        let s = LayerSpec::d2(1, 2, 2, 32, 64).modes_xy(1000, 48);
        let p = s.problem_2d().unwrap();
        assert_eq!((p.nfx, p.nfy), (32, 48));
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
        assert_eq!(s.problem_1d().unwrap().nf, 64);
    }

    #[test]
    #[should_panic(expected = "modes_xy on a 1D")]
    fn modes_xy_rejects_1d() {
        let _ = LayerSpec::d1(1, 1, 1, 64).modes_xy(4, 4);
    }

    #[test]
    fn stacked_scales_only_batch() {
        let s = LayerSpec::d1(3, 8, 8, 128).modes(32).stacked(4);
        assert_eq!(s.problem_1d().unwrap(), FnoProblem1d::new(12, 8, 8, 128, 32));
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
        assert!(agsync.pending(), "dispatch must be in flight after submit");
        let run_async = agsync.wait(handle);
        assert!(!agsync.pending());
        assert_eq!(agsync.download(y2), want);
        assert_eq!(run_async.kernel_count(), run_sync.kernel_count());
        assert_eq!(run_async.total_stats(), run_sync.total_stats());
    }

    #[test]
    fn mut_session_methods_synchronize_with_the_dispatch() {
        let mut sess = Session::new(SimBackend::a100());
        let (spec, x, w, y) = spec_with_operands(&mut sess);
        let handle = sess.submit(&spec, x, w, y);
        // `run` is a &mut method: it must serialize behind the dispatch,
        // not observe or corrupt mid-flight state.
        let y2 = sess.alloc("y2", spec.output_len());
        assert!(!sess.pending(), "alloc synchronized with the dispatch");
        sess.run(&spec, x, w, y2);
        assert_eq!(sess.download(y2), sess.download(y));
        // The handle's result was parked across the interleaved run.
        let run = sess.wait(handle);
        assert!(run.kernel_count() > 0);
    }

    #[test]
    #[should_panic(expected = "in-flight submitted work")]
    fn download_during_flight_panics() {
        let mut sess = Session::new(SimBackend::a100());
        let (spec, x, w, y) = spec_with_operands(&mut sess);
        let _handle = sess.submit(&spec, x, w, y);
        let _ = sess.download(y);
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

    /// Shape panics surface on the submitting thread, exactly like the
    /// synchronous path — not deferred into the dispatch.
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
        // A job that leaks a lease and panics (only constructible from
        // inside the crate — the public surface never panics mid-lease
        // without the lease hygiene the pipelines provide).
        let bad = sess.dispatch(Box::new(|ctx| {
            let _leak = ctx
                .pool
                .try_acquire(ctx.dev, 64)
                .expect("unfaulted acquire");
            panic!("chaos: job panic")
        }));
        let good = sess.submit(&spec, x, w, y);

        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = sess.try_wait(bad);
        }));
        assert!(err.is_err(), "the panicked job re-raises at its wait");

        // The later submit is unaffected and the leaked lease came back.
        let run = sess.wait(good);
        assert!(run.kernel_count() > 0);
        let stats = sess.recovery_stats();
        assert_eq!(stats.jobs_healed, 1);
        assert_eq!(stats.leases_recovered, 1);
        assert_eq!(sess.pool_stats().leased, 0);
        sess.run(&spec, x, w, y); // still serviceable
    }

    /// Satellite: dropping a handle without waiting must not strand its
    /// parked result or leak state — the next synchronize discards it.
    #[test]
    fn abandoned_handle_is_discarded_at_next_synchronize() {
        let mut sess = Session::new(SimBackend::a100());
        let (spec, x, w, y) = spec_with_operands(&mut sess);
        let handle = sess.submit(&spec, x, w, y);
        drop(handle);
        sess.synchronize();
        let stats = sess.recovery_stats();
        assert_eq!(stats.abandoned_handles, 1);
        assert_eq!(sess.pool_stats().leased, 0);
        // The output was still written (dispatch ran to completion).
        let mut reference = Session::new(SimBackend::a100());
        let (spec2, x2, w2, y2) = spec_with_operands(&mut reference);
        reference.run(&spec2, x2, w2, y2);
        assert_eq!(sess.download(y), reference.download(y2));
        sess.run(&spec, x, w, y); // still serviceable
    }

    /// A panicked job whose handle was dropped surfaces at the next
    /// synchronizing call instead of disappearing.
    #[test]
    #[should_panic(expected = "chaos: abandoned panic")]
    fn abandoned_panicked_job_reraises_at_synchronize() {
        let mut sess = Session::new(SimBackend::a100());
        let handle = sess.dispatch(Box::new(|_ctx| panic!("chaos: abandoned panic")));
        drop(handle);
        sess.synchronize();
    }

    #[test]
    fn try_inspectors_report_in_flight() {
        let mut sess = Session::new(SimBackend::a100());
        let (spec, x, w, y) = spec_with_operands(&mut sess);
        let handle = sess.submit(&spec, x, w, y);
        assert!(matches!(sess.try_download(y), Err(TfnoError::InFlight)));
        assert!(matches!(sess.try_device(), Err(TfnoError::InFlight)));
        assert!(matches!(sess.try_pool_stats(), Err(TfnoError::InFlight)));
        let _ = sess.wait(handle);
        assert!(sess.try_download(y).is_ok());
        assert!(sess.try_device().is_ok());
        assert_eq!(sess.try_pool_stats().expect("synchronized").leased, 0);
    }

    #[test]
    fn wait_timeout_rearms_the_handle_on_deadline() {
        let mut sess = Session::new(SimBackend::a100());
        let (spec, x, w, y) = spec_with_operands(&mut sess);
        // Stall the first launch long enough for a short deadline to trip.
        sess.set_fault_plan(Some(
            FaultPlan::seeded(17)
                .at_launch(0, crate::backend::FaultKind::Stall)
                .stall_us(200_000),
        ));
        let handle = sess.submit(&spec, x, w, y);
        let handle = match sess.wait_timeout(handle, Duration::from_millis(5)) {
            Err((Some(h), TfnoError::Timeout { waited })) => {
                assert!(waited >= Duration::from_millis(5));
                h
            }
            other => panic!("expected a re-armed timeout, got {other:?}"),
        };
        // The re-armed handle stays redeemable.
        let runs = sess
            .wait_timeout(handle, Duration::from_secs(30))
            .expect("stall finishes well inside the second deadline");
        assert_eq!(runs.len(), 1);
        // wait_timeout leaves the device on the dispatch thread (it never
        // drains); synchronize before inspecting it.
        sess.synchronize();
        assert_eq!(sess.fault_stats().stalls, 1);
    }

    #[test]
    fn typed_submit_waits_report_dispatch_failures() {
        let mut sess = Session::new(SimBackend::a100());
        let (spec, x, w, y) = spec_with_operands(&mut sess);
        sess.set_retry_policy(RetryPolicy::none());
        sess.set_fault_plan(Some(FaultPlan::seeded(23).transient(1.0)));
        let handle = sess.try_submit(&spec, x, w, y).expect("admission is clean");
        let err = sess.try_wait(handle).unwrap_err();
        assert!(err.is_transient(), "dispatched fault surfaces typed: {err}");
        // Session heals: lift the plan, run clean.
        sess.set_fault_plan(None);
        sess.run(&spec, x, w, y);
        assert_eq!(sess.pool_stats().leased, 0);
    }
}
